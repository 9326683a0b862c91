"""The pipelining claim, as a test.

Sharing one multiplexed, pipelined connection among 16 concurrent
callers must beat the paper-era exclusive-checkout pattern by at least
2x on the in-process transport.  Runs the same matrix as
``run_bench.py`` and leaves the measurement document under
``benchmarks/out/``; the tracked ``BENCH_rpc.json`` at the repo root is
the baseline CI's ``--compare`` gate reads, and only a deliberate
``run_bench.py --out BENCH_rpc.json`` re-records it.

Run explicitly (not part of the fast tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/test_claim_pipelining.py -v
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from rpc_bench import run_matrix, write_document  # noqa: E402

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir)
)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _tracked_baseline():
    with open(os.path.join(REPO_ROOT, "BENCH_rpc.json"), "rb") as handle:
        return handle.read()


def test_multiplexed_pipeline_beats_exclusive_2x():
    baseline = _tracked_baseline()
    document = run_matrix(
        transport="inproc",
        client_counts=(1, 16),
        calls_per_client=200,
        window=64,
        pipeline_workers=0,
        trials=3,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    write_document(document, os.path.join(OUT_DIR, "BENCH_rpc.json"))
    assert _tracked_baseline() == baseline

    claim = document["claim"]
    assert claim["clients"] == 16
    assert claim["multiplexed_text2_calls_per_sec"] is not None
    assert claim["exclusive_text_calls_per_sec"] is not None
    assert claim["speedup"] >= 2.0, (
        f"multiplexed text2 at 16 clients is only {claim['speedup']}x "
        f"exclusive text ({claim['multiplexed_text2_calls_per_sec']} vs "
        f"{claim['exclusive_text_calls_per_sec']} calls/s)"
    )

    # Every configuration must have produced a sane, verified rate.
    for result in document["results"]:
        assert result["calls_per_sec"] > 0
        assert result["calls"] == result["clients"] * 200
