"""Smoke tests of the benchmark itself.

Not part of tier-1 (``testpaths = ["tests"]``); run them with
``python -m pytest perf/tests``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from perf import compilebench, payloads, run  # run puts src/ on sys.path
from perf.server import load_bench_module

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join("perf", "run.py")]


def _last_line(text):
    return text.strip().splitlines()[-1]


def test_check_mode_passes_on_every_workload():
    done = subprocess.run(RUN + ["--check"], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    runs = json.loads(_last_line(done.stdout))["runs"]
    assert len(runs) == 14  # seven workloads x (end to end, traced)
    assert all(run["correct"] and run["failed"] == 0 for run in runs)


def test_driver_form_prints_one_result_object():
    done = subprocess.run(
        RUN + ["--workload", "pipe_text2", "--seed", "7", "--seconds", "1",
               "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(_last_line(done.stdout))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        recorded = json.load(f)
    assert sorted(result["metrics"]) == sorted(
        metric["name"] for metric in recorded["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.fixture
def in_process():
    """Undo what ``run.main`` does to this process: pinning, SIGTERM."""
    affinity = os.sched_getaffinity(0)
    handler = signal.getsignal(signal.SIGTERM)
    yield
    os.sched_setaffinity(0, affinity)
    signal.signal(signal.SIGTERM, handler)


def test_wrong_expected_value_fails_check(in_process, monkeypatch, capsys):
    monkeypatch.setattr(
        payloads, "expected_scale",
        lambda values, k: [value * k + 1 for value in values])
    status = run.main(["--check", "--workload", "bulk_text", "--trace", "0"])
    printed = capsys.readouterr().out
    assert status == 1
    assert "scale: wrong result" in printed
    assert json.loads(_last_line(printed))["correct"] is False


def test_same_seed_gives_the_same_inputs():
    sample = load_bench_module()["Bench_Sample"]
    for kind in ("ping", "bulk", "sized"):
        assert (payloads.build(kind, 5, sample)
                == payloads.build(kind, 5, sample))
        assert (payloads.build(kind, 5, sample)
                != payloads.build(kind, 6, sample))
    assert compilebench.corpus(5) == compilebench.corpus(5)
    assert compilebench.corpus(5) != compilebench.corpus(6)
    sizes = {seed: [len(source) for _, source in compilebench.corpus(seed)]
             for seed in (5, 6)}
    assert sizes[5] == sizes[6]


def test_bare_directory_fails_without_a_result(tmp_path):
    """With nothing to measure the command must fail, not report."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        RUN + ["--workload", "ping_text", "--seed", "1", "--seconds", "1",
               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
