"""Every pack's generated bytes, pinned.

A golden of what each mapping pack makes of a fixed set of IDL sources:
the five packs with their main template, plus ``python_rmi``'s
``client_only.tmpl`` and ``impl_scaffold.tmpl``.  Each entry, keyed
``(pack, template, source)``, stores a sha256 digest per generated
file, in the shape of ``tests/compiler/test_front_end.py``'s
``snapshot_run``; a source the pack refuses records the exception type.
``coverage.idl`` holds every construct ``python_rmi`` emits, and the
seed-1 ``wide.idl`` / ``deep.idl`` of ``perf/compilebench.py`` are most
of the ``idl_compile`` workload's time, so a
change to a pack or to ``repro.templates`` that means to keep the
output cannot move a byte unnoticed.

Re-record (only when a change means to alter output) from the repo
root: ``PYTHONPATH=src:. python tests/mappings/test_pack_output.py``.
"""

import glob
import hashlib
import json
import os
import random

import pytest

from perf.compilebench import deep_idl, wide_idl
from repro.idl import parse
from repro.mappings.registry import all_packs, get_pack
from tests.conftest import PAPER_IDL, TYPEDEF_IDL
from tests.integration.test_unions import IDL as UNIONS_IDL

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "pack_output_golden.json")
EXTRA_TEMPLATES = (("python_rmi", "client_only.tmpl"),
                   ("python_rmi", "impl_scaffold.tmpl"))


def sources():
    """{label: (filename, IDL text)}; files are keyed by repo path."""
    found = {
        "PAPER_IDL": ("A.idl", PAPER_IDL),
        "TYPEDEF_IDL": ("typedefs.idl", TYPEDEF_IDL),
        "test_unions.IDL": ("V.idl", UNIONS_IDL),
    }
    paths = ["perf/bench.idl", "tests/mappings/coverage.idl"]
    for pattern in ("perf/corpus/*.idl", "examples/*.idl"):
        paths += sorted(os.path.relpath(path, ROOT)
                        for path in glob.glob(os.path.join(ROOT, pattern)))
    for path in paths:
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            found[path] = (path, handle.read())
    # The two generated files of the idl_compile workload, drawn as
    # perf.compilebench.corpus(1) draws them and named as it names them.
    rng = random.Random(1)
    found["perf-seed1/wide.idl"] = ("wide.idl", wide_idl(rng))
    found["perf-seed1/deep.idl"] = ("deep.idl", deep_idl(rng))
    return found


def targets():
    """(pack, template) pairs: every pack's main template, plus extras."""
    pairs = [(pack, get_pack(pack).main_template) for pack in all_packs()]
    return pairs + list(EXTRA_TEMPLATES)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def snapshot_generate(pack, template, filename, text):
    """What *pack* makes of one source through *template*."""
    try:
        sink = get_pack(pack).generate(parse(text, filename=filename),
                                       template_name=template)
    except Exception as exc:  # the type of a refusal is what is pinned
        return {"raises": type(exc).__name__}
    return {"files": {name: _digest(body)
                      for name, body in sink.files().items()}}


def snapshot():
    entries = {}
    for pack, template in targets():
        for label, (filename, text) in sources().items():
            key = f"{pack} {template} {label}"
            entries[key] = snapshot_generate(pack, template, filename, text)
    return entries


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_pack_template_and_source(golden):
    expected = {f"{pack} {template} {label}"
                for pack, template in targets() for label in sources()}
    assert set(golden) == expected


@pytest.mark.parametrize("pack, template", targets())
def test_generated_bytes_match_the_golden(golden, pack, template):
    differing = []
    for label, (filename, text) in sources().items():
        key = f"{pack} {template} {label}"
        current = snapshot_generate(pack, template, filename, text)
        if current != golden.get(key):
            differing.append(f"{key}: {current} != {golden.get(key)}")
    assert not differing, "\n".join(differing)


if __name__ == "__main__":
    os.chdir(ROOT)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(snapshot(), handle, indent=1, sort_keys=True)
        handle.write("\n")
