"""The template analyzer's EST vocabulary matches what the builder builds.

``repro.lint.vartable`` is a hand copy of which props and lists
``repro.est.builder`` puts on each node kind.  Every node of every IDL
source the repo carries that builds is checked against ``KIND_TABLE``,
so a builder change that adds, renames or drops a prop fails here
instead of silently misleading the template analyzer.
"""

import glob
import os

import pytest

from repro.est import build_est
from repro.idl import IdlError, parse
from repro.lint.vartable import KIND_TABLE
from tests.conftest import PAPER_IDL, TYPEDEF_IDL

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE_GLOBS = (
    "tests/mappings/coverage.idl", "perf/*.idl", "perf/corpus/*.idl",
    "examples/*.idl", "tests/lint/fixtures/**/*.idl",
)


def _sources():
    yield "PAPER_IDL", PAPER_IDL
    yield "TYPEDEF_IDL", TYPEDEF_IDL
    for pattern in SOURCE_GLOBS:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern),
                                     recursive=True)):
            with open(path, encoding="utf-8") as handle:
                yield os.path.relpath(path, ROOT), handle.read()


def _built_sources():
    """``(name, spec)`` for every source that parses and analyzes; the
    lint fixtures that seed a semantic error do not."""
    built = []
    for name, source in _sources():
        try:
            built.append((name, parse(source, filename=name)))
        except IdlError:
            continue
    return built


BUILT = _built_sources()


def test_every_kind_of_source_is_checked():
    names = {name for name, _spec in BUILT}
    assert {"PAPER_IDL", "TYPEDEF_IDL", "tests/mappings/coverage.idl",
            "perf/bench.idl", "examples/orbmonitor.idl"} <= names


def _drift(node):
    """Every way *node* disagrees with its kind's ``KIND_TABLE`` row."""
    info = KIND_TABLE.get(node.kind)
    if info is None:
        return [f"kind {node.kind} is not in KIND_TABLE"]
    problems = []
    declared = info.all_vars | info.all_plain_lists
    for prop in sorted(set(node.props) - declared):
        problems.append(f"undeclared prop {prop!r}")
    for prop in sorted((info.required | info.plain_lists) - set(node.props)):
        problems.append(f"required {prop!r} missing")
    for key, children in sorted(node.groups.items()):
        kinds = info.node_lists.get(key)
        if kinds is None:
            problems.append(f"undeclared list {key!r}")
            continue
        for child in children:
            if child.kind not in kinds:
                problems.append(f"{key!r} holds a {child.kind}")
    return [f"{node.kind} {node.name!r}: {problem}" for problem in problems]


def _tree_drift(root):
    return [problem for node in root.walk() for problem in _drift(node)]


@pytest.mark.parametrize("name, spec", BUILT, ids=[name for name, _ in BUILT])
def test_every_node_matches_its_kind_table_row(name, spec):
    assert not _tree_drift(build_est(spec))


def test_forward_nodes_match_their_kind_table_row():
    """``include_forwards=True`` adds a Forward node per forward
    declaration that is never defined; the default build has none."""
    roots = [build_est(spec, include_forwards=True) for _name, spec in BUILT]
    assert [node for root in roots for node in root.walk()
            if node.kind == "Forward"]
    assert not [problem for root in roots for problem in _tree_drift(root)]
