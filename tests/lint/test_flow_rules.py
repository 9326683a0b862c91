"""Golden tests for the flow pass: seeded CON0xx races and clean twins."""

import json
import os

import pytest

import repro
from repro.lint.cli import main
from repro.lint.flow import lint_concurrency_paths, lint_concurrency_sources
from repro.lint.formats import render_text

FLOW_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "flow")

SEEDED = sorted(
    name for name in os.listdir(FLOW_FIXTURES)
    if name.endswith(".py") and not name.endswith("_clean.py")
)
CLEAN = sorted(
    name for name in os.listdir(FLOW_FIXTURES) if name.endswith("_clean.py")
)


def _lint_fixture(name):
    with open(os.path.join(FLOW_FIXTURES, name), "r",
              encoding="utf-8") as handle:
        source = handle.read()
    # Lint under the basename so the goldens are path-independent.
    return lint_concurrency_sources([(name, source)])


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_fixture_matches_golden(name):
    diagnostics = _lint_fixture(name)
    with open(os.path.join(FLOW_FIXTURES, name + ".expected"), "r",
              encoding="utf-8") as handle:
        expected = handle.read()
    assert render_text(diagnostics) == expected


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_fixture_triggers_its_own_code(name):
    code = name.split(".")[0].split("_")[0]
    diagnostics = _lint_fixture(name)
    assert code in {d.code for d in diagnostics}


@pytest.mark.parametrize("name", CLEAN)
def test_clean_twin_has_zero_findings(name):
    """The false-positive gate: every clean twin must lint empty."""
    assert _lint_fixture(name) == []


def test_flow_pass_is_deterministic():
    """Two runs over the same tree render byte-identical output."""
    first = render_text(lint_concurrency_paths([FLOW_FIXTURES]))
    second = render_text(lint_concurrency_paths([FLOW_FIXTURES]))
    assert first == second
    assert "CON001" in first and "CON005" in first


def test_repo_source_lints_clean():
    """Acceptance: the repo's own runtime passes its own analyzer."""
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    assert lint_concurrency_paths([package_dir]) == []


# -- CLI composition ---------------------------------------------------------


def _json_diagnostics(capsys, argv):
    main(argv)
    return json.loads(capsys.readouterr().out)["diagnostics"]


def test_arch_and_concurrency_compose(capsys):
    """One --arch --concurrency invocation reports exactly the union of
    the two passes run separately."""
    combined = _json_diagnostics(
        capsys, ["--arch", "--concurrency", "--format", "json", FLOW_FIXTURES]
    )
    arch_only = _json_diagnostics(capsys, ["--arch", "--format", "json"])
    flow_only = _json_diagnostics(
        capsys, ["--concurrency", "--format", "json", FLOW_FIXTURES]
    )
    key = lambda d: (d["file"], d["line"], d["column"], d["code"])
    assert sorted(combined, key=key) == sorted(arch_only + flow_only, key=key)


def test_cli_concurrency_exits_nonzero_on_seeded_errors(capsys):
    assert main(["--concurrency", FLOW_FIXTURES]) == 1
    out = capsys.readouterr().out
    assert "CON001" in out and "CON003" in out

