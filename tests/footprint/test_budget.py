"""The ORB runtime's size is a tracked number that may only go down.

The paper's proof that a protocol is a seam was a 700-line Tcl ORB;
this pins our side of that claim.  Code lines only (comments and blank
lines are not counted, so deleting comments does not help).
"""

import os

import pytest

import repro
from repro.footprint import count_package_lines, subset_report

#: ``heidirmi`` + ``wire`` code lines after PR 16 folded the client
#: half of the communicator and the asyncio client's bookkeeping into
#: one client session (5061 after PR 15, 5063 after PR 12).
RUNTIME_CODE_CEILING = 4946
#: Code lines in the static import closure of ``repro.heidirmi.orb``
#: after PR 16 (5245 after PR 15, 5246 after PR 12).
ORB_CLOSURE_CEILING = 5201
#: Code lines in the static import closure of ``repro.compiler.cli``
#: after PR 16 moved the IDL016 containment check from the lint rules
#: into ``analyze`` (3296 after PR 15): everything ``repro-idlc`` loads
#: to parse, lint and generate.
IDLC_CLOSURE_CEILING = 3291

ADVICE = (
    "If you removed code, lower the ceiling in tests/footprint/"
    "test_budget.py to the new value; if the growth is deliberate, raise "
    "it and say why in CHANGES.md."
)


def _code_lines(package):
    root = os.path.join(os.path.dirname(repro.__file__), package)
    return count_package_lines(root)[0].code


def test_runtime_code_lines_do_not_grow():
    heidirmi, wire = _code_lines("heidirmi"), _code_lines("wire")
    assert heidirmi + wire <= RUNTIME_CODE_CEILING, (
        f"heidirmi ({heidirmi}) + wire ({wire}) = {heidirmi + wire} code "
        f"lines, over the ceiling of {RUNTIME_CODE_CEILING}.  {ADVICE}"
    )


@pytest.mark.parametrize("root, ceiling", (
    ("repro.heidirmi.orb", ORB_CLOSURE_CEILING),
    ("repro.compiler.cli", IDLC_CLOSURE_CEILING),
))
def test_import_closure_does_not_grow(root, ceiling):
    total = subset_report([root])["<total>"]
    assert total <= ceiling, (
        f"everything {root} imports is {total} code lines, over the "
        f"ceiling of {ceiling}.  {ADVICE}"
    )
