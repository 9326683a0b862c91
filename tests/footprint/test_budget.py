"""The ORB runtime's size is a tracked number that may only go down.

The paper's proof that a protocol is a seam was a 700-line Tcl ORB;
this pins our side of that claim.  Code lines only (comments and blank
lines are not counted, so deleting comments does not help).
"""

import os

import repro
from repro.footprint import count_package_lines, subset_report

#: ``heidirmi`` + ``wire`` code lines after PR 12 (5230 before it).
RUNTIME_CODE_CEILING = 5063
#: Code lines in the static import closure of ``repro.heidirmi.orb``
#: after PR 12 (5326 before it).
ORB_CLOSURE_CEILING = 5246

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


def test_orb_import_closure_does_not_grow():
    total = subset_report(["repro.heidirmi.orb"])["<total>"]
    assert total <= ORB_CLOSURE_CEILING, (
        f"everything repro.heidirmi.orb imports is {total} code lines, "
        f"over the ceiling of {ORB_CLOSURE_CEILING}.  {ADVICE}"
    )
