"""The ORB runtime's size is a tracked number that may only go down.

The paper's proof that a protocol is a seam was a 700-line Tcl ORB;
this pins our side of that claim.  Code lines only (comments and blank
lines are not counted, so deleting comments does not help).
"""

import os

import pytest

import repro
from repro.footprint import count_package_lines, subset_report

#: ``model`` + ``heidirmi`` + ``wire`` + ``giop`` code lines.  PR 17 moved
#: the shared data model out of ``heidirmi`` (and ``GiopProtocol`` out
#: of ``giop``) without deleting it, so the sum was widened to the four
#: packages the code moves between: the same code was 5695 at PR 16
#: (heidirmi 3310 + wire 1636 + giop 722 + ``resilience/deadline.py``
#: 27; ``heidirmi`` + ``wire`` alone was 4946).  PR 18 deleted the
#: blocking-over-asyncio transport facade, the text protocols' dead
#: per-channel-machine branch and the zero-caller names: 5693 → 5457
#: (heidirmi 2939 → 2886, wire 1850 → 1667).  PR 19 put the GIOP header
#: bytes behind one struct-based codec in ``giop/messages.py``: 5457 →
#: 5437 (giop 557 → 591 for the codec; wire 1667 → 1624 and heidirmi
#: 2886 → 2875 for the field chains and twin validation blocks it
#: replaced).  PR 20 made ``CdrEncoder``/``CdrDecoder`` the CDR
#: marshaller pair and deleted ``giop/cdrmarshal.py``: 5437 → 5394
#: (giop 591 → 563, wire 1624 → 1616, model 347 → 343; heidirmi 2875
#: → 2872 with the one rule for a communicator whose call failed).
RUNTIME_PACKAGES = ("model", "heidirmi", "wire", "giop")
RUNTIME_CODE_CEILING = 5394
#: The text-only blocking client: stub, connection cache, text pump
#: and tcp/inproc transports (the paper's 700-line Tcl ORB is the
#: yardstick, C1/C5).
TEXT_CLIENT_ROOTS = [
    "repro.heidirmi.stub", "repro.heidirmi.connection",
    "repro.heidirmi.protocol", "repro.heidirmi.transport",
]

ADVICE = (
    "If you removed code, lower the ceiling in tests/footprint/"
    "test_budget.py to the new value; if the growth is deliberate, raise "
    "it and say why in CHANGES.md."
)


def _code_lines(package):
    root = os.path.join(os.path.dirname(repro.__file__), package)
    return count_package_lines(root)[0].code


def test_runtime_code_lines_do_not_grow():
    lines = {package: _code_lines(package) for package in RUNTIME_PACKAGES}
    assert sum(lines.values()) <= RUNTIME_CODE_CEILING, (
        f"{lines} is {sum(lines.values())} code lines, over the ceiling "
        f"of {RUNTIME_CODE_CEILING}.  {ADVICE}"
    )


# Code lines in the static import closure of each root.  Before PR 17
# put ``repro.model`` under them, the ORB, each wire machine and the
# text client all closed over the same 5201 lines; the compiler's
# closure (everything ``repro-idlc`` loads to parse, lint and generate)
# was already 3291.  PR 18: orb 4975 → 4935, text client 2638 → 2598
# (the compiler's closure measures 3271 after the same sweep).  PR 19:
# the GIOP machine's closure is 1582 → 1573 with the header codec in
# it — what the codec added, the chains it replaced more than paid for.
# PR 20: orb 4935 → 4932, the GIOP machine 1573 → 1529 (the forwarding
# classes between a stub and its bytes are gone); the text closures
# stay at their ceilings (the encode-error checks cost what the dead
# mixin constructors in ``model/call.py`` gave back).  The ids are
# fixed names so that lowering a ceiling does not rename the test.
@pytest.mark.parametrize("roots, ceiling", (
    pytest.param("repro.heidirmi.orb", 4932, id="repro.heidirmi.orb"),
    pytest.param("repro.compiler.cli", 3291, id="repro.compiler.cli"),
    pytest.param("repro.wire.text", 1316, id="repro.wire.text"),
    pytest.param("repro.wire.giop", 1529, id="repro.wire.giop"),
    pytest.param(TEXT_CLIENT_ROOTS, 2598, id="text-client"),
))
def test_import_closure_does_not_grow(roots, ceiling):
    total = subset_report(roots)["<total>"]
    assert total <= ceiling, (
        f"everything {roots} imports is {total} code lines, over the "
        f"ceiling of {ceiling}.  {ADVICE}"
    )
