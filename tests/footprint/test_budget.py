"""The ORB runtime's size is a tracked number that may only go down.

The paper's proof that a protocol is a seam was a 700-line Tcl ORB;
this pins our side of that claim.  Code lines only (comments and blank
lines are not counted, so deleting comments does not help).
"""

import os

import pytest

import repro
from repro.footprint import count_package_lines, subset_report
from repro.footprint.loc import count_file_lines

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
#: Giving every communicator its connection's wire machine, and
#: deleting the protocols' send/recv family behind it: 5394 → 5223
#: (heidirmi 2872 → 2733, wire 1616 → 1584).  One dispatch path per
#: server connection and one send path per oneway — the server's
#: read-ahead pool and the client's oneway batch buffer deleted with
#: the two Orb options that selected them: 5223 → 5114 (heidirmi 2733 →
#: 2624).  Marshal runs — a sequence of one numeric primitive put and
#: got in one call, one ``struct`` pack on CDR and one join on text, in
#: place of a delegated put per element — raised it on purpose, for the
#: bulk rows' CPU: 5114 → 5173 (model 343 → 354, wire 1584 → 1599, giop
#: 563 → 596; the text numeric puts and gets became factories over one
#: range table, which paid for most of the text side).  The DII reading
#: types through ``repro.est.view`` in place of its own copy of the
#: view and the category → ``Call`` method table: 5173 → 5137
#: (heidirmi 2624 → 2588).
RUNTIME_PACKAGES = ("model", "heidirmi", "wire", "giop")
RUNTIME_CODE_CEILING = 5137
#: ``repro.mappings`` code lines, ``.py`` and ``.tmpl`` together (template
#: ``@#`` / ``@//`` comments are not code), so that moving generator
#: code from Python into templates cannot pass as a deletion: the five
#: packs and the ``base.py`` they share.  Moving the one alias-aware
#: ``TypeView``, the category → IDL
#: spelling table, the ``::`` flattener and the runtime-asset loader
#: into ``base.py``, in place of each pack's hand-copied type walk,
#: category table, loader and flattener: 1394 → 1303.  Moving
#: ``TypeView`` and its tables down into ``repro.est.view``, where the
#: DII reads types through them too, with ``python_rmi``'s copy of the
#: category → ``Call`` method table and one dead map name deleted:
#: 1303 → 1246.  Counting the templates too: 1246 + 778 = 2024.
#: ``python_rmi`` as a template plus a table — its class bodies moved
#: from ten line-building maps into its templates, one statement table
#: in place of the put/get code, and ``client_only.tmpl`` including the
#: shared module instead of copying it: 2024 → 1865 (python_rmi 751 →
#: 592, of which 186 Python).  Strict template mode gone
#: (``MappingPack.generate`` forwards no ``strict``): 1865 → 1863.
MAPPINGS_CODE_CEILING = 1863
#: ``repro.lint`` code lines: the IDL, template, mapping, architecture
#: and concurrency passes, the CLI and the renderers.  The concurrency
#: pass kept only the rules a mutation study showed catch a defect
#: tier-1 misses; the baseline workflow, the warning-only checks
#: (CON004, CON001's timeout-less acquire), the ``blocking-ok`` waiver
#: and the thread spawn/join model went: 2922 → 2686.  Templates
#: resolve one way: the analyzer's strict-safety proof (the guaranteed-
#: variable fixpoint, the ``@set`` order tracking, ``pack_strict_safe``
#: and its second analysis of each pack) went: 2686 → 2600.
LINT_CODE_CEILING = 2600
#: ``repro.idl`` plus ``lint/idl_rules.py`` code lines: the IDL front end
#: the compiler runs on every file, lexer to lint.  2024 when it was first
#: gated: cheap tokens that locate themselves on demand, one listing of
#: the tree for every semantic pass and lint rule, and keyword dispatch in
#: the parser paid for themselves (2021 with the deletions beside them);
#: escaped identifiers that must start with a letter (+3) and operand
#: types in the constant-operator table (+16) were then paid for by
#: deleting three helpers nothing called and a second list of the integer
#: kinds, and ``SourceLocation`` became a named tuple: 2020.
FRONT_END_CODE_CEILING = 2020
#: ``repro.templates`` code lines: the template parser, step 1 (the
#: compiler) and step 2 (the runtime).  623 when it was first gated; step
#: 1 binding each ``${var}`` the template decides, in place of a runtime
#: that resolved every one of them, with ``@foreach`` arguments split
#: without ``shlex`` unless they are quoted: 620.
TEMPLATES_CODE_CEILING = 620
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


def _code_lines(package, suffixes=(".py",)):
    root = os.path.join(os.path.dirname(repro.__file__), package)
    return count_package_lines(root, suffixes)[0].code


def test_runtime_code_lines_do_not_grow():
    lines = {package: _code_lines(package) for package in RUNTIME_PACKAGES}
    assert sum(lines.values()) <= RUNTIME_CODE_CEILING, (
        f"{lines} is {sum(lines.values())} code lines, over the ceiling "
        f"of {RUNTIME_CODE_CEILING}.  {ADVICE}"
    )


def test_mapping_code_lines_do_not_grow():
    lines = _code_lines("mappings", (".py", ".tmpl"))
    assert lines <= MAPPINGS_CODE_CEILING, (
        f"repro.mappings is {lines} code lines (.py + .tmpl), over the "
        f"ceiling of {MAPPINGS_CODE_CEILING}.  {ADVICE}"
    )


def test_front_end_code_lines_do_not_grow():
    rules = os.path.join(os.path.dirname(repro.__file__), "lint", "idl_rules.py")
    lines = {"idl": _code_lines("idl"), "lint/idl_rules.py": count_file_lines(rules).code}
    assert sum(lines.values()) <= FRONT_END_CODE_CEILING, (
        f"{lines} is {sum(lines.values())} code lines, over the ceiling of "
        f"{FRONT_END_CODE_CEILING}.  {ADVICE}"
    )


def test_template_engine_code_lines_do_not_grow():
    lines = _code_lines("templates")
    assert lines <= TEMPLATES_CODE_CEILING, (
        f"repro.templates is {lines} code lines, over the ceiling of "
        f"{TEMPLATES_CODE_CEILING}.  {ADVICE}"
    )


def test_lint_code_lines_do_not_grow():
    lines = _code_lines("lint")
    assert lines <= LINT_CODE_CEILING, (
        f"repro.lint is {lines} code lines, over the ceiling of "
        f"{LINT_CODE_CEILING}.  {ADVICE}"
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
# mixin constructors in ``model/call.py`` gave back).  One read per
# protocol, its events decided by the two sessions: orb 4932 → 4851,
# text client 2598 → 2526, the GIOP machine 1529 → 1527, the text
# machine 1316 → 1315.  Deleting the dispatch pool, the oneway batch
# buffer and the second default-deadline route: orb 4851 → 4739, text
# client 2526 → 2478.  Marshal runs (raised on purpose, see above):
# orb 4739 → 4765, the text machine 1315 → 1341, the GIOP machine 1527
# → 1571, text client 2478 → 2504; the compiler's ceiling comes down to
# the 3271 it measures.  The EST builder recording the spelling a
# typedef chain ends in (``aliasedType`` on a typed node, which the
# mapping packs' shared ``TypeView`` reads) raised the compiler's
# closure on purpose: 3271 → 3272.  The IDL lexer as one master regex
# in place of a character cursor, with the unused ``Lexer`` class and
# operator tables gone: 3270 → 3094.  Strict template mode deleted
# from the runtime, the packs, the pipeline, the CLI and the template
# analyzer: 3094 → 3070.  A wrongly typed operand in a constant
# expression reported as IDL006 in place of a bare ``TypeError``, the
# unary operators moved into a table like the binary ones: 3070 → 3071.
# Cheap tokens, one listing of the IDL tree and step-1 template binding,
# then the escaped-identifier and constant-operand checks, with three
# dead helpers deleted: 3071 → 3067.
# The ids are fixed names so that lowering a ceiling does not rename
# the test.
@pytest.mark.parametrize("roots, ceiling", (
    pytest.param("repro.heidirmi.orb", 4765, id="repro.heidirmi.orb"),
    pytest.param("repro.compiler.cli", 3067, id="repro.compiler.cli"),
    pytest.param("repro.wire.text", 1341, id="repro.wire.text"),
    pytest.param("repro.wire.giop", 1571, id="repro.wire.giop"),
    pytest.param(TEXT_CLIENT_ROOTS, 2504, id="text-client"),
))
def test_import_closure_does_not_grow(roots, ceiling):
    total = subset_report(roots)["<total>"]
    assert total <= ceiling, (
        f"everything {roots} imports is {total} code lines, over the "
        f"ceiling of {ceiling}.  {ADVICE}"
    )
