"""The front-end contract through ``Pipeline.run``, on every pack.

Token-level mutants of three known-good sources (one token deleted,
duplicated, or one of :data:`INSERTS` put in) go through each pack's
compile with lint on and off.  With lint on a run returns or raises
``LintError``; with lint off it returns or raises an ``IdlError``.
Anything else (a ``TemplateRuntimeError``, a ``KeyError`` in a map
function) escaped both the diagnostics and the parser's own checks.
"""

import functools
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.pipeline import Pipeline
from repro.idl.errors import IdlError
from repro.idl.lexer import tokenize
from repro.lint.diagnostics import LintError
from repro.mappings.registry import all_packs
from tests.conftest import PAPER_IDL, TYPEDEF_IDL

COVERAGE_IDL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                            "mappings", "coverage.idl")

#: The tokens a mutation may insert.
INSERTS = (
    "oneway", "raises", "(", ")", "{", "}", ";", "::", "sequence", "<",
    ">", "union", "switch", "case", "typedef", "interface", "struct",
    "exception", "attribute", "const", "=", "0", "-1", '"x"',
)


def _pieces(source):
    """*source* split at token starts: the text before the first token,
    then each token with the whitespace and comments that follow it."""
    line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    starts = [line_starts[t.location.line - 1] + t.location.column - 1
              for t in tokenize(source)[:-1]]  # no EOF
    bounds = [0] + starts + [len(source)]
    return tuple(source[a:b] for a, b in zip(bounds, bounds[1:]))


@functools.cache
def _seeds():
    with open(COVERAGE_IDL, "r", encoding="utf-8") as handle:
        coverage = handle.read()
    return tuple(_pieces(source)
                 for source in (PAPER_IDL, TYPEDEF_IDL, coverage))


@functools.cache
def _pipelines():
    """One pipeline per pack and lint mode: each lints its pack once."""
    return {(pack, lint): Pipeline(pack, lint=lint)
            for pack in all_packs() for lint in (True, False)}


@st.composite
def mutants(draw):
    pieces = list(draw(st.sampled_from(_seeds())))
    at = draw(st.integers(1, len(pieces) - 1))  # pieces[0] holds no token
    edit = draw(st.sampled_from(("delete", "duplicate", "insert")))
    if edit == "delete":
        del pieces[at]
    elif edit == "duplicate":  # the newline ends a trailing // comment
        pieces.insert(at, f" {pieces[at].rstrip()}\n")
    else:
        pieces.insert(at, f" {draw(st.sampled_from(INSERTS))} ")
    return "".join(pieces)


@settings(max_examples=50, deadline=None)
@given(mutants())
def test_pipeline_run_returns_or_raises_its_contract_error(source):
    for (pack, lint), pipeline in _pipelines().items():
        try:
            pipeline.run(source, filename="mutant.idl")
        except (LintError if lint else IdlError):
            pass
