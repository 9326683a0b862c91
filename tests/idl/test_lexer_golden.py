"""The lexer's behaviour, pinned token by token.

``lexer_golden.json`` holds, for every ``.idl`` file in the repository,
``PAPER_IDL``, ``TYPEDEF_IDL``, the generated ``wide.idl`` / ``deep.idl``
of ``perf/compilebench.py`` for seeds 1-3 and a set of hand-picked edge
cases, the full token stream ``(kind, text, repr(value), line, column)``
with the EOF token; and for at least one input per lexer error message,
the message, line and column of the ``IdlSyntaxError``.  Sources that
are not files in the repository are stored in the golden itself.

The golden was written by the character-cursor lexer that the
regular-expression lexer replaced, by running this file as a script
(``PYTHONPATH=src python tests/idl/test_lexer_golden.py``), so it is
the oracle for "every token and every error message stays".
"""

import json
import os
import random
import re
import sys

import pytest

from repro.idl import tokenize
from repro.idl.errors import IdlSyntaxError

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GOLDEN = os.path.join(os.path.dirname(__file__), "lexer_golden.json")
IDL_DIRS = ("examples", "perf", "tests")

#: Accepted inputs that reach the lexer's corners: every literal form,
#: every operator, every skipped directive, wide-literal locations,
#: non-ASCII letters and digits.
EDGE_SOURCES = {
    "numbers": "1. 1.5 .5 1e3 1E+3 1.5e-2 .5e1 1.+2 1e 1e+ 1ex 0 00 0755\n"
               "0x1F 0XaB 0xFFFFFFFFFFFFFFFFFFFF 1.5d 1.5D 7d 3.)",
    "chars": "'x' ''' '\\x41' '\\7' '\\777' '\\'' '\"' '\\\\' L'w' L 'y'",
    "strings": '"" L"" "a\'b" "\\n\\t\\v\\b\\r\\f\\a\\\\\\?\\\'\\"\\0\\101\\1012'
               '\\x41\\x4g\\08" L"wide\\x7e"',
    "identifiers": "_interface __x _1 L Lx L1 interface Interface incopy "
                   "TRUE FALSE Object ValueBase a_b_c",
    "operators": "a::b<<c>>d:e;f{}()[],=+-*/%~|^&<>:::<<<>>>",
    "comments": "/**/ /***/ /* * / */ a /* x\ny */ b // c\nd//e",
    "whitespace": "\tinterface\tA\v{\f}\r\n  ;",
    "directives": "#ifndef X\n#define X\n  \t#  pragma  prefix \"omg.org\"  \r\n"
                  "#include <orb.idl> // c\n#include \"a.idl\" junk\n#if 1\n#else\n"
                  "#elif 2\n#undef X\n#line 4\n#ifdef Y\n#endif\n#pragma",
    "directive_after_comment_line": "/* a\n*/\n#pragma ID x\n// c\n#pragma y",
    "non_ascii": "café ü1 ١٢ ١.٥ \"é\"",
    "empty": "",
    "only_space": "  \n\t\n",
}

#: Rejected inputs: at least one per lexer error message, with the
#: wide-literal, '#'-placement and multi-line variants.
ERROR_SOURCES = [
    "interface A {};\n  /* never ends",
    "/*/",
    "const long x = 0x;",
    "0x_1",
    "const long x = 0xFG;",
    "0x1g",
    "09",
    "\tinterface A {\n\t\tconst long n = 0789;\n};",
    'const string s = "abc\\',
    "'\\",
    'L"\\',
    '"\\xg"',
    'L"\\x"',
    "'\\x'",
    '"\\q"',
    "'\\\n'",
    '"a\\\nb"',
    "L'\\z'",
    "'ab'",
    "''",
    "'",
    "'\n'",
    "L'xy'",
    "'\\x414'",
    '"oops',
    '  "line\nbreak"',
    'L"wide',
    '"a\\"',
    "_",
    "x _ y",
    "#include",
    "#include foo.idl",
    '#include "a.idl',
    "#include <a.idl",
    "#frobnicate yes",
    "#\n",
    "# 42",
    "interface A {};\n#error nope\n",
    "long #pragma x",
    "/* c */ #pragma x",
    "/* a\n */ #pragma x",
    "a;\n  b # c",
    "interface A { long x$; };",
    "1.e",
    "1.a",
    "1.d",
    "x = .;",
    "..5",
    "@",
    " ",
    "\x00",
    "a\n\n   `",
]


#: Every message the lexer raises, as a regular expression.
MESSAGE_FORMS = (
    r"unterminated block comment",
    r"malformed hexadecimal literal",
    r"malformed hexadecimal literal '.*'",
    r"malformed integer literal '.*'",
    r"unterminated escape sequence",
    r"malformed \\x escape",
    r"unknown escape sequence \\.",
    r"unterminated character literal",
    r"unterminated string literal",
    r"lone underscore is not a valid identifier",
    r"malformed #include .*",
    r"unsupported preprocessor directive #\w*",
    r"'#' is only valid at the start of a line",
    r"unexpected character .*",
)


def _row(token):
    location = token.location
    return [token.kind.name, token.text, repr(token.value), location.line, location.column]


def _stream(source, filename):
    tokens = tokenize(source, filename=filename)
    assert all(token.location.filename == filename for token in tokens)
    return [_row(token) for token in tokens]


def _error(source):
    with pytest.raises(IdlSyntaxError) as caught:
        tokenize(source, filename="bad.idl")
    location = caught.value.location
    assert location.filename == "bad.idl"
    return {"source": source, "message": caught.value.message,
            "line": location.line, "column": location.column}


def _load():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _stored_source(name, entry):
    if "source" in entry:
        return entry["source"]
    if name in ("PAPER_IDL", "TYPEDEF_IDL"):
        from tests import conftest
        return getattr(conftest, name)
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return handle.read()


_GOLDEN = _load() if os.path.exists(GOLDEN) else {"streams": {}, "errors": []}


@pytest.mark.parametrize("name", sorted(_GOLDEN["streams"]))
def test_token_stream_matches_golden(name):
    entry = _GOLDEN["streams"][name]
    assert _stream(_stored_source(name, entry), name) == entry["tokens"]


@pytest.mark.parametrize("expected", _GOLDEN["errors"], ids=lambda e: repr(e["source"])[:40])
def test_error_matches_golden(expected):
    assert _error(expected["source"]) == expected


def test_golden_covers_every_idl_file_and_error_message():
    assert set(_repo_idl_files()) <= set(_GOLDEN["streams"])
    messages = [error["message"] for error in _GOLDEN["errors"]]
    for form in MESSAGE_FORMS:
        assert any(re.fullmatch(form, message, re.S) for message in messages), form
    for message in messages:
        assert any(re.fullmatch(form, message, re.S) for form in MESSAGE_FORMS), message


def _repo_idl_files():
    for top in IDL_DIRS:
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [d for d in dirs if not d.startswith((".", "__"))]
            for name in files:
                if name.endswith(".idl"):
                    yield os.path.relpath(os.path.join(folder, name), ROOT)


def snapshot():
    """Token streams and errors as the lexer on ``sys.path`` gives them."""
    sys.path.insert(0, ROOT)
    from perf.compilebench import deep_idl, wide_idl
    from tests.conftest import PAPER_IDL, TYPEDEF_IDL

    sources = {name: (None, open(os.path.join(ROOT, name), encoding="utf-8").read())
               for name in _repo_idl_files()}
    sources["PAPER_IDL"] = (None, PAPER_IDL)
    sources["TYPEDEF_IDL"] = (None, TYPEDEF_IDL)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        wide = wide_idl(rng)
        sources[f"perf-seed{seed}/wide.idl"] = (wide, wide)
        deep = deep_idl(rng)
        sources[f"perf-seed{seed}/deep.idl"] = (deep, deep)
    for name, source in EDGE_SOURCES.items():
        sources[f"edge/{name}"] = (source, source)

    streams = {}
    for name, (stored, source) in sorted(sources.items()):
        entry = {"tokens": _stream(source, name)}
        if stored is not None:
            entry["source"] = stored
        streams[name] = entry
    return {"streams": streams, "errors": [_error(source) for source in ERROR_SOURCES]}


def _write(data, handle):
    """JSON with one error or one token per line, so a diff names it."""
    handle.write('{"errors": [\n')
    handle.write(",\n".join(json.dumps(error, sort_keys=True) for error in data["errors"]))
    handle.write('\n],\n"streams": {\n')
    entries = []
    for name, entry in sorted(data["streams"].items()):
        source = f'"source": {json.dumps(entry["source"])}, ' if "source" in entry else ""
        rows = ",\n".join(json.dumps(row) for row in entry["tokens"])
        entries.append(f'{json.dumps(name)}: {{{source}"tokens": [\n{rows}]}}')
    handle.write(",\n".join(entries) + "\n}}\n")


if __name__ == "__main__":
    data = snapshot()
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        _write(data, handle)
