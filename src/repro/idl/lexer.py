"""Lexer for OMG IDL: one regular expression, one pass over the source.

``tokenize`` walks the source with the master pattern ``_TOKEN``.  Each
match is one token, one run of whitespace and comments, one
preprocessor line or one character that starts no token; a small
decoder turns char and string escapes into their values.  Line and
column come from the match offset and the offsets where lines start,
one ``bisect`` per token.

Preprocessor lines are handled here rather than in a separate pass:
``#pragma`` and ``#include`` lines become dedicated tokens for the
parser, while include-guard lines (``#ifndef``/``#define``/``#endif``/
``#if``/``#else``) are skipped, which is how the OmniBroker front-end
the paper built on treats them for already-preprocessed input.
"""

import re
from bisect import bisect_right
from itertools import takewhile

from repro.idl.errors import IdlSyntaxError, SourceLocation
from repro.idl.tokens import KEYWORDS, Token, TokenKind

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "v": "\v",
    "b": "\b",
    "r": "\r",
    "f": "\f",
    "a": "\a",
    "\\": "\\",
    "?": "?",
    "'": "'",
    '"': '"',
}

_SKIPPED_DIRECTIVES = frozenset(
    {"ifndef", "ifdef", "define", "endif", "if", "else", "elif", "undef", "line"}
)

#: Operators and punctuation: the token kinds whose value is their spelling.
_PUNCT = {kind.value: kind for kind in TokenKind if not kind.value.isidentifier()}

#: One escape sequence: ``\x`` and up to two hex digits, up to three octal
#: digits, or any one character.  A backslash at the end of the input
#: matches alone, so that the decoder can report it.
_ESCAPE = r"\\(?:x[0-9a-fA-F]{0,2}|[0-7]{1,3}|[\s\S])?"

# A digit is ``\d``, a letter ``[^\W\d_]``, a letter or digit ``[^\W_]``.
# The letter class also holds the number characters that are not decimal
# digits (``½``, ``²``), so ``_identifier`` checks that a name starts with
# a letter.  A number keeps its dot when digits or an exponent follow, or
# anything but a letter: ``1.`` and ``1.e5`` are floats, ``1.x`` is not.
# A literal that never ends still matches (its closing quote is an
# optional group), so that it is reported where it starts.
_TOKEN = re.compile(r"""
    (?P<skip> [ \t\r\n\v\f]+ | //[^\n]* | /\*(?:[\s\S]*?\*/)? )
  | (?P<hex> 0[xX][^\W_]* )
  | (?P<number>
        (?: \d+ (?: \. (?: \d+ | (?=[eE][+-]?\d) | (?![^\W\d_]) ) )? | \.\d+ )
        (?: [eE][+-]?\d+ )? [dD]? )
  | (?P<char> L?' (?P<char_body> ESCAPE | [^\n] )? (?P<char_end> ' )? )
  | (?P<string> L?" (?P<string_body> (?: [^"\\\n] | ESCAPE )* ) (?P<string_end> " )? )
  | (?P<ident> [^\W\d]\w* )
  | (?P<directive> \#[^\n]* )
  | (?P<punct> PUNCT )
  | (?P<bad> [\s\S] )
""".replace("ESCAPE", _ESCAPE).replace(
    "PUNCT", "|".join(map(re.escape, sorted(_PUNCT, key=len, reverse=True)))),
    re.VERBOSE)
_ESCAPE_RE = re.compile(_ESCAPE)
_NEWLINE = re.compile("\n")


def _unescape(escape, location):
    """The character an escape sequence matched by ``_ESCAPE`` stands for."""
    if len(escape) == 1:
        raise IdlSyntaxError("unterminated escape sequence", location)
    ch = escape[1]
    if ch == "x":
        if len(escape) == 2:
            raise IdlSyntaxError("malformed \\x escape", location)
        return chr(int(escape[2:], 16))
    if ch in "01234567":
        return chr(int(escape[1:], 8))
    if ch in _ESCAPES:
        return _ESCAPES[ch]
    raise IdlSyntaxError(f"unknown escape sequence \\{ch}", location)


def _number(match, location):
    text = match.group()
    if text[-1] in "dD":
        # Fixed-point literal such as "1.5d".
        return Token(TokenKind.FIXED, text[:-1] + "d", text[:-1], location)
    if not text.isdecimal():
        return Token(TokenKind.FLOAT, text, float(text), location)
    # Leading 0 means octal in IDL (as in C).
    base = 8 if len(text) > 1 and text.startswith("0") else 10
    try:
        return Token(TokenKind.INTEGER, text, int(text, base), location)
    except ValueError:
        raise IdlSyntaxError(f"malformed integer literal {text!r}", location) from None


def _hex(match, location):
    text = match.group()
    if len(text) == 2:
        raise IdlSyntaxError("malformed hexadecimal literal", location)
    try:
        return Token(TokenKind.INTEGER, text, int(text, 16), location)
    except ValueError:
        raise IdlSyntaxError(f"malformed hexadecimal literal {text!r}", location) from None


def _char(match, location):
    body = match.group("char_body")
    if body and body[0] == "\\":
        body = _unescape(body, location)
    if not body or match.group("char_end") is None:
        raise IdlSyntaxError("unterminated character literal", location)
    kind = TokenKind.WCHAR if match.group()[0] == "L" else TokenKind.CHAR
    return Token(kind, body, body, location)


def _string(match, location):
    value = match.group("string_body")
    if "\\" in value:
        value = _ESCAPE_RE.sub(lambda escape: _unescape(escape.group(), location), value)
    if match.group("string_end") is None:
        raise IdlSyntaxError("unterminated string literal", location)
    kind = TokenKind.WSTRING if match.group()[0] == "L" else TokenKind.STRING
    return Token(kind, value, value, location)


def _identifier(match, location):
    text = match.group()
    if text[0] == "_":
        # OMG IDL escaped identifier: `_name` denotes the identifier
        # `name` even when it collides with a keyword.
        if len(text) == 1:
            raise IdlSyntaxError("lone underscore is not a valid identifier", location)
        return Token(TokenKind.IDENTIFIER, text[1:], text[1:], location)
    if not text[0].isalpha():
        return _unexpected(match, location)
    kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
    return Token(kind, text, text, location)


def _directive(match, location):
    """The token a ``#...`` line stands for, or None if it is skipped."""
    if match.string[match.start() - location.column + 1:match.start()].strip():
        raise IdlSyntaxError("'#' is only valid at the start of a line", location)
    line = match.group()[1:].lstrip(" \t")
    directive = "".join(takewhile(str.isalpha, line))
    rest = line[len(directive):].strip()
    if directive == "pragma":
        return Token(TokenKind.PRAGMA, rest, rest, location)
    if directive == "include":
        closer = {'"': '"', "<": ">"}.get(rest[:1])
        end = rest.find(closer, 1) if closer else -1
        if end < 0:
            raise IdlSyntaxError(f"malformed #include {rest!r}", location)
        return Token(TokenKind.INCLUDE_DIRECTIVE, rest, rest[1:end], location)
    if directive in _SKIPPED_DIRECTIVES:
        return None
    raise IdlSyntaxError(f"unsupported preprocessor directive #{directive}", location)


def _punct(match, location):
    text = match.group()
    return Token(_PUNCT[text], text, text, location)


def _unexpected(match, location):
    raise IdlSyntaxError(f"unexpected character {match.group()[0]!r}", location)


#: Group name → ``handler(match, location)``: the token, or None.
_HANDLERS = {"punct": _punct, "ident": _identifier, "number": _number, "hex": _hex,
             "char": _char, "string": _string, "directive": _directive,
             "bad": _unexpected}


def tokenize(source, filename="<string>"):
    """Tokenize *source* into a list of tokens ending with EOF."""
    line_starts = [0] + [newline.end() for newline in _NEWLINE.finditer(source)]

    def locate(offset):
        line = bisect_right(line_starts, offset)
        return SourceLocation(filename, line, offset - line_starts[line - 1] + 1)

    tokens = []
    for match in _TOKEN.finditer(source):
        group, offset = match.lastgroup, match.start()
        if group == "skip":
            if match.group() == "/*":
                raise IdlSyntaxError("unterminated block comment", locate(offset))
            continue
        if group in ("char", "string") and source[offset] == "L":
            offset += 1  # a wide literal is located at its quote, not at the L
        token = _HANDLERS[group](match, locate(offset))
        if token is not None:
            tokens.append(token)
    tokens.append(Token(TokenKind.EOF, "", None, locate(len(source))))
    return tokens
