"""Token kinds and keyword tables for the IDL lexer.

The keyword set is the OMG IDL 2.x keyword set plus the HeidiRMI
extension keyword ``incopy`` (Section 3.1 of the paper).
"""

import enum
from bisect import bisect_right

from repro.idl.errors import SourceLocation


class TokenKind(enum.Enum):
    """Lexical classes produced by :func:`repro.idl.lexer.tokenize`.

    An operator's or punctuator's value is its spelling.
    """

    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    INTEGER = "integer"
    FLOAT = "float"
    CHAR = "char"
    WCHAR = "wchar"
    STRING = "string"
    WSTRING = "wstring"
    FIXED = "fixed_literal"

    # Punctuation and operators.
    SEMICOLON = ";"
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COLON = ":"
    SCOPE = "::"
    COMMA = ","
    EQUALS = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    TILDE = "~"
    PIPE = "|"
    CARET = "^"
    AMP = "&"
    LSHIFT = "<<"
    RSHIFT = ">>"
    LT = "<"
    GT = ">"

    PRAGMA = "pragma"
    INCLUDE_DIRECTIVE = "include"
    EOF = "eof"


# OMG IDL keywords (case-sensitive) plus the paper's `incopy` extension.
KEYWORDS = frozenset(
    {
        "abstract",
        "any",
        "attribute",
        "boolean",
        "case",
        "char",
        "const",
        "context",
        "custom",
        "default",
        "double",
        "enum",
        "exception",
        "FALSE",
        "fixed",
        "float",
        "in",
        "incopy",  # HeidiRMI extension: pass-by-value parameter direction.
        "inout",
        "interface",
        "long",
        "module",
        "native",
        "Object",
        "octet",
        "oneway",
        "out",
        "raises",
        "readonly",
        "sequence",
        "short",
        "string",
        "struct",
        "switch",
        "TRUE",
        "typedef",
        "union",
        "unsigned",
        "ValueBase",
        "valuetype",
        "void",
        "wchar",
        "wstring",
    }
)


class Token:
    """A single lexical token.

    ``value`` holds the decoded payload: the identifier/keyword text, the
    numeric value of a literal, or the decoded string contents.  ``text``
    holds the source spelling for identifiers, keywords, numbers and
    operators; for a char or string literal (``CHAR``, ``WCHAR``,
    ``STRING``, ``WSTRING``) it holds the decoded payload, as ``value``
    does, not the quoted source spelling, and for an escaped identifier
    (``_name``) the name without its underscore.

    A token keeps only its source *offset* and the file's line index;
    ``location`` builds the :class:`SourceLocation` when an error, a
    diagnostic or an AST node asks for it.
    """

    __slots__ = ("kind", "text", "value", "offset", "lines")

    def __init__(self, kind, text, value, offset, lines):
        self.kind = kind
        self.text = text
        self.value = value
        self.offset = offset
        self.lines = lines

    @property
    def location(self):
        return self.lines.locate(self.offset)

    def is_keyword(self, word):
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __str__(self):
        return f"{self.kind.name}({self.text!r})"


class LineIndex:
    """Where each line of one source file starts: offsets → locations."""

    __slots__ = ("filename", "starts")

    def __init__(self, filename, starts):
        self.filename = filename
        self.starts = starts

    def locate(self, offset):
        line = bisect_right(self.starts, offset)
        return SourceLocation(self.filename, line, offset - self.starts[line - 1] + 1)
