"""Token kinds and keyword tables for the IDL lexer.

The keyword set is the OMG IDL 2.x keyword set plus the HeidiRMI
extension keyword ``incopy`` (Section 3.1 of the paper).
"""

import enum
from dataclasses import dataclass, field

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

@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` holds the decoded payload: the identifier/keyword text, the
    numeric value of a literal, or the decoded string contents.  ``text``
    always holds the raw source spelling.
    """

    kind: TokenKind
    text: str
    value: object = None
    location: SourceLocation = field(default_factory=SourceLocation)

    def is_keyword(self, word):
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __str__(self):
        return f"{self.kind.name}({self.text!r})"
