"""Source-located diagnostics for the IDL front-end."""

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in an IDL source file (1-based line and column).

    An immutable value, made for every AST node: a named tuple is the
    cheapest such value to build.
    """

    filename: str = "<string>"
    line: int = 1
    column: int = 1

    def __str__(self):
        return f"{self.filename}:{self.line}:{self.column}"


class IdlError(Exception):
    """Base class for all IDL front-end errors."""

    def __init__(self, message, location=None):
        self.message = message
        self.location = location or SourceLocation()
        super().__init__(f"{self.location}: {message}")


class IdlSyntaxError(IdlError):
    """Raised by the lexer or parser on malformed input."""


class IdlSemanticError(IdlError):
    """Raised by semantic analysis (unresolved names, bad inheritance...)."""
