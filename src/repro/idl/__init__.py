"""OMG IDL front-end with the paper's syntax extensions.

The front-end follows the classical lexer → parser → semantic-analysis
split.  It supports the OMG IDL subset exercised by the paper (modules,
interfaces with multiple inheritance and forward declarations, structs,
enums, unions, exceptions, typedefs, constants, attributes, operations,
sequences, arrays and all primitive types) plus the two HeidiRMI
extensions described in Section 3.1:

- **default parameters** — ``void p(in long l = 0);``
- **incopy** — a pass-by-value parameter direction,
  ``void g(incopy S s);``

Use :func:`parse` for the common case::

    from repro.idl import parse
    spec = parse(open("A.idl").read(), filename="A.idl")
"""

from repro.idl.ast import (
    Attribute,
    ConstDecl,
    EnumDecl,
    ExceptionDecl,
    Forward,
    Include,
    InterfaceDecl,
    Module,
    Operation,
    Parameter,
    Specification,
    StructDecl,
    StructMember,
    TypedefDecl,
    UnionCase,
    UnionDecl,
)
from repro.idl.errors import IdlError, IdlSyntaxError, IdlSemanticError, SourceLocation
from repro.idl.lexer import Lexer, tokenize
from repro.idl.parser import Parser, parse_tokens
from repro.idl.semantics import SemanticAnalyzer, analyze
from repro.idl.tokens import Token, TokenKind
from repro.idl.types import (
    AnyType,
    ArrayType,
    FixedType,
    IdlType,
    NamedType,
    ObjectType,
    PrimitiveKind,
    PrimitiveType,
    SequenceType,
    StringType,
    VoidType,
)


def parse(source, filename="<string>", analyze_semantics=True, include_paths=(),
          reporter=None):
    """Parse IDL source text into a :class:`Specification`.

    When *analyze_semantics* is true (the default) the resulting tree has
    scoped names resolved, repository IDs assigned, and inheritance
    checked; otherwise the raw syntax tree is returned.

    Without a *reporter* the first problem raises (fail-fast).  With one
    — the ``error(code, message, location)`` protocol :func:`analyze`
    takes — every finding is collected instead: a syntax error becomes
    ``IDL000`` and the result is ``None``.
    """
    try:
        tokens = tokenize(source, filename=filename)
        spec = parse_tokens(tokens, filename=filename, include_paths=include_paths)
    except IdlError as exc:
        if reporter is None:
            raise
        reporter.error("IDL000", exc.message, exc.location)
        return None
    if analyze_semantics:
        analyze(spec, reporter=reporter)
    return spec


__all__ = [
    "parse",
    "tokenize",
    "parse_tokens",
    "analyze",
    "Lexer",
    "Parser",
    "SemanticAnalyzer",
    "Token",
    "TokenKind",
    "SourceLocation",
    "IdlError",
    "IdlSyntaxError",
    "IdlSemanticError",
    "Specification",
    "Module",
    "InterfaceDecl",
    "Forward",
    "Include",
    "Operation",
    "Parameter",
    "Attribute",
    "TypedefDecl",
    "StructDecl",
    "StructMember",
    "EnumDecl",
    "UnionDecl",
    "UnionCase",
    "ExceptionDecl",
    "ConstDecl",
    "IdlType",
    "PrimitiveType",
    "PrimitiveKind",
    "NamedType",
    "SequenceType",
    "StringType",
    "ArrayType",
    "FixedType",
    "VoidType",
    "AnyType",
    "ObjectType",
]
