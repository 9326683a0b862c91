"""Recursive-descent parser for the supported OMG IDL subset.

The grammar follows OMG IDL 2.x with the two HeidiRMI extensions:

- an extra parameter direction ``incopy`` (pass-by-value), and
- optional default values on ``in``/``incopy`` parameters
  (``void p(in long l = 0);``).

``#include`` directives are resolved inline (with include-once
semantics) when include paths are supplied; ``#pragma prefix`` /
``#pragma version`` / ``#pragma ID`` are honoured for repository IDs.
"""

import os

from repro.idl import ast
from repro.idl.errors import IdlSyntaxError
from repro.idl.tokens import Token, TokenKind
from repro.idl.lexer import tokenize
from repro.idl.types import (
    AnyType,
    FixedType,
    NamedType,
    ObjectType,
    PrimitiveKind,
    PrimitiveType,
    SequenceType,
    StringType,
    VoidType,
)

_PARAM_DIRECTIONS = ("in", "out", "inout", "incopy")

_SIMPLE_PRIMITIVES = {
    "boolean": PrimitiveKind.BOOLEAN,
    "char": PrimitiveKind.CHAR,
    "wchar": PrimitiveKind.WCHAR,
    "octet": PrimitiveKind.OCTET,
    "short": PrimitiveKind.SHORT,
    "float": PrimitiveKind.FLOAT,
    "double": PrimitiveKind.DOUBLE,
}


class Parser:
    """Parses a token stream into a :class:`repro.idl.ast.Specification`."""

    def __init__(self, tokens, filename="<string>", include_paths=(), _included_from=None):
        self._tokens = list(tokens)
        self._pos = 0
        self._filename = filename
        self._include_paths = tuple(include_paths)
        # Shared across nested includes so each file is parsed once.
        self._included_files = _included_from if _included_from is not None else set()
        self._pragma_versions = {}
        self._pragma_ids = {}

    # -- token-stream helpers ---------------------------------------------

    def _peek(self, offset=0):
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self):
        token = self._tokens[self._pos]
        if self._pos < len(self._tokens) - 1:
            self._pos += 1
        return token

    def _error(self, message, token=None):
        token = token or self._peek()
        raise IdlSyntaxError(message, token.location)

    def _expect(self, kind, what=None):
        token = self._peek()
        if token.kind is not kind:
            self._error(f"expected {what or kind.value!r}, found {token.text!r}")
        return self._advance()

    def _expect_keyword(self, word):
        token = self._peek()
        if not token.is_keyword(word):
            self._error(f"expected keyword {word!r}, found {token.text!r}")
        return self._advance()

    def _accept(self, kind):
        if self._peek().kind is kind:
            return self._advance()
        return None

    def _accept_keyword(self, word):
        if self._peek().is_keyword(word):
            return self._advance()
        return None

    def _identifier(self, what="identifier"):
        return self._expect(TokenKind.IDENTIFIER, what).text

    def _expect_close_angle(self):
        """Consume ``>``, splitting a ``>>`` as in ``sequence<sequence<T>>``."""
        token = self._peek()
        if token.kind is TokenKind.GT:
            self._advance()
            return
        if token.kind is TokenKind.RSHIFT:
            # Split: consume one '>' and leave the other in the stream.
            self._tokens[self._pos] = Token(
                TokenKind.GT, ">", ">", token.location
            )
            return
        self._error(f"expected '>', found {token.text!r}")

    # -- entry point --------------------------------------------------------

    def parse_specification(self):
        spec = ast.Specification(filename=self._filename)
        while self._peek().kind is not TokenKind.EOF:
            decl = self._parse_definition(spec)
            if decl is not None:
                decl.parent = spec
                spec.declarations.append(decl)
        spec.pragma_versions = dict(self._pragma_versions)
        spec.pragma_ids = dict(self._pragma_ids)
        return spec

    # -- definitions ----------------------------------------------------------

    def _parse_definition(self, scope):
        token = self._peek()
        if token.kind is TokenKind.PRAGMA:
            self._handle_pragma(scope)
            return None
        if token.kind is TokenKind.INCLUDE_DIRECTIVE:
            return self._parse_include()
        if token.is_keyword("module"):
            return self._parse_module()
        if token.is_keyword("interface") or (
            token.is_keyword("abstract") and self._peek(1).is_keyword("interface")
        ):
            return self._parse_interface_or_forward()
        if token.is_keyword("typedef"):
            return self._parse_typedef()
        if token.is_keyword("struct"):
            return self._finish_with_semicolon(self._parse_struct())
        if token.is_keyword("union"):
            return self._finish_with_semicolon(self._parse_union())
        if token.is_keyword("enum"):
            return self._finish_with_semicolon(self._parse_enum())
        if token.is_keyword("const"):
            return self._parse_const()
        if token.is_keyword("exception"):
            return self._parse_exception()
        if token.is_keyword("native"):
            return self._parse_native()
        self._error(f"unexpected {token.text!r} at top of scope")

    def _finish_with_semicolon(self, decl):
        self._expect(TokenKind.SEMICOLON)
        return decl

    def _handle_pragma(self, scope):
        token = self._advance()
        parts = token.text.split(None, 2)
        if not parts:
            return
        kind = parts[0]
        if kind == "prefix" and len(parts) >= 2:
            scope.prefix = parts[1].strip('"')
        elif kind == "version" and len(parts) == 3:
            self._pragma_versions[parts[1]] = parts[2]
        elif kind == "ID" and len(parts) == 3:
            self._pragma_ids[parts[1]] = parts[2].strip('"')
        # Unknown pragmas are ignored, as the spec requires.

    def _parse_include(self):
        token = self._advance()
        path = token.value
        node = ast.Include(name=path, path=path, location=token.location)
        resolved = self._resolve_include(path)
        if resolved is not None and resolved not in self._included_files:
            self._included_files.add(resolved)
            with open(resolved, "r", encoding="utf-8") as handle:
                source = handle.read()
            sub_tokens = tokenize(source, filename=resolved)
            sub_parser = Parser(
                sub_tokens,
                filename=resolved,
                include_paths=self._include_paths + (os.path.dirname(resolved),),
                _included_from=self._included_files,
            )
            node.spec = sub_parser.parse_specification()
        return node

    def _resolve_include(self, path):
        candidates = [os.path.join(base, path) for base in self._include_paths]
        if not os.path.isabs(path):
            candidates.insert(0, os.path.join(os.path.dirname(self._filename), path))
        else:
            candidates.insert(0, path)
        for candidate in candidates:
            if os.path.isfile(candidate):
                return os.path.abspath(candidate)
        return None

    def _parse_module(self):
        start = self._expect_keyword("module")
        name = self._identifier("module name")
        module = ast.Module(name=name, location=start.location)
        self._expect(TokenKind.LBRACE)
        while not self._accept(TokenKind.RBRACE):
            if self._peek().kind is TokenKind.EOF:
                self._error("unterminated module body", start)
            decl = self._parse_definition(module)
            if decl is not None:
                decl.parent = module
                module.declarations.append(decl)
        self._expect(TokenKind.SEMICOLON)
        return module

    def _parse_interface_or_forward(self):
        is_abstract = bool(self._accept_keyword("abstract"))
        start = self._expect_keyword("interface")
        name = self._identifier("interface name")
        if self._peek().kind is TokenKind.SEMICOLON:
            self._advance()
            return ast.Forward(name=name, is_abstract=is_abstract, location=start.location)

        interface = ast.InterfaceDecl(
            name=name, is_abstract=is_abstract, location=start.location
        )
        if self._accept(TokenKind.COLON):
            interface.bases.append(self._parse_scoped_name())
            while self._accept(TokenKind.COMMA):
                interface.bases.append(self._parse_scoped_name())
        self._expect(TokenKind.LBRACE)
        while not self._accept(TokenKind.RBRACE):
            if self._peek().kind is TokenKind.EOF:
                self._error("unterminated interface body", start)
            export = self._parse_export(interface)
            if export is not None:
                export.parent = interface
                interface.body.append(export)
        self._expect(TokenKind.SEMICOLON)
        return interface

    def _parse_export(self, interface):
        token = self._peek()
        if token.kind is TokenKind.PRAGMA:
            self._handle_pragma(interface)
            return None
        if token.is_keyword("typedef"):
            return self._parse_typedef()
        if token.is_keyword("struct"):
            return self._finish_with_semicolon(self._parse_struct())
        if token.is_keyword("union"):
            return self._finish_with_semicolon(self._parse_union())
        if token.is_keyword("enum"):
            return self._finish_with_semicolon(self._parse_enum())
        if token.is_keyword("const"):
            return self._parse_const()
        if token.is_keyword("exception"):
            return self._parse_exception()
        if token.is_keyword("native"):
            return self._parse_native()
        if token.is_keyword("readonly") or token.is_keyword("attribute"):
            return self._parse_attribute()
        return self._parse_operation()

    # -- interface members ---------------------------------------------------

    def _parse_attribute(self):
        start = self._peek()
        readonly = bool(self._accept_keyword("readonly"))
        self._expect_keyword("attribute")
        idl_type = self._parse_type()
        name = self._identifier("attribute name")
        attr = ast.Attribute(
            name=name, idl_type=idl_type, readonly=readonly, location=start.location
        )
        # IDL allows `attribute long a, b;` — we return the first and queue
        # the rest by rewriting the token stream is overkill; instead
        # multiple declarators are collected into siblings via the parent
        # in _parse_export.  Simplest correct approach: disallow here and
        # require one declarator per attribute, matching the paper's usage.
        if self._peek().kind is TokenKind.COMMA:
            self._error("multiple declarators per attribute are not supported; "
                        "declare each attribute separately")
        self._expect(TokenKind.SEMICOLON)
        return attr

    def _parse_operation(self):
        start = self._peek()
        is_oneway = bool(self._accept_keyword("oneway"))
        if self._peek().is_keyword("void"):
            self._advance()
            return_type = VoidType()
        else:
            return_type = self._parse_type()
        name = self._identifier("operation name")
        op = ast.Operation(
            name=name,
            return_type=return_type,
            is_oneway=is_oneway,
            location=start.location,
        )
        self._expect(TokenKind.LPAREN)
        if not self._accept(TokenKind.RPAREN):
            op.parameters.append(self._parse_parameter())
            while self._accept(TokenKind.COMMA):
                op.parameters.append(self._parse_parameter())
            self._expect(TokenKind.RPAREN)
        for param in op.parameters:
            param.parent = op
        if self._accept_keyword("raises"):
            self._expect(TokenKind.LPAREN)
            op.raises.append(self._parse_scoped_name())
            while self._accept(TokenKind.COMMA):
                op.raises.append(self._parse_scoped_name())
            self._expect(TokenKind.RPAREN)
        if self._accept_keyword("context"):
            self._expect(TokenKind.LPAREN)
            op.context.append(self._expect(TokenKind.STRING).value)
            while self._accept(TokenKind.COMMA):
                op.context.append(self._expect(TokenKind.STRING).value)
            self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMICOLON)
        return op

    def _parse_parameter(self):
        token = self._peek()
        direction = None
        for word in _PARAM_DIRECTIONS:
            if token.is_keyword(word):
                direction = word
                self._advance()
                break
        if direction is None:
            self._error(
                f"expected parameter direction (in/out/inout/incopy), found {token.text!r}"
            )
        idl_type = self._parse_type()
        name = self._identifier("parameter name")
        param = ast.Parameter(
            name=name, idl_type=idl_type, direction=direction, location=token.location
        )
        if self._accept(TokenKind.EQUALS):
            # HeidiRMI extension: default parameter value.
            if direction not in ("in", "incopy"):
                self._error("default values are only allowed on in/incopy parameters",
                            token)
            param.default = self._parse_const_expr()
        return param

    # -- type declarations -----------------------------------------------------

    def _parse_typedef(self):
        start = self._expect_keyword("typedef")
        base_type = self._parse_type()
        decls = [self._parse_declarator(base_type, start)]
        while self._accept(TokenKind.COMMA):
            decls.append(self._parse_declarator(base_type, start))
        self._expect(TokenKind.SEMICOLON)
        if len(decls) == 1:
            return decls[0]
        group = ast.Module(name="", location=start.location)
        # Multiple declarators become sibling typedefs; we flatten them by
        # returning a synthetic container the caller splices.  To keep the
        # tree simple we instead chain them through a small wrapper:
        group.declarations = decls
        group.is_typedef_group = True
        return group

    def _parse_declarator(self, base_type, start):
        name = self._identifier("declarator")
        dimensions = []
        while self._accept(TokenKind.LBRACKET):
            size = self._parse_const_expr()
            self._expect(TokenKind.RBRACKET)
            dimensions.append(size)
        if dimensions:
            from repro.idl.types import ArrayType

            evaluated = tuple(_literal_int(d) for d in dimensions)
            idl_type = ArrayType(element=base_type, dimensions=evaluated)
        else:
            idl_type = base_type
        return ast.TypedefDecl(name=name, aliased_type=idl_type, location=start.location)

    def _parse_struct(self):
        start = self._expect_keyword("struct")
        name = self._identifier("struct name")
        struct = ast.StructDecl(name=name, location=start.location)
        self._parse_members(struct)
        return struct

    def _parse_members(self, owner):
        """``{ type name, name; ... }``: a struct's or an exception's members."""
        self._expect(TokenKind.LBRACE)
        while not self._accept(TokenKind.RBRACE):
            member_type = self._parse_type()
            owner.members.append(self._parse_struct_member(member_type, owner))
            while self._accept(TokenKind.COMMA):
                owner.members.append(self._parse_struct_member(member_type, owner))
            self._expect(TokenKind.SEMICOLON)

    def _parse_struct_member(self, member_type, owner):
        token = self._peek()
        name = self._identifier("member name")
        member = ast.StructMember(name=name, idl_type=member_type, location=token.location)
        member.parent = owner
        return member

    def _parse_union(self):
        start = self._expect_keyword("union")
        name = self._identifier("union name")
        self._expect_keyword("switch")
        self._expect(TokenKind.LPAREN)
        discriminator = self._parse_type()
        self._expect(TokenKind.RPAREN)
        union = ast.UnionDecl(name=name, discriminator=discriminator, location=start.location)
        self._expect(TokenKind.LBRACE)
        while not self._accept(TokenKind.RBRACE):
            union.cases.append(self._parse_union_case(union))
        return union

    def _parse_union_case(self, union):
        labels = []
        token = self._peek()
        while True:
            if self._accept_keyword("case"):
                labels.append(self._parse_const_expr())
                self._expect(TokenKind.COLON)
            elif self._accept_keyword("default"):
                labels.append(None)
                self._expect(TokenKind.COLON)
            else:
                break
        if not labels:
            self._error("expected 'case' or 'default' in union body")
        case_type = self._parse_type()
        name = self._identifier("union case declarator")
        self._expect(TokenKind.SEMICOLON)
        case = ast.UnionCase(
            name=name, labels=labels, idl_type=case_type, location=token.location
        )
        case.parent = union
        return case

    def _parse_enum(self):
        start = self._expect_keyword("enum")
        name = self._identifier("enum name")
        enum_decl = ast.EnumDecl(name=name, location=start.location)
        self._expect(TokenKind.LBRACE)
        enum_decl.enumerators.append(self._identifier("enumerator"))
        while self._accept(TokenKind.COMMA):
            if self._peek().kind is TokenKind.RBRACE:
                break  # tolerate trailing comma
            enum_decl.enumerators.append(self._identifier("enumerator"))
        self._expect(TokenKind.RBRACE)
        return enum_decl

    def _parse_const(self):
        start = self._expect_keyword("const")
        idl_type = self._parse_type()
        name = self._identifier("constant name")
        self._expect(TokenKind.EQUALS)
        value = self._parse_const_expr()
        self._expect(TokenKind.SEMICOLON)
        return ast.ConstDecl(name=name, idl_type=idl_type, value=value, location=start.location)

    def _parse_exception(self):
        start = self._expect_keyword("exception")
        name = self._identifier("exception name")
        exc = ast.ExceptionDecl(name=name, location=start.location)
        self._parse_members(exc)
        self._expect(TokenKind.SEMICOLON)
        return exc

    def _parse_native(self):
        start = self._expect_keyword("native")
        name = self._identifier("native type name")
        self._expect(TokenKind.SEMICOLON)
        return ast.NativeDecl(name=name, location=start.location)

    # -- types ------------------------------------------------------------------

    def _parse_type(self):
        token = self._peek()
        if token.kind is TokenKind.KEYWORD:
            return self._parse_keyword_type()
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.SCOPE):
            return NamedType(scoped_name=self._parse_scoped_name(),
                             location=token.location)
        self._error(f"expected a type, found {token.text!r}")

    def _parse_keyword_type(self):
        token = self._peek()
        word = token.text
        if word in _SIMPLE_PRIMITIVES:
            self._advance()
            return PrimitiveType(_SIMPLE_PRIMITIVES[word])
        if word == "long":
            self._advance()
            if self._accept_keyword("long"):
                return PrimitiveType(PrimitiveKind.LONGLONG)
            if self._accept_keyword("double"):
                return PrimitiveType(PrimitiveKind.LONGDOUBLE)
            return PrimitiveType(PrimitiveKind.LONG)
        if word == "unsigned":
            self._advance()
            if self._accept_keyword("short"):
                return PrimitiveType(PrimitiveKind.USHORT)
            if self._accept_keyword("long"):
                if self._accept_keyword("long"):
                    return PrimitiveType(PrimitiveKind.ULONGLONG)
                return PrimitiveType(PrimitiveKind.ULONG)
            self._error("expected 'short' or 'long' after 'unsigned'")
        if word == "string" or word == "wstring":
            self._advance()
            bound, bound_expr = 0, None
            if self._accept(TokenKind.LT):
                bound, bound_expr = self._parse_bound()
                self._expect_close_angle()
            return StringType(bound=bound, wide=(word == "wstring"),
                              bound_expr=bound_expr)
        if word == "sequence":
            self._advance()
            self._expect(TokenKind.LT)
            element = self._parse_type()
            bound, bound_expr = 0, None
            if self._accept(TokenKind.COMMA):
                bound, bound_expr = self._parse_bound()
            self._expect_close_angle()
            return SequenceType(element=element, bound=bound,
                                bound_expr=bound_expr)
        if word == "fixed":
            self._advance()
            digits = scale = 0
            if self._accept(TokenKind.LT):
                digits = _literal_int(self._parse_const_expr())
                self._expect(TokenKind.COMMA)
                scale = _literal_int(self._parse_const_expr())
                self._expect_close_angle()
            return FixedType(digits=digits, scale=scale)
        if word == "any":
            self._advance()
            return AnyType()
        if word == "Object":
            self._advance()
            return ObjectType()
        self._error(f"{word!r} is not a type")

    def _parse_bound(self):
        """A bound: (evaluated int, None) or (0, expr) for named consts."""
        expr = self._parse_const_expr()
        try:
            return _literal_int(expr), None
        except IdlSyntaxError:
            # References a constant; semantic analysis resolves it.
            return 0, expr

    def _parse_scoped_name(self):
        parts = []
        if self._accept(TokenKind.SCOPE):
            parts.append("")  # leading :: (file scope)
        parts.append(self._identifier("scoped name"))
        while self._peek().kind is TokenKind.SCOPE:
            self._advance()
            parts.append(self._identifier("scoped name"))
        return "::".join(parts)

    # -- constant expressions ------------------------------------------------

    def _parse_const_expr(self):
        return self._parse_or_expr()

    def _binary_level(self, sub_parser, kinds):
        left = sub_parser()
        while self._peek().kind in kinds:
            op = self._advance()
            right = sub_parser()
            left = ast.BinaryExpr(op=op.text, left=left, right=right, location=op.location)
        return left

    def _parse_or_expr(self):
        return self._binary_level(self._parse_xor_expr, (TokenKind.PIPE,))

    def _parse_xor_expr(self):
        return self._binary_level(self._parse_and_expr, (TokenKind.CARET,))

    def _parse_and_expr(self):
        return self._binary_level(self._parse_shift_expr, (TokenKind.AMP,))

    def _parse_shift_expr(self):
        return self._binary_level(
            self._parse_add_expr, (TokenKind.LSHIFT, TokenKind.RSHIFT)
        )

    def _parse_add_expr(self):
        return self._binary_level(
            self._parse_mult_expr, (TokenKind.PLUS, TokenKind.MINUS)
        )

    def _parse_mult_expr(self):
        return self._binary_level(
            self._parse_unary_expr, (TokenKind.STAR, TokenKind.SLASH, TokenKind.PERCENT)
        )

    def _parse_unary_expr(self):
        token = self._peek()
        if token.kind in (TokenKind.PLUS, TokenKind.MINUS, TokenKind.TILDE):
            self._advance()
            operand = self._parse_unary_expr()
            return ast.UnaryExpr(op=token.text, operand=operand, location=token.location)
        return self._parse_primary_expr()

    def _parse_primary_expr(self):
        token = self._peek()
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_const_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        if token.kind is TokenKind.INTEGER:
            self._advance()
            return ast.Literal(value=token.value, kind="int", location=token.location)
        if token.kind is TokenKind.FLOAT:
            self._advance()
            return ast.Literal(value=token.value, kind="float", location=token.location)
        if token.kind is TokenKind.FIXED:
            self._advance()
            return ast.Literal(value=token.value, kind="fixed", location=token.location)
        if token.kind in (TokenKind.CHAR, TokenKind.WCHAR):
            self._advance()
            return ast.Literal(value=token.value, kind="char", location=token.location)
        if token.kind in (TokenKind.STRING, TokenKind.WSTRING):
            # Adjacent string literals concatenate, as in C.
            parts = [self._advance().value]
            while self._peek().kind in (TokenKind.STRING, TokenKind.WSTRING):
                parts.append(self._advance().value)
            return ast.Literal(value="".join(parts), kind="string", location=token.location)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(value=True, kind="bool", location=token.location)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(value=False, kind="bool", location=token.location)
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.SCOPE):
            return ast.NameRef(scoped_name=self._parse_scoped_name(), location=token.location)
        self._error(f"expected a constant expression, found {token.text!r}")


def _literal_int(expr):
    """Evaluate a constant expression that must be a plain non-negative int."""
    from repro.idl.semantics import evaluate_const

    value = evaluate_const(expr)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise IdlSyntaxError(
            f"expected a non-negative integer constant, got {value!r}", expr.location
        )
    return value


def parse_tokens(tokens, filename="<string>", include_paths=()):
    """Parse a token list into a Specification, splicing typedef groups."""
    parser = Parser(tokens, filename=filename, include_paths=include_paths)
    spec = parser.parse_specification()
    _splice_typedef_groups(spec)
    return spec


def _splice_typedef_groups(scope):
    """Replace synthetic typedef-group containers with their members."""
    container = getattr(scope, "declarations", None)
    if container is None:
        container = getattr(scope, "body", None)
    if container is None:
        return
    flattened = []
    for decl in container:
        if getattr(decl, "is_typedef_group", False):
            for inner in decl.declarations:
                inner.parent = scope
                flattened.append(inner)
        else:
            flattened.append(decl)
            _splice_typedef_groups(decl)
    container[:] = flattened
