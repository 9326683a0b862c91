"""Semantic analysis: name resolution, repository IDs, validity checks.

Analysis binds every :class:`~repro.idl.types.NamedType` and
:class:`~repro.idl.ast.NameRef` to its declaration, resolves interface
inheritance, evaluates constant expressions (including default parameter
values), and assigns CORBA repository IDs of the familiar
``IDL:Heidi/A:1.0`` form, honouring ``#pragma prefix``, ``#pragma
version`` and ``#pragma ID``.

Every check reports through a *reporter* with the minimal protocol
``error(code, message, location)``.  The default reporter raises
:class:`~repro.idl.errors.IdlSemanticError` on the first problem — the
historical fail-fast behaviour of :func:`analyze` — while
:class:`repro.lint.diagnostics.DiagnosticReporter` collects every
problem in one run for ``python -m repro.lint``.
"""

from repro.idl import ast
from repro.idl.errors import IdlSemanticError
from repro.idl.types import (
    INTEGER_RANGES,
    ArrayType,
    NamedType,
    PrimitiveKind,
    PrimitiveType,
    SequenceType,
    StringType,
)


class _RaisingReporter:
    """The fail-fast default: the first error aborts analysis."""

    def error(self, code, message, location=None):
        raise IdlSemanticError(message, location)


class Scope:
    """A lexical scope mapping simple names to declarations."""

    def __init__(self, declaration, parent=None, reporter=None):
        self.declaration = declaration
        self.parent = parent
        self.names = {}
        self.reporter = reporter if reporter is not None else _RaisingReporter()
        #: Scopes of inherited interfaces (searched after local names).
        self.inherited = []

    def define(self, name, declaration, location=None):
        existing = self.names.get(name)
        if existing is not None:
            # Redefining a forward declaration with its full interface (or
            # repeating a forward declaration) is legal.
            if isinstance(existing, ast.Forward):
                self.names[name] = declaration
                return
            if isinstance(declaration, ast.Forward):
                return
            self.reporter.error(
                "IDL001",
                f"redefinition of {name!r} in scope "
                f"{self.declaration.scoped_name() or '<file>'}",
                location or declaration.location,
            )
            return
        self.names[name] = declaration

    def lookup_local(self, name):
        decl = self.names.get(name)
        if decl is not None:
            return decl
        for base_scope in self.inherited:
            decl = base_scope.lookup_local(name)
            if decl is not None:
                return decl
        return None

    def lookup(self, name):
        scope = self
        while scope is not None:
            decl = scope.lookup_local(name)
            if decl is not None:
                return decl
            scope = scope.parent
        return None


class SemanticAnalyzer:
    """Runs all semantic passes over a Specification in place."""

    def __init__(self, spec, reporter=None):
        self._spec = spec
        self._reporter = reporter if reporter is not None else _RaisingReporter()
        self._root_scope = Scope(spec, reporter=self._reporter)
        self._scopes = {id(spec): self._root_scope}
        self._pragma_versions = getattr(spec, "pragma_versions", {})
        self._pragma_ids = getattr(spec, "pragma_ids", {})

    def run(self):
        self._declarations = ast.Declarations(self._spec)
        self._interfaces_by_name = None
        self._collect(self._spec, self._root_scope)
        self._resolve_inheritance()
        self._resolve_types(self._spec, self._root_scope)
        self._assign_repository_ids(self._spec, prefix=self._spec.prefix, path=())
        self._check_operations()
        self._check_containment()
        return self._spec

    def _error(self, code, message, location=None):
        self._reporter.error(code, message, location)

    def _try_evaluate(self, expr, location=None):
        """Evaluate a constant expression, reporting failures.

        Returns ``(ok, value)``; in fail-fast mode a failure raises.
        """
        try:
            return True, evaluate_const(expr)
        except IdlSemanticError as exc:
            self._error("IDL006", exc.message, exc.location or location)
            return False, None

    # -- pass 1: build scopes -------------------------------------------------

    def _collect(self, node, scope):
        for child in ast.children(node):
            child._decl_order = self._next_order = getattr(
                self, "_next_order", 0
            ) + 1
            if isinstance(child, ast.Include):
                if child.spec is not None:
                    # Included declarations join the including file's scope.
                    self._collect(child.spec, scope)
                continue
            if child.name:
                scope.define(child.name, child, child.location)
            if isinstance(child, ast.EnumDecl):
                # Enumerators live in the enclosing scope per the IDL spec.
                for enumerator in child.enumerators:
                    scope.define(enumerator, child, child.location)
            if isinstance(child, (ast.Module, ast.InterfaceDecl)):
                child_scope = Scope(child, parent=scope, reporter=self._reporter)
                self._scopes[id(child)] = child_scope
                self._collect(child, child_scope)

    # -- pass 2: inheritance ---------------------------------------------------

    def _resolve_inheritance(self):
        for node in self._declarations.of(ast.InterfaceDecl):
            scope = self._scopes[id(node)]
            node.resolved_bases = []
            for base_name in node.bases:
                base = self._lookup_scoped(base_name, scope.parent, node.location)
                if base is None:
                    continue
                if isinstance(base, ast.Forward):
                    if base.definition is None:
                        base.definition = self._find_definition(base)
                    base = base.definition or base
                if not isinstance(base, ast.InterfaceDecl):
                    self._error(
                        "IDL003",
                        f"{base_name!r} is not an interface and cannot be inherited",
                        node.location,
                    )
                    continue
                if base is node or node in base.all_bases():
                    self._error(
                        "IDL003",
                        f"inheritance cycle through {node.scoped_name()!r}",
                        node.location,
                    )
                    continue
                node.resolved_bases.append(base)
                base_scope = self._scopes.get(id(base))
                if base_scope is not None:
                    scope.inherited.append(base_scope)
            self._check_duplicate_inherited_members(node)

    def _find_definition(self, forward):
        """The first interface in walk order that has *forward*'s name."""
        if self._interfaces_by_name is None:
            self._interfaces_by_name = {}
            for node in self._declarations.of(ast.InterfaceDecl):
                self._interfaces_by_name.setdefault(node.scoped_name(), node)
        return self._interfaces_by_name.get(forward.scoped_name())

    def _check_duplicate_inherited_members(self, interface):
        seen = {}
        for member in interface.all_operations() + interface.all_attributes():
            owner = member.parent
            previous = seen.get(member.name)
            if previous is not None and previous is not owner:
                self._error(
                    "IDL003",
                    f"interface {interface.scoped_name()!r} inherits member "
                    f"{member.name!r} from both {previous.scoped_name()!r} and "
                    f"{owner.scoped_name()!r}",
                    interface.location,
                )
            seen[member.name] = owner

    # -- pass 3: type and constant resolution ----------------------------------

    def _resolve_types(self, node, scope):
        for child in ast.children(node):
            if isinstance(child, ast.Include):
                if child.spec is not None:
                    self._resolve_types(child.spec, scope)
                continue
            child_scope = self._scopes.get(id(child), scope)
            if isinstance(child, (ast.Module, ast.InterfaceDecl)):
                self._resolve_types(child, child_scope)
            if isinstance(child, ast.TypedefDecl):
                self._bind_type(child.aliased_type, scope, child.location)
            elif isinstance(child, ast.Attribute):
                self._bind_type(child.idl_type, child_scope, child.location)
            elif isinstance(child, ast.Operation):
                self._resolve_operation(child, child_scope)
            elif isinstance(child, (ast.StructDecl, ast.ExceptionDecl)):
                for member in child.members:
                    self._bind_type(member.idl_type, scope, member.location)
            elif isinstance(child, ast.UnionDecl):
                self._bind_type(child.discriminator, scope, child.location)
                for case in child.cases:
                    self._bind_type(case.idl_type, scope, case.location)
                    for label in case.labels:
                        if label is not None:
                            self._bind_expr(label, scope)
            elif isinstance(child, ast.ConstDecl):
                self._bind_type(child.idl_type, scope, child.location)
                self._bind_expr(child.value, scope,
                                after=getattr(child, "_decl_order", None))
                ok, child.evaluated = self._try_evaluate(
                    child.value, child.location
                )
                if ok:
                    self._check_const_range(child)

    def _resolve_operation(self, op, scope):
        self._bind_type(op.return_type, scope, op.location)
        for param in op.parameters:
            self._bind_type(param.idl_type, scope, param.location)
            if param.default is not None:
                self._bind_expr(param.default, scope)
        op.resolved_raises = []
        for raised in op.raises:
            decl = self._lookup_scoped(raised, scope, op.location)
            if decl is None:
                continue
            if not isinstance(decl, ast.ExceptionDecl):
                self._error(
                    "IDL004",
                    f"raises clause names {raised!r}, which is not an exception",
                    op.location,
                )
                continue
            op.resolved_raises.append(decl)

    def _bind_type(self, idl_type, scope, location):
        if isinstance(idl_type, NamedType):
            # A NamedType carries its own source location; the enclosing
            # declaration's location is only the fallback, so diagnostics
            # anchor to the exact type reference.
            where = getattr(idl_type, "location", None) or location
            decl = self._lookup_scoped(idl_type.scoped_name, scope, where)
            if isinstance(decl, ast.Forward) and decl.definition is None:
                decl.definition = self._find_definition(decl)
            idl_type.declaration = decl
        elif isinstance(idl_type, SequenceType):
            self._bind_type(idl_type.element, scope, location)
            self._resolve_bound(idl_type, scope, location)
        elif isinstance(idl_type, StringType):
            self._resolve_bound(idl_type, scope, location)
        elif isinstance(idl_type, ArrayType):
            self._bind_type(idl_type.element, scope, location)

    def _resolve_bound(self, idl_type, scope, location):
        """Evaluate a named-constant bound deferred by the parser."""
        expr = getattr(idl_type, "bound_expr", None)
        if expr is None:
            return
        self._bind_expr(expr, scope)
        ok, value = self._try_evaluate(expr, location)
        if not ok:
            return
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            self._error(
                "IDL006",
                f"bound must be a non-negative integer constant, got {value!r}",
                location,
            )
            return
        object.__setattr__(idl_type, "bound", value)

    def _bind_expr(self, expr, scope, after=None):
        if isinstance(expr, ast.NameRef):
            expr.declaration = self._lookup_scoped(expr.scoped_name, scope, expr.location)
            if (after is not None
                    and isinstance(expr.declaration, ast.ConstDecl)
                    and getattr(expr.declaration, "_decl_order", 0) >= after):
                self._error(
                    "IDL006",
                    f"constant {expr.scoped_name!r} referenced before its "
                    "declaration",
                    expr.location,
                )
        elif isinstance(expr, ast.UnaryExpr):
            self._bind_expr(expr.operand, scope)
        elif isinstance(expr, ast.BinaryExpr):
            self._bind_expr(expr.left, scope)
            self._bind_expr(expr.right, scope)

    def _check_const_range(self, const):
        idl_type = const.idl_type
        if idl_type in _CHARS and not _is_char(const.value):
            self._error(
                "IDL006",
                f"constant {const.name!r} of type {idl_type.idl_name()} needs a "
                f"character literal, got {const.evaluated!r}", const.value.location)
            return
        if isinstance(idl_type, PrimitiveType) and idl_type.kind in INTEGER_RANGES:
            low, high = INTEGER_RANGES[idl_type.kind]
            if not isinstance(const.evaluated, int) or isinstance(const.evaluated, bool):
                self._error(
                    "IDL006",
                    f"constant {const.name!r} must be an integer", const.location
                )
                return
            if not low <= const.evaluated <= high:
                self._error(
                    "IDL006",
                    f"constant {const.name!r} value {const.evaluated} out of range "
                    f"for {idl_type.idl_name()}",
                    const.location,
                )

    # -- scoped-name lookup -------------------------------------------------------

    def _lookup_scoped(self, scoped_name, scope, location):
        """Resolve a scoped name, or report IDL002 and return None."""
        parts = scoped_name.split("::")
        if parts and parts[0] == "":
            # Leading :: — absolute lookup from file scope.
            scope = self._root_scope
            parts = parts[1:]
        decl = None
        if scope is not None:
            decl = scope.lookup(parts[0])
        if decl is None:
            self._error("IDL002", f"undefined name {parts[0]!r}", location)
            return None
        for part in parts[1:]:
            # Enum scoped like Heidi::Start resolves through the module; an
            # EnumDecl also answers for its enumerators.
            if isinstance(decl, ast.EnumDecl) and part in decl.enumerators:
                return decl
            inner_scope = self._scopes.get(id(decl))
            if inner_scope is None:
                self._error(
                    "IDL002",
                    f"{decl.name!r} does not name a scope (while resolving "
                    f"{scoped_name!r})",
                    location,
                )
                return None
            decl = inner_scope.lookup_local(part)
            if decl is None:
                self._error(
                    "IDL002",
                    f"{part!r} not found while resolving {scoped_name!r}", location
                )
                return None
        return decl

    # -- repository IDs --------------------------------------------------------------

    def _assign_repository_ids(self, node, prefix, path):
        node_prefix = getattr(node, "prefix", "") or prefix
        for child in ast.children(node):
            if isinstance(child, ast.Include):
                if child.spec is not None:
                    self._assign_repository_ids(child.spec, node_prefix, path)
                continue
            if not child.name:
                continue
            child_path = path + (child.name,)
            child.repository_id = self._repository_id_for(child, node_prefix, child_path)
            if isinstance(child, (ast.Module, ast.InterfaceDecl)):
                self._assign_repository_ids(child, node_prefix, child_path)
            if isinstance(child, ast.Operation):
                for param in child.parameters:
                    param.repository_id = ""
            if isinstance(child, ast.InterfaceDecl):
                for member in child.body:
                    if member.name:
                        member_path = child_path + (member.name,)
                        member.repository_id = self._repository_id_for(
                            member, node_prefix, member_path
                        )

    def _repository_id_for(self, decl, prefix, path):
        scoped = "::".join(path)
        explicit = self._pragma_ids.get(scoped) or self._pragma_ids.get(decl.name)
        if explicit:
            return explicit
        version = (
            self._pragma_versions.get(scoped)
            or self._pragma_versions.get(decl.name)
            or "1.0"
        )
        body = "/".join(path)
        if prefix:
            body = f"{prefix}/{body}"
        return f"IDL:{body}:{version}"

    # -- pass 4: operation-level checks -----------------------------------------------

    def _check_operations(self):
        for node in self._declarations.of(ast.Operation):
            self._check_operation(node)

    def _check_operation(self, op):
        if op.is_oneway:
            if op.return_type.idl_name() != "void":
                self._error(
                    "IDL005",
                    f"oneway operation {op.name!r} must return void", op.location
                )
            for param in op.parameters:
                if param.direction not in ("in", "incopy"):
                    self._error(
                        "IDL005",
                        f"oneway operation {op.name!r} may not have "
                        f"{param.direction!r} parameters",
                        param.location or op.location,
                    )
        # Default parameters must be trailing, exactly as in C++.
        seen_default = False
        for param in op.parameters:
            if param.default is not None:
                seen_default = True
                ok, value = self._try_evaluate(param.default, param.location)
                param.default_evaluated = value if ok else None
            elif seen_default:
                self._error(
                    "IDL007",
                    f"parameter {param.name!r} of {op.name!r} follows a defaulted "
                    "parameter but has no default",
                    param.location,
                )
        names = [p.name for p in op.parameters]
        if len(names) != len(set(names)):
            self._error(
                "IDL007",
                f"duplicate parameter names in operation {op.name!r}", op.location
            )

    # -- pass 5: by-value containment (IDL016) ----------------------------------

    def _check_containment(self):
        """A struct/union/exception that contains itself by value
        (directly or through typedefs/members) has no finite
        representation, and every back end that walks member types
        would recurse forever on it.  Recursion through a *sequence* is
        legal IDL and not flagged."""
        flagged = set()
        for node in self._declarations.of(*_BY_VALUE_DECLS):
            if id(node) in flagged:
                continue
            # DFS over the by-value containment graph looking for a cycle
            # back to `node`.
            stack = [(node, [node])]
            visited = set()
            while stack:
                current, path = stack.pop()
                for embedded in _embedded_declarations(current):
                    if embedded is node:
                        cycle = " -> ".join(d.scoped_name() for d in path + [node])
                        self._error(
                            "IDL016",
                            f"{node.scoped_name()!r} contains itself by value "
                            f"({cycle}); recursion is only legal through a "
                            "sequence",
                            node.location,
                        )
                        flagged.update(id(d) for d in path)
                        stack.clear()
                        break
                    if id(embedded) not in visited:
                        visited.add(id(embedded))
                        stack.append((embedded, path + [embedded]))


_BY_VALUE_DECLS = (ast.StructDecl, ast.UnionDecl, ast.ExceptionDecl)
_CHARS = (PrimitiveType(PrimitiveKind.CHAR), PrimitiveType(PrimitiveKind.WCHAR))


def _is_char(expr):
    """Whether *expr* is a character literal or names a char constant."""
    if isinstance(expr, ast.NameRef):
        return getattr(expr.declaration, "idl_type", None) in _CHARS
    return isinstance(expr, ast.Literal) and expr.kind == "char"


def _embedded_declarations(decl):
    """The declarations *decl*'s members embed by value, in member order.

    Sequences (and object references) break the by-value chain — a
    recursive sequence member is legal IDL — but arrays and typedef
    chains do not.
    """
    members = decl.cases if isinstance(decl, ast.UnionDecl) else decl.members
    embedded = []
    for member in members:
        idl_type = member.idl_type
        while True:
            if isinstance(idl_type, ArrayType):
                idl_type = idl_type.element
            elif (isinstance(idl_type, NamedType)
                    and isinstance(idl_type.declaration, ast.TypedefDecl)):
                idl_type = idl_type.declaration.aliased_type
            else:
                break
        if (isinstance(idl_type, NamedType)
                and isinstance(idl_type.declaration, _BY_VALUE_DECLS)):
            embedded.append(idl_type.declaration)
    return embedded


def evaluate_const(expr):
    """Evaluate a bound constant expression to a Python value."""
    if isinstance(expr, ast.Literal):
        if expr.kind == "fixed":
            return float(expr.value)
        return expr.value
    if isinstance(expr, ast.NameRef):
        decl = expr.declaration
        if isinstance(decl, ast.ConstDecl):
            if decl.evaluated is None:
                decl.evaluated = evaluate_const(decl.value)
            return decl.evaluated
        if isinstance(decl, ast.EnumDecl):
            simple = expr.scoped_name.split("::")[-1]
            if simple in decl.enumerators:
                return simple  # enumerators evaluate to their own name
        if decl is None:
            # Unbound reference (e.g. evaluated before analysis): treat the
            # trailing identifier as an enumerator-style symbol.
            return expr.scoped_name.split("::")[-1]
        raise IdlSemanticError(
            f"{expr.scoped_name!r} is not usable in a constant expression",
            expr.location,
        )
    if isinstance(expr, ast.UnaryExpr):
        arity, table = "unary", _UNARY_OPS
        operands = [evaluate_const(expr.operand)]
    elif isinstance(expr, ast.BinaryExpr):
        arity, table = "binary", _BINARY_OPS
        operands = [evaluate_const(expr.left), evaluate_const(expr.right)]
    else:
        raise IdlSemanticError(f"cannot evaluate {expr!r}",
                               getattr(expr, "location", None))
    function, operand_types = table.get(expr.op, (None, None))
    if function is None:
        raise IdlSemanticError(f"unknown {arity} operator {expr.op!r}",
                               expr.location)
    if any({type(value) for value in operands} <= types for types in operand_types):
        try:
            return function(*operands)
        except ZeroDivisionError:
            raise IdlSemanticError("division by zero in constant expression",
                                   expr.location) from None
        except (ValueError, OverflowError):  # a negative shift, a float too large
            pass
    raise IdlSemanticError(
        f"operator {expr.op!r} does not apply to "
        f"{' and '.join(map(repr, operands))}", expr.location)


def _int_div(left, right):
    if isinstance(left, int) and isinstance(right, int):
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    return left / right


#: Operator → (function, the operand types it applies to): arithmetic
#: to numbers; %, the shifts and ~ to integers; |, ^ and & to integers
#: or, as logical operators, to booleans.  ``type(TRUE)`` is ``bool``.
_NUMBERS, _INTEGERS, _BITS = ({int, float},), ({int},), ({int}, {bool})
_UNARY_OPS = {"-": (lambda a: -a, _NUMBERS), "+": (lambda a: +a, _NUMBERS),
              "~": (lambda a: ~a, _INTEGERS)}
_BINARY_OPS = {
    "|": (lambda a, b: a | b, _BITS),
    "^": (lambda a, b: a ^ b, _BITS),
    "&": (lambda a, b: a & b, _BITS),
    "<<": (lambda a, b: a << b, _INTEGERS),
    ">>": (lambda a, b: a >> b, _INTEGERS),
    "+": (lambda a, b: a + b, _NUMBERS),
    "-": (lambda a, b: a - b, _NUMBERS),
    "*": (lambda a, b: a * b, _NUMBERS),
    "/": (_int_div, _NUMBERS),
    "%": (lambda a, b: a % b, _INTEGERS),
}


def analyze(spec, reporter=None):
    """Run semantic analysis over *spec* in place and return it.

    Without a *reporter* the first problem raises
    :class:`~repro.idl.errors.IdlSemanticError` (fail-fast); with one —
    e.g. :class:`repro.lint.diagnostics.DiagnosticReporter` — every
    problem is collected and analysis continues as far as it can.
    """
    return SemanticAnalyzer(spec, reporter=reporter).run()
