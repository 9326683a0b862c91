"""The IDL lint pass: collect-many semantics plus rules the fail-fast
checker cannot express.

:func:`lint_idl_source` hands :func:`repro.idl.parse` a collecting
reporter (every ``IDL00x`` problem in one run instead of aborting at the
first), then applies the pure lint rules over the tree it returns:

- **IDL010** identifiers in one scope that collide case-insensitively —
  IDL is case-insensitive for collision purposes (CORBA 2.3 §3.2.3)
  even though this front-end resolves names case-sensitively;
- **IDL011** forward-declared interfaces never defined;
- **IDL012/IDL013** typedefs and constants nothing references;
- **IDL014** ``incopy`` of an interface type — pass-by-value of an
  object reference copies the *reference*, not the object, which is
  usually not what the author of an ``incopy`` signature intended;
- **IDL015** ``oneway`` with ``raises`` — a fire-and-forget call can
  never deliver the exception.

(**IDL016**, by-value self-containment, is a semantic error and lives
in :func:`repro.idl.semantics.analyze`: back ends recurse over member
types, so it must be caught whether or not lint runs.)
"""

from repro.idl import ast, parse
from repro.idl import types as idl_types
from repro.lint.diagnostics import DiagnosticReporter, Note, Span


def lint_idl_source(source, filename="<string>", include_paths=(), reporter=None):
    """Lint IDL text; returns ``(spec_or_None, diagnostics)``."""
    if reporter is None:
        reporter = DiagnosticReporter(default_file=filename, source="idl")
    spec = parse(source, filename=filename, include_paths=include_paths,
                 reporter=reporter)
    if spec is not None:
        lint_spec(spec, reporter)
    return spec, reporter.diagnostics


def lint_spec(spec, reporter):
    """Apply the pure lint rules to an analyzed Specification.

    The tree is listed once; each rule reads the declarations of the
    classes it checks from that listing.
    """
    declarations = ast.Declarations(spec)
    _check_case_collisions(declarations, reporter)
    _check_undefined_forwards(spec, declarations, reporter)
    _check_unused(declarations, reporter)
    _check_incopy_interfaces(declarations, reporter)
    _check_oneway_raises(declarations, reporter)
    return reporter.diagnostics


# -- IDL010: case-insensitive collisions ------------------------------------

def _check_case_collisions(declarations, reporter):
    for scope in declarations.of(ast.Specification, ast.Module, ast.InterfaceDecl):
        members = ast.children(scope)
        if not members:
            continue
        by_folded = {}
        for decl in members:
            names = [decl.name] if decl.name else []
            if isinstance(decl, ast.EnumDecl):
                names.extend(decl.enumerators)
            for name in names:
                by_folded.setdefault(name.lower(), []).append((name, decl))
        for folded, entries in by_folded.items():
            distinct = {name for name, _ in entries}
            if len(distinct) < 2:
                continue
            first_name, first_decl = entries[0]
            for name, decl in entries[1:]:
                if name == first_name:
                    continue
                reporter.warning(
                    "IDL010",
                    f"{name!r} differs from {first_name!r} only by case; IDL "
                    "identifiers may not collide case-insensitively",
                    decl.location,
                    notes=[Note(
                        f"{first_name!r} declared here",
                        Span.from_location(first_decl.location),
                    )],
                )


# -- IDL011: forwards never defined ------------------------------------------

def _check_undefined_forwards(spec, declarations, reporter):
    seen = set()
    for node in declarations.of(ast.Forward):
        target = node.scoped_name()
        if target in seen:
            continue
        seen.add(target)
        definition = node.definition or spec.find(target)
        if not isinstance(definition, ast.InterfaceDecl):
            reporter.warning(
                "IDL011",
                f"forward-declared interface {target!r} is never defined",
                node.location,
            )


# -- IDL012/IDL013: unused typedefs and constants -----------------------------

def _referenced_declarations(declarations):
    """Every declaration some type reference or constant expression names."""
    referenced = set()

    def note_type(idl_type):
        while idl_type is not None:
            if isinstance(idl_type, idl_types.NamedType):
                if idl_type.declaration is not None:
                    referenced.add(id(idl_type.declaration))
                return
            if isinstance(idl_type, (idl_types.SequenceType, idl_types.ArrayType)):
                note_expr(getattr(idl_type, "bound_expr", None))
                idl_type = idl_type.element
                continue
            note_expr(getattr(idl_type, "bound_expr", None))
            return

    def note_expr(expr):
        if isinstance(expr, ast.NameRef):
            if expr.declaration is not None:
                referenced.add(id(expr.declaration))
        elif isinstance(expr, ast.UnaryExpr):
            note_expr(expr.operand)
        elif isinstance(expr, ast.BinaryExpr):
            note_expr(expr.left)
            note_expr(expr.right)

    for node in declarations.nodes:
        if isinstance(node, (ast.TypedefDecl,)):
            note_type(node.aliased_type)
        elif isinstance(node, (ast.Parameter,)):
            note_type(node.idl_type)
            note_expr(node.default)
        elif isinstance(node, ast.Operation):
            note_type(node.return_type)
            referenced.update(id(r) for r in node.resolved_raises)
        elif isinstance(node, ast.Attribute):
            note_type(node.idl_type)
        elif isinstance(node, (ast.StructMember, ast.UnionCase)):
            note_type(node.idl_type)
            for label in getattr(node, "labels", ()):
                note_expr(label)
        elif isinstance(node, ast.UnionDecl):
            note_type(node.discriminator)
        elif isinstance(node, ast.ConstDecl):
            note_type(node.idl_type)
            note_expr(node.value)
        elif isinstance(node, ast.InterfaceDecl):
            referenced.update(id(b) for b in node.resolved_bases)
    return referenced


def _check_unused(declarations, reporter):
    referenced = _referenced_declarations(declarations)
    for node in declarations.of(ast.TypedefDecl, ast.ConstDecl):
        if id(node) in referenced:
            continue
        if isinstance(node, ast.TypedefDecl):
            reporter.info(
                "IDL012",
                f"typedef {node.scoped_name()!r} is never referenced",
                node.location,
            )
        elif isinstance(node, ast.ConstDecl):
            reporter.info(
                "IDL013",
                f"constant {node.scoped_name()!r} is never referenced",
                node.location,
            )


# -- IDL014: incopy of an interface type ---------------------------------------

def _names_interface(idl_type):
    if isinstance(idl_type, idl_types.NamedType):
        decl = idl_type.declaration
        if isinstance(decl, ast.Forward):
            decl = decl.definition or decl
        return isinstance(decl, (ast.InterfaceDecl, ast.Forward))
    return isinstance(idl_type, idl_types.ObjectType)


def _check_incopy_interfaces(declarations, reporter):
    for node in declarations.of(ast.Parameter):
        if node.direction == "incopy" and _names_interface(node.idl_type):
            reporter.info(
                "IDL014",
                f"incopy parameter {node.name!r} has interface type "
                f"{node.idl_type.idl_name()}; only the object reference is "
                "copied, not the object state",
                node.location,
            )


# -- IDL015: oneway with raises ------------------------------------------------

def _check_oneway_raises(declarations, reporter):
    for node in declarations.of(ast.Operation):
        if node.is_oneway and node.raises:
            reporter.error(
                "IDL015",
                f"oneway operation {node.scoped_name()!r} declares raises "
                f"({', '.join(node.raises)}); a fire-and-forget call can "
                "never deliver an exception",
                node.location,
            )
