"""Lower an IDL declaration AST to an Enhanced Syntax Tree.

The builder reproduces the paper's Fig. 7/Fig. 8 structure: one node per
IDL construct, children grouped by kind, and the property vocabulary the
paper's templates consume (``type``, ``typeName``, ``getType``,
``defaultParam``, ``IsVariable``, ``Parent``, ``members``...).

Every node also carries the IDL spelling of its type (``paramType``,
``returnType``, ``attributeType``, ...) which is what the ``-map``
functions of a mapping pack transform into target-language type names.
"""

from repro.idl import ast as idl_ast
from repro.idl import types as idl_types
from repro.est.node import Ast


def build_est(spec, include_forwards=False):
    """Build the EST for a parsed :class:`~repro.idl.ast.Specification`."""
    root = Ast("Root", "Root")
    root.add_prop("file", getattr(spec, "filename", "<string>"))
    _build_scope(spec.declarations, root, include_forwards)
    return root


def _build_scope(declarations, parent, include_forwards):
    for decl in declarations:
        node = _build_declaration(decl, parent, include_forwards)
        if node is not None and decl.name and "scopedName" not in node.props:
            node.add_prop("scopedName", decl.scoped_name())


def _build_declaration(decl, parent, include_forwards):
    if isinstance(decl, idl_ast.Include):
        # Included declarations are inlined into the including scope, the
        # way the OmniBroker front-end presents a preprocessed file.
        if decl.spec is not None:
            _build_scope(decl.spec.declarations, parent, include_forwards)
        return None
    if isinstance(decl, idl_ast.Module):
        return _build_module(decl, parent, include_forwards)
    if isinstance(decl, idl_ast.InterfaceDecl):
        return _build_interface(decl, parent, include_forwards)
    if isinstance(decl, idl_ast.Forward):
        if include_forwards and decl.definition is None:
            node = Ast(decl.name, "Forward", parent)
            node.add_prop("repoId", decl.repository_id)
            return node
        return None
    if isinstance(decl, idl_ast.EnumDecl):
        return _build_enum(decl, parent)
    if isinstance(decl, idl_ast.TypedefDecl):
        return _build_alias(decl, parent)
    if isinstance(decl, idl_ast.StructDecl):
        return _build_struct(decl, parent)
    if isinstance(decl, idl_ast.UnionDecl):
        return _build_union(decl, parent)
    if isinstance(decl, idl_ast.ExceptionDecl):
        return _build_exception(decl, parent)
    if isinstance(decl, idl_ast.ConstDecl):
        return _build_const(decl, parent)
    if isinstance(decl, idl_ast.Attribute):
        return _build_attribute(decl, parent)
    if isinstance(decl, idl_ast.Operation):
        return _build_operation(decl, parent)
    if isinstance(decl, idl_ast.NativeDecl):
        node = Ast(decl.name, "Native", parent)
        node.add_prop("repoId", decl.repository_id)
        return node
    raise TypeError(f"cannot lower {decl!r} to an EST node")


def _build_module(decl, parent, include_forwards):
    node = Ast(decl.name, "Module", parent)
    node.add_prop("repoId", decl.repository_id)
    if decl.prefix:
        node.add_prop("prefix", decl.prefix)
    _build_scope(decl.declarations, node, include_forwards)
    return node


def _build_interface(decl, parent, include_forwards):
    node = Ast(decl.name, "Interface", parent)
    node.add_prop("repoId", decl.repository_id)
    node.add_prop("scopedName", decl.scoped_name())
    if decl.is_abstract:
        node.add_prop("abstract", "abstract")
    if decl.bases:
        # Fig. 8 records the first parent under "Parent" with a flattened
        # name; the full list is available as Inherited children.
        first = decl.resolved_bases[0] if decl.resolved_bases else None
        flattened = (
            first.scoped_name("_") if first is not None else decl.bases[0].replace("::", "_")
        )
        node.add_prop("Parent", flattened)
    for index, base_name in enumerate(decl.bases):
        resolved = (
            decl.resolved_bases[index] if index < len(decl.resolved_bases) else None
        )
        scoped = resolved.scoped_name() if resolved is not None else base_name
        inherited = Ast(scoped, "Inherited", node)
        inherited.add_prop("typeName", scoped.replace("::", "_"))
        if resolved is not None:
            inherited.add_prop("repoId", resolved.repository_id)
    _build_scope(decl.body, node, include_forwards)
    _expand_secondary_bases(decl, node)
    return node


def _expand_secondary_bases(decl, node):
    """Flatten multiple inheritance for single-inheritance targets.

    The paper's Java mapping "expanded multiple super-classes in order to
    get around the unavailability of multiple inheritance in Java": the
    generated class extends the *first* base and re-declares everything
    contributed by the remaining bases.  Those re-declarations appear in
    the EST as ExpandedOp/ExpandedAttr children, so a template for a
    single-inheritance language can emit them with a plain @foreach.
    """
    if len(decl.resolved_bases) <= 1:
        return
    primary = decl.resolved_bases[0]
    primary_chain = {id(primary)}
    primary_chain.update(id(base) for base in primary.all_bases())
    for extra_base in decl.resolved_bases[1:]:
        chain = extra_base.all_bases() + [extra_base]
        for ancestor in chain:
            if id(ancestor) in primary_chain:
                continue
            primary_chain.add(id(ancestor))
            for operation in ancestor.operations():
                _build_operation(operation, node, kind="ExpandedOp")
            for attribute in ancestor.attributes():
                expanded = Ast(attribute.name, "ExpandedAttr", node)
                expanded.add_prop("repoId", attribute.repository_id)
                _add_type_props(expanded, attribute.idl_type, role="attributeType")
                expanded.add_prop(
                    "attributeQualifier", "readonly" if attribute.readonly else ""
                )


def _build_operation(decl, parent, kind="Operation"):
    node = Ast(decl.name, kind, parent)
    node.add_prop("repoId", decl.repository_id)
    _add_type_props(node, decl.return_type, role="returnType")
    if decl.is_oneway:
        node.add_prop("oneway", "oneway")
    if decl.raises:
        node.add_prop("raises", list(decl.raises))
    if decl.context:
        node.add_prop("context", list(decl.context))
    for param in decl.parameters:
        _build_parameter(param, node)
    return node


def _build_parameter(param, parent):
    node = Ast(param.name, "Param", parent)
    _add_type_props(node, param.idl_type, role="paramType")
    node.add_prop("getType", param.direction)
    node.add_prop("direction", param.direction)
    if param.default is not None:
        node.add_prop("defaultParam", str(param.default))
        evaluated = getattr(param, "default_evaluated", None)
        if evaluated is not None:
            node.add_prop("defaultValue", evaluated)
    else:
        node.add_prop("defaultParam", "")
    return node


def _build_attribute(decl, parent):
    node = Ast(decl.name, "Attribute", parent)
    node.add_prop("repoId", decl.repository_id)
    _add_type_props(node, decl.idl_type, role="attributeType")
    node.add_prop("attributeQualifier", "readonly" if decl.readonly else "")
    return node


def _build_enum(decl, parent):
    node = Ast(decl.name, "Enum", parent)
    node.add_prop("repoId", decl.repository_id)
    node.add_prop("members", list(decl.enumerators))
    return node


def _build_alias(decl, parent):
    node = Ast(decl.name, "Alias", parent)
    node.add_prop("repoId", decl.repository_id)
    aliased = decl.aliased_type
    node.add_prop("type", _category(aliased))
    node.add_prop("aliasedType", _scoped_spelling(aliased))
    if isinstance(aliased, idl_types.SequenceType):
        # Fig. 8 nests a Sequence child describing the element type.
        seq = Ast("", "Sequence", node)
        _add_type_props(seq, aliased.element, role="elementType")
        if aliased.bound:
            seq.add_prop("bound", aliased.bound)
    elif isinstance(aliased, idl_types.ArrayType):
        arr = Ast("", "Array", node)
        _add_type_props(arr, aliased.element, role="elementType")
        arr.add_prop("dimensions", list(aliased.dimensions))
    return node


def _build_struct(decl, parent):
    node = Ast(decl.name, "Struct", parent)
    node.add_prop("repoId", decl.repository_id)
    node.add_prop("IsVariable", decl.is_variable_type())
    for member in decl.members:
        child = Ast(member.name, "Member", node)
        _add_type_props(child, member.idl_type, role="memberType")
    return node


def _build_union(decl, parent):
    node = Ast(decl.name, "Union", parent)
    node.add_prop("repoId", decl.repository_id)
    node.add_prop("IsVariable", decl.is_variable_type())
    _add_type_props(node, decl.discriminator, role="switchType")
    for case in decl.cases:
        child = Ast(case.name, "Case", node)
        _add_type_props(child, case.idl_type, role="caseType")
        child.add_prop(
            "labels",
            ["default" if label is None else str(label) for label in case.labels],
        )
        child.add_prop("labelValues", _evaluated_labels(case.labels))
    return node


def _evaluated_labels(labels):
    """Case labels as evaluated Python values ('default' for default)."""
    from repro.idl.semantics import evaluate_const
    from repro.idl.errors import IdlSemanticError

    evaluated = []
    for label in labels:
        if label is None:
            evaluated.append("default")
            continue
        try:
            evaluated.append(evaluate_const(label))
        except IdlSemanticError:
            evaluated.append(str(label))
    return evaluated


def _build_exception(decl, parent):
    node = Ast(decl.name, "Exception", parent)
    node.add_prop("repoId", decl.repository_id)
    node.add_prop("IsVariable", decl.is_variable_type())
    for member in decl.members:
        child = Ast(member.name, "Member", node)
        _add_type_props(child, member.idl_type, role="memberType")
    return node


def _build_const(decl, parent):
    node = Ast(decl.name, "Const", parent)
    node.add_prop("repoId", decl.repository_id)
    _add_type_props(node, decl.idl_type, role="constType")
    node.add_prop("value", str(decl.value))
    if decl.evaluated is not None:
        node.add_prop("evaluated", decl.evaluated)
    return node


# ---------------------------------------------------------------------------
# Type property derivation
# ---------------------------------------------------------------------------

_PRIMITIVE_CATEGORIES = {
    idl_types.PrimitiveKind.BOOLEAN: "boolean",
    idl_types.PrimitiveKind.CHAR: "char",
    idl_types.PrimitiveKind.WCHAR: "wchar",
    idl_types.PrimitiveKind.OCTET: "octet",
    idl_types.PrimitiveKind.SHORT: "short",
    idl_types.PrimitiveKind.USHORT: "ushort",
    idl_types.PrimitiveKind.LONG: "long",
    idl_types.PrimitiveKind.ULONG: "ulong",
    idl_types.PrimitiveKind.LONGLONG: "longlong",
    idl_types.PrimitiveKind.ULONGLONG: "ulonglong",
    idl_types.PrimitiveKind.FLOAT: "float",
    idl_types.PrimitiveKind.DOUBLE: "double",
    idl_types.PrimitiveKind.LONGDOUBLE: "longdouble",
}


def _category(idl_type):
    """The EST ``type`` category string for an IDL type (cf. Fig. 8)."""
    if isinstance(idl_type, idl_types.VoidType):
        return "void"
    if isinstance(idl_type, idl_types.PrimitiveType):
        return _PRIMITIVE_CATEGORIES[idl_type.kind]
    if isinstance(idl_type, idl_types.StringType):
        return "wstring" if idl_type.wide else "string"
    if isinstance(idl_type, idl_types.SequenceType):
        return "sequence"
    if isinstance(idl_type, idl_types.ArrayType):
        return "array"
    if isinstance(idl_type, idl_types.AnyType):
        return "any"
    if isinstance(idl_type, idl_types.ObjectType):
        return "objref"
    if isinstance(idl_type, idl_types.FixedType):
        return "fixed"
    if isinstance(idl_type, idl_types.NamedType):
        decl = idl_type.declaration
        if isinstance(decl, (idl_ast.InterfaceDecl, idl_ast.Forward)):
            return "objref"
        if isinstance(decl, idl_ast.EnumDecl):
            return "enum"
        if isinstance(decl, idl_ast.StructDecl):
            return "struct"
        if isinstance(decl, idl_ast.UnionDecl):
            return "union"
        if isinstance(decl, idl_ast.TypedefDecl):
            return "alias"
        if isinstance(decl, idl_ast.NativeDecl):
            return "native"
        return "named"
    raise TypeError(f"no EST category for {idl_type!r}")


def _flattened_name(idl_type):
    """The underscore-joined scoped name Fig. 8 stores under ``typeName``."""
    if isinstance(idl_type, idl_types.NamedType):
        decl = idl_type.declaration
        if decl is not None:
            return decl.scoped_name("_")
        return idl_type.scoped_name.replace("::", "_")
    if isinstance(idl_type, idl_types.ObjectType):
        return "Object"
    return idl_type.idl_name()


def _scoped_spelling(idl_type):
    """The ``::``-joined spelling used as map-function input."""
    if isinstance(idl_type, idl_types.NamedType):
        decl = idl_type.declaration
        if decl is not None:
            return decl.scoped_name()
        return idl_type.scoped_name
    return idl_type.idl_name()


def _add_type_props(node, idl_type, role):
    """Attach the Fig. 8 type vocabulary plus the role-named spelling."""
    node.add_prop("type", _category(idl_type))
    node.add_prop(role, _scoped_spelling(idl_type))
    if isinstance(idl_type, (idl_types.NamedType, idl_types.ObjectType)):
        node.add_prop("typeName", _flattened_name(idl_type))
    node.add_prop("IsVariable", bool(idl_type.is_variable))
    if isinstance(idl_type, idl_types.StringType) and idl_type.bound:
        node.add_prop("bound", idl_type.bound)
    if isinstance(idl_type, idl_types.SequenceType):
        element = Ast("", "ElementType", node)
        _add_type_props(element, idl_type.element, role="elementType")
        if idl_type.bound:
            node.add_prop("bound", idl_type.bound)
    if _category(idl_type) == "alias":
        _add_alias_resolution(node, idl_type)
    return node


def _add_alias_resolution(node, idl_type):
    """Expose what a typedef ultimately names, for marshalling templates.

    A parameter of type ``Heidi::SSequence`` has category ``alias``; its
    generated marshalling code needs the *underlying* type.  The chain
    of typedefs is followed and recorded as ``aliasedCategory``, with
    the underlying type's spelling (``aliasedType``), its flattened name
    (``aliasedTypeName``) and an ElementType child when it is a sequence.
    """
    underlying = idl_type
    seen = set()
    while isinstance(underlying, idl_types.NamedType):
        decl = underlying.declaration
        if not isinstance(decl, idl_ast.TypedefDecl) or id(decl) in seen:
            break
        seen.add(id(decl))
        underlying = decl.aliased_type
    if underlying is idl_type:
        return
    node.add_prop("aliasedCategory", _category(underlying))
    node.add_prop("aliasedType", _scoped_spelling(underlying))
    node.add_prop("aliasedTypeName", _flattened_name(underlying))
    if isinstance(underlying, idl_types.SequenceType):
        element = Ast("", "ElementType", node)
        _add_type_props(element, underlying.element, role="elementType")
        if underlying.bound:
            node.add_prop("bound", underlying.bound)
