"""The live IDL→Python mapping: a template plus a table.

Generated modules run directly on :mod:`repro.heidirmi`: abstract
interface classes (delegation — an implementation need not inherit
anything), stub classes mirroring the IDL inheritance graph, delegation
skeletons with recursive dispatch, enum/struct/union/exception classes,
and type-registry registration.  Default parameters become Python
defaults; ``incopy`` parameters pass serializable objects by value.

Every class body is written in the pack's templates.  ``main.tmpl`` and
``client_only.tmpl`` are ``module.tmpl`` with and without its skeletons
(``skeleton.tmpl``); the value classes come from ``types.tmpl``.  What
stays code is the table :meth:`PythonRmiPack.register_maps` fills: the
statements that put or get one typed value (``PY::Marshal``, from one
statement table, recursive for nested sequences) and small expression
maps.

This pack is what makes Figs. 4 and 5 *executable* in this
reproduction: the same template machinery that prints C++/Java/Tcl
emits Python that the test suite actually calls over real sockets.
"""

from repro.est.node import Ast
from repro.est.view import TypeView
from repro.mappings.base import MappingPack, flat
from repro.mappings.registry import register_pack
from repro.model.errors import MarshalError
from repro.model.marshal import RUN_KINDS

PYTHON_TYPE_TABLE = {
    "boolean": "bool", "char": "str (1 char)", "octet": "int",
    "short": "int", "unsigned short": "int", "long": "int",
    "unsigned long": "int", "long long": "int", "unsigned long long": "int",
    "float": "float", "double": "float", "string": "str", "void": "None",
}

#: A struct or exception field's default value by type category; any
#: other category (object, struct, union, sequence, any) defaults to None.
_FIELD_DEFAULT = {
    "boolean": "False", "char": "'\\0'", "wchar": "'\\0'", "string": "''",
    "wstring": "''", "float": "0.0", "double": "0.0", "longdouble": "0.0",
    **dict.fromkeys(("octet", "short", "ushort", "long", "ulong", "longlong",
                     "ulonglong", "enum"), "0"),
}

#: Node kinds whose statements run inside a generated value class
#: (struct, union, exception), which is handed the ORB as ``orb``.
_VALUE_CLASS_KINDS = ("Member", "Case", "Union")

#: (put, get) statement per type category that is neither a primitive,
#: which the ``Call`` method table covers, nor a sequence.  ``{orb}`` is
#: ``orb`` in a value class and ``self._orb`` in a stub or skeleton,
#: which reach objects through their own helpers.
_STATEMENTS = {
    "enum": ("{obj}.put_enum({cls}.MEMBERS[{name}], {name})",
             "{name} = {obj}.get_enum({cls}.MEMBERS)"),
    "struct": ("{name}._hd_struct_put({obj}, {orb})",
               "{name} = {cls}._hd_struct_get({obj}, {orb})"),
    "any": ("put_any({obj}, {name}, {orb})", "{name} = get_any({obj}, {orb})"),
    "objref": ("self._put_object({obj}, {name}, {direction!r})",
               "{name} = self._get_object({obj})"),
    "objref in a value": ("put_object({obj}, {name}, orb, {direction!r})",
                          "{name} = get_object({obj}, orb)"),
}


def _marshal(verb, view, name, obj, direction, in_value, depth=0):
    """Statement lines that put *name*, of the type *view* reads, into
    *obj* (*verb* ``put``) or get it from *obj* (``get``)."""
    put, method = verb == "put", view.method
    if method:
        return [f"{obj}.put_{method}({name})" if put
                else f"{name} = {obj}.get_{method}()"]
    key = {"union": "struct", "Object": "objref"}.get(view.category,
                                                      view.category)
    if key == "objref" and in_value:
        key = "objref in a value"
    if key in _STATEMENTS:
        return [_STATEMENTS[key][not put].format(
            obj=obj, name=name, cls=view.type_name, direction=direction,
            orb="orb" if in_value else "self._orb")]
    element = view.element
    if key != "sequence" or element is None:
        raise MarshalError(
            f"the python_rmi mapping does not support {view.category!r} "
            f"for {name!r}; supported: primitives, string, enum, struct, "
            "union, any, sequence, object references and aliases of those")
    kind = element.method if element.method in RUN_KINDS else None
    item = f"_e{depth}" if put else f"_v{depth}"
    if kind:  # a run of numeric primitives: one put_seq / get_seq
        body = [f"{obj}.put_seq({kind!r}, {name})" if put
                else f"{name} = {obj}.get_seq({kind!r}, {obj}.get_ulong())"]
    else:
        inner = [f"    {line}" for line in _marshal(
            verb, element, item, obj, direction, in_value, depth + 1)]
        body = ([f"for {item} in {name}:", *inner] if put else
                [f"{name} = []", f"for _i{depth} in range({obj}.get_ulong()):",
                 *inner, f"    {name}.append({item})"])
    length = [f"{obj}.put_ulong(len({name}))"] if put else []
    return [f"{obj}.begin('sequence')", *length, *body, f"{obj}.end()"]


def map_marshal(value, ctx):
    """``PY::Marshal``: the statements that put or get one value of the
    node's type.

    *value* is ``<put|get> <call|reply> <expression>``, bound by the
    template with ``@set marshal ...``; a ``*`` in the expression stands
    for the node's name.  An object goes by reference, or by copy where
    the call carries an ``incopy`` parameter.
    """
    verb, obj, name = value.split()
    node = ctx.node
    direction = node.props.get("getType", "in") if obj == "call" else "in"
    return "\n".join(_marshal(verb, TypeView(node), name.replace("*", node.name),
                              obj, direction, node.kind in _VALUE_CLASS_KINDS))


def _default_literal(node):
    """The Python literal of a parameter's IDL default, or None."""
    text = node.props["defaultParam"]
    if not text:
        return None
    view, value = TypeView(node), node.props.get("defaultValue")
    if view.category == "boolean":
        return {"TRUE": "True", "FALSE": "False"}.get(text, repr(bool(value)))
    if view.category == "enum":
        return f"{view.type_name}.{text.split('::')[-1]}"
    if view.category in ("string", "wstring", "char", "wchar"):
        return repr(text.strip('"').strip("'") if value is None else value)
    if view.category in ("objref", "Object"):
        return "None"
    # Numeric: the parser evaluates hex/octal spellings when it can.
    return repr(value) if value is not None else text


#: The parameter directions a caller sends, and those a reply returns.
_SENT, _RETURNED = ("in", "incopy", "inout"), ("out", "inout")


def _params(op, directions):
    """The operation's parameters passed in one of *directions*."""
    return [p for p in op.groups.get("paramList", ())
            if p.props["getType"] in directions]


def map_signature(value, ctx):
    """``PY::Signature``: ``self`` and the sent parameters, defaults
    included, of the operation under consideration."""
    parts = ["self"]
    for param in _params(ctx.node, _SENT):
        default = _default_literal(param)
        parts.append(param.name if default is None
                     else f"{param.name}={default}")
    return ", ".join(parts)


def map_args(value, ctx):
    """``PY::Args``: the sent parameter names, as a skeleton passes
    them on to the implementation."""
    return ", ".join(param.name for param in _params(ctx.node, _SENT))


def map_results(value, ctx):
    """``PY::Results``: ``_result`` and ``_<name>`` per out or inout
    parameter, as one expression (a tuple for several, '' for none)."""
    node = ctx.node
    results = ["_result"] if node.props["type"] != "void" else []
    results += [f"_{param.name}" for param in _params(node, _RETURNED)]
    if len(results) == 1:
        return results[0]
    return f"({', '.join(results)})" if results else ""


def map_returns(value, ctx):
    """``PY::Returns``: the same, in words, for a scaffold's TODO."""
    node = ctx.node
    returns = ["a result"] if node.props["type"] != "void" else []
    returns += [f"out parameter {param.name!r}"
                for param in _params(node, _RETURNED)]
    return " and ".join(returns) or "nothing"


def map_label(value, ctx):
    """``PY::Label``: the test on ``_d`` that selects the union case
    under consideration by its labels other than ``default`` ('' when
    ``default`` is its only label)."""
    disc = TypeView(ctx.node.parent)  # a union's type props are its switch's
    literals = []
    for label in ctx.node.get("labelValues") or []:
        if label == "default":
            continue
        if disc.category == "enum" and isinstance(label, str):
            literals.append(f"{disc.type_name}.{label}")
        elif disc.category == "boolean":
            literals.append("True" if label in (True, "TRUE") else "False")
        else:
            literals.append(repr(label))
    if len(literals) == 1:
        return f"_d == {literals[0]}"
    return f"_d in ({', '.join(literals)},)" if literals else ""


def map_field_default(value, ctx):
    """``PY::FieldDefault``: a struct or exception field's default."""
    return _FIELD_DEFAULT.get(TypeView(ctx.node).category, "None")


def map_category(value, ctx):
    """``PY::Category``: the node's type category, typedefs followed."""
    return TypeView(ctx.node).category


def _implementations(interfaces):
    """Per interface, the members an implementation of it must answer:
    its own operations and attributes, then each inherited interface's
    (bases breadth-first), every name once.  A node per interface, with
    one ``interfaceList`` section per interface that adds members; what
    ``impl_scaffold.tmpl`` iterates as ``implementationList``."""
    by_scoped = {node.get("scopedName"): node for node in interfaces}
    result = []
    for node in interfaces:
        impl = Ast(node.name, "Interface")
        impl.props.update(node.props)
        seen, visited, queue = set(), set(), [node]
        while queue:
            interface = queue.pop(0)
            methods = [op for op in interface.children("Operation")
                       if op.name not in seen]
            seen.update(op.name for op in methods)
            attributes = [attr for attr in interface.children("Attribute")
                          if f"get_{attr.name}" not in seen]
            seen.update(f"get_{attr.name}" for attr in attributes)
            if methods or attributes:
                section = Ast(interface.name, "Interface", impl)
                section.groups.update(methodList=methods,
                                      attributeList=attributes)
            for base in interface.children("Inherited"):
                if base.name in by_scoped and base.name not in visited:
                    visited.add(base.name)
                    queue.append(by_scoped[base.name])
        result.append(impl)
    return result


@register_pack
class PythonRmiPack(MappingPack):
    """Template pack for the executable Python mapping."""

    name = "python_rmi"
    language = "Python"
    description = (
        "Live Python mapping: generated stubs/skeletons run on the "
        "repro.heidirmi runtime over real transports"
    )
    main_template = "main.tmpl"
    type_table = PYTHON_TYPE_TABLE

    def variables(self, spec, est):
        """``pyInterfaceList`` aliases the base topological ordering:
        Python executes the module top to bottom, so base classes must
        be generated before their subclasses.  ``implementationList``
        holds each interface with its inherited members folded in."""
        merged = super().variables(spec, est)
        merged["pyInterfaceList"] = merged["topoInterfaceList"]
        merged["implementationList"] = _implementations(
            merged["topoInterfaceList"])
        return merged

    def register_maps(self, registry):
        registry.register_simple("PY::Flat", flat)
        registry.register("PY::Marshal", map_marshal)
        registry.register("PY::Signature", map_signature)
        registry.register("PY::Args", map_args)
        registry.register("PY::Results", map_results)
        registry.register("PY::Returns", map_returns)
        registry.register("PY::Label", map_label)
        registry.register("PY::FieldDefault", map_field_default)
        registry.register("PY::Category", map_category)


def generate_module(spec, pack=None):
    """Generate, exec and return the mapping module namespace for *spec*.

    The namespace contains the generated classes (``Heidi_A_stub`` ...)
    and has already registered them with the global type registry.
    """
    pack = pack or PythonRmiPack()
    sink = pack.generate(spec)
    files = sink.files()
    (path, source), = files.items()
    namespace = {"__name__": f"repro.mappings.python_rmi._generated"}
    exec(compile(source, path, "exec"), namespace)
    return namespace
