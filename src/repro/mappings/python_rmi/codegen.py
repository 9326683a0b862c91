"""Statement generators for the live Python mapping.

These functions build the marshal/unmarshal statement blocks that the
``python_rmi`` map functions splice into generated stub and skeleton
methods.  They work from EST nodes (type category, flattened type name,
element children) and return lists of source lines.

The supported surface covers everything the paper exercises and more:
all primitive types, strings, enums, structs, unions, ``any``
(self-describing values), sequences (arbitrarily nested), object
references (``in``/``incopy``/``out``/``inout``) and typedef aliases of
any of those.  The remaining exotics (``fixed``, ``native``, arrays)
are rejected with a clear error at generation time.
"""

from repro.model.errors import MarshalError

#: EST category → Call method suffix for primitives.
PRIMITIVE_METHOD = {
    "boolean": "boolean",
    "char": "char",
    "wchar": "char",
    "octet": "octet",
    "short": "short",
    "ushort": "ushort",
    "long": "long",
    "ulong": "ulong",
    "longlong": "longlong",
    "ulonglong": "ulonglong",
    "float": "float",
    "double": "double",
    "longdouble": "double",
    "string": "string",
    "wstring": "string",
}


def flat(value):
    """``Heidi::Status`` → ``Heidi_Status`` (generated class names)."""
    return str(value).replace("::", "_")


class TypeView:
    """Resolved view of a typed EST node (param/attr/return/member)."""

    def __init__(self, node):
        self.node = node
        category = node.get("type")
        type_name = node.get("typeName") or ""
        if category == "alias":
            resolved = node.get("aliasedCategory")
            if resolved is not None:
                category = resolved
                if resolved not in ("sequence",):
                    type_name = node.get("aliasedTypeName") or type_name
        self.category = category
        self.type_name = flat(type_name)

    @property
    def element(self):
        children = self.node.children("ElementType")
        return TypeView(children[0]) if children else None


def _unsupported(category, where):
    raise MarshalError(
        f"the python_rmi mapping does not support {category!r} {where}; "
        "supported: primitives, string, enum, struct, union, any, "
        "sequence, object references and aliases of those"
    )


def put_lines(node, name, direction="in", obj="call", depth=0, helper="self"):
    """Statements marshalling *name* (typed by *node*) into *obj*.

    ``helper`` selects how object values and the ORB are reached:
    ``"self"`` inside stub/skeleton methods (``self._put_object``,
    ``self._orb``), ``"module"`` inside generated struct/exception
    methods, which receive ``orb`` as an argument and use the
    module-level :func:`repro.heidirmi.serialize.put_object`.
    """
    return _put(TypeView(node), name, direction, obj, depth, helper)


def _put(view, name, direction, obj, depth, helper):
    category = view.category
    if category in PRIMITIVE_METHOD:
        return [f"{obj}.put_{PRIMITIVE_METHOD[category]}({name})"]
    if category == "enum":
        cls = view.type_name
        return [f"{obj}.put_enum({cls}.MEMBERS[{name}], {name})"]
    if category in ("objref", "Object"):
        if helper == "module":
            return [f"put_object({obj}, {name}, orb, {direction!r})"]
        return [f"self._put_object({obj}, {name}, {direction!r})"]
    if category in ("struct", "union"):
        orb_expr = "orb" if helper == "module" else "self._orb"
        return [f"{name}._hd_struct_put({obj}, {orb_expr})"]
    if category == "any":
        if helper == "module":
            return [f"put_any({obj}, {name}, orb)"]
        return [f"put_any({obj}, {name}, self._orb)"]
    if category == "sequence":
        element = view.element
        if element is None:
            _unsupported("sequence without element info", "here")
        item = f"_e{depth}"
        inner = _put(element, item, direction, obj, depth + 1, helper)
        return [
            f"{obj}.begin('sequence')",
            f"{obj}.put_ulong(len({name}))",
            f"for {item} in {name}:",
            *[f"    {line}" for line in inner],
            f"{obj}.end()",
        ]
    _unsupported(category, f"for value {name!r}")


def get_lines(node, target, obj="call", depth=0, helper="self"):
    """Statements unmarshalling into *target* from *obj*."""
    return _get(TypeView(node), target, obj, depth, helper)


def _get(view, target, obj, depth, helper):
    category = view.category
    if category in PRIMITIVE_METHOD:
        return [f"{target} = {obj}.get_{PRIMITIVE_METHOD[category]}()"]
    if category == "enum":
        cls = view.type_name
        return [f"{target} = {obj}.get_enum({cls}.MEMBERS)"]
    if category in ("objref", "Object"):
        if helper == "module":
            return [f"{target} = get_object({obj}, orb)"]
        return [f"{target} = self._get_object({obj})"]
    if category in ("struct", "union"):
        cls = view.type_name
        orb_expr = "orb" if helper == "module" else "self._orb"
        return [f"{target} = {cls}._hd_struct_get({obj}, {orb_expr})"]
    if category == "any":
        if helper == "module":
            return [f"{target} = get_any({obj}, orb)"]
        return [f"{target} = get_any({obj}, self._orb)"]
    if category == "sequence":
        element = view.element
        if element is None:
            _unsupported("sequence without element info", "here")
        index = f"_i{depth}"
        item = f"_v{depth}"
        inner = _get(element, item, obj, depth + 1, helper)
        return [
            f"{obj}.begin('sequence')",
            f"{target} = []",
            f"for {index} in range({obj}.get_ulong()):",
            *[f"    {line}" for line in inner],
            f"    {target}.append({item})",
            f"{obj}.end()",
        ]
    _unsupported(category, f"for target {target!r}")


def default_literal(node):
    """The Python default-value literal for a defaulted parameter."""
    text = node.get("defaultParam") or ""
    if not text:
        return None
    view = TypeView(node)
    if view.category == "boolean":
        if text == "TRUE":
            return "True"
        if text == "FALSE":
            return "False"
        return repr(bool(node.get("defaultValue")))
    if view.category == "enum":
        member = text.split("::")[-1]
        return f"{view.type_name}.{member}"
    if view.category in ("string", "wstring", "char", "wchar"):
        value = node.get("defaultValue")
        if value is None:
            value = text.strip('"').strip("'")
        return repr(value)
    if view.category in ("objref", "Object"):
        return "None"
    # Numeric: the IDL spelling is already a Python literal (the parser
    # normalises hex/octal into the evaluated value when available).
    value = node.get("defaultValue")
    return repr(value) if value is not None else text


def method_params(op_node):
    """(signature_parts, in_params, out_params) for an Operation node."""
    signature = ["self"]
    in_params = []
    out_params = []
    for param in op_node.children("Param"):
        direction = param.get("getType", "in")
        if direction in ("in", "incopy", "inout"):
            default = default_literal(param)
            if default is not None:
                signature.append(f"{param.name}={default}")
            else:
                signature.append(param.name)
            in_params.append(param)
        if direction in ("out", "inout"):
            out_params.append(param)
    return signature, in_params, out_params
