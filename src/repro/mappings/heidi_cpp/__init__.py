"""The HeidiRMI custom IDL→C++ mapping (paper, Section 3.1 and Fig. 3).

No CORBA-specific types appear in generated code: primitive IDL types
map to primitive C++ types, ``sequence`` and ``boolean`` map to the
Heidi-specific ``HdList`` and ``XBool``, interface ``Heidi::A`` maps to
class ``HdA``, default parameters map to C++ default parameters, and
skeletons *delegate* to the implementation class instead of being
inherited by it.
"""

from repro.est.view import TypeView
from repro.mappings.base import MappingPack
from repro.mappings.registry import register_pack

#: IDL primitive → Heidi C++ type (the "Alternate C++ Mapping" column of
#: Table 1, completed for all primitives).
HEIDI_TYPE_TABLE = {
    "boolean": "XBool",
    "char": "char",
    "wchar": "wchar_t",
    "octet": "unsigned char",
    "short": "short",
    "unsigned short": "unsigned short",
    "long": "long",
    "unsigned long": "unsigned long",
    "long long": "long long",
    "unsigned long long": "unsigned long long",
    "float": "float",
    "double": "double",
    "long double": "long double",
    "string": "HdString",
    "wstring": "HdWString",
    "any": "HdAny*",
    "void": "void",
    "Object": "HdObject*",
}

#: Marshalling method on the Heidi C++ Call object, per category.
_PUT_METHOD = {
    "boolean": "putBool",
    "char": "putChar",
    "wchar": "putWChar",
    "octet": "putOctet",
    "short": "putShort",
    "ushort": "putUShort",
    "long": "putLong",
    "ulong": "putULong",
    "longlong": "putLongLong",
    "ulonglong": "putULongLong",
    "float": "putFloat",
    "double": "putDouble",
    "longdouble": "putLongDouble",
    "string": "putString",
    "wstring": "putWString",
    "enum": "putEnum",
}

#: Categories mapped to a pointer, and those marshalled as an object.
_BY_POINTER = ("objref", "struct", "union", "alias", "array")
_COMPOSITE = ("objref", "struct", "union", "alias", "sequence", "array")


def map_class_name(value):
    """``Heidi::A`` → ``HdA`` (strip scope, prefix Hd)."""
    simple = str(value).split("::")[-1]
    return "Hd" + simple


def _category(view):
    """The view's category, except that the Heidi mapping gives a
    typedef a class of its own: a parameter of typedef'd type is an
    ``alias`` composite, passed and marshalled as an object."""
    return "alias" if view.alias is not None else view.category


def _element_type(element):
    """The mapped element type of a sequence's element view."""
    if element is None:
        return "HdAny*"
    if element.alias is not None:
        return map_class_name(element.alias)
    if element.category in ("objref", "enum", "alias", "struct", "union"):
        return map_class_name(element.spelling)
    return HEIDI_TYPE_TABLE.get(element.idl, "HdAny*")


def _cpp_type(view, value):
    if view.alias is not None:
        return map_class_name(view.alias) + "*"
    if view.idl in HEIDI_TYPE_TABLE:
        return HEIDI_TYPE_TABLE[view.idl]
    category = view.category
    if category == "sequence":
        return f"HdList<{_element_type(view.element)}>*"
    if category in _BY_POINTER:
        return map_class_name(value) + "*"
    return map_class_name(value)


def map_type(value, ctx):
    """IDL type spelling → Heidi C++ type, using the node's category.

    On an Alias node (the header's typedef line) it is the type the
    typedef names, with no pointer; a struct is named ``struct HdX``,
    since the header defines structs after the typedefs.
    """
    view = TypeView(ctx.node)
    if ctx.node.kind == "Alias" and view.idl is None:
        prefix = "struct " if view.category == "struct" else ""
        return prefix + map_class_name(value)
    return _cpp_type(view, value)


def map_default(value, ctx):
    """IDL default-value spelling → C++ constant (Fig. 3: Start, XTrue)."""
    text = str(value)
    if text == "TRUE":
        return "XTrue"
    if text == "FALSE":
        return "XFalse"
    if "::" in text:
        return text.split("::")[-1]
    return text


def map_put(value, ctx):
    """A C++ marshalling statement for the parameter under consideration.

    Synthesized entirely from the node context, so it can be attached to
    any variable name in a ``-map`` modifier.
    """
    category = _category(TypeView(ctx.node))
    name = ctx.node.get("paramName") or "value"
    if category in _COMPOSITE:
        if ctx.node.get("getType", "in") == "incopy":
            return f"call.putObjectByValue({name});"
        return f"call.putObject({name});"
    return f"call.{_PUT_METHOD.get(category, 'putAny')}({name});"


def _get_expression(view, source):
    """``source.getX()``, cast to the mapped type where C++ needs it."""
    category = _category(view)
    if category in _COMPOSITE:
        return f"({_cpp_type(view, view.spelling)}) {source}.getObject()"
    method = _PUT_METHOD.get(category, "putAny").replace("put", "get", 1)
    if category == "enum":
        # C++ forbids the implicit int→enum conversion.
        return f"({_cpp_type(view, view.spelling)}) {source}.{method}()"
    return f"{source}.{method}()"


def map_get(value, ctx):
    """A C++ unmarshalling expression for the parameter."""
    return _get_expression(TypeView(ctx.node), "call")


def map_return_put(value, ctx):
    """Marshal the implementation result into the reply (skeleton side)."""
    category = _category(TypeView(ctx.node))
    if category == "void":
        return "// void return"
    if category in _COMPOSITE:
        return "reply.putObject(result);"
    return f"reply.{_PUT_METHOD.get(category, 'putAny')}(result);"


def map_return_get(value, ctx):
    """Unmarshal the reply into the stub's return value (client side)."""
    view = TypeView(ctx.node)
    if view.category == "void":
        return "// void return"
    return f"return {_get_expression(view, 'reply')};"


@register_pack
class HeidiCppPack(MappingPack):
    """Template pack for the HeidiRMI C++ mapping."""

    name = "heidi_cpp"
    language = "C++"
    description = (
        "HeidiRMI custom C++ mapping: Hd-prefixed classes, Heidi data "
        "types, default parameters, delegation skeletons (paper Fig. 3)"
    )
    main_template = "main.tmpl"
    type_table = HEIDI_TYPE_TABLE
    #: The generic ORB library headers generated code compiles against.
    runtime_assets = ("runtime/*.hh", "runtime")

    def register_maps(self, registry):
        registry.register_simple("CPP::MapClassName", map_class_name)
        registry.register("CPP::MapType", map_type)
        registry.register("CPP::MapReturnType", map_type)
        registry.register("CPP::MapDefault", map_default)
        registry.register("CPP::MapPut", map_put)
        registry.register("CPP::MapGet", map_get)
        registry.register("CPP::MapReturnPut", map_return_put)
        registry.register("CPP::MapReturnGet", map_return_get)
