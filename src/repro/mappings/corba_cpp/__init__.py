"""The CORBA-prescribed IDL→C++ mapping (paper Table 1, Table 2, Fig. 1).

This is the baseline the paper contrasts with: CORBA-specific data types
(``CORBA::Long``, ``CORBA::Boolean``...), ``_ptr``/``_var`` declarators,
stubs and skeletons related to the interface class by *inheritance*, and
a *tie* template as the only delegation escape hatch.  Default
parameters and ``incopy`` are not expressible in the prescribed mapping:
defaults are dropped and ``incopy`` degrades to ``in`` (with a comment
in the generated code), which is exactly the legacy-integration pain the
paper describes.
"""

from repro.est.view import TypeView
from repro.mappings.base import MappingPack, flat
from repro.mappings.registry import register_pack

#: IDL primitive → CORBA C++ type (the "Prescribed C++ Type" column of
#: Table 1, completed for all primitives).
CORBA_TYPE_TABLE = {
    "boolean": "CORBA::Boolean",
    "char": "CORBA::Char",
    "wchar": "CORBA::WChar",
    "octet": "CORBA::Octet",
    "short": "CORBA::Short",
    "unsigned short": "CORBA::UShort",
    "long": "CORBA::Long",
    "unsigned long": "CORBA::ULong",
    "long long": "CORBA::LongLong",
    "unsigned long long": "CORBA::ULongLong",
    "float": "CORBA::Float",
    "double": "CORBA::Double",
    "long double": "CORBA::LongDouble",
    "string": "char*",
    "wstring": "CORBA::WChar*",
    "any": "CORBA::Any",
    "void": "void",
    "Object": "CORBA::Object_ptr",
}

#: Categories passed as ``const T&`` / returned as ``T*``.
_BY_REFERENCE = ("struct", "union", "exception", "alias", "sequence", "array")
_BY_POINTER = ("struct", "union", "alias", "sequence", "array")


def map_type(value, ctx):
    """IDL type spelling → prescribed CORBA C++ parameter type.

    On an Alias node (the header's typedef line) it is the type the
    typedef names, with no ``_ptr`` or ``const &``; a struct is named
    ``struct X``, since the header defines structs after the typedefs.
    """
    view = TypeView(ctx.node)
    if view.idl in CORBA_TYPE_TABLE:
        return CORBA_TYPE_TABLE[view.idl]
    category = view.category
    if ctx.node.kind == "Alias":
        return ("struct " if category == "struct" else "") + flat(value)
    if category == "objref":
        return flat(value) + "_ptr"
    if category in _BY_REFERENCE:
        return "const " + flat(value) + "&"
    return flat(value)


def map_return_type(value, ctx):
    view = TypeView(ctx.node)
    if view.idl in CORBA_TYPE_TABLE:
        return CORBA_TYPE_TABLE[view.idl]
    category = view.category
    if category == "objref":
        return flat(value) + "_ptr"
    if category in _BY_POINTER:
        return flat(value) + "*"
    return flat(value)


def map_incopy_note(value, ctx):
    """The prescribed mapping cannot pass by value: annotate the loss."""
    direction = ctx.node.get("getType", "in") if ctx.node is not None else "in"
    if direction == "incopy":
        return " /* incopy not expressible: passed by reference */"
    return ""


@register_pack
class CorbaCppPack(MappingPack):
    """Template pack for the CORBA-prescribed C++ mapping."""

    name = "corba_cpp"
    language = "C++"
    description = (
        "CORBA-prescribed C++ mapping: CORBA:: data types, _ptr/_var, "
        "inheritance skeletons and tie templates (paper Table 1/Fig. 1)"
    )
    main_template = "main.tmpl"
    type_table = CORBA_TYPE_TABLE
    #: Vendor-ORB header stand-ins the generated code compiles against.
    runtime_assets = ("runtime/*.h", "runtime")

    def register_maps(self, registry):
        # The prescribed mapping nests interfaces in C++ namespaces; this
        # reproduction flattens the scope into the class name instead
        # (``Heidi::A`` → ``Heidi_A``), which keeps generated headers
        # self-contained while preserving the declarator structure
        # (``X_ptr``/``X_var``) the tables illustrate.
        registry.register_simple("CORBA::MapFlat", flat)
        registry.register("CORBA::MapType", map_type)
        registry.register("CORBA::MapReturnType", map_return_type)
        registry.register("CORBA::MapIncopyNote", map_incopy_note)


def class_hierarchy(generated_header):
    """Extract (class, bases) edges from a generated C++ header.

    Used by the Fig. 1 / Fig. 2 benches to show the inheritance (CORBA)
    versus delegation (HeidiRMI) relations the two packs generate.
    """
    import re

    edges = {}
    pattern = re.compile(
        r"(?:class|template\s*<[^>]*>\s*class)\s+([A-Za-z_][\w:]*)\s*:\s*([^\{\n]+)"
    )
    for match in pattern.finditer(generated_header):
        name = match.group(1)
        bases = [
            piece.strip().split()[-1]
            for piece in match.group(2).split(",")
            if piece.strip()
        ]
        edges[name] = bases
    return edges
