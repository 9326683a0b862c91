"""The HeidiRMI-compatible IDL→Java mapping (paper, Section 4.2).

"The class inheritance structure in our IDL-Java mapping was similar to
the HeidiRMI C++ mapping, but expanded multiple super-classes in order
to get around the unavailability of multiple inheritance in Java.  The
IDL-Java mapping we implemented also does not support default
parameters as the corresponding C++ mapping does."

The pack generates *runnable* Java: per-interface abstract classes
(first base extended, the rest expanded), enum classes (pre-Java-5 int
constants), struct classes with text-protocol marshalling, and client
stubs built on the shipped ``runtime/`` Java library — the generated
code compiles with javac and calls the Python HeidiRMI ORB over the
text protocol (the integration tests do exactly that).

Mapping decisions, documented:

- default parameter values are dropped (the paper says so explicitly);
- object references surface as ``HdObjRef`` in stub signatures (a
  caller wraps them in a typed stub when needed);
- pass-by-value (`incopy`) degrades to by-reference — the Java client
  side has no serializable registry;
- sequences map to ``java.util.Vector`` (it is 2000) with typed
  helpers for string/integer/objref elements.
"""

from repro.est.view import TypeView
from repro.mappings.base import MappingPack
from repro.mappings.heidi_cpp import map_class_name
from repro.mappings.registry import register_pack

JAVA_TYPE_TABLE = {
    "boolean": "boolean",
    "char": "char",
    "wchar": "char",
    "octet": "byte",
    "short": "short",
    "unsigned short": "short",
    "long": "int",
    "unsigned long": "int",
    "long long": "long",
    "unsigned long long": "long",
    "float": "float",
    "double": "double",
    "long double": "double",
    "string": "String",
    "wstring": "String",
    "any": "Object",
    "void": "void",
    "Object": "HdObjRef",
}

#: Integer categories that extract via extractLong + a narrowing cast.
_INT_CATEGORIES = {
    "octet": "byte",
    "short": "short",
    "ushort": "short",
    "long": "int",
    "ulong": "int",
    "longlong": "long",
    "ulonglong": "long",
}


def _java_type(view):
    category = view.category
    if category == "objref":
        return "HdObjRef"
    if category == "enum":
        return "int"
    if category in ("struct", "union"):
        return map_class_name(view.spelling)
    if category == "sequence":
        element = view.element
        if element is not None and element.category == "objref":
            return "java.util.Vector<HdObjRef>"
        if element is not None and element.category in _INT_CATEGORIES:
            return "java.util.Vector<Long>"
        return "java.util.Vector<String>"
    if view.idl in JAVA_TYPE_TABLE:
        return JAVA_TYPE_TABLE[view.idl]
    return map_class_name(view.spelling)


def map_type(value, ctx):
    return _java_type(TypeView(ctx.node)) if ctx.node is not None else str(value)


def _insert_statement(view, name):
    category = view.category
    if category == "boolean":
        return f"c.insertBoolean({name});"
    if category in _INT_CATEGORIES:
        return f"c.insertLong({name});"
    if category in ("float", "double", "longdouble"):
        return f"c.insertDouble({name});"
    if category in ("char", "wchar"):
        return f"c.insertChar({name});"
    if category in ("string", "wstring"):
        return f"c.insertString({name});"
    if category == "enum":
        enum_class = map_class_name(view.spelling)
        return f"c.insertEnum({enum_class}.MEMBERS[{name}]);"
    if category == "objref":
        return f"c.insertObject({name});"
    if category == "struct":
        return f"{name}.insertInto(c);"
    if category == "sequence":
        element = view.element
        if element is not None and element.category == "objref":
            return f"c.insertObjectSeq({name});"
        if element is not None and element.category in _INT_CATEGORIES:
            return f"c.insertLongSeq({name});"
        return f"c.insertStringSeq({name});"
    return f"/* unsupported insert for {category} */"


def _extract_expression(view):
    category = view.category
    if category == "boolean":
        return "c.extractBoolean()"
    if category in _INT_CATEGORIES:
        java = _INT_CATEGORIES[category]
        return f"({java}) c.extractLong()" if java != "long" \
            else "c.extractLong()"
    if category in ("float",):
        return "(float) c.extractDouble()"
    if category in ("double", "longdouble"):
        return "c.extractDouble()"
    if category in ("char", "wchar"):
        return "c.extractChar()"
    if category in ("string", "wstring"):
        return "c.extractString()"
    if category == "enum":
        enum_class = map_class_name(view.spelling)
        return f"c.extractEnum({enum_class}.MEMBERS)"
    if category == "objref":
        return "c.extractObject()"
    if category == "struct":
        return f"{map_class_name(view.spelling)}.extractFrom(c)"
    if category == "sequence":
        element = view.element
        if element is not None and element.category == "objref":
            return "c.extractObjectSeq()"
        if element is not None and element.category in _INT_CATEGORIES:
            return "c.extractLongSeq()"
        return "c.extractStringSeq()"
    return "null /* unsupported */"


def map_insert(value, ctx):
    """Insert statement for the parameter under consideration."""
    return _insert_statement(TypeView(ctx.node), ctx.node.name)


def map_oneway_flag(value, ctx):
    return "true" if ctx.node is not None and ctx.node.get("oneway") else "false"


def map_stub_return(value, ctx):
    """Post-send result extraction line ('' for void)."""
    view = TypeView(ctx.node)
    if view.category == "void":
        return "c.release();"
    java = _java_type(view)
    return f"{java} _result = {_extract_expression(view)};\nc.release();"


def map_stub_result(value, ctx):
    view = TypeView(ctx.node)
    if view.category == "void":
        return "// void return"
    return "return _result;"


def map_attr_extract(value, ctx):
    view = TypeView(ctx.node)
    return _extract_expression(view)


def map_attr_insert(value, ctx):
    """Insert statement for an attribute setter's `value` argument."""
    return _insert_statement(TypeView(ctx.node), "value")


def map_cap_name(value, ctx):
    """The node's own name, capitalized (getButton-style accessors)."""
    name = ctx.node.name if ctx.node is not None else str(value)
    return name[:1].upper() + name[1:]


def map_struct_body(value, ctx):
    """Fields + insertInto/extractFrom for a generated struct class."""
    node = ctx.node
    members = node.children("Member")
    lines = []
    for member in members:
        lines.append(f"    public {_java_type(TypeView(member))} {member.name};")
    lines.append("")
    lines.append("    public void insertInto(HdCall c) throws HdRemoteException {")
    lines.append("        c.beginSeq();")
    for member in members:
        lines.append("        "
                     + _insert_statement(TypeView(member), "this." + member.name))
    lines.append("        c.endSeq();")
    lines.append("    }")
    lines.append("")
    lines.append(f"    public static {map_class_name(node.get('scopedName'))} "
                 "extractFrom(HdCall c) throws HdRemoteException {")
    lines.append(f"        {map_class_name(node.get('scopedName'))} _s = "
                 f"new {map_class_name(node.get('scopedName'))}();")
    lines.append("        c.beginExtract();")
    for member in members:
        lines.append(f"        _s.{member.name} = "
                     f"{_extract_expression(TypeView(member))};")
    lines.append("        c.endExtract();")
    lines.append("        return _s;")
    lines.append("    }")
    return "\n".join(lines)


@register_pack
class JavaRmiPack(MappingPack):
    """Template pack for the HeidiRMI Java mapping."""

    name = "java_rmi"
    language = "Java"
    description = (
        "HeidiRMI Java mapping: flattened multiple inheritance, no "
        "default parameters, javac-compilable client stubs over the "
        "text protocol (paper Section 4.2)"
    )
    main_template = "main.tmpl"
    type_table = JAVA_TYPE_TABLE
    #: The Java client runtime the generated stubs compile against.
    runtime_assets = ("runtime/*.java", "")

    def register_maps(self, registry):
        registry.register_simple("Java::MapClassName", map_class_name)
        registry.register("Java::MapType", map_type)
        registry.register("Java::MapReturnType", map_type)
        registry.register("Java::MapInsert", map_insert)
        registry.register("Java::MapOnewayFlag", map_oneway_flag)
        registry.register("Java::MapStubReturn", map_stub_return)
        registry.register("Java::MapStubResult", map_stub_result)
        registry.register("Java::MapAttrExtract", map_attr_extract)
        registry.register("Java::MapAttrInsert", map_attr_insert)
        registry.register("Java::MapCapName", map_cap_name)
        registry.register("Java::MapStructBody", map_struct_body)
