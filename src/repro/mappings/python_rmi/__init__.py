"""The live IDL→Python mapping.

Generated modules run directly on :mod:`repro.heidirmi`: abstract
interface classes (delegation — an implementation need not inherit
anything), stub classes mirroring the IDL inheritance graph, delegation
skeletons with recursive dispatch, enum/struct/exception classes, and
type-registry registration.  Default parameters become Python defaults;
``incopy`` parameters pass serializable objects by value.

This pack is what makes Figs. 4 and 5 *executable* in this
reproduction: the same template machinery that prints C++/Java/Tcl
emits Python that the test suite actually calls over real sockets.
"""

from repro.est.view import TypeView
from repro.mappings.base import MappingPack, flat
from repro.mappings.registry import register_pack
from repro.mappings.python_rmi.codegen import (
    get_lines,
    method_params,
    put_lines,
)

PYTHON_TYPE_TABLE = {
    "boolean": "bool",
    "char": "str (1 char)",
    "octet": "int",
    "short": "int",
    "unsigned short": "int",
    "long": "int",
    "unsigned long": "int",
    "long long": "int",
    "unsigned long long": "int",
    "float": "float",
    "double": "float",
    "string": "str",
    "void": "None",
}

_FIELD_DEFAULT = {
    "boolean": "False",
    "char": "'\\0'",
    "wchar": "'\\0'",
    "octet": "0",
    "short": "0",
    "ushort": "0",
    "long": "0",
    "ulong": "0",
    "longlong": "0",
    "ulonglong": "0",
    "float": "0.0",
    "double": "0.0",
    "longdouble": "0.0",
    "string": "''",
    "wstring": "''",
    "enum": "0",
    "objref": "None",
    "Object": "None",
    "struct": "None",
    "sequence": "None",
}


def _indent(lines, level):
    pad = "    " * level
    return [pad + line if line else line for line in lines]


def _block(lines):
    """Join generated lines into a ${...} substitution value."""
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Enum / struct / exception bodies
# ---------------------------------------------------------------------------


def map_enum_body(value, ctx):
    node = ctx.node
    members = node.get("members") or []
    lines = [f"    MEMBERS = ({', '.join(repr(m) for m in members)},)"]
    for index, member in enumerate(members):
        lines.append(f"    {member} = {index}")
    return _block(lines)


def _field_lines(members, obj, direction):
    put = []
    get = []
    names = []
    for member in members:
        names.append(member.name)
        put.extend(
            put_lines(member, f"self.{member.name}", direction, obj=obj,
                      helper="module")
        )
        get.extend(get_lines(member, f"_{member.name}", obj=obj, helper="module"))
    return names, put, get


def map_struct_body(value, ctx):
    node = ctx.node
    members = node.children("Member")
    init_params = []
    for member in members:
        view = TypeView(member)
        default = _FIELD_DEFAULT.get(view.category, "None")
        init_params.append(f"{member.name}={default}")
    names, put, get = _field_lines(members, obj="call", direction="in")
    lines = [f"    _hd_repo_id_ = {node.get('repoId')!r}"]
    lines.append(f"    def __init__(self, {', '.join(init_params)}):")
    if not members:
        lines.append("        pass")
    for member in members:
        view = TypeView(member)
        if view.category == "sequence":
            lines.append(
                f"        self.{member.name} = [] if {member.name} is None "
                f"else {member.name}"
            )
        else:
            lines.append(f"        self.{member.name} = {member.name}")
    lines.append("    def __eq__(self, other):")
    lines.append("        return isinstance(other, type(self)) and \\")
    if names:
        comparisons = " and ".join(
            f"self.{name} == other.{name}" for name in names
        )
        lines.append(f"            ({comparisons})")
    else:
        lines.append("            True")
    lines.append("    def __repr__(self):")
    fields = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    lines.append(f"        return f'{node.name}({fields})'")
    lines.append("    def _hd_struct_put(self, call, orb):")
    lines.append(f"        call.begin({node.name!r})")
    lines.extend(_indent(put, 2))
    lines.append("        call.end()")
    lines.append("    @classmethod")
    lines.append("    def _hd_struct_get(cls, call, orb):")
    lines.append(f"        call.begin({node.name!r})")
    lines.extend(_indent(get, 2))
    lines.append("        call.end()")
    ctor_args = ", ".join(f"{name}=_{name}" for name in names)
    lines.append(f"        return cls({ctor_args})")
    return _block(lines)


def map_exception_body(value, ctx):
    node = ctx.node
    members = node.children("Member")
    names = [member.name for member in members]
    init_params = []
    for member in members:
        view = TypeView(member)
        default = _FIELD_DEFAULT.get(view.category, "None")
        init_params.append(f"{member.name}={default}")
    lines = [f"    _hd_repo_id_ = {node.get('repoId')!r}"]
    lines.append(f"    def __init__(self, {', '.join(init_params)}):")
    message = " + ' ' + ".join(f"repr({name})" for name in names) or "''"
    lines.append(f"        super().__init__({message})")
    for name in names:
        lines.append(f"        self.{name} = {name}")
    lines.append("    def _hd_marshal(self, reply, orb):")
    put = []
    get = []
    for member in members:
        put.extend(
            put_lines(member, f"self.{member.name}", "in", obj="reply",
                      helper="module")
        )
        get.extend(get_lines(member, f"_{member.name}", obj="reply",
                             helper="module"))
    if put:
        lines.extend(_indent(put, 2))
    else:
        lines.append("        pass")
    lines.append("    @classmethod")
    lines.append("    def _hd_unmarshal(cls, reply, orb):")
    lines.extend(_indent(get, 2))
    ctor_args = ", ".join(f"{name}=_{name}" for name in names)
    lines.append(f"        return cls({ctor_args})")
    return _block(lines)


def _union_label_literal(label, disc):
    """A case-label value as a Python literal for the generated union,
    whose discriminator type *disc* (a :class:`TypeView`) reads."""
    if disc.category == "enum" and isinstance(label, str):
        return f"{disc.type_name}.{label}"
    if disc.category == "boolean":
        return "True" if label in (True, "TRUE") else "False"
    return repr(label)


def map_union_body(value, ctx):
    """The full body of a generated union class.

    A union value is (discriminator, value); marshalling writes the
    discriminator then branches on the active case, exactly as a CDR
    union does.  A missing default case with an unlisted discriminator
    marshals no body (the CORBA implicit-default rule).
    """
    node = ctx.node
    # The union node's type props are the discriminator's, so the view
    # over it reads the switch type, typedefs followed.
    disc = TypeView(node)
    cases = node.children("Case")

    disc_put = put_lines(node, "self.discriminator", "in", obj="call",
                         helper="module")
    disc_get = get_lines(node, "_d", obj="call", helper="module")

    lines = [f"    _hd_repo_id_ = {node.get('repoId')!r}"]
    lines.append("    def __init__(self, discriminator=None, value=None):")
    lines.append("        self.discriminator = discriminator")
    lines.append("        self.value = value")
    lines.append("    def __eq__(self, other):")
    lines.append("        return (isinstance(other, type(self))")
    lines.append("                and self.discriminator == other.discriminator")
    lines.append("                and self.value == other.value)")
    lines.append("    def __repr__(self):")
    lines.append(
        f"        return f'{node.name}(discriminator={{self.discriminator!r}}, "
        "value={self.value!r})'"
    )

    def branch_chain(body_for_case, indent_level):
        chain = []
        first = True
        default_case = None
        for case in cases:
            labels = case.get("labelValues") or []
            if "default" in labels:
                default_case = case
                concrete = [l for l in labels if l != "default"]
                if not concrete:
                    continue
                labels = concrete
            literals = ", ".join(
                _union_label_literal(l, disc)
                for l in labels
            )
            keyword = "if" if first else "elif"
            first = False
            if len(labels) == 1:
                condition = f"{keyword} _d == {literals}:"
            else:
                condition = f"{keyword} _d in ({literals},):"
            chain.append(condition)
            chain.extend("    " + line for line in body_for_case(case))
        if default_case is not None:
            chain.append("if True:" if first else "else:")
            chain.extend("    " + line for line in body_for_case(default_case))
        elif not first:
            chain.append("else:")
            chain.append("    pass  # implicit default: no body")
        return _indent(chain, indent_level)

    # -- marshal ----------------------------------------------------------
    lines.append("    def _hd_struct_put(self, call, orb):")
    lines.append(f"        call.begin({node.name!r})")
    lines.append("        _d = self.discriminator")
    lines.extend(_indent(disc_put, 2))
    lines.extend(
        branch_chain(
            lambda case: put_lines(case, "self.value", "in", obj="call",
                                   helper="module"),
            2,
        )
    )
    lines.append("        call.end()")

    # -- unmarshal -----------------------------------------------------------
    lines.append("    @classmethod")
    lines.append("    def _hd_struct_get(cls, call, orb):")
    lines.append(f"        call.begin({node.name!r})")
    lines.extend(_indent(disc_get, 2))
    lines.append("        _value = None")

    def get_case(case):
        body = get_lines(case, "_case_value", obj="call", helper="module")
        return body + ["_value = _case_value"]

    lines.extend(branch_chain(get_case, 2))
    lines.append("        call.end()")
    lines.append("        return cls(discriminator=_d, value=_value)")
    return _block(lines)


# ---------------------------------------------------------------------------
# Interface bodies
# ---------------------------------------------------------------------------


def _iter_methods(node):
    """Own Operation nodes of an Interface EST node."""
    return node.children("Operation")


def _iter_attributes(node):
    return node.children("Attribute")


def map_abstract_methods(value, ctx):
    node = ctx.node
    lines = []
    for op in _iter_methods(node):
        signature, _, _ = method_params(op)
        lines.append(f"    def {op.name}({', '.join(signature)}):")
        lines.append(
            f"        raise NotImplementedError({op.name!r})"
        )
    for attr in _iter_attributes(node):
        lines.append(f"    def get_{attr.name}(self):")
        lines.append(f"        raise NotImplementedError('get_{attr.name}')")
        if attr.get("attributeQualifier") != "readonly":
            lines.append(f"    def set_{attr.name}(self, value):")
            lines.append(f"        raise NotImplementedError('set_{attr.name}')")
    if not lines:
        lines.append("    pass")
    return _block(lines)


def _stub_operation(op):
    signature, in_params, out_params = method_params(op)
    oneway = bool(op.get("oneway"))
    lines = [f"    def {op.name}({', '.join(signature)}):"]
    oneway_arg = ", oneway=True" if oneway else ""
    lines.append(f"        call = self._new_call({op.name!r}{oneway_arg})")
    for param in op.children("Param"):
        direction = param.get("getType", "in")
        if direction in ("in", "incopy", "inout"):
            lines.extend(
                _indent(put_lines(param, param.name, direction, obj="call"), 2)
            )
    if oneway:
        lines.append("        self._invoke(call)")
        return lines
    lines.append("        reply = self._invoke(call)")
    results = []
    if op.get("type") != "void":
        lines.extend(_indent(get_lines(op, "_result", obj="reply"), 2))
        results.append("_result")
    for param in out_params:
        lines.extend(
            _indent(get_lines(param, f"_{param.name}", obj="reply"), 2)
        )
        results.append(f"_{param.name}")
    if len(results) == 1:
        lines.append(f"        return {results[0]}")
    elif results:
        lines.append(f"        return ({', '.join(results)})")
    return lines


def _stub_attribute(attr):
    lines = [f"    def get_{attr.name}(self):"]
    lines.append(f"        call = self._new_call('_get_{attr.name}')")
    lines.append("        reply = self._invoke(call)")
    lines.extend(_indent(get_lines(attr, "_result", obj="reply"), 2))
    lines.append("        return _result")
    if attr.get("attributeQualifier") != "readonly":
        lines.append(f"    def set_{attr.name}(self, value):")
        lines.append(f"        call = self._new_call('_set_{attr.name}')")
        lines.extend(_indent(put_lines(attr, "value", "in", obj="call"), 2))
        lines.append("        self._invoke(call)")
    return lines


def map_stub_methods(value, ctx):
    node = ctx.node
    lines = []
    for op in _iter_methods(node):
        lines.extend(_stub_operation(op))
    for attr in _iter_attributes(node):
        lines.extend(_stub_attribute(attr))
    if not lines:
        lines.append("    pass")
    return _block(lines)


def _skel_operation(op):
    method = f"_op_{op.name}"
    lines = [f"    def {method}(self, call, reply):"]
    impl_args = []
    for param in op.children("Param"):
        direction = param.get("getType", "in")
        if direction in ("in", "incopy", "inout"):
            lines.extend(_indent(get_lines(param, param.name, obj="call"), 2))
            impl_args.append(param.name)
    results = []
    if op.get("type") != "void":
        results.append("_result")
    out_params = [
        p for p in op.children("Param") if p.get("getType") in ("out", "inout")
    ]
    results.extend(f"_{p.name}" for p in out_params)
    invocation = f"self.impl.{op.name}({', '.join(impl_args)})"
    if not results:
        lines.append(f"        {invocation}")
    elif len(results) == 1:
        lines.append(f"        {results[0]} = {invocation}")
    else:
        lines.append(f"        ({', '.join(results)}) = {invocation}")
    if op.get("oneway"):
        return lines
    if op.get("type") != "void":
        lines.extend(_indent(put_lines(op, "_result", "in", obj="reply"), 2))
    for param in out_params:
        lines.extend(
            _indent(put_lines(param, f"_{param.name}", "in", obj="reply"), 2)
        )
    return lines


def _skel_attribute(attr):
    lines = [f"    def _op_get_{attr.name}(self, call, reply):"]
    lines.append(f"        _result = self.impl.get_{attr.name}()")
    lines.extend(_indent(put_lines(attr, "_result", "in", obj="reply"), 2))
    if attr.get("attributeQualifier") != "readonly":
        lines.append(f"    def _op_set_{attr.name}(self, call, reply):")
        lines.extend(_indent(get_lines(attr, "_value", obj="call"), 2))
        lines.append(f"        self.impl.set_{attr.name}(_value)")
    return lines


def map_skel_methods(value, ctx):
    node = ctx.node
    lines = []
    for op in _iter_methods(node):
        lines.extend(_skel_operation(op))
    for attr in _iter_attributes(node):
        lines.extend(_skel_attribute(attr))
    if not lines:
        lines.append("    pass")
    return _block(lines)


def map_impl_scaffold(value, ctx):
    """Ready-to-fill implementation methods for one interface.

    Covers own *and inherited* operations/attributes, since an
    implementation object must answer everything its most-derived
    interface promises.
    """
    node = ctx.node
    lines = []
    seen = set()

    def emit_for(interface):
        for op in interface.children("Operation"):
            if op.name in seen:
                continue
            seen.add(op.name)
            signature, _, out_params = method_params(op)
            lines.append(f"    def {op.name}({', '.join(signature)}):")
            returns = []
            if op.get("type") != "void":
                returns.append("a result")
            returns.extend(f"out parameter {p.name!r}" for p in out_params)
            todo = " and ".join(returns) if returns else "nothing"
            lines.append(f"        # TODO: implement {op.name} "
                         f"(returns {todo})")
            lines.append(
                f"        raise NotImplementedError({op.name!r})"
            )
            lines.append("")
        for attr in interface.children("Attribute"):
            getter = f"get_{attr.name}"
            if getter in seen:
                continue
            seen.add(getter)
            lines.append(f"    def {getter}(self):")
            lines.append(f"        raise NotImplementedError({getter!r})")
            lines.append("")
            if attr.get("attributeQualifier") != "readonly":
                lines.append(f"    def set_{attr.name}(self, value):")
                lines.append(
                    f"        raise NotImplementedError('set_{attr.name}')"
                )
                lines.append("")

    # Own members first, then every inherited interface's.
    emit_for(node)
    est_root = ctx.runtime.est if ctx.runtime is not None else None
    if est_root is not None:
        by_scoped = {
            n.get("scopedName"): n
            for n in est_root.walk() if n.kind == "Interface"
        }
        stack = [i.name for i in node.children("Inherited")]
        visited = set()
        while stack:
            scoped = stack.pop(0)
            if scoped in visited:
                continue
            visited.add(scoped)
            base = by_scoped.get(scoped)
            if base is None:
                continue
            emit_for(base)
            stack.extend(i.name for i in base.children("Inherited"))
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        lines.append("    pass")
    return _block(lines)


def map_skel_ops(value, ctx):
    node = ctx.node
    entries = []
    for op in _iter_methods(node):
        entries.append(f"({op.name!r}, '_op_{op.name}')")
    for attr in _iter_attributes(node):
        entries.append(f"('_get_{attr.name}', '_op_get_{attr.name}')")
        if attr.get("attributeQualifier") != "readonly":
            entries.append(f"('_set_{attr.name}', '_op_set_{attr.name}')")
    return "(" + ", ".join(entries) + ("," if entries else "") + ")"


def map_parents_tuple(value, ctx):
    node = ctx.node
    repo_ids = [
        child.get("repoId")
        for child in node.children("Inherited")
        if child.get("repoId")
    ]
    return "(" + ", ".join(repr(r) for r in repo_ids) + ("," if repo_ids else "") + ")"


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
        be generated before their subclasses."""
        merged = super().variables(spec, est)
        merged["pyInterfaceList"] = merged["topoInterfaceList"]
        return merged

    def register_maps(self, registry):
        registry.register_simple("PY::Flat", flat)
        registry.register("PY::EnumBody", map_enum_body)
        registry.register("PY::UnionBody", map_union_body)
        registry.register("PY::StructBody", map_struct_body)
        registry.register("PY::ExceptionBody", map_exception_body)
        registry.register("PY::AbstractMethods", map_abstract_methods)
        registry.register("PY::StubMethods", map_stub_methods)
        registry.register("PY::SkelMethods", map_skel_methods)
        registry.register("PY::SkelOps", map_skel_ops)
        registry.register("PY::ImplScaffold", map_impl_scaffold)
        registry.register("PY::ParentsTuple", map_parents_tuple)


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
