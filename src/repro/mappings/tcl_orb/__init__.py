"""The IDL→Tcl mapping with its small Tcl ORB (paper, Section 4.2 / Fig. 10).

"It took us about two weeks and 700 lines of tcl code to build an IIOP
compatible tcl ORB.  This exercise enabled the integration of an
existing tcl management GUI application with a CORBA-based distributed
system."  This pack regenerates that artifact: ``orb.tcl`` is the ORB
library (shipped verbatim as a static asset) and the templates generate
Fig. 10-style ``[incr Tcl]`` stubs and skeletons per interface.

The generated code is *runnable*: it speaks the HeidiRMI text wire
protocol, so a generated Tcl client talks to the Python HeidiRMI server
(and vice versa) — the integration tests do exactly that under tclsh.
"""

import shutil
import subprocess

from repro.est.view import TypeView
from repro.mappings.base import MappingPack
from repro.mappings.registry import register_pack

TCL_TYPE_TABLE = {
    "boolean": "boolean (0/1)",
    "char": "string (1 char)",
    "octet": "integer",
    "short": "integer",
    "unsigned short": "integer",
    "long": "integer",
    "unsigned long": "integer",
    "long long": "integer",
    "unsigned long long": "integer",
    "float": "double",
    "double": "double",
    "string": "string",
    "void": "(none)",
}

#: EST type category → Call insert/extract method suffix.
_METHOD_SUFFIX = {
    "boolean": "Boolean",
    "char": "Char",
    "wchar": "Char",
    "octet": "Octet",
    "short": "Short",
    "ushort": "Short",
    "long": "Long",
    "ulong": "Long",
    "longlong": "Long",
    "ulonglong": "Long",
    "float": "Float",
    "double": "Double",
    "longdouble": "Double",
    "string": "String",
    "wstring": "String",
    "enum": "Enum",
}


def find_tclsh():
    """A ``tclsh`` that can run the generated code, or None.

    ``orb.tcl`` and the generated classes are ``[incr Tcl]``: a tclsh
    without the Itcl package fails at ``package require Itcl``, so
    finding the binary on PATH is not enough.
    """
    tclsh = shutil.which("tclsh")
    if tclsh is None:
        return None
    try:
        probe = subprocess.run([tclsh], input="package require Itcl\n",
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return tclsh if probe.returncode == 0 else None


def _suffix_for(node):
    category = TypeView(node).category
    if category == "objref":
        return "Object"
    return _METHOD_SUFFIX.get(category, "String")


def map_insert(value, ctx):
    """``$c insertString $text`` for the parameter under consideration."""
    name = ctx.node.get("paramName") or "value"
    return f"$c insert{_suffix_for(ctx.node)} ${name}"


def map_extract(value, ctx):
    """``[$c extractString]`` for the parameter under consideration."""
    return f"[$c extract{_suffix_for(ctx.node)}]"


def map_oneway_flag(value, ctx):
    return "1" if ctx.node is not None and ctx.node.get("oneway") else "0"


def map_stub_return(value, ctx):
    """Post-``send`` result extraction in a stub method (Fig. 10 body)."""
    category = ctx.node.get("type") if ctx.node is not None else "void"
    if category == "void":
        return "# void return"
    return f"set result [$c extract{_suffix_for(ctx.node)}]"


def map_stub_result(value, ctx):
    """The trailing return statement of a stub method."""
    category = ctx.node.get("type") if ctx.node is not None else "void"
    if category == "void":
        return ""
    return "return $result"


def map_skel_invoke(value, ctx):
    """Delegate to the implementation and marshal the result (skeleton)."""
    node = ctx.node
    params = " ".join(f"${child.name}" for child in node.children("Param"))
    invocation = f"$pb_obj_ {node.name}"
    if params:
        invocation += f" {params}"
    category = node.get("type")
    if category == "void":
        return f"{invocation}\n# void return"
    return f"$c insert{_suffix_for(node)} [{invocation}]"


@register_pack
class TclOrbPack(MappingPack):
    """Template pack for the IDL-Tcl mapping and its Tcl ORB."""

    name = "tcl_orb"
    language = "Tcl"
    description = (
        "IDL-Tcl mapping with a small text-protocol Tcl ORB "
        "(paper Section 4.2 / Fig. 10); generated code runs under tclsh"
    )
    main_template = "main.tmpl"
    type_table = TCL_TYPE_TABLE
    #: The Tcl ORB library the generated classes run on.
    runtime_assets = ("orb.tcl", "")

    def register_maps(self, registry):
        registry.register("Tcl::MapInsert", map_insert)
        registry.register("Tcl::MapExtract", map_extract)
        registry.register("Tcl::MapOnewayFlag", map_oneway_flag)
        registry.register("Tcl::MapStubReturn", map_stub_return)
        registry.register("Tcl::MapStubResult", map_stub_result)
        registry.register("Tcl::MapSkelInvoke", map_skel_invoke)

    def orb_library_source(self):
        """The Tcl ORB library text (for the 700-line claim bench)."""
        return self.static_assets()["orb.tcl"]
