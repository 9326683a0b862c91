"""The MappingPack base class.

A pack bundles everything needed to customize one IDL mapping:

- template sources (``.tmpl`` files next to the pack module),
- map functions registered under the pack's namespace
  (``CPP::MapClassName``-style names),
- a primitive type table (drives the Table 1 reproduction),
- optional static runtime assets (the Tcl pack ships its ORB library).

Every pack reads EST types through :class:`repro.est.view.TypeView`
(shared with the generated Python and the DII); what only packs share
lives here: the ``::`` flattener and the runtime-asset loader.

``generate`` runs the full two-stage pipeline: IDL AST → EST → compiled
template (cached) → output files.
"""

import glob
import os

from repro.est import build_est
from repro.est.node import Ast
from repro.templates.compiler import compile_template
from repro.templates.maps import BUILTIN_MAPS, MapRegistry
from repro.templates.runtime import Runtime


def flat(value):
    """``Heidi::Status`` → ``Heidi_Status``."""
    return str(value).replace("::", "_")


def _topological_interfaces(est):
    """Interface nodes ordered so every base precedes its subclasses."""
    if est is None:
        return []
    interfaces = [node for node in est.walk() if node.kind == "Interface"]
    by_scoped = {node.get("scopedName"): node for node in interfaces}
    ordered = []
    visiting = set()

    def visit(node):
        if node in ordered or id(node) in visiting:
            return
        visiting.add(id(node))
        for inherited in node.children("Inherited"):
            base_node = by_scoped.get(inherited.name)
            if base_node is not None:
                visit(base_node)
        visiting.discard(id(node))
        ordered.append(node)

    for node in interfaces:
        visit(node)
    return ordered


class MappingPack:
    """One IDL→language mapping: templates + map functions + type table."""

    #: Unique pack name used by the registry and CLI.
    name = "?"
    #: Human-readable target language.
    language = "?"
    description = ""
    #: The entry template (must exist next to the pack module).
    main_template = "main.tmpl"
    #: IDL primitive spelling → target type spelling (Table 1 material).
    type_table = {}
    #: Files shipped verbatim beside the generated code: a glob pattern
    #: under the pack directory and the output directory the matches
    #: land in (``("runtime/*.h", "runtime")``); empty ships nothing.
    runtime_assets = ()
    #: Scoped operation names (``"Mod::Iface::op"``) the pack declares
    #: retry-safe.  Generated stubs mark these calls ``idempotent=True``
    #: so a configured RetryPolicy may transparently re-send them after
    #: a transport failure whose outcome is unknown.  Declaring an
    #: operation whose IDL signature has ``out``/``inout`` parameters
    #: here is retry-unsafe and trips lint rule MAP004
    #: (:func:`repro.lint.mapping_rules.lint_pack_idempotence`).
    idempotent_operations = ()

    def __init__(self):
        self._template_cache = {}
        self.maps = MapRegistry(parent=BUILTIN_MAPS)
        self.register_maps(self.maps)

    # -- hooks for concrete packs ------------------------------------------

    def register_maps(self, registry):
        """Register this pack's map functions; override in subclasses."""

    def template_dir(self):
        """Directory holding the pack's ``.tmpl`` files."""
        import inspect

        return os.path.dirname(inspect.getfile(type(self)))

    def variables(self, spec, est):
        """Extra template globals; override to add pack-specific ones.

        Besides the file names, every pack gets ``topoInterfaceList``:
        the EST's Interface nodes sorted so bases precede subclasses.
        Languages where a base class must be *defined* before use (C++,
        Python, Java) iterate it instead of ``allInterfaceList``.
        """
        filename = getattr(spec, "filename", "") or ""
        base = os.path.basename(filename)
        if not base or base.startswith("<"):
            base = "generated.idl"
        basename = base[:-4] if base.endswith(".idl") else base
        return {
            "basename": basename,
            "idlFile": base,
            "topoInterfaceList": _topological_interfaces(est),
        }

    # -- template machinery -----------------------------------------------------

    def load_template_source(self, template_name):
        path = os.path.join(self.template_dir(), template_name)
        if not os.path.isfile(path):
            raise KeyError(template_name)
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()

    def compiled(self, template_name=None):
        """The compiled template (step 1 output), cached per pack."""
        template_name = template_name or self.main_template
        compiled = self._template_cache.get(template_name)
        if compiled is None:
            source = self.load_template_source(template_name)
            compiled = compile_template(
                source,
                name=f"{self.name}/{template_name}",
                loader=self.load_template_source,
            )
            self._template_cache[template_name] = compiled
        return compiled

    # -- generation ---------------------------------------------------------------

    def generate(self, spec, template_name=None, variables=None, est=None,
                 strict=False):
        """Generate code for a parsed Specification (or prebuilt EST).

        *strict* is forwarded to the :class:`Runtime`: an undefined
        ``${var}`` raises instead of substituting "".  Returns the
        :class:`repro.templates.output.OutputSink`; use ``sink.files()``
        for the generated files or ``sink.write_to``.
        """
        if est is None:
            est = spec if isinstance(spec, Ast) else build_est(spec)
        merged_vars = self.variables(spec, est)
        if variables:
            merged_vars.update(variables)
        runtime = Runtime(est, maps=self.maps.child(), variables=merged_vars,
                          strict=strict)
        compiled = self.compiled(template_name)
        compiled.run(runtime)
        sink = runtime.sink
        for path, text in self.static_assets().items():
            sink.open_file(path)
            sink.write(text)
            sink.close_file()
        return sink

    def static_assets(self):
        """The ``runtime_assets`` files: output path → file text."""
        if not self.runtime_assets:
            return {}
        pattern, target = self.runtime_assets
        assets = {}
        matches = glob.glob(os.path.join(self.template_dir(), pattern))
        for path in sorted(matches):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            assets[os.path.join(target, os.path.basename(path))] = text
        return assets

    # -- introspection ---------------------------------------------------------------

    def describe(self):
        return {
            "name": self.name,
            "language": self.language,
            "description": self.description,
            "templates": sorted(
                entry
                for entry in os.listdir(self.template_dir())
                if entry.endswith(".tmpl")
            ),
            "maps": sorted(self.maps.names()),
        }
