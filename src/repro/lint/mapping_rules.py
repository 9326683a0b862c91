"""Cross-layer coverage checks for mapping packs.

A mapping pack is "a template plus a table of map functions" — this
pass verifies the two halves reference each other consistently:

- **MAP001** the pack's entry templates must exist and parse;
- every ``-map`` in a pack template must name a function the pack (or
  the engine built-ins) registers — that is the template analyzer's
  TPL003, run here with the pack's real registry;
- **MAP002** every map function the pack registers should be referenced
  by at least one of its templates (a registered-but-unreferenced map
  is dead customization surface, usually a renamed hook);
- **MAP003** the pack's primitive type table should cover the core IDL
  primitives (the paper's Table 1 rows).

Every ``.tmpl`` file that no other one includes is analyzed, and each
``@include`` inside it is analyzed where it stands: in the includer's
loop context (``python_rmi``'s ``module.tmpl`` includes
``skeleton.tmpl`` inside its interface loop), with the fragment's
findings under the fragment's own file and line, where inlining (what
the parser does at generation time) would re-anchor them to the
includer.
"""

import os

from repro.lint.diagnostics import DiagnosticReporter, Span
from repro.lint.template_rules import lint_template_source
from repro.templates.errors import TemplateSyntaxError
from repro.templates.parser import parse_template

#: The Table 1 rows every pack's type table is expected to cover.
CORE_PRIMITIVES = (
    "boolean", "char", "octet", "short", "unsigned short", "long",
    "unsigned long", "float", "double", "string", "void",
)


def _resolve_pack(name_or_pack):
    if isinstance(name_or_pack, str):
        from repro.mappings.registry import get_pack

        return get_pack(name_or_pack)
    return name_or_pack


def pack_globals(pack):
    """The template globals a pack defines, split into scalars and lists."""
    try:
        variables = pack.variables(None, None)
    except Exception:
        variables = {"basename": "", "idlFile": "", "topoInterfaceList": []}
    scalars, lists = set(), {}
    for name, value in variables.items():
        scalars.add(name)
        if isinstance(value, (list, tuple)):
            # Every bundled list global holds Interface nodes; anything
            # exotic degrades to "could be any kind" (permissive).
            if name.endswith("InterfaceList"):
                lists[name] = ("Interface",)
            else:
                lists[name] = tuple(sorted(_known_kinds()))
    return scalars, lists


def _known_kinds():
    from repro.lint import vartable

    return vartable.known_kinds()


def lint_pack(name_or_pack, reporter=None):
    """Lint one mapping pack; returns the diagnostics list."""
    pack = _resolve_pack(name_or_pack)
    if reporter is None:
        reporter = DiagnosticReporter(default_file=pack.name, source="mapping")

    template_dir = pack.template_dir()
    sources = {}
    for entry in sorted(os.listdir(template_dir)):
        if not entry.endswith(".tmpl"):
            continue
        try:
            sources[entry] = pack.load_template_source(entry)
        except (OSError, KeyError) as exc:
            reporter.error(
                "MAP001",
                f"pack {pack.name!r}: template {entry!r} is unreadable: {exc}",
                Span(file=os.path.join(template_dir, entry)),
            )
    if pack.main_template not in sources:
        reporter.error(
            "MAP001",
            f"pack {pack.name!r}: entry template {pack.main_template!r} "
            f"not found in {template_dir}",
            Span(file=template_dir),
        )

    included = set()
    for source in sources.values():
        try:
            parse_template(source, loader=lambda name: included.add(name) or "")
        except TemplateSyntaxError:
            pass  # reported when the template itself is analyzed

    scalars, lists = pack_globals(pack)
    used_maps = set()
    for entry in sorted(set(sources) - included):
        result = lint_template_source(
            sources[entry],
            name=f"{pack.name}/{entry}",
            maps=pack.maps,
            extra_globals=scalars,
            extra_global_lists=lists,
            reporter=reporter,
            fragments=lambda name: (f"{pack.name}/{name}", sources[name]),
        )
        used_maps |= result.used_maps

    _check_unreferenced_maps(pack, used_maps, reporter)
    _check_type_table(pack, reporter)
    return reporter.diagnostics


def pack_strict_safe(pack, template_name=None):
    """Whether a pack's entry template is strict-safe (see
    :class:`repro.lint.template_rules.TemplateLintResult`)."""
    pack = _resolve_pack(pack)
    template_name = template_name or pack.main_template
    try:
        source = pack.load_template_source(template_name)
    except (OSError, KeyError):
        return False
    scalars, lists = pack_globals(pack)
    result = lint_template_source(
        source,
        name=f"{pack.name}/{template_name}",
        loader=pack.load_template_source,
        maps=pack.maps,
        extra_globals=scalars,
        extra_global_lists=lists,
    )
    return result.strict_safe and not result.diagnostics


def lint_pack_idempotence(name_or_pack, spec_or_est, reporter=None,
                          filename=None):
    """MAP004: idempotent-declared operations must be retry-safe.

    A pack's :attr:`~repro.mappings.base.MappingPack.idempotent_operations`
    tells the runtime's RetryPolicy it may silently re-send those calls
    after a transport failure — at which point the first attempt may
    already have executed on the server.  An operation returning data
    through ``out``/``inout`` parameters is a tell that it carries
    per-call state a duplicate execution would corrupt, so declaring it
    idempotent is flagged.  *spec_or_est* is a parsed Specification (or
    a prebuilt EST) to check the declarations against; returns the
    diagnostics list.
    """
    from repro.est import build_est
    from repro.est.node import Ast

    pack = _resolve_pack(name_or_pack)
    if reporter is None:
        reporter = DiagnosticReporter(default_file=pack.name, source="mapping")
    declared = set(pack.idempotent_operations or ())
    if not declared or spec_or_est is None:
        return reporter.diagnostics
    est = (spec_or_est if isinstance(spec_or_est, Ast)
           else build_est(spec_or_est))
    span = Span(file=filename or pack.name)
    for interface in est.walk():
        if interface.kind != "Interface":
            continue
        for operation in interface.children("Operation"):
            scoped = operation.get("scopedName")
            if scoped not in declared:
                continue
            unsafe = sorted(
                param.name
                for param in operation.children("Param")
                if param.get("getType") in ("out", "inout")
            )
            if unsafe:
                reporter.warning(
                    "MAP004",
                    f"pack {pack.name!r} declares {scoped!r} idempotent, "
                    f"but its signature has out/inout parameter(s) "
                    f"{', '.join(unsafe)}: a retried call would observe or "
                    "clobber the first attempt's results",
                    span,
                )
    return reporter.diagnostics


def _check_unreferenced_maps(pack, used_maps, reporter):
    from repro.templates.maps import BUILTIN_MAPS

    own = set(pack.maps.names()) - set(BUILTIN_MAPS.names())
    for name in sorted(own - used_maps):
        reporter.info(
            "MAP002",
            f"pack {pack.name!r} registers map function {name!r} but no "
            "template references it",
            Span(file=pack.name),
        )


def _check_type_table(pack, reporter):
    table = pack.type_table or {}
    missing = [p for p in CORE_PRIMITIVES if p not in table]
    if missing:
        reporter.info(
            "MAP003",
            f"pack {pack.name!r} type table misses core primitive(s): "
            f"{', '.join(missing)}",
            Span(file=pack.name),
        )
