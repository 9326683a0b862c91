"""The template static analyzer: checks a template AST without running it.

The analyzer mirrors the runtime's resolution rules
(:mod:`repro.templates.runtime`) statically:

- ``@foreach <list>`` resolves through the current node's ancestors,
  then globals, then the ``all<Kind>List`` whole-tree grouping; a name
  none of those can produce is **TPL002**;
- ``${var}`` resolves through loop bindings, the node stack (a node
  lookup walks its EST ancestors, so the per-kind tables in
  :mod:`repro.lint.vartable` are closed over possible ancestors), then
  globals; an unreachable name is **TPL001**;
- every ``-map var Func`` must name a registered map function
  (**TPL003**) and bind a variable the loop subtree actually uses
  (**TPL006**);
- ``@openfile``/``@closefile`` must balance (**TPL004**) and ``@if``
  conditions with no ``${var}`` on either side are statically dead
  (**TPL005**).

A ``${var}`` that resolves for some inputs only (``${Parent}`` on an
interface without bases) is legal: the runtime substitutes "" there.
"""

from repro.templates import ast as tpl_ast
from repro.templates.errors import TemplateSyntaxError
from repro.templates.maps import BUILTIN_MAPS
from repro.templates.parser import parse_template
from repro.templates.compiler import _singular
from repro.lint import vartable
from repro.lint.diagnostics import DiagnosticReporter, Span


class TemplateLintResult:
    """What one template analysis produced."""

    def __init__(self, template, diagnostics, used_maps):
        self.template = template
        self.diagnostics = diagnostics
        #: Map-function names the template references via -map.
        self.used_maps = used_maps


#: The ``@set`` name an ``@include`` parses to under
#: :func:`include_marker`: the analyzer walks the named fragment there.
INCLUDE_MARKER = "@include"


def include_marker(name):
    """A ``parse_template`` loader that leaves each ``@include`` in place
    as a marker, for the analyzer to resolve through *fragments*."""
    return f"@set {INCLUDE_MARKER} {name}\n"


def lint_template_source(source, name="<template>", loader=None, maps=None,
                         extra_globals=(), extra_global_lists=None,
                         reporter=None, fragments=None):
    """Parse and lint template text; returns a :class:`TemplateLintResult`.

    *maps* is a :class:`repro.templates.maps.MapRegistry` (or None for a
    bare template, where only engine built-ins are checkable);
    *extra_globals*/*extra_global_lists* describe pack-provided
    variables beyond the standard ones.  With *fragments* (``name ->
    (file, source)``, which raises KeyError for an unknown name) each
    ``@include`` is analyzed where it stands, in the loop context of its
    includer, its findings reported under its own file.
    """
    if fragments is not None:
        loader = include_marker
    if reporter is None:
        reporter = DiagnosticReporter(default_file=name, source="template")
    try:
        template = parse_template(source, name=name, loader=loader)
    except TemplateSyntaxError as exc:
        reporter.error(
            "TPL007", exc.message,
            Span(file=exc.template or name, line=exc.line or 0),
        )
        return TemplateLintResult(None, reporter.diagnostics, set())
    return lint_template(template, maps=maps, extra_globals=extra_globals,
                         extra_global_lists=extra_global_lists,
                         reporter=reporter, fragments=fragments)


def lint_template(template, maps=None, extra_globals=(),
                  extra_global_lists=None, reporter=None, fragments=None):
    """Lint a parsed :class:`repro.templates.ast.Template`."""
    if reporter is None:
        reporter = DiagnosticReporter(default_file=template.name,
                                      source="template")
    analyzer = _Analyzer(template, maps, extra_globals,
                         extra_global_lists or {}, reporter, fragments)
    analyzer.run()
    return TemplateLintResult(template, reporter.diagnostics,
                              analyzer.used_maps)


class _StaticFrame:
    """One @foreach nesting level, statically."""

    __slots__ = ("kinds", "maps", "plain_bindings", "used_vars")

    def __init__(self, kinds, maps, plain_bindings=()):
        #: Possible element kinds for a node frame; None for plain lists.
        self.kinds = kinds
        self.maps = dict(maps or {})
        self.plain_bindings = frozenset(plain_bindings)
        #: ${var} names used anywhere in the subtree (for TPL006).
        self.used_vars = set()


class _Analyzer:
    def __init__(self, template, maps, extra_globals, extra_global_lists,
                 reporter, fragments=None):
        self._template = template
        self._maps = maps
        self._reporter = reporter
        self._fragments = fragments
        self._file = template.name
        #: Files being walked, outermost first: an @include of one of
        #: them again would never end.
        self._walking = {template.name}
        self._frames = []
        self._open_depth = 0
        self._last_open_line = 0
        self._global_vars = set(vartable.PACK_GLOBALS) | set(extra_globals)
        self._global_lists = dict(vartable.GLOBAL_LISTS)
        self._global_lists.update(extra_global_lists)
        self._global_vars.update(self._global_lists)
        #: Every @set name, wherever it stands (flow-insensitive).
        self._all_set_names = self._collect_set_names(template.body)
        self.used_maps = set()

    def run(self):
        self._walk_body(self._template.body)
        if self._open_depth > 0:
            self._reporter.warning(
                "TPL004",
                f"{self._open_depth} @openfile region(s) never closed by "
                "@closefile",
                Span(file=self._file, line=self._last_open_line),
            )

    # -- traversal --------------------------------------------------------

    def _collect_set_names(self, body):
        names = set()
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, tpl_ast.SetVar):
                names.add(node.name)
            elif isinstance(node, tpl_ast.Foreach):
                stack.extend(node.body)
            elif isinstance(node, tpl_ast.If):
                for _, branch in node.branches:
                    stack.extend(branch)
        return names

    def _walk_body(self, body):
        for node in body:
            if isinstance(node, tpl_ast.TextLine):
                self._check_parts(node.parts, node.line)
            elif isinstance(node, tpl_ast.Foreach):
                self._enter_foreach(node)
            elif isinstance(node, tpl_ast.If):
                self._check_if(node)
            elif isinstance(node, tpl_ast.OpenFile):
                self._check_parts(node.parts, node.line)
                self._open_depth += 1
                self._last_open_line = node.line
            elif isinstance(node, tpl_ast.CloseFile):
                if self._open_depth == 0:
                    self._reporter.warning(
                        "TPL004",
                        "@closefile without a matching @openfile",
                        Span(file=self._file, line=node.line),
                    )
                else:
                    self._open_depth -= 1
            elif (isinstance(node, tpl_ast.SetVar)
                  and node.name == INCLUDE_MARKER and self._fragments):
                self._walk_fragment("".join(node.parts), node.line)
            elif isinstance(node, tpl_ast.SetVar):
                self._check_parts(node.parts, node.line)

    def _walk_fragment(self, name, line):
        """Analyze an ``@include``d fragment in the current loop context,
        under its own file name."""
        try:
            file, source = self._fragments(name)
            if file in self._walking:
                raise TemplateSyntaxError(f"@include {name}: include cycle")
            fragment = parse_template(source, name=file, loader=include_marker)
        except KeyError:
            self._reporter.error("TPL007", f"@include {name}: template not found",
                                 Span(file=self._file, line=line))
            return
        except TemplateSyntaxError as exc:
            self._reporter.error("TPL007", exc.message,
                                 Span(file=exc.template or self._file,
                                      line=exc.line or line))
            return
        outer, self._file = self._file, file
        self._walking.add(file)
        self._all_set_names |= self._collect_set_names(fragment.body)
        self._walk_body(fragment.body)
        self._walking.discard(file)
        self._file = outer

    def _check_if(self, node):
        for condition, branch in node.branches:
            if condition is not None:
                refs = [p for p in condition.left + condition.right
                        if isinstance(p, tpl_ast.VarRef)]
                if not refs:
                    rendered = "".join(str(p) for p in condition.left)
                    if condition.op:
                        rendered += f" {condition.op} " + "".join(
                            str(p) for p in condition.right
                        )
                    self._reporter.warning(
                        "TPL005",
                        f"@if condition ({rendered.strip() or 'empty'}) contains "
                        "no ${var}; the branch is statically dead or always "
                        "taken",
                        Span(file=self._file, line=condition.line),
                    )
                self._check_parts(condition.left, condition.line)
                self._check_parts(condition.right, condition.line)
            self._walk_body(branch)

    # -- @foreach ----------------------------------------------------------

    def _enter_foreach(self, node):
        for var, func in node.maps.items():
            self._check_map_function(func, node.line)
        frame = self._resolve_list_frame(node)
        self._frames.append(frame)
        self._walk_body(node.body)
        self._frames.pop()
        for var in node.maps:
            if var not in frame.used_vars:
                self._reporter.warning(
                    "TPL006",
                    f"-map binds ${{{var}}} but the @foreach "
                    f"{node.list_name} body never uses it",
                    Span(file=self._file, line=node.line),
                )
        # Propagate subtree usage so -map on an *outer* loop counts uses
        # in inner loops.
        if self._frames:
            self._frames[-1].used_vars |= frame.used_vars

    def _node_kinds(self):
        """Element kinds of the innermost node frame ({"Root"} outside)."""
        for frame in reversed(self._frames):
            if frame.kinds is not None:
                return frame.kinds
        return frozenset({"Root"})

    def _resolve_list_frame(self, node):
        list_name = node.list_name
        kinds = self._node_kinds()
        node_lists = vartable.lists_of(kinds)
        if list_name in node_lists:
            return _StaticFrame(frozenset(node_lists[list_name]), node.maps)
        if list_name in self._global_lists:
            return _StaticFrame(
                frozenset(self._global_lists[list_name]), node.maps
            )
        if list_name in vartable.plain_lists_of(kinds):
            bindings = {"item"}
            singular = _singular(list_name)
            if singular:
                bindings.add(singular)
            return _StaticFrame(None, node.maps, bindings)
        if list_name.startswith("all") and list_name.endswith("List"):
            kind = list_name[3:-4]
            if kind in vartable.known_kinds():
                return _StaticFrame(frozenset({kind}), node.maps)
        self._reporter.error(
            "TPL002",
            f"@foreach {list_name}: no EST kind, plain-list property, or "
            "global defines such a list (the loop would silently iterate "
            "nothing)",
            Span(file=self._file, line=node.line),
        )
        # Analyze the body permissively so one bad list name does not
        # cascade into a TPL001 for every variable inside it.
        return _StaticFrame(frozenset(vartable.known_kinds()), node.maps,
                            {"item", _singular(list_name) or "item"})

    def _check_map_function(self, func, line):
        self.used_maps.add(func)
        if self._maps is not None:
            known = self._maps.names()
        else:
            # Bare template: pack namespaces are unknowable, so only
            # check un-namespaced (builtin) references.
            if "::" in func:
                return
            known = BUILTIN_MAPS.names()
        if func not in known:
            self._reporter.error(
                "TPL003",
                f"-map references unknown map function {func!r} "
                f"(known: {', '.join(sorted(known)) or 'none'})",
                Span(file=self._file, line=line),
            )

    # -- ${var} -------------------------------------------------------------

    def _check_parts(self, parts, line):
        for part in parts:
            if isinstance(part, tpl_ast.VarRef):
                self._check_var(part.name, line)

    def _check_var(self, name, line):
        for frame in self._frames:
            frame.used_vars.add(name)
        # 1. Mapped by an enclosing frame: the map synthesizes a value
        #    even when no underlying property exists — always defined.
        if any(name in frame.maps for frame in self._frames):
            return
        # 2. Loop bindings.
        if self._frames and name in vartable.LOOP_BINDINGS:
            return
        if any(name in frame.plain_bindings for frame in self._frames):
            return
        # 3. Node lookup (walks EST ancestors); a child list is itself
        #    a resolvable (list-valued) variable.
        kinds = self._node_kinds()
        closure = vartable.ancestor_closure(kinds)
        if (name in vartable.available_vars(closure)
                or name in vartable.lists_of(kinds)
                or name in vartable.plain_lists_of(kinds)):
            return
        # 4. Globals, including @set bindings.
        if name in self._global_vars or name in self._all_set_names:
            return
        self._reporter.error(
            "TPL001",
            f"${{{name}}} cannot resolve in any reachable context "
            f"(node kinds in scope: {', '.join(sorted(kinds))})",
            Span(file=self._file, line=line),
        )
