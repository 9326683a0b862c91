"""Step 2 of the two-step code generation: executing a generator program.

A :class:`Runtime` binds an EST, a map registry, global variables and an
output sink.  The compiled generator drives it through a tiny surface:
``line``/``write`` for output, ``var`` for substitutions, ``foreach``
for kind-grouped iteration, ``open_file``/``close_file`` for routing,
and ``truth`` for ``@if`` tests.

Variable resolution order (the paper's "node under current
consideration"): innermost loop bindings, then the EST node stack (a
node lookup already walks its ancestors), then template globals.  A
``-map`` modifier on the innermost enclosing ``@foreach`` that names the
variable is applied to the resolved value.
"""

from repro.est.node import Ast
from repro.templates.errors import TemplateRuntimeError
from repro.templates.maps import BUILTIN_MAPS, MapContext, MapRegistry
from repro.templates.output import OutputSink

_MISSING = object()


class _Frame:
    """One live ``@foreach``: its maps and where the iteration stands."""

    __slots__ = ("maps", "index", "total", "if_more", "item", "singular")

    def __init__(self, maps, outer, total, if_more, singular):
        # Every -map visible here, the innermost frame's winning.
        self.maps = {**outer.maps, **maps} if outer and maps else (
            outer.maps if outer else maps)
        self.index, self.total, self.if_more = 0, total, if_more
        self.item, self.singular = _MISSING, singular

    def bindings(self):
        """The loop variables of the current iteration, built on demand."""
        index, last = self.index, self.index == self.total - 1
        bound = {"index": index, "count": index + 1,
                 "first": "1" if index == 0 else "", "last": "1" if last else "",
                 "ifMore": "" if last or self.if_more is None else self.if_more}
        if self.item is not _MISSING:
            bound["item"] = self.item
            if self.singular:
                bound[self.singular] = self.item
        return bound


class Runtime:
    """Execution state for one generation run."""

    def __init__(self, est, maps=None, variables=None, sink=None, strict=False):
        self.est = est
        self.maps = maps if maps is not None else MapRegistry(parent=BUILTIN_MAPS)
        self.sink = sink if sink is not None else OutputSink()
        self.globals = dict(variables or {})
        self.strict = strict
        self._frames = []
        self._by_kind = None
        self._context = MapContext(runtime=self)  # one, re-pointed per map call
        self._funcs = {}  # map name -> function, resolved once per run
        #: Every name a loop may bind: only these need the frames scanned.
        self._bound = {"index", "count", "first", "last", "ifMore", "item"}
        self._node_stack = [est]  # the EST root (or None) stays at the bottom

    # -- output ----------------------------------------------------------

    def write(self, text):
        self.sink.write(text)

    def line(self, *parts, newline=True):
        text = "".join(parts)
        self.sink.write(text + "\n" if newline else text)

    def open_file(self, path):
        self.sink.open_file(path)

    def close_file(self):
        self.sink.close_file()

    # -- variables ----------------------------------------------------------

    def set_var(self, name, value):
        self.globals[name] = value

    def var(self, name):
        """Resolve ``${name}`` and apply the innermost applicable -map.

        A ``-map`` may name a variable with no underlying property —
        the map then *synthesizes* the value from the node context
        (e.g. a marshalling statement built from the parameter's type),
        receiving "" as its input value.
        """
        value = None
        if name in self._bound:  # only loop-bindable names scan the frames
            for frame in reversed(self._frames):
                value = frame.bindings().get(name)
                if value is not None:
                    break
        node = self._node_stack[-1]
        if value is None and node is not None:
            value = node.lookup(name)
        if value is None:
            value = self.globals.get(name)
        map_name = self._frames[-1].maps.get(name) if self._frames else None
        if map_name is not None:
            func = self._funcs.get(map_name) or self._funcs.setdefault(
                map_name, self.maps.get(map_name))
            if func is None:
                raise TemplateRuntimeError(f"unknown map function {map_name!r}")
            self._context.node = node
            result = func("" if value is None else value, self._context)
            return "" if result is None else str(result)
        if value is None:
            if self.strict and name not in self.globals:
                raise TemplateRuntimeError(f"undefined template variable ${{{name}}}")
            return ""
        return str(value)

    def current_node(self):
        return self._node_stack[-1]

    def truth(self, value):
        """The ``@if ${x}`` truthiness rule: empty/0/false are false."""
        if isinstance(value, str):
            return value.strip() not in ("", "0", "false", "False", "FALSE")
        return bool(value)

    # -- iteration ------------------------------------------------------------

    def foreach(self, list_name, maps=None, if_more=None, separator=None,
                reverse=False, line=0):
        """Iterate a child list or plain list property (``@foreach``)."""
        items = self._resolve_list(list_name, line)
        if reverse:
            items = list(reversed(items))
        singular = _singular(list_name)
        self._bound.add(singular)
        frame = _Frame(maps or {}, self._frames[-1] if self._frames else None,
                       len(items), if_more, singular)
        self._frames.append(frame)
        try:
            for index, item in enumerate(items):
                if separator is not None and index > 0:
                    self.sink.write(separator)
                frame.index = index
                if isinstance(item, Ast):
                    self._node_stack.append(item)
                    try:
                        yield item
                    finally:
                        self._node_stack.pop()
                else:
                    frame.item = item  # a plain list binds item and singular
                    yield item
        finally:
            self._frames.pop()

    def _resolve_list(self, list_name, line):
        node = self.current_node()
        value = node.lookup(list_name) if node is not None else None
        if value is None:
            value = self.globals.get(list_name)
        if value is None and list_name.startswith("all") and list_name.endswith("List"):
            # Whole-tree grouping: ``allInterfaceList`` iterates every
            # Interface node in the EST regardless of module nesting —
            # the EST's grouping rule applied globally, in one walk.
            if self._by_kind is None:
                self._by_kind = {}
                for node in self.est.walk() if self.est else ():
                    self._by_kind.setdefault(node.kind, []).append(node)
            value = self._by_kind.get(list_name[3:-4], [])
        if value is None:
            # Not an error even under strict: a node legitimately has no
            # group for a child kind with zero children (an operation
            # without parameters has no paramList), and strict only
            # governs undefined ${var}.  Statically-unknown list names
            # are the lint engine's job (TPL002).
            return []
        if isinstance(value, (list, tuple)):
            return list(value)
        raise TemplateRuntimeError(
            f"@foreach {list_name}: value is not a list ({type(value).__name__})",
            line=line,
        )


def _singular(list_name):
    """A singular binding name: ``members`` → ``member``, ``xList`` → ``x``."""
    if list_name.endswith("List") and len(list_name) > 4:
        return list_name[:-4]
    if list_name.endswith("s") and len(list_name) > 1:
        return list_name[:-1]
    return ""


def generate(template_source, est, name="<template>", maps=None, variables=None,
             loader=None, strict=False):
    """One-call convenience: compile (step 1) and run (step 2).

    Returns the :class:`repro.templates.output.OutputSink` holding the
    default stream and any ``@openfile`` outputs.
    """
    from repro.templates.compiler import compile_template

    compiled = compile_template(template_source, name=name, loader=loader)
    runtime = Runtime(est, maps=maps, variables=variables, strict=strict)
    return compiled.run(runtime)
