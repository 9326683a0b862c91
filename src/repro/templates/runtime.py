"""Step 2 of the two-step code generation: executing a generator program.

A :class:`Runtime` binds an EST, a map registry, global variables and an
output sink.  The compiled generator drives it through a tiny surface:
``sink.write``/``open_file``/``close_file`` for output and its routing,
``foreach`` for kind-grouped iteration, ``var``, ``prop`` and ``apply``
for substitutions, ``globals`` for ``@set`` and ``truth`` for ``@if``
tests.

Variable resolution order (the paper's "node under current
consideration"): innermost loop bindings, then the node under
consideration (a node lookup already walks its ancestors), then
template globals; a name none of them binds substitutes "" (a name no
context can ever bind is the linter's TPL001).  A ``-map`` modifier on
the innermost enclosing ``@foreach`` that names the variable is applied
to the resolved value.

:meth:`Runtime.var` is that rule.  Step 1 binds what the template alone
decides — a loop's ``${index}``/``${count}``/``${first}``/``${last}``/
``${ifMore}``, the -map in force, and a prop the node under
consideration holds itself — and every other site calls ``var``: a prop
absent from the node (found on an ancestor or in the globals, or
synthesized by a map), a plain list's ``${item}`` and singular, and
any name outside every loop.
"""

from repro.est.node import Ast
from repro.templates.errors import TemplateRuntimeError
from repro.templates.maps import BUILTIN_MAPS, MapContext, MapRegistry
from repro.templates.output import OutputSink

_MISSING = object()
#: The variables every ``@foreach`` binds: attributes of its frame.
LOOP_STATE = ("index", "count", "first", "last", "ifMore")


class _Frame:
    """One live ``@foreach``: its maps and where the iteration stands."""

    __slots__ = ("maps", "index", "total", "if_more", "item", "singular")

    def __init__(self, maps, total, if_more, singular):
        #: Every -map visible here, the innermost loop's winning: the
        #: table step 1 worked out for this loop.
        self.maps = maps
        self.index, self.total, self.if_more = 0, total, if_more
        self.item, self.singular = _MISSING, singular

    @property
    def count(self):
        return self.index + 1

    @property
    def first(self):
        return "1" if self.index == 0 else ""

    @property
    def last(self):
        return "1" if self.index == self.total - 1 else ""

    @property
    def ifMore(self):  # noqa: N802 - the template variable's name
        return "" if self.last or self.if_more is None else self.if_more

    def bindings(self):
        """The loop variables of the current iteration, built on demand."""
        bound = {name: getattr(self, name) for name in LOOP_STATE}
        if self.item is not _MISSING:
            bound["item"] = self.item
            if self.singular:
                bound[self.singular] = self.item
        return bound


class Runtime:
    """Execution state for one generation run."""

    def __init__(self, est, maps=None, variables=None, sink=None):
        self.est = est
        self.maps = maps if maps is not None else MapRegistry(parent=BUILTIN_MAPS)
        self.sink = sink if sink is not None else OutputSink()
        self.globals = dict(variables or {})
        self._frames = []
        self._by_kind = None
        self._context = MapContext(runtime=self)  # one, re-pointed per map call
        self._funcs = {}  # map name -> function, resolved once per run
        #: Every name a loop may bind: only these need the frames scanned.
        self._bound = {*LOOP_STATE, "item"}
        #: The node under consideration: the innermost loop's node, else
        #: the EST root (or None).
        self.node = est

    # -- variables ----------------------------------------------------------

    def var(self, name):
        """Resolve ``${name}`` and apply the innermost applicable -map.

        This is the resolution rule, and what every ``${var}`` step 1
        could not bind falls back to.  A ``-map`` may name a variable
        with no underlying property — the map then *synthesizes* the
        value from the node context (e.g. a marshalling statement built
        from the parameter's type), receiving "" as its input value.
        """
        value = None
        if name in self._bound:  # only loop-bindable names scan the frames
            for frame in reversed(self._frames):
                value = frame.bindings().get(name)
                if value is not None:
                    break
        node = self.node
        if value is None and node is not None:
            value = node.lookup(name)
        if value is None:
            value = self.globals.get(name)
        map_name = self._frames[-1].maps.get(name) if self._frames else None
        if map_name is not None:
            return self.apply(map_name, "" if value is None else value)
        return "" if value is None else str(value)

    def prop(self, props, name, map_name):
        """``${name}`` from the node's own *props*, through the -map
        *map_name* if it is not None; ``var`` when the node lacks it."""
        value = props.get(name)
        if value is None:
            return self.var(name)
        return str(value) if map_name is None else self.apply(map_name, value)

    def apply(self, map_name, value):
        """Call the map *map_name* on *value* for the node under
        consideration; the text it returns ("" for None)."""
        func = self._funcs.get(map_name)
        if func is None:
            func = self._funcs[map_name] = self.maps.get(map_name)
            if func is None:
                raise TemplateRuntimeError(f"unknown map function {map_name!r}")
        context = self._context
        context.node = self.node
        result = func(value, context)
        return "" if result is None else str(result)

    def truth(self, value):
        """The ``@if ${x}`` truthiness rule: empty/0/false are false."""
        if isinstance(value, str):
            return value.strip() not in ("", "0", "false", "False", "FALSE")
        return bool(value)

    # -- iteration ------------------------------------------------------------

    def foreach(self, list_name, maps, singular, if_more=None, separator=None,
                reverse=False, line=0):
        """Iterate a child list or plain list property (``@foreach``).

        *maps* and *singular* are what step 1 worked out for the loop.
        Each iteration yields the loop's frame and the props of the node
        under consideration: the item itself when it is a node, else
        the node the loop runs in.
        """
        items = self._resolve_list(list_name, line)
        if reverse:
            items.reverse()
        self._bound.add(singular)
        frame = _Frame(maps, len(items), if_more, singular)
        outer = self.node
        outer_props = {} if outer is None else outer.props
        self._frames.append(frame)
        try:
            for index, item in enumerate(items):
                if separator is not None and index > 0:
                    self.sink.write(separator)
                frame.index = index
                if isinstance(item, Ast):
                    self.node = item
                    yield frame, item.props
                else:
                    self.node = outer
                    frame.item = item
                    yield frame, outer_props
        finally:
            self.node = outer
            self._frames.pop()

    def _resolve_list(self, list_name, line):
        node = self.node
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
            # Not an error: a node legitimately has no group for a
            # child kind with zero children (an operation without
            # parameters has no paramList).  Statically-unknown list
            # names are the lint engine's job (TPL002).
            return []
        if isinstance(value, (list, tuple)):
            return list(value)
        raise TemplateRuntimeError(
            f"@foreach {list_name}: value is not a list ({type(value).__name__})",
            line=line,
        )


def generate(template_source, est, name="<template>", maps=None, variables=None,
             loader=None):
    """One-call convenience: compile (step 1) and run (step 2).

    Returns the :class:`repro.templates.output.OutputSink` holding the
    default stream and any ``@openfile`` outputs.
    """
    from repro.templates.compiler import compile_template

    compiled = compile_template(template_source, name=name, loader=loader)
    runtime = Runtime(est, maps=maps, variables=variables)
    return compiled.run(runtime)
