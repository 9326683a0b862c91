"""Map-function registry.

The paper's templates convert names between the IDL world and the target
language with *map functions*: ``-map interfaceName CPP::MapClassName``
turns ``Heidi::A`` into ``HdA`` "in the context of the code that is
being generated".

A map function is a callable ``f(value, ctx)`` where *ctx* is a
:class:`MapContext` giving access to the EST node under consideration
and the runtime (so a map can look at the node's ``type`` property, its
path, or other registered maps).  ``simple_map`` wraps a plain
one-argument function.
"""

from dataclasses import dataclass

from repro.templates.errors import TemplateRuntimeError


@dataclass
class MapContext:
    """What a map function may consult: the current node and runtime.

    A :class:`~repro.templates.runtime.Runtime` passes one context to
    every map call of a run, re-pointing ``node`` each time: read it
    during the call; do not keep the context.
    """

    node: object = None
    runtime: object = None

    def prop(self, name, default=None):
        """The named property of the current node (outward lookup)."""
        if self.node is None:
            return default
        value = self.node.lookup(name)
        return default if value is None else value


def simple_map(func):
    """Adapt a one-argument function into map-function form."""

    def adapted(value, ctx):
        return func(value)

    adapted.__name__ = getattr(func, "__name__", "simple_map")
    return adapted


class MapRegistry:
    """Name → map-function table, with pack-style namespacing.

    Names follow the paper's ``Namespace::Function`` convention
    (``CPP::MapClassName``).  Registries can chain to a parent so a
    mapping pack extends the engine's built-ins without copying them.
    """

    def __init__(self, parent=None):
        self._maps = {}
        self._parent = parent

    def register(self, name, func):
        self._maps[name] = func
        return func

    def register_simple(self, name, func):
        return self.register(name, simple_map(func))

    def registered(self, name):
        """Decorator form: ``@registry.registered("CPP::MapType")``."""

        def decorator(func):
            return self.register(name, func)

        return decorator

    def get(self, name):
        registry = self
        while registry is not None:
            func = registry._maps.get(name)
            if func is not None:
                return func
            registry = registry._parent
        return None

    def apply(self, name, value, node=None, runtime=None):
        func = self.get(name)
        if func is None:
            raise TemplateRuntimeError(f"unknown map function {name!r}")
        result = func(value, MapContext(node=node, runtime=runtime))
        return "" if result is None else str(result)

    def names(self):
        collected = dict(self._parent.names()) if self._parent else {}
        collected.update(self._maps)
        return collected

    def child(self):
        """A new registry chaining to this one."""
        return MapRegistry(parent=self)


#: Engine-level built-ins usable from any template.
BUILTIN_MAPS = MapRegistry()
BUILTIN_MAPS.register_simple("Identity", lambda value: value)
BUILTIN_MAPS.register_simple("Upper", lambda value: str(value).upper())
BUILTIN_MAPS.register_simple("Lower", lambda value: str(value).lower())
BUILTIN_MAPS.register_simple(
    "Flatten", lambda value: str(value).replace("::", "_")
)
BUILTIN_MAPS.register_simple(
    "CapFirst", lambda value: str(value)[:1].upper() + str(value)[1:]
)
BUILTIN_MAPS.register_simple(
    "Simple", lambda value: str(value).split("::")[-1]
)
