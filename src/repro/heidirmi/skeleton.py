"""Server-side skeleton base class.

HeidiRMI skeletons *delegate* to the implementation object instead of
being inherited by it (paper, Fig. 2), so "no restructuring of the
existing class hierarchy is necessary".  Skeleton classes mirror the IDL
inheritance graph, and dispatching recurses up it: "The dispatch method
of A_skel first attempts to dispatch an incoming request to methods
defined in the interface A.  If this fails, then dispatching is
delegated to the dispatch method of S_skel, continuing recursively up
the skeleton class hierarchy.  If A inherits from more than one
interface, then dispatching is delegated to each of the corresponding
skeleton super-classes in order."
"""

from repro.heidirmi.dispatch import make_dispatcher
from repro.model.errors import MethodNotFound
from repro.heidirmi.serialize import get_object, put_object


class HdSkel:
    """Generic skeleton functionality; generated classes subclass this.

    A generated subclass declares:

    - ``_hd_type_id_`` — the interface's repository ID;
    - ``_hd_operations_`` — (wire-operation-name, method-name) pairs for
      the operations *declared by this interface itself*;
    - ``_hd_parent_skels_`` — skeleton classes of the direct IDL bases,
      in declaration order.
    """

    _hd_type_id_ = ""
    _hd_operations_ = ()
    _hd_parent_skels_ = ()

    def __init__(self, impl, orb, dispatch_strategy=None):
        #: The target object implementation; the skeleton only delegates.
        self.impl = impl
        self.orb = orb
        self._strategy = dispatch_strategy or (
            orb.dispatch_strategy if orb is not None else "hash"
        )
        # Resolution memo: operation -> unbound handler.  The recursive
        # walk up the skeleton hierarchy always lands on the same
        # handler for a given operation, so each name resolves once.
        self._handlers = {}

    @property
    def _orb(self):
        """Uniform ORB accessor shared with HdStub (generated code uses it)."""
        return self.orb

    # -- dispatcher construction ------------------------------------------

    @classmethod
    def _own_dispatcher(cls, strategy):
        """The dispatcher over *this class's own* operations, cached."""
        cache = cls.__dict__.get("_hd_dispatch_cache_")
        if cache is None:
            cache = {}
            setattr(cls, "_hd_dispatch_cache_", cache)
        dispatcher = cache.get(strategy)
        if dispatcher is None:
            entries = [
                (wire_name, method_name)
                for wire_name, method_name in cls.__dict__.get(
                    "_hd_operations_", cls._hd_operations_
                )
            ]
            dispatcher = make_dispatcher(strategy, entries)
            cache[strategy] = dispatcher
        return dispatcher

    # -- dispatching ---------------------------------------------------------

    def dispatch(self, call, reply):
        """Dispatch *call*; raises MethodNotFound if no class handles it."""
        handler = self._handlers.get(call.operation)
        if handler is not None:
            if call.trace_span is not None:
                call.trace_span.set("dispatch.path", "memo")
            handler(self, call, reply)
            return
        handler = self._resolve_handler(type(self), call.operation)
        if handler is not None:
            self._handlers[call.operation] = handler
            if call.trace_span is not None:
                call.trace_span.set("dispatch.path", "resolved")
            handler(self, call, reply)
            return
        if call.trace_span is not None:
            call.trace_span.set("dispatch.path", "builtin")
        if self._dispatch_builtin(call, reply):
            return
        raise MethodNotFound(call.operation, self._hd_type_id_)

    def _resolve_handler(self, skel_class, operation):
        """The recursive hierarchy walk, yielding the handler function."""
        dispatcher = skel_class._own_dispatcher(self._strategy)
        method_name = dispatcher.lookup(operation)
        if method_name is not None:
            return getattr(skel_class, method_name)
        for parent in skel_class.__dict__.get(
            "_hd_parent_skels_", skel_class._hd_parent_skels_
        ):
            handler = self._resolve_handler(parent, operation)
            if handler is not None:
                return handler
        return None

    def _dispatch_builtin(self, call, reply):
        """CORBA-style built-in operations every object answers.

        ``_is_a`` performs the dynamic type check *remotely* — the
        Heidi runtime type information consulted across the wire —
        and ``_non_existent`` is the standard liveness probe.
        """
        if call.operation == "_is_a":
            candidate = call.get_string()
            registry = self.orb.types if self.orb is not None else None
            if registry is not None:
                result = registry.is_a(self._hd_type_id_, candidate)
            else:
                result = candidate == self._hd_type_id_
            reply.put_boolean(result)
            return True
        if call.operation == "_non_existent":
            reply.put_boolean(False)
            return True
        return False

    def operations(self):
        """Every operation reachable through this skeleton's hierarchy."""
        names = []
        self._collect_operations(type(self), names)
        return names

    def _collect_operations(self, skel_class, names):
        for wire_name, _ in skel_class.__dict__.get(
            "_hd_operations_", skel_class._hd_operations_
        ):
            if wire_name not in names:
                names.append(wire_name)
        for parent in skel_class.__dict__.get(
            "_hd_parent_skels_", skel_class._hd_parent_skels_
        ):
            self._collect_operations(parent, names)

    # -- helpers used by generated operation methods ---------------------------

    def _put_object(self, call, obj, direction="in"):
        put_object(call, obj, self.orb, direction=direction)

    def _get_object(self, call):
        return get_object(call, self.orb,
                          registry=self.orb.types if self.orb else None)

    def __repr__(self):
        return (
            f"<{type(self).__name__} for {type(self.impl).__name__} "
            f"({self._hd_type_id_})>"
        )
