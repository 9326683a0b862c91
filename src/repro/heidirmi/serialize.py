"""Pass-by-value (`incopy`) support and dynamic type checking.

The paper's ``incopy`` qualifier copies an object across the interface
*if possible*: "Whether a particular object has actually implemented the
required marshaling/unmarshaling primitives is determined by testing if
it implements the HdSerializable interface.  The dynamic type checking
support that is implemented in Heidi is utilized for this purpose."

Here :class:`HdSerializable` is that interface, :class:`TypeRegistry`
is the dynamic type-checking support (repository-ID → classes, with
inheritance), and :func:`put_object`/:func:`get_object` implement the
pass-by-value-or-reference decision used by stubs and skeletons.
The semantics match Java RMI's treatment of a ``Serializable`` that is
not ``Remote``: a true copy travels, and no skeleton is ever created
for it.
"""

import threading

from repro.model.errors import MarshalError
from repro.model.objref import ObjectReference


class HdSerializable:
    """Objects that can be copied across the interface (pass-by-value).

    Implementations provide the marshalling primitives the ORB run-time
    uses when a parameter is passed ``incopy``:

    - ``_hd_type_id()`` — the repository ID naming the value's type;
    - ``_hd_marshal(call, orb)`` — write the object's state;
    - classmethod ``_hd_unmarshal(call, orb)`` — rebuild a copy.
    """

    def _hd_type_id(self):
        raise NotImplementedError

    def _hd_marshal(self, call, orb):
        raise NotImplementedError

    @classmethod
    def _hd_unmarshal(cls, call, orb):
        raise NotImplementedError


def is_serializable(obj):
    """Heidi-style dynamic check for the HdSerializable interface.

    Duck-typed on purpose: legacy classes need not inherit from
    :class:`HdSerializable`, mirroring how Heidi's dynamic type checking
    tested for interface support at run time.
    """
    return (
        callable(getattr(obj, "_hd_marshal", None))
        and callable(getattr(obj, "_hd_type_id", None))
        and callable(getattr(type(obj), "_hd_unmarshal", None))
    )


class TypeInfo:
    """Everything the runtime knows about one repository ID."""

    __slots__ = ("type_id", "stub_class", "skeleton_class", "value_class", "parents")

    def __init__(self, type_id):
        self.type_id = type_id
        self.stub_class = None
        self.skeleton_class = None
        self.value_class = None
        #: Repository IDs of the direct base interfaces.
        self.parents = ()


class TypeRegistry:
    """Repository-ID keyed registry with inheritance-aware ``is_a``.

    One process-global instance (:data:`GLOBAL_TYPES`) is shared by all
    ORBs, since generated stub/skeleton classes are process-global too;
    tests may build private registries.
    """

    def __init__(self):
        self._types = {}
        self._lock = threading.Lock()

    def _info(self, type_id):
        with self._lock:
            info = self._types.get(type_id)
            if info is None:
                info = TypeInfo(type_id)
                self._types[type_id] = info
            return info

    # -- registration -----------------------------------------------------

    def register_value(self, type_id, value_class):
        info = self._info(type_id)
        info.value_class = value_class
        return value_class

    def register_interface(self, type_id, stub_class=None, skeleton_class=None,
                           parents=()):
        info = self._info(type_id)
        if stub_class is not None:
            info.stub_class = stub_class
        if skeleton_class is not None:
            info.skeleton_class = skeleton_class
        if parents:
            info.parents = tuple(parents)

    # -- lookup ------------------------------------------------------------

    def stub_class(self, type_id):
        info = self._types.get(type_id)
        return info.stub_class if info else None

    def skeleton_class(self, type_id):
        info = self._types.get(type_id)
        return info.skeleton_class if info else None

    def value_class(self, type_id):
        info = self._types.get(type_id)
        return info.value_class if info else None

    def parents(self, type_id):
        info = self._types.get(type_id)
        return info.parents if info else ()

    def is_a(self, type_id, candidate_base):
        """Dynamic type check: does *type_id* conform to *candidate_base*?"""
        if type_id == candidate_base:
            return True
        seen = set()
        stack = [type_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for parent in self.parents(current):
                if parent == candidate_base:
                    return True
                stack.append(parent)
        return False

    def known_types(self):
        return sorted(self._types)


#: The process-global registry generated code registers into.
GLOBAL_TYPES = TypeRegistry()


# ---------------------------------------------------------------------------
# Object passing
# ---------------------------------------------------------------------------

# Discriminator written before every object value on the wire:
# True → a by-value copy follows; False → an object reference follows.
def put_object(call, obj, orb, direction="in"):
    """Marshal an object parameter per the paper's incopy rules.

    ``direction == "incopy"`` requests pass-by-value; the copy happens
    only if the object is serializable, otherwise the parameter quietly
    degrades to pass-by-reference (the "if possible" in the paper).
    """
    if obj is None:
        call.put_boolean(False)
        call.put_objref(None)
        return
    if direction == "incopy" and is_serializable(obj):
        call.put_boolean(True)
        call.put_string(obj._hd_type_id())
        call.begin("value")
        obj._hd_marshal(call, orb)
        call.end()
        return
    call.put_boolean(False)
    reference = _reference_for(obj, orb)
    call.put_objref(reference.stringify())


def _reference_for(obj, orb):
    """An ObjectReference for *obj*, registering the object if needed."""
    if isinstance(obj, ObjectReference):
        return obj
    existing = getattr(obj, "_hd_ref", None)
    if isinstance(existing, ObjectReference):
        return existing
    if orb is None:
        raise MarshalError(
            f"cannot pass {type(obj).__name__} by reference without an ORB"
        )
    # Passing an unregistered implementation object: the skeleton comes
    # into being exactly because a reference is crossing the wire
    # (paper: "The skeleton for a particular object is only created when
    # a reference to it is being passed").
    return orb.export(obj)


def get_object(call, orb, registry=None):
    """Unmarshal an object parameter: a copy, a stub, or None."""
    registry = registry if registry is not None else GLOBAL_TYPES
    by_value = call.get_boolean()
    if by_value:
        type_id = call.get_string()
        value_class = registry.value_class(type_id)
        if value_class is None:
            raise MarshalError(
                f"no serializable class registered for {type_id!r}"
            )
        call.begin("value")
        value = value_class._hd_unmarshal(call, orb)
        call.end()
        return value
    stringified = call.get_objref()
    if stringified is None:
        return None
    reference = ObjectReference.parse(stringified)
    if orb is None:
        return reference
    # "At the receiving end, the type information contained in the object
    # reference is utilized to create a stub of the appropriate type."
    return orb.resolve(reference)
