"""Tests for pass-by-value (incopy), type registry and object passing."""

import pytest

from repro.model.call import Call
from repro.model.errors import MarshalError
from repro.model.objref import ObjectReference
from repro.heidirmi.serialize import (
    HdSerializable,
    TypeRegistry,
    get_object,
    is_serializable,
    put_object,
)
from repro.wire.textwire import TextMarshaller, TextUnmarshaller


class Token(HdSerializable):
    """A serializable value object used across these tests."""

    TYPE_ID = "IDL:Test/Token:1.0"

    def __init__(self, label="x"):
        self.label = label

    def _hd_type_id(self):
        return self.TYPE_ID

    def _hd_marshal(self, call, orb):
        call.put_string(self.label)

    @classmethod
    def _hd_unmarshal(cls, call, orb):
        return cls(call.get_string())


class DuckToken:
    """Serializable by duck-typing only — no HdSerializable base."""

    def _hd_type_id(self):
        return "IDL:Test/Duck:1.0"

    def _hd_marshal(self, call, orb):
        call.put_long(7)

    @classmethod
    def _hd_unmarshal(cls, call, orb):
        call.get_long()
        return cls()


def wire_roundtrip(obj, direction, registry, orb=None):
    out = Call("@tcp:h:1#1#IDL:X:1.0", "op", marshaller=TextMarshaller())
    put_object(out, obj, orb, direction=direction)
    incoming = Call(
        "@tcp:h:1#1#IDL:X:1.0", "op",
        unmarshaller=TextUnmarshaller.from_payload(out.payload()),
    )
    return get_object(incoming, orb, registry=registry)


class TestIsSerializable:
    def test_subclass_detected(self):
        assert is_serializable(Token())

    def test_duck_typed_detected(self):
        """Heidi's dynamic type check: interface support at run time,
        no base class required (legacy-friendliness)."""
        assert is_serializable(DuckToken())

    def test_plain_object_not_serializable(self):
        assert not is_serializable(object())

    def test_partial_implementation_not_serializable(self):
        class Half:
            def _hd_marshal(self, call, orb):
                pass

        assert not is_serializable(Half())


class TestPassByValue:
    def test_incopy_serializable_travels_by_value(self):
        registry = TypeRegistry()
        registry.register_value(Token.TYPE_ID, Token)
        copy = wire_roundtrip(Token("precious"), "incopy", registry)
        assert isinstance(copy, Token)
        assert copy.label == "precious"

    def test_copy_is_independent(self):
        registry = TypeRegistry()
        registry.register_value(Token.TYPE_ID, Token)
        original = Token("a")
        copy = wire_roundtrip(original, "incopy", registry)
        assert copy is not original

    def test_none_travels_as_nil(self):
        registry = TypeRegistry()
        assert wire_roundtrip(None, "in", registry) is None
        assert wire_roundtrip(None, "incopy", registry) is None

    def test_unregistered_value_type_raises_on_receive(self):
        registry = TypeRegistry()  # Token NOT registered here
        with pytest.raises(MarshalError, match="no serializable class"):
            wire_roundtrip(Token(), "incopy", registry)

    def test_in_direction_never_copies(self):
        """Only incopy passes by value; plain `in` passes by reference,
        which without an ORB must fail for a non-reference object."""
        registry = TypeRegistry()
        registry.register_value(Token.TYPE_ID, Token)
        with pytest.raises(MarshalError, match="without an ORB"):
            wire_roundtrip(Token(), "in", registry)

    def test_incopy_non_serializable_degrades_to_reference(self):
        """'object references passed incopy are copied ... if possible' —
        not possible here, so the reference path is taken."""
        registry = TypeRegistry()
        ref = ObjectReference("tcp", "h", 1, "9", "IDL:X:1.0")
        result = wire_roundtrip(ref, "incopy", registry, orb=None)
        # Without an ORB the receiver gets the parsed reference back.
        assert result == ref


class TestTypeRegistry:
    def test_register_and_lookup(self):
        registry = TypeRegistry()
        registry.register_interface("IDL:A:1.0", stub_class=int, skeleton_class=str)
        assert registry.stub_class("IDL:A:1.0") is int
        assert registry.skeleton_class("IDL:A:1.0") is str

    def test_unknown_lookups_return_none(self):
        registry = TypeRegistry()
        assert registry.stub_class("IDL:Nope:1.0") is None
        assert registry.value_class("IDL:Nope:1.0") is None
        assert registry.parents("IDL:Nope:1.0") == ()

    def test_is_a_reflexive(self):
        registry = TypeRegistry()
        assert registry.is_a("IDL:A:1.0", "IDL:A:1.0")

    def test_is_a_transitive(self):
        registry = TypeRegistry()
        registry.register_interface("IDL:B:1.0", parents=("IDL:A:1.0",))
        registry.register_interface("IDL:C:1.0", parents=("IDL:B:1.0",))
        assert registry.is_a("IDL:C:1.0", "IDL:A:1.0")
        assert not registry.is_a("IDL:A:1.0", "IDL:C:1.0")

    def test_is_a_multiple_parents(self):
        registry = TypeRegistry()
        registry.register_interface("IDL:C:1.0",
                                    parents=("IDL:A:1.0", "IDL:B:1.0"))
        assert registry.is_a("IDL:C:1.0", "IDL:B:1.0")

    def test_is_a_handles_cycles_gracefully(self):
        registry = TypeRegistry()
        registry.register_interface("IDL:A:1.0", parents=("IDL:B:1.0",))
        registry.register_interface("IDL:B:1.0", parents=("IDL:A:1.0",))
        assert not registry.is_a("IDL:A:1.0", "IDL:C:1.0")

    def test_known_types_sorted(self):
        registry = TypeRegistry()
        registry.register_interface("IDL:B:1.0")
        registry.register_interface("IDL:A:1.0")
        assert registry.known_types() == ["IDL:A:1.0", "IDL:B:1.0"]
