"""Tests for skeleton dispatch: delegation + recursive hierarchy walk."""

import pytest

from repro.model.call import Call, Reply
from repro.model.errors import MethodNotFound
from repro.heidirmi.skeleton import HdSkel
from repro.wire.textwire import TextMarshaller, TextUnmarshaller


def incoming(operation, tokens=()):
    return Call("@tcp:h:1#1#IDL:X:1.0", operation,
                unmarshaller=TextUnmarshaller(list(tokens)))


def fresh_reply():
    return Reply(marshaller=TextMarshaller())


class RecordingImpl:
    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def record(*args):
            self.calls.append((name, args))
            return None

        return record


class Base_skel(HdSkel):
    _hd_type_id_ = "IDL:Base:1.0"
    _hd_operations_ = (("base_op", "_op_base"),)

    def _op_base(self, call, reply):
        self.impl.base_op()
        reply.put_string("base")


class Mixin_skel(HdSkel):
    _hd_type_id_ = "IDL:Mixin:1.0"
    _hd_operations_ = (("mix_op", "_op_mix"),)

    def _op_mix(self, call, reply):
        self.impl.mix_op()
        reply.put_string("mixin")


class Derived_skel(Base_skel, Mixin_skel):
    _hd_type_id_ = "IDL:Derived:1.0"
    _hd_operations_ = (("own_op", "_op_own"),)
    _hd_parent_skels_ = (Base_skel, Mixin_skel)

    def _op_own(self, call, reply):
        self.impl.own_op()
        reply.put_string("derived")


@pytest.fixture(params=["linear", "nested", "hash"])
def skeleton(request):
    return Derived_skel(RecordingImpl(), None, dispatch_strategy=request.param)


class TestDispatch:
    def test_own_operation(self, skeleton):
        reply = fresh_reply()
        skeleton.dispatch(incoming("own_op"), reply)
        assert skeleton.impl.calls == [("own_op", ())]

    def test_inherited_via_first_parent(self, skeleton):
        skeleton.dispatch(incoming("base_op"), fresh_reply())
        assert skeleton.impl.calls == [("base_op", ())]

    def test_inherited_via_second_parent(self, skeleton):
        """Multiple inheritance: delegation continues to each parent
        skeleton in order (paper §3.1)."""
        skeleton.dispatch(incoming("mix_op"), fresh_reply())
        assert skeleton.impl.calls == [("mix_op", ())]

    def test_unknown_operation_raises(self, skeleton):
        with pytest.raises(MethodNotFound):
            skeleton.dispatch(incoming("nope"), fresh_reply())

    def test_own_tried_before_parents(self):
        """A derived redefinition shadows the parent's entry."""

        class Shadowing_skel(Base_skel):
            _hd_type_id_ = "IDL:Shadow:1.0"
            _hd_operations_ = (("base_op", "_op_shadow"),)
            _hd_parent_skels_ = (Base_skel,)

            def _op_shadow(self, call, reply):
                self.impl.shadowed()

        skel = Shadowing_skel(RecordingImpl(), None, dispatch_strategy="hash")
        skel.dispatch(incoming("base_op"), fresh_reply())
        assert skel.impl.calls == [("shadowed", ())]

    def test_parents_tried_in_declaration_order(self):
        """When two parents both serve an op, the first wins."""

        class P1_skel(HdSkel):
            _hd_operations_ = (("shared", "_op1"),)

            def _op1(self, call, reply):
                self.impl.first()

        class P2_skel(HdSkel):
            _hd_operations_ = (("shared", "_op2"),)

            def _op2(self, call, reply):
                self.impl.second()

        class Child_skel(P1_skel, P2_skel):
            _hd_operations_ = ()
            _hd_parent_skels_ = (P1_skel, P2_skel)

        skel = Child_skel(RecordingImpl(), None, dispatch_strategy="hash")
        skel.dispatch(incoming("shared"), fresh_reply())
        assert skel.impl.calls == [("first", ())]

    def test_operations_collects_hierarchy(self, skeleton):
        assert set(skeleton.operations()) == {"own_op", "base_op", "mix_op"}


class TestDelegation:
    def test_impl_needs_no_special_base_class(self):
        """The Fig. 2 point: any object can be the implementation."""

        class PlainLegacyObject:
            def base_op(self):
                self.touched = True

        impl = PlainLegacyObject()
        skel = Base_skel(impl, None, dispatch_strategy="linear")
        skel.dispatch(incoming("base_op"), fresh_reply())
        assert impl.touched

    def test_skeleton_repr(self):
        skel = Base_skel(RecordingImpl(), None, dispatch_strategy="hash")
        assert "Base_skel" in repr(skel)
        assert "IDL:Base:1.0" in repr(skel)


class TestDispatcherCaching:
    def test_dispatcher_cached_per_class_and_strategy(self):
        d1 = Base_skel._own_dispatcher("hash")
        d2 = Base_skel._own_dispatcher("hash")
        assert d1 is d2
        d3 = Base_skel._own_dispatcher("linear")
        assert d3 is not d1

    def test_subclass_does_not_inherit_cache_entries(self):
        base = Base_skel._own_dispatcher("hash")
        derived = Derived_skel._own_dispatcher("hash")
        assert base is not derived
        assert derived.lookup("own_op") is not None
        assert base.lookup("own_op") is None
