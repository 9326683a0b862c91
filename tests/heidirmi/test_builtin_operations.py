"""Tests for the built-in operations every skeleton serves.

``_is_a`` is the Heidi dynamic type check performed across the wire;
``_non_existent`` is the standard liveness probe.
"""

import pytest

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.model.errors import RemoteError
from repro.heidirmi.serialize import TypeRegistry

BASE_ID = "IDL:Builtin/Base:1.0"
DERIVED_ID = "IDL:Builtin/Derived:1.0"


class Base_stub(HdStub):
    _hd_type_id_ = BASE_ID


class Base_skel(HdSkel):
    _hd_type_id_ = BASE_ID
    _hd_operations_ = ()


class Derived_stub(Base_stub):
    _hd_type_id_ = DERIVED_ID
    _hd_parents_ = (BASE_ID,)


class Derived_skel(Base_skel):
    _hd_type_id_ = DERIVED_ID
    _hd_operations_ = ()
    _hd_parent_skels_ = (Base_skel,)


class Impl:
    pass


@pytest.fixture
def live():
    types = TypeRegistry()
    types.register_interface(BASE_ID, stub_class=Base_stub,
                             skeleton_class=Base_skel)
    types.register_interface(DERIVED_ID, stub_class=Derived_stub,
                             skeleton_class=Derived_skel,
                             parents=(BASE_ID,))
    server = Orb(transport="inproc", protocol="text", types=types).start()
    client = Orb(transport="inproc", protocol="text", types=types)
    ref = server.register(Impl(), type_id=DERIVED_ID)
    yield server, client, client.resolve(ref.stringify())
    client.stop()
    server.stop()


class TestRemoteIsA:
    def test_own_type(self, live):
        _, _, stub = live
        assert stub._remote_is_a(DERIVED_ID) is True

    def test_base_type(self, live):
        _, _, stub = live
        assert stub._remote_is_a(BASE_ID) is True

    def test_unrelated_type(self, live):
        _, _, stub = live
        assert stub._remote_is_a("IDL:Other:1.0") is False

    def test_agrees_with_local_check(self, live):
        _, _, stub = live
        for candidate in (DERIVED_ID, BASE_ID, "IDL:Other:1.0"):
            assert stub._remote_is_a(candidate) == stub._is_a(candidate)


class TestNonExistent:
    def test_live_object_reports_false(self, live):
        _, _, stub = live
        assert stub._non_existent() is False

    def test_unregistered_object_reports_true(self, live):
        server, client, stub = live
        server.unregister(stub._hd_ref.object_id)
        assert stub._non_existent() is True


class TestBuiltinsDoNotShadowUserOperations:
    def test_user_operation_named_like_builtin_wins(self):
        """A (perverse) user operation takes precedence over built-ins."""

        class Weird_skel(HdSkel):
            _hd_type_id_ = "IDL:Weird:1.0"
            _hd_operations_ = (("_is_a", "_op_custom"),)

            def _op_custom(self, call, reply):
                call.get_string()
                reply.put_boolean(True)  # always true, unlike the builtin

        types = TypeRegistry()
        types.register_interface("IDL:Weird:1.0", stub_class=HdStub,
                                 skeleton_class=Weird_skel)
        server = Orb(transport="inproc", protocol="text", types=types).start()
        client = Orb(transport="inproc", protocol="text", types=types)
        try:
            ref = server.register(Impl(), type_id="IDL:Weird:1.0")
            stub = client.resolve(ref.stringify())
            call = stub._new_call("_is_a")
            call.put_string("IDL:Anything:1.0")
            assert stub._invoke(call).get_boolean() is True
        finally:
            client.stop()
            server.stop()

    def test_unknown_operation_still_not_found(self, live):
        _, _, stub = live
        with pytest.raises(RemoteError, match="MethodNotFound"):
            stub._invoke(stub._new_call("_frobnicate"))
