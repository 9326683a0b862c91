"""Tests for the ORB core: registration, caches, error replies, tracing."""

import pytest

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.model.errors import HeidiRmiError, RemoteError
from repro.heidirmi.serialize import TypeRegistry

TYPE_ID = "IDL:OrbTest/Echo:1.0"


class Echo_stub(HdStub):
    _hd_type_id_ = TYPE_ID

    def echo(self, text):
        call = self._new_call("echo")
        call.put_string(text)
        return self._invoke(call).get_string()

    def boom(self):
        call = self._new_call("boom")
        return self._invoke(call)


class Echo_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (("echo", "_op_echo"), ("boom", "_op_boom"))

    def _op_echo(self, call, reply):
        reply.put_string(self.impl.echo(call.get_string()))

    def _op_boom(self, call, reply):
        self.impl.boom()


class EchoImpl:
    def echo(self, text):
        return text[::-1]

    def boom(self):
        raise RuntimeError("implementation exploded")


@pytest.fixture
def registry():
    types = TypeRegistry()
    types.register_interface(TYPE_ID, stub_class=Echo_stub,
                             skeleton_class=Echo_skel)
    return types


@pytest.fixture
def pair(registry):
    server = Orb(transport="inproc", protocol="text", types=registry).start()
    client = Orb(transport="inproc", protocol="text", types=registry)
    yield server, client
    client.stop()
    server.stop()


class TestRegistration:
    def test_register_returns_reference(self, pair):
        server, _ = pair
        ref = server.register(EchoImpl(), type_id=TYPE_ID)
        assert ref.type_id == TYPE_ID
        assert ref.port == server.port
        assert ref.protocol == "inproc"

    def test_oid_allocation_is_unique(self, pair):
        server, _ = pair
        refs = {server.register(EchoImpl(), type_id=TYPE_ID).object_id
                for _ in range(5)}
        assert len(refs) == 5

    def test_explicit_oid(self, pair):
        server, _ = pair
        ref = server.register(EchoImpl(), type_id=TYPE_ID, oid="9876")
        assert ref.object_id == "9876"

    def test_duplicate_oid_rejected(self, pair):
        server, _ = pair
        server.register(EchoImpl(), type_id=TYPE_ID, oid="dup")
        with pytest.raises(HeidiRmiError):
            server.register(EchoImpl(), type_id=TYPE_ID, oid="dup")

    def test_export_is_idempotent(self, pair):
        server, _ = pair
        impl = EchoImpl()
        ref1 = server.export(impl, type_id=TYPE_ID)
        ref2 = server.export(impl, type_id=TYPE_ID)
        assert ref1 == ref2

    def test_type_id_inference_requires_marker(self, pair):
        server, _ = pair
        with pytest.raises(HeidiRmiError, match="cannot infer"):
            server.register(object())

    def test_unregister(self, pair, registry):
        server, client = pair
        ref = server.register(EchoImpl(), type_id=TYPE_ID)
        server.unregister(ref.object_id)
        stub = client.resolve(ref)
        with pytest.raises(RemoteError, match="ObjectNotFound"):
            stub.echo("x")


class TestCalls:
    def test_round_trip(self, pair):
        server, client = pair
        ref = server.register(EchoImpl(), type_id=TYPE_ID)
        stub = client.resolve(ref.stringify())
        assert stub.echo("abc") == "cba"

    def test_implementation_error_becomes_remote_error(self, pair):
        server, client = pair
        ref = server.register(EchoImpl(), type_id=TYPE_ID)
        stub = client.resolve(ref)
        with pytest.raises(RemoteError, match="implementation exploded"):
            stub.boom()
        # The connection survives the error: next call still works.
        assert stub.echo("ok") == "ko"

    def test_method_not_found(self, pair):
        server, client = pair
        ref = server.register(EchoImpl(), type_id=TYPE_ID)
        stub = Echo_stub(ref, client)
        call = stub._new_call("no_such_op")
        with pytest.raises(RemoteError, match="MethodNotFound"):
            stub._invoke(call)


class TestStubCache:
    def test_same_reference_yields_same_stub(self, pair):
        server, client = pair
        ref = server.register(EchoImpl(), type_id=TYPE_ID)
        assert client.resolve(ref) is client.resolve(ref)
        assert client.stats["stub_hits"] >= 1

    def test_cache_disabled(self, registry):
        server = Orb(transport="inproc", types=registry).start()
        client = Orb(transport="inproc", types=registry, cache_stubs=False)
        try:
            ref = server.register(EchoImpl(), type_id=TYPE_ID)
            assert client.resolve(ref) is not client.resolve(ref)
        finally:
            client.stop()
            server.stop()

    def test_unknown_type_gets_generic_stub(self, pair, registry):
        _, client = pair
        from repro.model.objref import ObjectReference

        ref = ObjectReference("inproc", "h", 1, "1", "IDL:Unknown:1.0")
        stub = client.resolve(ref)
        assert type(stub) is HdStub


class TestSkeletonCache:
    def test_skeleton_created_lazily_and_once(self, pair):
        server, client = pair
        ref = server.register(EchoImpl(), type_id=TYPE_ID)
        assert server.stats["skeleton_created"] == 0  # lazy
        stub = client.resolve(ref)
        stub.echo("a")
        stub.echo("b")
        assert server.stats["skeleton_created"] == 1
        assert server.stats["skeleton_hits"] == 1


class TestTracing:
    def test_trace_events_cover_fig4_and_fig5(self, registry):
        events = []
        server = Orb(transport="inproc", types=registry,
                     trace=lambda name, detail: events.append(name)).start()
        client = Orb(transport="inproc", types=registry,
                     trace=lambda name, detail: events.append(name))
        try:
            ref = server.register(EchoImpl(), type_id=TYPE_ID)
            client.resolve(ref).echo("x")
        finally:
            client.stop()
            server.stop()
        # Client side (Fig. 4): stub → new Call → invoke → reply.
        for expected in ("orb:stub", "call:new", "call:invoke", "call:reply"):
            assert expected in events, expected
        # Server side (Fig. 5): accept → request → skeleton → dispatch.
        for expected in ("orb:accept", "orb:request", "orb:skeleton",
                         "orb:dispatch"):
            assert expected in events, expected


class TestLifecycle:
    def test_context_manager(self, registry):
        with Orb(transport="inproc", types=registry) as orb:
            assert orb.port > 0
        # After exit the listener is gone: connecting fails.
        from repro.model.errors import CommunicationError
        from repro.heidirmi.transport import get_transport

        with pytest.raises(CommunicationError):
            get_transport("inproc").connect("127.0.0.1", orb.port)

    def test_double_start_is_noop(self, registry):
        orb = Orb(transport="inproc", types=registry).start()
        port = orb.port
        orb.start()
        assert orb.port == port
        orb.stop()

    def test_stop_idempotent(self, registry):
        orb = Orb(transport="inproc", types=registry).start()
        orb.stop()
        orb.stop()
