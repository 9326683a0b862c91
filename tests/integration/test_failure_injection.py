"""Failure injection: the ORB must degrade gracefully, never wedge.

The regression that motivated this file: a server worker thread once
died mid-reply (non-ASCII payload) without closing its channel, leaving
the client blocked forever.  Every scenario here asserts the failing
path surfaces as an exception or an error reply — never a hang — and
that the server keeps serving other clients afterwards.
"""

import threading
import time

import pytest

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.model.errors import CommunicationError, MarshalError, RemoteError
from repro.heidirmi.serialize import TypeRegistry
from repro.heidirmi.transport import get_transport
from tests.resilience.rig import (
    SERVER_RUNTIMES,
    make_pair,
    make_server,
    stop_pair,
)

TYPE_ID = "IDL:Fault/Victim:1.0"


class Victim_stub(HdStub):
    _hd_type_id_ = TYPE_ID

    def work(self, text):
        call = self._new_call("work")
        call.put_string(text)
        return self._invoke(call).get_string()

    def misbehave(self, mode):
        call = self._new_call("misbehave")
        call.put_string(mode)
        return self._invoke(call)


class Victim_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (("work", "_op_work"), ("misbehave", "_op_misbehave"))

    def _op_work(self, call, reply):
        reply.put_string(self.impl.work(call.get_string()))

    def _op_misbehave(self, call, reply):
        mode = call.get_string()
        if mode == "raise":
            raise ValueError("implementation bug")
        if mode == "bad-reply":
            # Rejected by the text marshaller here, at the put; by CDR
            # only when the recorded puts are replayed at emission.
            reply.put_long("not-an-int")
        if mode == "unclosed":
            reply.begin("result")  # no end(): text refuses to emit it
        if mode == "unicode":
            reply.put_string("▭ non-ascii result")


class VictimImpl:
    def work(self, text):
        return text[::-1]


def _live(runtime, protocol):
    types = TypeRegistry()
    types.register_interface(TYPE_ID, stub_class=Victim_stub,
                             skeleton_class=Victim_skel)
    server = make_server(runtime, "tcp", protocol=protocol, types=types)
    client = Orb(transport="tcp", protocol=protocol, types=types)
    ref = server.register(VictimImpl(), type_id=TYPE_ID)
    yield server, client, client.resolve(ref.stringify())
    client.stop()
    server.stop()


@pytest.fixture(params=SERVER_RUNTIMES)
def live(request):
    yield from _live(request.param, "text")


class TestServerSideFaults:
    def test_implementation_exception_is_error_reply(self, live):
        _, _, stub = live
        with pytest.raises(RemoteError, match="implementation bug"):
            stub.misbehave("raise")
        assert stub.work("ab") == "ba"  # connection survived

    def test_reply_marshal_failure_is_error_reply_not_hang(self, live):
        """A reply the marshaller rejects must come back as ERR, and the
        connection must stay usable."""
        _, _, stub = live
        with pytest.raises(RemoteError, match="MarshalError"):
            stub.misbehave("bad-reply")
        assert stub.work("cd") == "dc"

    def test_unencodable_reply_is_typed_error_reply(self, live):
        """A reply that only fails when emitted (the dispatch itself
        succeeded) is replaced by a typed ERR, not a dead connection."""
        _, _, stub = live
        with pytest.raises(RemoteError, match="MarshalError.*left open"):
            stub.misbehave("unclosed")
        assert stub.work("ef") == "fe"

    def test_non_ascii_reply_survives(self, live):
        """Regression for the silent-worker-death bug."""
        _, _, stub = live
        reply = stub.misbehave("unicode")
        assert reply.get_string() == "▭ non-ascii result"

    def test_half_request_then_disconnect(self, live):
        """A peer that sends half a line and vanishes must not disturb
        other clients."""
        server, _, stub = live
        channel = get_transport("tcp").connect(*server.address)
        channel.send(b"CALL @tcp:h:1#1#IDL:Fault/Vic")  # no newline
        channel.close()
        time.sleep(0.05)
        assert stub.work("ok") == "ko"

    def test_flood_of_garbage_lines(self, live):
        server, _, stub = live
        channel = get_transport("tcp").connect(*server.address)
        try:
            for _ in range(50):
                channel.send(b"complete nonsense\n")
            for _ in range(50):
                assert channel.recv_line().startswith(b"RET ERR")
        finally:
            channel.close()
        assert stub.work("still") == "llits"


class TestGiopFaults:
    @pytest.fixture(params=SERVER_RUNTIMES)
    def giop_live(self, request):
        yield from _live(request.param, "giop")

    def test_unencodable_reply_is_typed_error_reply(self, giop_live):
        """CDR replays the recorded puts at emission, so the bad value
        surfaces after dispatch returned — still a typed ERR."""
        _, _, stub = giop_live
        with pytest.raises(RemoteError, match="MarshalError"):
            stub.misbehave("bad-reply")
        assert stub.work("gh") == "hg"

    def test_garbage_bytes_do_not_crash_giop_server(self, giop_live):
        server, _, stub = giop_live
        channel = get_transport("tcp").connect(*server.address)
        channel.send(b"\x00\x01GARBAGE-NOT-GIOP-AT-ALL" + bytes(32))
        channel.close()
        time.sleep(0.05)
        assert stub.work("ok") == "ko"

    def test_truncated_giop_message(self, giop_live):
        server, _, stub = giop_live
        channel = get_transport("tcp").connect(*server.address)
        channel.send(b"GIOP\x01\x00\x01\x00\xff\xff\x00\x00")  # huge size
        channel.close()
        time.sleep(0.05)
        assert stub.work("fine") == "enif"


class TestEncodeErrors:
    """A value the protocol cannot encode costs the call and nothing
    else: a MarshalError on every protocol (text judges at the put,
    before a connection is acquired; GIOP at emit, after), and the next
    call rides the same connection."""

    @pytest.mark.parametrize("token, delay_ms", [
        ("b", 2**40),       # no long
        ("\ud800", 0),      # no UTF-8
    ], ids=["long-out-of-range", "lone-surrogate"])
    @pytest.mark.parametrize("protocol, multiplex", [
        ("text", False), ("text2", False), ("text2", True),
        ("giop", False), ("giop", True),
    ])
    def test_bad_call_then_good_call(self, protocol, multiplex, token,
                                     delay_ms):
        server, client, stub, impl = make_pair(protocol, multiplex)
        try:
            with pytest.raises(MarshalError):
                stub.echo(token, delay_ms=delay_ms)
            assert stub.echo("c") == "ack:c"
            assert impl.echoed == ["c"]
            assert client.connections.stats["opened"] == 1
            if not multiplex:
                assert client.connections.idle_count == 1
        finally:
            stop_pair(server, client)

    @pytest.mark.parametrize("protocol", ["text", "giop"])
    def test_unexpected_failure_drops_the_exclusive_connection(
            self, protocol, monkeypatch):
        """Anything but an encode error leaves the stream position
        unknown: the checked-out connection is closed, not leaked."""
        server, client, stub, _ = make_pair(protocol)
        try:
            assert stub.echo("a") == "ack:a"
            bootstrap = stub._hd_ref.bootstrap
            held = client.connections.acquire(bootstrap)
            client.connections.release(bootstrap, held)

            def boom(data):
                raise RuntimeError("mid-send")

            monkeypatch.setattr(held.channel, "send", boom)
            with pytest.raises(RuntimeError):
                stub.echo("b")
            monkeypatch.undo()
            assert held.closed
            assert client.connections.idle_count == 0
            assert stub.echo("c") == "ack:c"
        finally:
            stop_pair(server, client)


class TestClientSideFaults:
    def test_call_to_dead_server_raises(self):
        types = TypeRegistry()
        types.register_interface(TYPE_ID, stub_class=Victim_stub,
                                 skeleton_class=Victim_skel)
        server = Orb(transport="tcp", protocol="text", types=types).start()
        ref = server.register(VictimImpl(), type_id=TYPE_ID)
        client = Orb(transport="tcp", protocol="text", types=types)
        stub = client.resolve(ref.stringify())
        assert stub.work("up") == "pu"
        server.stop()
        time.sleep(0.05)
        with pytest.raises((CommunicationError, RemoteError)):
            stub.work("down")
        client.stop()

    def test_failed_connection_not_returned_to_cache(self):
        types = TypeRegistry()
        types.register_interface(TYPE_ID, stub_class=Victim_stub,
                                 skeleton_class=Victim_skel)
        server = Orb(transport="tcp", protocol="text", types=types).start()
        ref = server.register(VictimImpl(), type_id=TYPE_ID)
        client = Orb(transport="tcp", protocol="text", types=types)
        stub = client.resolve(ref.stringify())
        stub.work("warm")
        server.stop()
        time.sleep(0.05)
        with pytest.raises((CommunicationError, RemoteError)):
            stub.work("x")
        assert client.connections.idle_count == 0
        client.stop()

    def test_concurrent_clients_with_one_failing(self):
        """One client injecting faults must not slow the good client."""
        types = TypeRegistry()
        types.register_interface(TYPE_ID, stub_class=Victim_stub,
                                 skeleton_class=Victim_skel)
        server = Orb(transport="tcp", protocol="text", types=types).start()
        ref = server.register(VictimImpl(), type_id=TYPE_ID)
        stop = threading.Event()

        def chaos():
            while not stop.is_set():
                try:
                    channel = get_transport("tcp").connect(*server.address)
                    channel.send(b"junk junk junk\n")
                    channel.close()
                except CommunicationError:
                    pass
                time.sleep(0.001)

        chaos_thread = threading.Thread(target=chaos, daemon=True)
        chaos_thread.start()
        client = Orb(transport="tcp", protocol="text", types=types)
        try:
            stub = client.resolve(ref.stringify())
            for index in range(50):
                assert stub.work(str(index)) == str(index)[::-1]
        finally:
            stop.set()
            chaos_thread.join(timeout=5)
            client.stop()
            server.stop()
