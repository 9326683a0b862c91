"""Tests for GIOP locate machinery and connection-control messages."""

import threading

import pytest

from repro.heidirmi.iiop import GiopProtocol
from repro.giop.messages import (
    LOCATE_OBJECT_HERE,
    LOCATE_UNKNOWN_OBJECT,
    MSG_MESSAGE_ERROR,
    frame_message,
)
from repro.heidirmi import HdSkel, HdStub, Orb
from repro.model.call import Call
from repro.model.errors import CommunicationError, ProtocolError
from repro.heidirmi.protocol import pump_event
from repro.heidirmi.serialize import TypeRegistry
from repro.heidirmi.transport import get_transport
from repro.wire.events import LocateRequested

TYPE_ID = "IDL:Locate/Thing:1.0"


class Thing_stub(HdStub):
    _hd_type_id_ = TYPE_ID

    def poke(self):
        return self._invoke(self._new_call("poke")).get_long()


class Thing_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (("poke", "_op_poke"),)

    def _op_poke(self, call, reply):
        reply.put_long(7)


@pytest.fixture
def live_giop():
    types = TypeRegistry()
    types.register_interface(TYPE_ID, stub_class=Thing_stub,
                             skeleton_class=Thing_skel)
    server = Orb(transport="tcp", protocol="giop", types=types).start()
    ref = server.register(object(), type_id=TYPE_ID)
    yield server, ref
    server.stop()


def direct_channel(server):
    return get_transport("tcp").connect(*server.address)


class TestLocateRequest:
    def test_object_here(self, live_giop):
        server, ref = live_giop
        channel = direct_channel(server)
        try:
            protocol = GiopProtocol()
            status = protocol.locate(channel, ref.stringify().encode())
            assert status == LOCATE_OBJECT_HERE
        finally:
            channel.close()

    def test_unknown_object(self, live_giop):
        server, ref = live_giop
        bad = ref.stringify().replace(f"#{ref.object_id}#", "#does-not-exist#")
        channel = direct_channel(server)
        try:
            status = GiopProtocol().locate(channel, bad.encode())
            assert status == LOCATE_UNKNOWN_OBJECT
        finally:
            channel.close()

    def test_garbage_key_is_unknown(self, live_giop):
        server, _ = live_giop
        channel = direct_channel(server)
        try:
            status = GiopProtocol().locate(channel, b"\xff\xfenot-a-ref")
            assert status == LOCATE_UNKNOWN_OBJECT
        finally:
            channel.close()

    def test_normal_call_works_after_locate(self, live_giop):
        """Locate is served inline: the same connection then carries a
        normal request."""
        server, ref = live_giop
        channel = direct_channel(server)
        try:
            protocol = GiopProtocol()
            assert protocol.locate(channel, ref.stringify().encode()) \
                == LOCATE_OBJECT_HERE
            call = Call(ref.stringify(), "poke",
                        marshaller=protocol.new_marshaller())
            protocol.send_request(channel, call)
            reply = protocol.recv_reply(channel)
            assert reply.get_long() == 7
        finally:
            channel.close()


class TestConnectionControl:
    def test_close_connection_ends_server_loop(self, live_giop):
        server, ref = live_giop
        channel = direct_channel(server)
        protocol = GiopProtocol()
        protocol.close_connection(channel)
        # The server drops the connection; a subsequent read sees EOF.
        with pytest.raises(CommunicationError):
            channel.recv_exact(1)
        channel.close()

    def test_cancel_request_is_tolerated(self, live_giop):
        from repro.giop.cdr import CdrEncoder
        from repro.giop.messages import GIOP_HEADER_SIZE, MSG_CANCEL_REQUEST

        server, ref = live_giop
        channel = direct_channel(server)
        try:
            encoder = CdrEncoder(start_align=GIOP_HEADER_SIZE)
            encoder.ulong(1234)  # CancelRequestHeader: just the request id
            channel.send(frame_message(MSG_CANCEL_REQUEST, encoder.data()))
            # The connection is still usable afterwards.
            protocol = GiopProtocol()
            call = Call(ref.stringify(), "poke",
                        marshaller=protocol.new_marshaller())
            protocol.send_request(channel, call)
            assert protocol.recv_reply(channel).get_long() == 7
        finally:
            channel.close()

    def test_client_side_rejects_unexpected_message_type(self, live_giop):
        server, _ = live_giop
        listener = get_transport("inproc").listen("locate-test", 0)

        held = {}

        def fake_server():
            server_channel = listener.accept()
            held["channel"] = server_channel  # keep it open
            held["event"] = pump_event(
                server_channel, GiopProtocol().server_machine())
            server_channel.send(frame_message(MSG_MESSAGE_ERROR, b""))

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        channel = get_transport("inproc").connect(*listener.address)
        try:
            with pytest.raises(ProtocolError):
                GiopProtocol().locate(channel, b"key")
            assert type(held["event"]) is LocateRequested
            assert held["event"].object_key == b"key"
        finally:
            channel.close()
            if "channel" in held:
                held["channel"].close()
            listener.close()
