"""Tests for GIOP as a pluggable HeidiRMI protocol."""

import threading

import pytest

from repro.heidirmi.iiop import GiopProtocol
from repro.giop.cdr import CdrDecoder, CdrEncoder
from repro.model.call import Call, Reply, STATUS_ERROR, STATUS_EXCEPTION, STATUS_OK
from repro.model.errors import MarshalError, ProtocolError
from repro.heidirmi.transport import get_transport

REF = "@tcp:h:1234#9#IDL:X:1.0"


@pytest.fixture
def channels():
    transport = get_transport("inproc")
    listener = transport.listen("giop-test", 0)
    holder = {}
    thread = threading.Thread(target=lambda: holder.update(s=listener.accept()))
    thread.start()
    client = transport.connect(*listener.address)
    thread.join()
    yield client, holder["s"]
    client.close()
    holder["s"].close()
    listener.close()


class TestCdrCallSurface:
    def test_enum_travels_as_index(self):
        marshaller = CdrEncoder()
        marshaller.put_enum("Stop", 1)
        decoder = CdrDecoder(marshaller.payload())
        assert decoder.ulong() == 1

    def test_enum_range_checked_on_get(self):
        marshaller = CdrEncoder()
        marshaller.put_enum("X", 5)
        unmarshaller = CdrDecoder(marshaller.payload())
        with pytest.raises(MarshalError):
            unmarshaller.get_enum(("A", "B"))

    def test_objref_nil_is_empty_string(self):
        marshaller = CdrEncoder()
        marshaller.put_objref(None)
        unmarshaller = CdrDecoder(marshaller.payload())
        assert unmarshaller.get_objref() is None

    def test_begin_end_are_noops(self):
        marshaller = CdrEncoder()
        marshaller.begin("s")
        marshaller.put_long(1)
        marshaller.end()
        assert len(marshaller.payload()) == 4


class TestRequestReply:
    def test_request_roundtrip(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "mix", marshaller=protocol.new_marshaller())
        call.put_octet(1)
        call.put_double(2.5)  # exercises alignment after variable header
        call.put_string("s")
        protocol.send_request(client, call)
        received = protocol.recv_request(server)
        assert received.target == REF
        assert received.operation == "mix"
        assert received.get_octet() == 1
        assert received.get_double() == 2.5
        assert received.get_string() == "s"

    def test_reply_roundtrip(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        # Prime the request ids by sending a request first.
        call = Call(REF, "op", marshaller=protocol.new_marshaller())
        protocol.send_request(client, call)
        protocol.recv_request(server)
        reply = Reply(status=STATUS_OK, marshaller=protocol.new_marshaller())
        reply.put_long(-12)
        protocol.send_reply(server, reply)
        received = protocol.recv_reply(client)
        assert received.is_ok
        assert received.get_long() == -12

    def test_exception_reply_carries_repo_id(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "op", marshaller=protocol.new_marshaller())
        protocol.send_request(client, call)
        protocol.recv_request(server)
        reply = Reply(status=STATUS_EXCEPTION, repo_id="IDL:Bad:1.0",
                      marshaller=protocol.new_marshaller())
        reply.put_string("detail")
        protocol.send_reply(server, reply)
        received = protocol.recv_reply(client)
        assert received.is_exception
        assert received.repo_id == "IDL:Bad:1.0"
        assert received.get_string() == "detail"

    def test_error_reply_maps_to_system_exception(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "op", marshaller=protocol.new_marshaller())
        protocol.send_request(client, call)
        protocol.recv_request(server)
        reply = Reply(status=STATUS_ERROR, repo_id="MethodNotFound",
                      marshaller=protocol.new_marshaller())
        reply.put_string("no method")
        protocol.send_reply(server, reply)
        received = protocol.recv_reply(client)
        assert received.is_error
        assert received.repo_id == "MethodNotFound"

    def test_request_id_echoed_in_reply(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        for _ in range(3):
            call = Call(REF, "op", marshaller=protocol.new_marshaller())
            protocol.send_request(client, call)
            protocol.recv_request(server)
            reply = Reply(status=STATUS_OK, marshaller=protocol.new_marshaller())
            protocol.send_reply(server, reply)
            protocol.recv_reply(client)  # raises on id mismatch

    def test_request_ids_wrap_inside_ulong_skipping_zero(self, channels):
        """``itertools.count`` never wraps but GIOP's id is a ulong and
        0 is reserved for channel-level errors: after 2**32 - 1 comes 1,
        and the call still goes out and comes back."""
        from repro.wire.correlation import RequestIdAllocator

        client, server = channels
        protocol = GiopProtocol()
        protocol._request_ids = RequestIdAllocator(start=(1 << 32) - 2)
        seen = []
        for _ in range(4):
            call = Call(REF, "op", marshaller=protocol.new_marshaller())
            protocol.send_request(client, call)
            assert protocol.recv_request(server).request_id == call.request_id
            seen.append(call.request_id)
        assert seen == [(1 << 32) - 2, (1 << 32) - 1, 1, 2]

    def test_mismatched_reply_id_rejected(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "op", marshaller=protocol.new_marshaller())
        protocol.send_request(client, call)
        protocol.recv_request(server)
        # Forge a reply with the wrong id.
        server._wire_server.pending_reply_id = 999
        reply = Reply(status=STATUS_OK, marshaller=protocol.new_marshaller())
        protocol.send_reply(server, reply)
        with pytest.raises(ProtocolError, match=(
                f"reply for request 999, expected {call.request_id}")):
            protocol.recv_reply(client)

    def test_oneway_sets_response_not_expected(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "fire", marshaller=protocol.new_marshaller(),
                    oneway=True)
        protocol.send_request(client, call)
        received = protocol.recv_request(server)
        assert received.oneway

    def test_wrong_message_type_rejected(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "op", marshaller=protocol.new_marshaller())
        protocol.send_request(client, call)  # a Request arrives...
        with pytest.raises(ProtocolError, match="expected GIOP Reply"):
            protocol.recv_reply(server)  # ...where a Reply was expected
