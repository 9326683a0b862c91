"""Tests for GIOP as a pluggable HeidiRMI protocol."""

import threading

import pytest

from repro.heidirmi.communicator import ObjectCommunicator
from repro.heidirmi.iiop import GiopProtocol
from repro.giop.cdr import CdrDecoder, CdrEncoder
from repro.model.call import Call, Reply, STATUS_ERROR, STATUS_EXCEPTION, STATUS_OK
from repro.model.errors import CommunicationError, MarshalError
from repro.heidirmi.transport import get_transport
from repro.wire.events import WireViolation

from tests.wire.rig import (
    read_event,
    recv_reply,
    recv_request,
    send_reply,
    send_request,
)

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
        send_request(protocol, client, call)
        received = recv_request(protocol, server)
        assert received.target == REF
        assert received.operation == "mix"
        assert received.get_octet() == 1
        assert received.get_double() == 2.5
        assert received.get_string() == "s"

    def test_reply_roundtrip(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "op", marshaller=protocol.new_marshaller())
        send_request(protocol, client, call)
        request = recv_request(protocol, server)
        reply = Reply(status=STATUS_OK, marshaller=protocol.new_marshaller(),
                      request_id=request.request_id)
        reply.put_long(-12)
        send_reply(protocol, server, reply)
        received = recv_reply(protocol, client)
        assert received.is_ok
        assert received.get_long() == -12

    def test_exception_reply_carries_repo_id(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "op", marshaller=protocol.new_marshaller())
        send_request(protocol, client, call)
        recv_request(protocol, server)
        reply = Reply(status=STATUS_EXCEPTION, repo_id="IDL:Bad:1.0",
                      marshaller=protocol.new_marshaller())
        reply.put_string("detail")
        send_reply(protocol, server, reply)
        received = recv_reply(protocol, client)
        assert received.is_exception
        assert received.repo_id == "IDL:Bad:1.0"
        assert received.get_string() == "detail"

    def test_error_reply_maps_to_system_exception(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "op", marshaller=protocol.new_marshaller())
        send_request(protocol, client, call)
        recv_request(protocol, server)
        reply = Reply(status=STATUS_ERROR, repo_id="MethodNotFound",
                      marshaller=protocol.new_marshaller())
        reply.put_string("no method")
        send_reply(protocol, server, reply)
        received = recv_reply(protocol, client)
        assert received.is_error
        assert received.repo_id == "MethodNotFound"

    def test_request_id_echoed_in_reply(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        for _ in range(3):
            call = Call(REF, "op", marshaller=protocol.new_marshaller())
            send_request(protocol, client, call)
            request = recv_request(protocol, server)
            reply = Reply(status=STATUS_OK, marshaller=protocol.new_marshaller(),
                          request_id=request.request_id)
            send_reply(protocol, server, reply)
            assert recv_reply(protocol, client).request_id == call.request_id

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
            send_request(protocol, client, call)
            assert recv_request(protocol, server).request_id == call.request_id
            seen.append(call.request_id)
        assert seen == [(1 << 32) - 2, (1 << 32) - 1, 1, 2]

    def test_mismatched_reply_id_rejected(self, channels):
        """One call at a time, a reply for another id cannot be an
        orphan: the exclusive client fails the call and its channel."""
        client, server = channels
        protocol = GiopProtocol()

        def forge():
            recv_request(protocol, server)
            reply = Reply(status=STATUS_OK, request_id=999,
                          marshaller=protocol.new_marshaller())
            send_reply(protocol, server, reply)

        thread = threading.Thread(target=forge)
        thread.start()
        call = Call(REF, "op", marshaller=protocol.new_marshaller())
        with pytest.raises(CommunicationError, match=(
                f"reply for request 999, expected 1")) as excinfo:
            ObjectCommunicator(client, protocol).invoke(call)
        thread.join()
        assert excinfo.value.kind == "peer-protocol-error"
        assert call.request_id == 1 and client.closed

    def test_oneway_sets_response_not_expected(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "fire", marshaller=protocol.new_marshaller(),
                    oneway=True)
        send_request(protocol, client, call)
        received = recv_request(protocol, server)
        assert received.oneway

    def test_wrong_message_type_rejected(self, channels):
        client, server = channels
        protocol = GiopProtocol()
        call = Call(REF, "op", marshaller=protocol.new_marshaller())
        send_request(protocol, client, call)  # a Request arrives...
        event = read_event(protocol, server, "client")  # ...at a client
        assert type(event) is WireViolation
        assert event.message.startswith("expected GIOP Reply")
