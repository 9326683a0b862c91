"""Tests for Call/Reply and the text protocol framing."""

import threading

import pytest

from repro.model.call import Call, Reply, STATUS_ERROR, STATUS_EXCEPTION, STATUS_OK
from repro.heidirmi.communicator import ObjectCommunicator
from repro.model.errors import MarshalError, ProtocolError
from repro.heidirmi.protocol import TextProtocol, get_protocol, register_protocol
from repro.wire.textwire import TextMarshaller, TextUnmarshaller
from repro.heidirmi.transport import get_transport

REF = "@tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0"


class TestCallObject:
    def test_header_fields(self):
        call = Call(REF, "f", marshaller=TextMarshaller())
        assert call.target == REF
        assert call.operation == "f"
        assert not call.oneway
        assert call.writable and not call.readable

    def test_needs_a_side(self):
        with pytest.raises(MarshalError):
            Call(REF, "f")

    def test_begin_end_side_resolution(self):
        writer = Call(REF, "f", marshaller=TextMarshaller())
        writer.begin("s")
        writer.put_long(1)
        writer.end()
        reader = Call(REF, "f",
                      unmarshaller=TextUnmarshaller.from_payload(writer.payload()))
        reader.begin("s")
        assert reader.get_long() == 1
        reader.end()

    def test_reply_status_flags(self):
        ok = Reply(status=STATUS_OK, marshaller=TextMarshaller())
        exc = Reply(status=STATUS_EXCEPTION, repo_id="IDL:E:1.0",
                    marshaller=TextMarshaller())
        err = Reply(status=STATUS_ERROR, repo_id="Internal",
                    marshaller=TextMarshaller())
        assert ok.is_ok and not ok.is_exception
        assert exc.is_exception and not exc.is_ok
        assert err.is_error


class _LinePair:
    """A connected channel pair over the inproc transport."""

    def __init__(self):
        transport = get_transport("inproc")
        self.listener = transport.listen("call-test", 0)
        holder = {}

        def accept():
            holder["server"] = self.listener.accept()

        thread = threading.Thread(target=accept)
        thread.start()
        self.client = transport.connect(*self.listener.address)
        thread.join()
        self.server = holder["server"]

    def close(self):
        self.client.close()
        self.server.close()
        self.listener.close()


@pytest.fixture
def channels():
    pair = _LinePair()
    yield pair
    pair.close()


class TestTextProtocolFraming:
    def test_request_line_shape(self, channels):
        protocol = TextProtocol()
        call = Call(REF, "play", marshaller=protocol.new_marshaller())
        call.put_string("movie one")
        call.put_long(3)
        protocol.send_request(channels.client, call)
        line = channels.server.recv_line()
        assert line == (
            b"CALL @tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0 play "
            b"movie%20one 3"
        )

    def test_request_roundtrip(self, channels):
        protocol = TextProtocol()
        call = Call(REF, "play", marshaller=protocol.new_marshaller())
        call.put_string("x")
        protocol.send_request(channels.client, call)
        received = protocol.recv_request(channels.server)
        assert received.target == REF
        assert received.operation == "play"
        assert received.get_string() == "x"

    def test_oneway_verb(self, channels):
        protocol = TextProtocol()
        call = Call(REF, "fire", marshaller=protocol.new_marshaller(), oneway=True)
        protocol.send_request(channels.client, call)
        received = protocol.recv_request(channels.server)
        assert received.oneway

    def test_ok_reply_roundtrip(self, channels):
        protocol = TextProtocol()
        reply = Reply(status=STATUS_OK, marshaller=protocol.new_marshaller())
        reply.put_long(42)
        protocol.send_reply(channels.server, reply)
        received = protocol.recv_reply(channels.client)
        assert received.is_ok
        assert received.get_long() == 42

    def test_exception_reply_roundtrip(self, channels):
        protocol = TextProtocol()
        reply = Reply(status=STATUS_EXCEPTION, repo_id="IDL:Heidi/Bad:1.0",
                      marshaller=protocol.new_marshaller())
        reply.put_string("why")
        protocol.send_reply(channels.server, reply)
        received = protocol.recv_reply(channels.client)
        assert received.is_exception
        assert received.repo_id == "IDL:Heidi/Bad:1.0"
        assert received.get_string() == "why"

    def test_malformed_request_raises_protocol_error(self, channels):
        channels.client.send(b"NONSENSE\n")
        with pytest.raises(ProtocolError):
            TextProtocol().recv_request(channels.server)

    def test_malformed_reply_raises(self, channels):
        channels.server.send(b"NOT A REPLY\n")
        with pytest.raises(ProtocolError):
            TextProtocol().recv_reply(channels.client)

    def test_empty_args_request(self, channels):
        protocol = TextProtocol()
        call = Call(REF, "ping", marshaller=protocol.new_marshaller())
        protocol.send_request(channels.client, call)
        assert channels.server.recv_line().endswith(b" ping")


class TestObjectCommunicator:
    def test_invoke_and_reply(self, channels):
        protocol = TextProtocol()
        client = ObjectCommunicator(channels.client, protocol)
        server = ObjectCommunicator(channels.server, protocol)

        def serve_one():
            call = server.next_request()
            reply = Reply(status=STATUS_OK, marshaller=protocol.new_marshaller())
            reply.put_string(call.get_string().upper())
            server.reply(reply)

        thread = threading.Thread(target=serve_one)
        thread.start()
        call = Call(REF, "up", marshaller=protocol.new_marshaller())
        call.put_string("abc")
        reply = client.invoke(call)
        thread.join()
        assert reply.get_string() == "ABC"

    def test_oneway_invoke_returns_none(self, channels):
        protocol = TextProtocol()
        client = ObjectCommunicator(channels.client, protocol)
        call = Call(REF, "fire", marshaller=protocol.new_marshaller(), oneway=True)
        assert client.invoke(call) is None

    def test_error_reply_helper(self, channels):
        from repro.heidirmi.serving import error_reply

        protocol = TextProtocol()
        server = ObjectCommunicator(channels.server, protocol)
        server.reply(error_reply(protocol, "Protocol", "bad line"))
        reply = protocol.recv_reply(channels.client)
        assert reply.is_error
        assert reply.repo_id == "Protocol"
        assert reply.get_string() == "bad line"


class TestProtocolRegistry:
    def test_text_protocol_by_name(self):
        assert get_protocol("text").name == "text"

    def test_giop_protocol_lazily_loaded(self):
        assert get_protocol("giop").name == "giop"

    def test_unknown_protocol_raises(self):
        with pytest.raises(ProtocolError):
            get_protocol("smoke-signals")

    def test_custom_protocol_registration(self):
        class FakeProtocol:
            name = "fake"

        register_protocol("fake_tmp", FakeProtocol)
        try:
            assert isinstance(get_protocol("fake_tmp"), FakeProtocol)
        finally:
            from repro.heidirmi import protocol as module

            module._PROTOCOLS.pop("fake_tmp", None)
