"""Tests for the ``text2`` protocol: request-id framing and correlation.

text2 reuses every token rule of the classic text protocol but leads
two-way messages with a request id, which is what makes pipelining and
connection multiplexing possible.  The classic protocol must remain
byte-identical — its goldens are re-asserted here next to the text2
ones.
"""

import socket

import pytest

from repro.model.call import Call, Reply, STATUS_ERROR, STATUS_EXCEPTION, STATUS_OK
from repro.model.errors import ProtocolError
from repro.heidirmi.protocol import (
    Text2Protocol,
    TextProtocol,
    get_protocol,
    register_protocol,
)
from repro.heidirmi.transport import Channel

TARGET = "@inproc:h:1#7#IDL:T:1.0"


@pytest.fixture
def pipe():
    left, right = socket.socketpair()
    a, b = Channel(left, peer="a"), Channel(right, peer="b")
    yield a, b
    a.close()
    b.close()


def make_call(protocol, operation="op", oneway=False, request_id=None):
    call = Call(TARGET, operation, marshaller=protocol.new_marshaller(),
                oneway=oneway, request_id=request_id)
    call.put_long(42)
    return call


class TestRegistry:
    def test_text2_is_registered(self):
        assert isinstance(get_protocol("text2"), Text2Protocol)

    def test_text2_supports_multiplexing(self):
        assert get_protocol("text2").supports_multiplexing
        assert get_protocol("giop").supports_multiplexing
        assert not get_protocol("text").supports_multiplexing

    def test_text_has_no_request_ids(self):
        with pytest.raises(ProtocolError, match="request ids"):
            get_protocol("text").next_request_id()

    def test_register_hook_still_works(self):
        register_protocol("text2-alias", Text2Protocol)
        assert isinstance(get_protocol("text2-alias"), Text2Protocol)


class TestLegacyGoldens:
    """The classic protocol's bytes must not change (telnet claim)."""

    def test_request_line_unchanged(self, pipe):
        a, b = pipe
        TextProtocol().send_request(a, make_call(TextProtocol()))
        assert b.recv_line() == f"CALL {TARGET} op 42".encode()

    def test_oneway_line_unchanged(self, pipe):
        a, b = pipe
        TextProtocol().send_request(a, make_call(TextProtocol(), oneway=True))
        assert b.recv_line() == f"ONEWAY {TARGET} op 42".encode()

    def test_reply_line_unchanged(self, pipe):
        a, b = pipe
        protocol = TextProtocol()
        reply = Reply(status=STATUS_OK, marshaller=protocol.new_marshaller())
        reply.put_string("done")
        protocol.send_reply(a, reply)
        assert b.recv_line() == b"RET OK done"


class TestText2Wire:
    def test_call_line_leads_with_id(self, pipe):
        a, b = pipe
        protocol = Text2Protocol()
        protocol.send_request(a, make_call(protocol, request_id=9))
        assert b.recv_line() == f"CALL2 9 {TARGET} op 42".encode()

    def test_id_allocated_when_missing(self, pipe):
        a, b = pipe
        protocol = Text2Protocol()
        call = make_call(protocol)
        protocol.send_request(a, call)
        assert call.request_id == 1
        assert b.recv_line().startswith(b"CALL2 1 ")

    def test_ids_are_unique_per_protocol(self):
        protocol = Text2Protocol()
        ids = {protocol.next_request_id() for _ in range(100)}
        assert len(ids) == 100

    def test_oneway_carries_no_id(self, pipe):
        a, b = pipe
        protocol = Text2Protocol()
        protocol.send_request(a, make_call(protocol, oneway=True))
        assert b.recv_line() == f"ONEWAY2 {TARGET} op 42".encode()

    def test_request_round_trip(self, pipe):
        a, b = pipe
        protocol = Text2Protocol()
        protocol.send_request(a, make_call(protocol, request_id=33))
        received = protocol.recv_request(b)
        assert received.request_id == 33
        assert received.target == TARGET
        assert received.operation == "op"
        assert not received.oneway
        assert received.get_long() == 42

    def test_oneway_round_trip(self, pipe):
        a, b = pipe
        protocol = Text2Protocol()
        protocol.send_request(a, make_call(protocol, oneway=True))
        received = protocol.recv_request(b)
        assert received.oneway
        assert received.request_id is None

    def test_reply_echoes_id(self, pipe):
        a, b = pipe
        protocol = Text2Protocol()
        reply = Reply(status=STATUS_OK, marshaller=protocol.new_marshaller(),
                      request_id=17)
        reply.put_long(5)
        protocol.send_reply(a, reply)
        received = protocol.recv_reply(b)
        assert received.request_id == 17
        assert received.get_long() == 5

    def test_exception_reply_round_trip(self, pipe):
        a, b = pipe
        protocol = Text2Protocol()
        reply = Reply(status=STATUS_EXCEPTION, repo_id="IDL:E:1.0",
                      marshaller=protocol.new_marshaller(), request_id=3)
        protocol.send_reply(a, reply)
        received = protocol.recv_reply(b)
        assert received.request_id == 3
        assert received.is_exception
        assert received.repo_id == "IDL:E:1.0"

    def test_error_reply_round_trip(self, pipe):
        a, b = pipe
        protocol = Text2Protocol()
        reply = Reply(status=STATUS_ERROR, repo_id="Protocol",
                      marshaller=protocol.new_marshaller(), request_id=4)
        reply.put_string("boom")
        protocol.send_reply(a, reply)
        received = protocol.recv_reply(b)
        assert received.is_error
        assert received.get_string() == "boom"

    def test_unassigned_reply_id_frames_as_zero(self, pipe):
        a, b = pipe
        protocol = Text2Protocol()
        reply = Reply(status=STATUS_OK, marshaller=protocol.new_marshaller())
        protocol.send_reply(a, reply)
        assert b.recv_line() == b"RET2 0 OK"


class TestText2Errors:
    @pytest.mark.parametrize("line", [
        b"CALL2\n",                      # nothing after the verb
        b"CALL2 seven @x:h:1#1#T op\n",  # non-numeric id
        b"CALL2 -2 @x:h:1#1#T op\n",     # negative id
        b"CALL2 5 @x:h:1#1#T\n",         # missing operation
        b"NOPE 1 a b\n",                 # wrong verb
    ])
    def test_malformed_requests(self, pipe, line):
        a, b = pipe
        a.send(line)
        with pytest.raises(ProtocolError):
            Text2Protocol().recv_request(b)

    @pytest.mark.parametrize("line", [
        b"RET OK\n",           # classic reply on a text2 stream
        b"RET2 x OK\n",        # bad id
        b"RET2 1 WHAT\n",      # unknown status
        b"RET2 1 EXC\n",       # EXC without identifier
    ])
    def test_malformed_replies(self, pipe, line):
        a, b = pipe
        a.send(line)
        with pytest.raises(ProtocolError):
            Text2Protocol().recv_reply(b)
