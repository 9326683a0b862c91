"""Protocol conformance, byte by byte — no sockets anywhere.

Every machine is exercised as a pure function of its input bytes:
whole frames, one byte at a time, split at every offset, pipelined
bursts, and garbage.  The same assertions hold for all three
protocols, which is the point of the shared event vocabulary.
"""

import pytest

from repro.giop.messages import (
    GIOP_HEADER_SIZE,
    MSG_CANCEL_REQUEST,
    MSG_REPLY,
    MSG_REQUEST,
    MessageHeader,
    frame_message,
)
from repro.model.call import STATUS_ERROR, STATUS_EXCEPTION, STATUS_OK
from repro.wire import NEED_DATA, is_channel_level_error, machine_for
from repro.wire.events import (
    CancelReceived,
    CloseReceived,
    LocateReplied,
    LocateRequested,
    ReplyReceived,
    RequestReceived,
    WireViolation,
)
from repro.wire.giop import MAX_MESSAGE_SIZE
from repro.wire.text import MAX_LINE

from tests.wire.rig import (
    PROTOCOLS,
    TARGET,
    FixedDeadline,
    make_call,
    make_reply,
    needs_id,
    one_event,
)


def emitted_request(protocol_name, **kwargs):
    call = make_call(protocol_name, **kwargs)
    return machine_for(protocol_name, "client").emit_request(call)


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestRequestRoundtrip:
    def test_two_way(self, protocol_name):
        data = emitted_request(protocol_name)
        event = one_event(machine_for(protocol_name, "server"), data)
        assert type(event) is RequestReceived
        call = event.call
        assert call.target == TARGET
        assert call.operation == "ping"
        assert not call.oneway
        assert call.get_string() == "hello world"
        assert call.get_long() == 42
        if needs_id(protocol_name, oneway=False):
            assert call.request_id == 7

    def test_oneway(self, protocol_name):
        data = emitted_request(protocol_name, oneway=True)
        event = one_event(machine_for(protocol_name, "server"), data)
        assert type(event) is RequestReceived
        assert event.call.oneway

    def test_trace_and_deadline(self, protocol_name):
        data = emitted_request(
            protocol_name,
            trace="00f1e2d3c4b5a697-1122334455667788",
            deadline=FixedDeadline(ms=1500),
        )
        event = one_event(machine_for(protocol_name, "server"), data)
        call = event.call
        assert call.trace_context == "00f1e2d3c4b5a697-1122334455667788"
        assert call.deadline is not None
        # The receiver re-anchors the relative ms budget on its own
        # clock; it can only have shrunk in transit.
        assert 0.0 < call.deadline.remaining() <= 1.5
        # The machine still yields the payload after the header tokens.
        assert call.get_string() == "hello world"

    def test_byte_at_a_time(self, protocol_name):
        data = emitted_request(protocol_name)
        machine = machine_for(protocol_name, "server")
        for byte in data[:-1]:
            assert machine.feed_bytes(bytes([byte])) == []
            assert machine.next_event() is NEED_DATA
        event = one_event(machine, data[-1:])
        assert type(event) is RequestReceived
        assert event.call.get_string() == "hello world"

    def test_every_split_offset(self, protocol_name):
        data = emitted_request(protocol_name)
        for split in range(1, len(data)):
            machine = machine_for(protocol_name, "server")
            events = machine.feed_bytes(data[:split])
            events += machine.feed_bytes(data[split:])
            assert len(events) == 1, (split, events)
            assert type(events[0]) is RequestReceived, split
            assert events[0].call.operation == "ping", split

    def test_pipelined_burst(self, protocol_name):
        burst = b""
        for i in range(5):
            request_id = i + 1 if needs_id(protocol_name, False) else None
            burst += emitted_request(
                protocol_name, operation=f"op{i}", request_id=request_id
            )
        events = machine_for(protocol_name, "server").feed_bytes(burst)
        assert [type(e) for e in events] == [RequestReceived] * 5
        assert [e.call.operation for e in events] == [
            f"op{i}" for i in range(5)
        ]

    def test_buffer_accounting(self, protocol_name):
        data = emitted_request(protocol_name)
        machine = machine_for(protocol_name, "server")
        assert not machine.has_buffered
        machine.receive_data(data[: len(data) // 2])
        assert machine.next_event() is NEED_DATA
        assert machine.has_buffered
        machine.receive_data(data[len(data) // 2:])
        assert type(machine.next_event()) is RequestReceived
        assert not machine.has_buffered  # whole frame consumed


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
class TestReplyRoundtrip:
    def emit(self, protocol_name, **kwargs):
        reply = make_reply(protocol_name, **kwargs)
        return machine_for(protocol_name, "server").emit_reply(reply)

    def test_ok(self, protocol_name):
        data = self.emit(protocol_name, text="fine")
        event = one_event(machine_for(protocol_name, "client"), data)
        assert type(event) is ReplyReceived
        reply = event.reply
        assert reply.status == STATUS_OK
        assert reply.get_string() == "fine"
        if protocol_name != "text":
            assert reply.request_id == 7

    def test_exception(self, protocol_name):
        data = self.emit(
            protocol_name,
            status=STATUS_EXCEPTION,
            repo_id="IDL:Test/Boom:1.0",
            text="member",
        )
        reply = one_event(machine_for(protocol_name, "client"), data).reply
        assert reply.status == STATUS_EXCEPTION
        assert reply.repo_id == "IDL:Test/Boom:1.0"
        assert reply.get_string() == "member"

    def test_error(self, protocol_name):
        data = self.emit(
            protocol_name, status=STATUS_ERROR, repo_id="Category",
            text="what broke",
        )
        reply = one_event(machine_for(protocol_name, "client"), data).reply
        assert reply.status == STATUS_ERROR
        assert reply.repo_id == "Category"
        assert reply.get_string() == "what broke"

    def test_reply_split_at_every_offset(self, protocol_name):
        data = self.emit(protocol_name)
        for split in range(1, len(data)):
            machine = machine_for(protocol_name, "client")
            events = machine.feed_bytes(data[:split])
            events += machine.feed_bytes(data[split:])
            assert [type(e) for e in events] == [ReplyReceived], split


@pytest.mark.parametrize("protocol_name", ("text2", "giop"))
class TestReservedId:
    def test_channel_level_error_reply(self, protocol_name):
        data = machine_for(protocol_name, "server").emit_reply(make_reply(
            protocol_name, status=STATUS_ERROR, request_id=0,
            repo_id="Protocol", text="unparseable request",
        ))
        reply = one_event(machine_for(protocol_name, "client"), data).reply
        assert is_channel_level_error(reply)

    def test_real_error_is_not_channel_level(self, protocol_name):
        data = machine_for(protocol_name, "server").emit_reply(make_reply(
            protocol_name, status=STATUS_ERROR, request_id=3,
            repo_id="Whatever", text="scoped to call 3",
        ))
        reply = one_event(machine_for(protocol_name, "client"), data).reply
        assert not is_channel_level_error(reply)


class TestTextGarbage:
    @pytest.mark.parametrize("protocol_name", ("text", "text2"))
    def test_garbage_line_then_recovery(self, protocol_name):
        machine = machine_for(protocol_name, "server")
        event = one_event(machine, b"\x7fchaos!garbage!frame\n")
        assert type(event) is WireViolation
        assert event.recoverable
        # The newline resynchronised the stream: next frame parses.
        event = one_event(machine, emitted_request(protocol_name))
        assert type(event) is RequestReceived

    @pytest.mark.parametrize("protocol_name", ("text", "text2"))
    def test_unterminated_overlong_line_is_fatal(self, protocol_name):
        machine = machine_for(protocol_name, "server")
        event = one_event(machine, b"A" * (MAX_LINE + 2))
        assert type(event) is WireViolation
        assert not event.recoverable

    def test_reply_line_to_server_is_recoverable_violation(self):
        machine = machine_for("text", "server")
        event = one_event(machine, b"RET OK done\n")
        assert type(event) is WireViolation
        assert event.recoverable


class TestGiopGarbage:
    def test_bad_magic_then_recovery(self):
        machine = machine_for("giop", "server")
        event = one_event(machine, b"\xff" * GIOP_HEADER_SIZE)
        assert type(event) is WireViolation
        assert event.recoverable
        assert "magic" in event.message
        event = one_event(machine, emitted_request("giop"))
        assert type(event) is RequestReceived

    def test_implausible_size_is_violation(self):
        header = MessageHeader(
            message_type=MSG_REQUEST, message_size=MAX_MESSAGE_SIZE + 1
        ).encode()
        machine = machine_for("giop", "server")
        event = one_event(machine, header)
        assert type(event) is WireViolation
        assert "implausible GIOP message size" in event.message

    def test_truncated_body_then_completion(self):
        data = emitted_request("giop")
        machine = machine_for("giop", "server")
        assert machine.feed_bytes(data[:GIOP_HEADER_SIZE + 3]) == []
        # The machine asks for exactly the missing remainder.
        hint = machine.read_hint()
        assert hint == ("exact", len(data) - GIOP_HEADER_SIZE - 3)
        event = one_event(machine, data[GIOP_HEADER_SIZE + 3:])
        assert type(event) is RequestReceived


class TestGiopRoleRules:
    def test_request_to_client_machine(self):
        event = one_event(
            machine_for("giop", "client"), emitted_request("giop")
        )
        assert type(event) is WireViolation
        assert event.message == (
            f"expected GIOP Reply, got message type {MSG_REQUEST}"
        )

    def test_reply_to_server_machine(self):
        data = machine_for("giop", "server").emit_reply(make_reply("giop"))
        event = one_event(machine_for("giop", "server"), data)
        assert type(event) is WireViolation
        assert event.message == (
            f"expected GIOP Request, got message type {MSG_REPLY}"
        )

    @pytest.mark.parametrize("role", ("client", "server"))
    def test_message_error_is_violation_for_both(self, role):
        event = one_event(machine_for("giop", role), frame_message(6, b""))
        assert type(event) is WireViolation

    @pytest.mark.parametrize("role", ("client", "server"))
    def test_close_for_both_roles(self, role):
        machine = machine_for("giop", role)
        event = one_event(machine, machine.emit_close())
        assert type(event) is CloseReceived

    def test_cancel(self):
        cancel = frame_message(MSG_CANCEL_REQUEST, b"")
        assert type(
            one_event(machine_for("giop", "server"), cancel)
        ) is CancelReceived
        assert type(
            one_event(machine_for("giop", "client"), cancel)
        ) is WireViolation

    def test_locate_roundtrip(self):
        client = machine_for("giop", "client")
        server = machine_for("giop", "server")
        event = one_event(
            server, client.emit_locate_request(9, b"@some#key#type")
        )
        assert type(event) is LocateRequested
        assert event.request_id == 9
        assert bytes(event.object_key) == b"@some#key#type"
        event = one_event(client, server.emit_locate_reply(9, 1))
        assert type(event) is LocateReplied
        assert event.request_id == 9
        assert event.status == 1


class TestGiopCorrelation:
    def test_the_machine_leaves_correlation_to_its_driver(self):
        # Many ids are in flight on a multiplexed connection; the
        # one-call-in-flight check ("reply for request 6, expected 5")
        # is the serial blocking client's: tests/giop/test_iiop.py.
        machine = machine_for("giop", "client")
        machine.emit_request(make_call("giop", request_id=5))
        data = machine_for("giop", "server").emit_reply(
            make_reply("giop", request_id=6)
        )
        event = one_event(machine, data)
        assert type(event) is ReplyReceived
        assert event.reply.request_id == 6
