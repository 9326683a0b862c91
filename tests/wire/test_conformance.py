"""Protocol conformance, byte by byte — no sockets anywhere.

Every machine is exercised as a pure function of its input bytes:
whole frames, one byte at a time, split at every offset, pipelined
bursts, and garbage.  The same assertions hold for all three
protocols, which is the point of the shared event vocabulary.
"""

import pytest

from repro.giop.cdr import CdrEncoder
from repro.giop.messages import (
    GIOP_HEADER_SIZE,
    MSG_CANCEL_REQUEST,
    MSG_REPLY,
    MSG_REQUEST,
    REPLY_SYSTEM_EXCEPTION,
    SERVICE_CONTEXT_DEADLINE,
    SERVICE_CONTEXT_RETRY_AFTER,
    SERVICE_CONTEXT_TRACE,
    MessageHeader,
    ReplyHeader,
    RequestHeader,
    ServiceContext,
    frame_message,
)
from repro.model.call import STATUS_ERROR, STATUS_EXCEPTION, STATUS_OK
from repro.model.errors import MarshalError
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
from repro.wire.bufferplan import FRAME_CACHE
from repro.wire.giop import MAX_MESSAGE_SIZE, TRANSIENT_REPO_ID
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


class TestGiopServiceContextGolden:
    """The service-context path, pinned byte for byte in both orders:
    a Request carrying the trace (HDTC) and deadline (HDDL) contexts
    and a TRANSIENT Reply carrying retry-after (HDRA)."""

    TRACE = "00f067aa0ba902b7-00f067aa"

    REQUEST = {
        True: (
            "47494f50010001008c0000000200000043544448190000003030663036376161"
            "30626139303262372d30306630363761610000004c4444480400000031353030"
            "070000000100000026000000407463703a3132372e302e302e313a3939393923"
            "372349444c3a546573742f4f626a3a312e3000000500000070696e6700000000"
            "000000000c00000068656c6c6f20776f726c64002a000000"
        ),
        False: (
            "47494f50010000000000008c0000000248445443000000193030663036376161"
            "30626139303262372d30306630363761610000004844444c0000000431353030"
            "000000070100000000000026407463703a3132372e302e302e313a3939393923"
            "372349444c3a546573742f4f626a3a312e3000000000000570696e6700000000"
            "000000000000000c68656c6c6f20776f726c64000000002a"
        ),
    }
    REPLY = {
        True: (
            "47494f5001000101520000000100000041524448030000003235300007000000"
            "020000002000000049444c3a6f6d672e6f72672f434f5242412f5452414e5349"
            "454e543a312e300012000000736572766572206f7665726c6f6164656400"
        ),
        False: (
            "47494f5001000001000000520000000148445241000000033235300000000007"
            "000000020000002049444c3a6f6d672e6f72672f434f5242412f5452414e5349"
            "454e543a312e300000000012736572766572206f7665726c6f6164656400"
        ),
    }

    def overloaded(self):
        reply = make_reply("giop", status=STATUS_ERROR,
                           repo_id="Overloaded", text="server overloaded")
        reply.retry_after = 0.25
        return reply

    def test_emitted_request(self):
        data = emitted_request("giop", trace=self.TRACE,
                               deadline=FixedDeadline(1500))
        assert bytes(data).hex() == self.REQUEST[True]

    def test_emitted_reply(self):
        data = machine_for("giop", "server").emit_reply(self.overloaded())
        assert bytes(data).hex() == self.REPLY[True]

    @pytest.mark.parametrize("little_endian", (True, False))
    def test_header_classes_spell_the_same_bytes(self, little_endian):
        def framed(message_type, header, *strings):
            encoder = CdrEncoder(little_endian=little_endian,
                                 start_align=GIOP_HEADER_SIZE)
            header.encode(encoder)
            for text in strings:
                encoder.string(text)
            if message_type == MSG_REQUEST:
                encoder.long(42)
            return frame_message(message_type, encoder.data(),
                                 little_endian=little_endian).hex()

        assert framed(MSG_REQUEST, RequestHeader(
            request_id=7, object_key=TARGET.encode("utf-8"),
            operation="ping", service_context=[
                ServiceContext(SERVICE_CONTEXT_TRACE,
                               self.TRACE.encode("ascii")),
                ServiceContext(SERVICE_CONTEXT_DEADLINE, b"1500"),
            ]), "hello world") == self.REQUEST[little_endian]
        assert framed(MSG_REPLY, ReplyHeader(
            request_id=7, reply_status=REPLY_SYSTEM_EXCEPTION,
            service_context=[
                ServiceContext(SERVICE_CONTEXT_RETRY_AFTER, b"250")]),
            TRANSIENT_REPO_ID, "server overloaded"
        ) == self.REPLY[little_endian]

    @pytest.mark.parametrize("little_endian", (True, False))
    def test_parsed_back(self, little_endian):
        event = one_event(machine_for("giop", "server"),
                          bytes.fromhex(self.REQUEST[little_endian]))
        call = event.call
        assert (call.target, call.operation, call.request_id) == (
            TARGET, "ping", 7)
        assert call.trace_context == self.TRACE
        assert 1.0 < call.deadline.remaining() <= 1.5
        assert (call.get_string(), call.get_long()) == ("hello world", 42)
        reply = one_event(machine_for("giop", "client"),
                          bytes.fromhex(self.REPLY[little_endian])).reply
        assert (reply.status, reply.repo_id, reply.request_id) == (
            STATUS_ERROR, "Overloaded", 7)
        assert reply.retry_after == 0.25
        assert reply.get_string() == "server overloaded"


class TestGiopRequestIdRange:
    """An id outside ``unsigned long`` is a MarshalError whether the
    frame is built (intern miss) or re-issued from the cache (hit, where
    a bare ``struct.pack_into`` used to raise ``struct.error``)."""

    @pytest.mark.parametrize("bad_id", (1 << 32, -1))
    def test_request(self, bad_id):
        FRAME_CACHE.clear()
        machine = machine_for("giop", "client")
        with pytest.raises(MarshalError):  # miss: nothing interned yet
            machine.emit_request(make_call("giop", request_id=bad_id))
        machine.emit_request(make_call("giop", request_id=5))
        with pytest.raises(MarshalError):  # hit: same shape, bad id
            machine.emit_request(make_call("giop", request_id=bad_id))
        good = machine.emit_request(make_call("giop", request_id=(1 << 32) - 1))
        event = one_event(machine_for("giop", "server"), good)
        assert event.call.request_id == (1 << 32) - 1

    @pytest.mark.parametrize("bad_id", (1 << 32, -1))
    def test_reply(self, bad_id):
        FRAME_CACHE.clear()
        machine = machine_for("giop", "server")
        machine.emit_reply(make_reply("giop", request_id=5))
        with pytest.raises(MarshalError):
            machine.emit_reply(make_reply("giop", request_id=bad_id))
