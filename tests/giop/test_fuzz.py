"""Fuzz robustness: arbitrary bytes must fail *cleanly*, never crash.

Property-based decoding of random input through every wire-facing
parser: CDR, GIOP headers, IORs, text-protocol tokens, object
references.  The only acceptable outcomes are a successful parse or a
typed protocol/marshal error.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.giop.cdr import CdrDecoder, CdrEncoder
from repro.giop.ior import IOR
from repro.giop.messages import (
    GIOP_HEADER_SIZE,
    LOCATE_OBJECT_HERE,
    MSG_CLOSE_CONNECTION,
    MSG_LOCATE_REPLY,
    MSG_LOCATE_REQUEST,
    MSG_REPLY,
    MSG_REQUEST,
    REPLY_NO_EXCEPTION,
    REPLY_SYSTEM_EXCEPTION,
    REPLY_USER_EXCEPTION,
    SERVICE_CONTEXT_DEADLINE,
    SERVICE_CONTEXT_RETRY_AFTER,
    SERVICE_CONTEXT_TRACE,
    LocateReplyHeader,
    LocateRequestHeader,
    MessageHeader,
    ReplyHeader,
    RequestHeader,
    ServiceContext,
    frame_message,
)
from repro.heidirmi.iiop import pump_giop_event
from repro.model.errors import CommunicationError, MarshalError, ProtocolError
from repro.model.objref import ObjectReference
from repro.wire import machine_for
from repro.wire.events import (
    CancelReceived,
    CloseReceived,
    LocateReplied,
    LocateRequested,
    ReplyReceived,
    RequestReceived,
    WireViolation,
)
from repro.wire.giop import TRANSIENT_REPO_ID
from repro.wire.textwire import TextUnmarshaller, unescape_token

EXPECTED = (MarshalError, ProtocolError)

random_bytes = st.binary(max_size=128)
random_text = st.text(max_size=64)


@given(random_bytes)
@settings(max_examples=200, deadline=None)
def test_cdr_decoder_never_crashes(data):
    decoder = CdrDecoder(data)
    for method in ("octet", "boolean", "short", "ulong", "longlong",
                   "double", "string", "octets"):
        try:
            getattr(CdrDecoder(data), method)()
        except EXPECTED:
            pass
    try:
        while not decoder.at_end():
            decoder.string()
    except EXPECTED:
        pass


@given(random_bytes)
@settings(max_examples=200, deadline=None)
def test_giop_header_decode_never_crashes(data):
    try:
        MessageHeader.decode(data.ljust(12, b"\x00"))
    except EXPECTED:
        pass


@given(random_bytes)
@settings(max_examples=150, deadline=None)
def test_request_header_decode_never_crashes(data):
    try:
        RequestHeader.decode(CdrDecoder(data))
    except EXPECTED:
        pass


@given(random_bytes)
@settings(max_examples=150, deadline=None)
def test_reply_header_decode_never_crashes(data):
    try:
        ReplyHeader.decode(CdrDecoder(data))
    except EXPECTED:
        pass


@given(random_text)
@settings(max_examples=200, deadline=None)
def test_ior_parse_never_crashes(text):
    try:
        IOR.parse("IOR:" + text)
    except EXPECTED:
        pass


@given(random_bytes)
@settings(max_examples=150, deadline=None)
def test_ior_decode_never_crashes(data):
    try:
        IOR.decode(data)
    except EXPECTED:
        pass


@given(random_text)
@settings(max_examples=200, deadline=None)
def test_object_reference_parse_never_crashes(text):
    try:
        ObjectReference.parse(text)
    except EXPECTED:
        pass


@given(st.text(alphabet=st.characters(codec="ascii",
                                      exclude_characters=" \t\r\n"),
               max_size=40))
@settings(max_examples=200, deadline=None)
def test_unescape_token_never_crashes(token):
    try:
        unescape_token(token)
    except EXPECTED:
        pass


@given(st.lists(st.text(alphabet=st.characters(codec="ascii",
                                               exclude_characters=" \t\r\n"),
                        min_size=1, max_size=12),
                max_size=8))
@settings(max_examples=150, deadline=None)
def test_text_unmarshaller_never_crashes(tokens):
    unmarshaller = TextUnmarshaller(tokens)
    for method in ("get_boolean", "get_long", "get_double", "get_string",
                   "get_objref"):
        try:
            getattr(TextUnmarshaller(list(tokens)), method)()
        except EXPECTED:
            pass
    try:
        while not unmarshaller.at_end():
            unmarshaller.get_string()
    except EXPECTED:
        pass


# ---------------------------------------------------------------------------
# Whole frames through the wire machine and the blocking pump
# ---------------------------------------------------------------------------
#
# Byte-level mutation of *valid* GIOP frames, fed to ``GiopWire.feed_bytes``
# and ``pump_giop_event``.  The contract: the only outcomes are events
# (``WireViolation`` included); a mutation that leaves the 12-byte
# header and the frame length alone leaves the stream frame-aligned, so
# the next valid frame parses; lazy payload getters raise only
# ``MarshalError``.

FUZZ_TARGET = "@tcp:127.0.0.1:9999#7#IDL:Test/Obj:1.0"

REQUEST_CONTEXTS = (
    ServiceContext(SERVICE_CONTEXT_TRACE, b"00f067aa0ba902b7-00f067aa"),
    ServiceContext(SERVICE_CONTEXT_DEADLINE, b"1500"),
)
RETRY_CONTEXT = (ServiceContext(SERVICE_CONTEXT_RETRY_AFTER, b"250"),)

EVENT_TYPES = (RequestReceived, ReplyReceived, LocateRequested,
               LocateReplied, CancelReceived, CloseReceived, WireViolation)

GETTERS = ("get_string", "get_long", "get_double", "get_boolean",
           "get_octet", "get_char", "get_ushort", "get_ulonglong",
           "get_objref", "get_enum")


def _framed(message_type, little_endian, build):
    encoder = CdrEncoder(little_endian=little_endian,
                         start_align=GIOP_HEADER_SIZE)
    build(encoder)
    return frame_message(message_type, encoder.data(),
                         little_endian=little_endian)


def request_frame(little_endian, contexts=()):
    def build(encoder):
        RequestHeader(
            request_id=7, object_key=FUZZ_TARGET.encode("utf-8"),
            operation="ping", service_context=list(contexts),
        ).encode(encoder)
        encoder.string("hello world")
        encoder.long(42)
    return _framed(MSG_REQUEST, little_endian, build)


def reply_frame(little_endian, status=REPLY_NO_EXCEPTION, repo_id=None,
                contexts=()):
    def build(encoder):
        ReplyHeader(request_id=7, reply_status=status,
                    service_context=list(contexts)).encode(encoder)
        if repo_id is not None:
            encoder.string(repo_id)
        encoder.string("result")
    return _framed(MSG_REPLY, little_endian, build)


def locate_request_frame(little_endian):
    return _framed(
        MSG_LOCATE_REQUEST, little_endian,
        LocateRequestHeader(request_id=9, object_key=b"@some#key").encode)


def locate_reply_frame(little_endian):
    return _framed(
        MSG_LOCATE_REPLY, little_endian,
        LocateReplyHeader(request_id=9,
                          locate_status=LOCATE_OBJECT_HERE).encode)


def close_frame(little_endian):
    return frame_message(MSG_CLOSE_CONNECTION, b"",
                         little_endian=little_endian)


def _seed_frames():
    frames = []
    for little_endian in (True, False):
        frames += [
            request_frame(little_endian),
            request_frame(little_endian, REQUEST_CONTEXTS),
            reply_frame(little_endian),
            reply_frame(little_endian, REPLY_USER_EXCEPTION,
                        "IDL:Test/Oops:1.0"),
            reply_frame(little_endian, REPLY_SYSTEM_EXCEPTION,
                        TRANSIENT_REPO_ID, RETRY_CONTEXT),
            locate_request_frame(little_endian),
            locate_reply_frame(little_endian),
            close_frame(little_endian),
        ]
    return frames


SEED_FRAMES = _seed_frames()

#: What an untouched frame of each role's own direction looks like
#: after a mutated one: the probe that the stream is still aligned.
FOLLOW_UP = {"server": request_frame(True), "client": reply_frame(True)}


@st.composite
def mutated_frames(draw):
    """``(bytes, framing_intact)`` — one valid frame, one mutation."""
    frame = draw(st.sampled_from(SEED_FRAMES))
    size = len(frame)
    order = "little" if frame[6] == 1 else "big"
    data = bytearray(frame)
    kind = draw(st.sampled_from(
        ("flip", "insert", "delete", "truncate", "length", "nul")))
    if kind == "flip":
        index = draw(st.integers(0, size - 1))
        data[index] = draw(st.sampled_from((0x00, 0x7F, 0x80, 0xFF))
                           | st.integers(0, 255))
    elif kind == "insert":
        index = draw(st.integers(0, size))
        data[index:index] = draw(st.binary(min_size=1, max_size=8))
    elif kind == "delete":
        index = draw(st.integers(0, size - 1))
        del data[index:index + draw(st.integers(1, 8))]
    elif kind == "truncate":
        del data[draw(st.integers(0, size - 1)):]
    elif kind == "length" and size > GIOP_HEADER_SIZE:
        # Every CDR length field and the context count sit on a 4-byte
        # boundary: force one of them (or whatever else is there) to
        # the values that break unchecked readers.
        offset = 4 * draw(st.integers(2, size // 4 - 1))
        one_past_end = size - (offset + 4) + 1
        value = draw(st.sampled_from(
            (0, 1 << 31, one_past_end, 1025, 0xFFFFFFFF)))
        data[offset:offset + 4] = value.to_bytes(4, order)
    elif kind == "nul":
        nuls = [index for index in range(GIOP_HEADER_SIZE, size)
                if data[index] == 0]
        if nuls:
            data[draw(st.sampled_from(nuls))] = 0x41
    framing_intact = (len(data) == size
                      and data[:GIOP_HEADER_SIZE] == frame[:GIOP_HEADER_SIZE])
    return bytes(data), framing_intact


def check_event(event, getters):
    assert type(event) in EVENT_TYPES, event
    message = getattr(event, "call", None) or getattr(event, "reply", None)
    if message is None:
        return
    for getter in getters:
        try:
            if getter == "get_enum":
                message.get_enum(("a", "b"))
            else:
                getattr(message, getter)()
        except MarshalError:
            pass


def check_follow_up(event, role):
    if role == "server":
        assert type(event) is RequestReceived
        assert event.call.target == FUZZ_TARGET
        assert event.call.get_string() == "hello world"
        assert event.call.get_long() == 42
    else:
        assert type(event) is ReplyReceived
        assert event.reply.get_string() == "result"


class BytesChannel:
    """The blocking channel surface ``pump_giop_event`` reads from."""

    def __init__(self, data):
        self._data = memoryview(data)
        self._at = 0

    def recv_exact(self, count):
        if self._at + count > len(self._data):
            raise CommunicationError("stream ended", kind="recv-failed")
        view = self._data[self._at:self._at + count]
        self._at += count
        return view


roles = st.sampled_from(("client", "server"))
getter_runs = st.lists(st.sampled_from(GETTERS), max_size=6)


@given(mutated_frames(), roles, getter_runs, st.integers(0, 200))
@settings(max_examples=400, deadline=None)
def test_machine_feed_bytes_yields_only_events(mutation, role, getters,
                                               split):
    data, framing_intact = mutation
    machine = machine_for("giop", role)
    split = min(split, len(data))
    events = machine.feed_bytes(data[:split]) + machine.feed_bytes(
        data[split:])
    for event in events:
        check_event(event, getters)
    follow = machine.feed_bytes(FOLLOW_UP[role])
    if framing_intact:
        assert len(events) == 1, events
        assert len(follow) == 1, follow
        check_follow_up(follow[0], role)
    else:
        for event in follow:
            check_event(event, getters)


@given(mutated_frames(), roles, getter_runs)
@settings(max_examples=400, deadline=None)
def test_blocking_pump_yields_only_events(mutation, role, getters):
    data, framing_intact = mutation
    channel = BytesChannel(data + FOLLOW_UP[role])
    machine = machine_for("giop", role)
    events = []
    while True:
        try:
            events.append(pump_giop_event(channel, machine))
        except CommunicationError:
            break  # ran off the end of the stream mid-frame
    if framing_intact:
        assert len(events) == 2, events
        check_event(events[0], getters)
        check_follow_up(events[1], role)
    else:
        for event in events:
            check_event(event, getters)


def test_untouched_seed_frames_parse():
    """The seeds are valid: each parses on the role it is meant for."""
    for frame in SEED_FRAMES:
        kinds = {
            type(machine_for("giop", role).feed_bytes(frame)[0])
            for role in ("client", "server")
        }
        assert kinds - {WireViolation}, frame


# -- what the frame fuzz found: bytes that are not UTF-8 ----------------------


def _only_event(pump, role, frame):
    if pump == "feed_bytes":
        events = machine_for("giop", role).feed_bytes(frame)
    else:
        events = [pump_giop_event(BytesChannel(frame),
                                  machine_for("giop", role))]
    assert len(events) == 1, events
    return events[0]


@pytest.mark.parametrize("pump", ("feed_bytes", "pump_giop_event"))
@pytest.mark.parametrize("little_endian", (True, False))
class TestNotUtf8:
    """One 0xFF where text belongs used to leave both pumps as a
    ``UnicodeDecodeError`` — past the violation / MarshalError contract."""

    @pytest.mark.parametrize("text, role", (
        (b"@tcp:", "server"),               # object key
        (b"ping\x00", "server"),            # operation name
        (b"IDL:Test/Oops", "client"),       # exception repository id
    ))
    def test_in_a_header_is_a_violation(self, pump, little_endian, text,
                                        role):
        frame = (request_frame(little_endian) if role == "server" else
                 reply_frame(little_endian, REPLY_USER_EXCEPTION,
                             "IDL:Test/Oops:1.0"))
        assert text in frame
        event = _only_event(pump, role,
                            frame.replace(text, b"\xff" + text[1:]))
        assert type(event) is WireViolation
        assert event.recoverable
        assert "not valid UTF-8" in event.message

    def test_in_a_string_parameter_is_a_marshal_error(self, pump,
                                                      little_endian):
        frame = request_frame(little_endian).replace(b"hello", b"\xffello")
        event = _only_event(pump, "server", frame)
        assert type(event) is RequestReceived
        with pytest.raises(MarshalError, match="not valid UTF-8"):
            event.call.get_string()
        # The decoder moved past the bad string: the next value reads.
        assert event.call.get_long() == 42


# -- what the text line fuzz found: a deadline no float can hold --------------


@pytest.mark.parametrize("pump", ("feed_bytes", "pump_giop_event"))
def test_deadline_context_beyond_a_float_is_no_deadline(pump):
    """The deadline ServiceContext shares the ``dl=`` millisecond rule:
    400 nines used to raise ``OverflowError`` out of both pumps; a
    budget that large is capped, which is no deadline at all."""
    frame = request_frame(True, (
        ServiceContext(SERVICE_CONTEXT_DEADLINE, b"9" * 400),))
    event = _only_event(pump, "server", frame)
    check_follow_up(event, "server")
    assert event.call.deadline.remaining() > 1e12
