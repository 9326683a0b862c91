"""Fuzz the text and text2 wire machines with whole mutated lines.

The text twin of the GIOP frame fuzz in ``tests/giop/test_fuzz.py``:
valid CALL / ONEWAY / RET / CALL2 / ONEWAY2 / RET2 / BYE lines, emitted
by the machines themselves, get one byte-level mutation and are fed to
``TextWire`` / ``Text2Wire`` in both roles, through ``feed_bytes`` and
through the blocking read (``Protocol.read_event``: one ``recv_line``,
one ``feed_line``).  The contract:

- the only outcomes are events, ``WireViolation`` included;
- getters on a parsed event's unmarshaller raise only ``MarshalError``
  or ``ProtocolError``;
- a newline ends every line, so while the mutated bytes still end in
  one, each line is one event, every violation is recoverable and a
  valid line after them parses: the stream re-syncs at the newline.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.heidirmi.protocol import get_protocol
from repro.model.call import STATUS_ERROR, STATUS_EXCEPTION
from repro.model.errors import CommunicationError, MarshalError, ProtocolError
from repro.wire import machine_for
from repro.wire.events import (
    CloseReceived,
    ReplyReceived,
    RequestReceived,
    WireViolation,
)
from repro.wire.text import BYE_FRAME
from tests.wire.rig import TARGET, FixedDeadline, make_call, make_reply

PROTOCOLS = ("text", "text2")
ROLES = ("client", "server")

EVENT_TYPES = (RequestReceived, ReplyReceived, CloseReceived, WireViolation)

GETTERS = ("get_string", "get_long", "get_double", "get_boolean",
           "get_octet", "get_char", "get_ushort", "get_ulonglong",
           "get_objref", "get_enum", "get_seq")

TRACE = "00f067aa0ba902b7-00f067aa"


def request_line(protocol, **kwargs):
    call = make_call(protocol, **kwargs)
    return machine_for(protocol, "client").emit_request(call).to_bytes()


def reply_line(protocol, **kwargs):
    reply = make_reply(protocol, **kwargs)
    return machine_for(protocol, "server").emit_reply(reply).to_bytes()


def _seed_lines(protocol, role):
    """Valid lines an end of *protocol* in *role* reads."""
    if role == "server":
        lines = [
            request_line(protocol),
            request_line(protocol, trace=TRACE, deadline=FixedDeadline()),
            request_line(protocol, oneway=True, deadline=FixedDeadline(5)),
        ]
    else:
        lines = [
            reply_line(protocol),
            reply_line(protocol, status=STATUS_EXCEPTION,
                       repo_id="IDL:Test/Oops:1.0"),
            reply_line(protocol, status=STATUS_ERROR, repo_id="Overloaded",
                       text="ra=250 busy"),
        ]
    return lines + [BYE_FRAME] if protocol == "text2" else lines


OWN_LINES = {
    (protocol, role): _seed_lines(protocol, role)
    for protocol in PROTOCOLS for role in ROLES
}
SEED_LINES = sorted(set().union(*OWN_LINES.values()))

#: What an untouched line of each end's own direction looks like after
#: a mutated one: the probe that the stream re-synchronised.
FOLLOW_UP = {
    (protocol, "server"): request_line(protocol) for protocol in PROTOCOLS
}
FOLLOW_UP.update({
    (protocol, "client"): reply_line(protocol) for protocol in PROTOCOLS
})

#: Bytes that mean something to the line grammar.
SPECIAL = b" \t\r\n%=@{}\x00\x7f\x80\xff0123456789"

#: Numbers that break unchecked readers of an id, ``dl=`` budget or
#: numeric argument token: past 64 bits, past a float, negative, not
#: an integer.
EXTREMES = (b"18446744073709551616", b"9" * 400, b"-1", b"1e999")

#: A number that is a whole token or a header value (``dl=1500``).
_NUMBER = re.compile(rb"(?<=[ =])\d+(?=[ \n])")


@st.composite
def mutated_lines(draw):
    """``(protocol, role, bytes)``: one valid line — half the time one
    the end reads, else any — with one mutation: flip, insert, delete,
    truncate, duplicate, or swap a number for an extreme one."""
    protocol = draw(st.sampled_from(PROTOCOLS))
    role = draw(st.sampled_from(ROLES))
    line = draw(st.sampled_from(OWN_LINES[protocol, role])
                | st.sampled_from(SEED_LINES))
    data = bytearray(line)
    size = len(data)
    kind = draw(st.sampled_from(
        ("flip", "insert", "delete", "truncate", "duplicate", "number")))
    if kind == "flip":
        index = draw(st.integers(0, size - 1))
        data[index] = draw(st.sampled_from(SPECIAL) | st.integers(0, 255))
    elif kind == "insert":
        index = draw(st.integers(0, size))
        data[index:index] = draw(
            st.binary(min_size=1, max_size=8)
            | st.lists(st.sampled_from(SPECIAL), min_size=1,
                       max_size=4).map(bytes))
    elif kind == "delete":
        index = draw(st.integers(0, size - 1))
        del data[index:index + draw(st.integers(1, 8))]
    elif kind == "truncate":
        del data[draw(st.integers(0, size - 1)):]
    elif kind == "duplicate":
        start = draw(st.integers(0, size - 1))
        end = draw(st.integers(start + 1, size))
        data[end:end] = data[start:end]
    else:
        numbers = list(_NUMBER.finditer(line))
        if numbers:
            match = draw(st.sampled_from(numbers))
            data[match.start():match.end()] = draw(st.sampled_from(EXTREMES))
    return protocol, role, bytes(data)


def check_event(event, getters):
    assert type(event) in EVENT_TYPES, event
    message = getattr(event, "call", None) or getattr(event, "reply", None)
    if message is None:
        return
    for getter in getters:
        try:
            if getter == "get_enum":
                message.get_enum(("a", "b"))
            elif getter == "get_seq":
                message.get_seq("long", 2)
            else:
                getattr(message, getter)()
        except (MarshalError, ProtocolError):
            pass


def check_resync(events, data, follow_up, getters):
    """While *data* still ends in a newline: one event per line, each
    violation recoverable, and the follow-up line parses untouched."""
    *mutated, last = events
    assert len(mutated) == data.count(b"\n"), events
    for event in mutated:
        check_event(event, getters)
        if type(event) is WireViolation:
            assert event.recoverable, event
    check_follow_up(last, follow_up)


def check_follow_up(event, follow_up):
    if follow_up.startswith((b"CALL", b"ONEWAY")):
        assert type(event) is RequestReceived, event
        assert event.call.target == TARGET
        assert event.call.get_string() == "hello world"
        assert event.call.get_long() == 42
    else:
        assert type(event) is ReplyReceived, event
        assert event.reply.get_string() == "result"


class LinesChannel:
    """The blocking channel surface the text protocols read from: what
    ``recv_line`` of a transport channel does with a byte stream."""

    def __init__(self, data):
        self._data = bytes(data)
        self._at = 0

    def recv_line(self):
        index = self._data.find(b"\n", self._at)
        if index < 0:
            raise CommunicationError("stream ended", kind="recv-failed")
        line = bytearray(self._data[self._at:index])
        self._at = index + 1
        while line and line[-1] == 0x0D:
            del line[-1]
        return line


getter_runs = st.lists(st.sampled_from(GETTERS), max_size=6)


@given(mutated_lines(), getter_runs, st.integers(0, 200))
@settings(max_examples=400, deadline=None)
def test_machine_feed_bytes_yields_only_events(mutation, getters, split):
    protocol, role, data = mutation
    machine = machine_for(protocol, role)
    split = min(split, len(data))
    events = machine.feed_bytes(data[:split]) + machine.feed_bytes(
        data[split:])
    follow_up = FOLLOW_UP[protocol, role]
    events += machine.feed_bytes(follow_up)
    if data.endswith(b"\n"):
        check_resync(events, data, follow_up, getters)
    else:
        for event in events:
            check_event(event, getters)


@given(mutated_lines(), getter_runs)
@settings(max_examples=400, deadline=None)
def test_blocking_read_yields_only_events(mutation, getters):
    protocol, role, data = mutation
    follow_up = FOLLOW_UP[protocol, role]
    channel = LinesChannel(data + follow_up)
    machine = machine_for(protocol, role)
    read_event = get_protocol(protocol).read_event
    events = []
    while True:
        try:
            events.append(read_event(channel, machine))
        except CommunicationError:
            break  # the stream ended
    if data.endswith(b"\n"):
        check_resync(events, data, follow_up, getters)
    else:
        for event in events:
            check_event(event, getters)


@pytest.mark.parametrize("line", SEED_LINES)
def test_untouched_seed_lines_parse(line):
    """The seeds are valid: each parses on some end of its protocol."""
    kinds = {
        type(machine_for(protocol, role).feed_bytes(line)[0])
        for protocol in PROTOCOLS
        for role in ROLES
    }
    assert kinds - {WireViolation}, line


# -- what the line fuzz found: a deadline no float can hold -------------------


HUGE_MS = b"9" * 400


@pytest.mark.parametrize("pump", ("feed_bytes", "read_event"))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_deadline_beyond_a_float_is_no_deadline(pump, protocol):
    """``dl=`` followed by 400 nines used to leave both reads as an
    ``OverflowError`` (ms / 1000.0), past the violation contract; a
    budget that large is capped, which is no deadline at all."""
    line = request_line(protocol, deadline=FixedDeadline())
    line = line.replace(b"dl=1500", b"dl=" + HUGE_MS)
    follow_up = FOLLOW_UP[protocol, "server"]
    machine = machine_for(protocol, "server")
    if pump == "feed_bytes":
        events = machine.feed_bytes(line + follow_up)
    else:
        channel = LinesChannel(line + follow_up)
        read_event = get_protocol(protocol).read_event
        events = [read_event(channel, machine), read_event(channel, machine)]
    for event in events:
        check_follow_up(event, follow_up)
    assert events[0].call.deadline.remaining() > 1e12
