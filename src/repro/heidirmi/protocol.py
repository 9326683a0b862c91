"""Pluggable ORB protocols — thin byte-pumps over ``repro.wire``.

"Most IDL compilers generate stubs and skeletons that utilize an
abstract interface to the ORB [... which] keeps the generated code
independent of any particular ORB protocol, permitting the utilization
of alternate protocols" (paper, Section 2).  :class:`Protocol` is that
abstract interface; stubs and skeletons only ever see Call/Reply.

Since the sans-I/O refactor the parse/emit logic lives in the pure
state machines of :mod:`repro.wire` (``wire.text``, ``wire.giop``);
the classes here only *pump*: one blocking read per frame, fed into
the machine, one event out.  The same machines drive the asyncio
front-end in :mod:`repro.wire.aio` byte-chunk at a time — that is the
protocol/transport seam the paper claims, made literal.

Implementations: :class:`TextProtocol` here (the paper's newline
ASCII format), :class:`Text2Protocol` (the same token grammar framed
with a request id, enabling pipelining and connection multiplexing)
and :class:`repro.heidirmi.iiop.GiopProtocol`.
"""

from repro.model.errors import CommunicationError, ProtocolError
from repro.wire.textwire import TextMarshaller
from repro.wire import events as wire_events
from repro.wire.bufferplan import BufferPlan
from repro.wire.correlation import RequestIdAllocator, draining_failure
from repro.wire.text import (
    BYE_FRAME,
    BYE_LINE,
    Text2Wire,
    TextWire,
    encode_reply,
    encode_reply2,
    encode_request,
    encode_request2,
    parse_reply2_line,
    parse_reply_line,
    parse_request2_line,
    parse_request_line,
)

#: Per-channel machine stash attributes.  Parse state is per direction
#: per connection, and one Protocol instance is shared across every
#: connection of an Orb, so the machines live on the channel — the same
#: idiom the GIOP scratch ids always used.  Delegating wrappers
#: (ChaosChannel) grow the attribute on the wrapper, which is exactly
#: the isolation the chaos layer wants.
_CLIENT_MACHINE = "_wire_client"
_SERVER_MACHINE = "_wire_server"


def send_frame(channel, data):
    """Flush one emitted frame to *channel*.

    Emitters return scatter-gather :class:`BufferPlan` objects.  Sinks
    that can flush a plan without joining it (the blocking channel's
    ``sendmsg`` path, the asyncio writer's ``writelines`` path, the
    communicator's coalescing buffers) advertise ``accepts_plans``;
    anything else — test sinks, third-party channels — receives the
    joined contiguous bytes, exactly what the pre-plan protocols sent.
    """
    if type(data) is BufferPlan and \
            not getattr(channel, "accepts_plans", False):
        data = data.to_bytes()
    channel.send(data)


def peer_closed():
    """What a *server* raises on an orderly close frame: its peer is
    just leaving (routine, never a postmortem).  A client that receives
    one mid-wait gets :func:`~repro.wire.correlation.draining_failure`."""
    return CommunicationError(
        "peer sent BYE (orderly close)", kind="peer-closed"
    )


def pump_event(channel, machine):
    """Block until *machine* yields one event, feeding exact frames.

    The machine says what it needs next (one line, or an exact byte
    count) and the channel's own blocking primitives fetch it — so the
    blocking stack performs the *same reads it always did* (same
    deadline enforcement, same chaos injection points, same
    ``has_buffered`` accounting) while all parsing happens sans-I/O.
    """
    if machine.has_buffered:
        event = machine.next_event()
        if event is not wire_events.NEED_DATA:
            return event
    while True:
        hint = machine.read_hint()
        if hint[0] == "line":
            event = machine.feed_line(channel.recv_line())
        else:
            event = machine.feed_frame(channel.recv_exact(hint[1]))
        if event is not wire_events.NEED_DATA:
            return event


def channel_machine(channel, role, factory):
    """The per-channel wire machine for *role*, built on first use.

    A channel carrying a flight recorder (``channel.flight``) hands it
    to the machine as its tap, so every event the machine emits lands
    in the ring with its exact frame bytes.
    """
    attribute = _CLIENT_MACHINE if role == "client" else _SERVER_MACHINE
    machine = getattr(channel, attribute, None)
    if machine is None:
        machine = factory(role)
        recorder = getattr(channel, "flight", None)
        if recorder is not None:
            machine.tap = recorder
        setattr(channel, attribute, machine)
    return machine


class Protocol:
    """Encodes Calls and Replies onto a Channel."""

    name = "?"

    #: True when the protocol frames a request id on every two-way
    #: message, so replies can complete out of order and one channel can
    #: be shared by many concurrent callers.  Protocols that correlate
    #: purely by ordering (the original text protocol) leave this False.
    supports_multiplexing = False

    #: The sans-I/O state machine class backing this protocol (a
    #: :class:`repro.wire.machine.WireMachine` subclass), used by both
    #: the blocking pumps below and the asyncio front-end.
    machine_class = None

    def next_request_id(self):
        """Allocate a correlation id (multiplexing protocols only)."""
        raise ProtocolError(
            f"protocol {self.name!r} has no request ids; "
            "it cannot be pipelined or multiplexed"
        )

    def assign_request_id(self, call):
        """Tag *call* with a fresh id if this protocol frames one on it
        and it has none yet.  The one statement of each protocol's rule:
        none here (replies correlate by arrival order), two-ways on
        text2, every request on GIOP."""

    def client_machine(self):
        """A fresh client-role wire machine (parses replies)."""
        return self.machine_class("client")

    def server_machine(self):
        """A fresh server-role wire machine (parses requests)."""
        return self.machine_class("server")

    def new_marshaller(self):
        raise NotImplementedError

    def send_request(self, channel, call):
        raise NotImplementedError

    def recv_request(self, channel, object_exists=None):
        """Read one request; returns a readable Call.

        *object_exists* is an optional callable over the raw object key
        that protocols with locate machinery (GIOP) may consult; the
        text protocol has no such control messages and ignores it.
        """
        raise NotImplementedError

    def send_reply(self, channel, reply):
        raise NotImplementedError

    def recv_reply(self, channel):
        """Read one reply; returns a readable Reply."""
        raise NotImplementedError

    def send_close(self, channel):
        """Send the protocol's orderly-close frame, if it has one.

        Called by a draining server right before closing the socket
        (text2 ``BYE``, GIOP CloseConnection).  The classic text
        protocol has no close message — EOF is its only goodbye — so
        the base implementation sends nothing.
        """


class TextProtocol(Protocol):
    """The newline-terminated ASCII request/response protocol."""

    name = "text"
    machine_class = TextWire

    def new_marshaller(self):
        return TextMarshaller()

    def send_request(self, channel, call):
        send_frame(channel, encode_request(call))

    # The receive side mirrors the send side: one blocking ``recv_line``
    # (the channel is the line-demarcating buffer) handed straight to
    # the machines' pure line parsers — this is the per-call hot path.
    # No per-channel machine is involved (only GIOP keeps one, see
    # ``channel_machine``).  A flight-recorded channel keeps the
    # direct parse and taps the recorder with the raw line plus the
    # parsed result — routing every line through a machine just to reach
    # its tap costs double-digit throughput, while the direct tap
    # synthesizes the identical record (the recorder pins the event repr
    # formats; replay through a fresh machine still compares equal).

    _parse_request_line = staticmethod(parse_request_line)
    _parse_reply_line = staticmethod(parse_reply_line)

    #: The raw line that means "orderly close" (None for the classic
    #: protocol, whose only goodbye is EOF; ``BYE`` for text2).  Checked
    #: on the direct-parse paths below; the wire machines (asyncio
    #: pumps) surface the same condition as a CloseReceived event.
    _close_line = None

    def recv_request(self, channel, object_exists=None):
        raw = channel.recv_line()
        if raw == self._close_line:
            recorder = getattr(channel, "flight", None)
            if recorder is not None:
                recorder.record_close(raw, "server")
            raise peer_closed()
        line = raw.decode("ascii", errors="replace")
        recorder = getattr(channel, "flight", None)
        if recorder is None:
            return self._parse_request_line(line)
        try:
            call = self._parse_request_line(line)
        except ProtocolError as exc:
            recorder.record_violation(raw, str(exc), "server")
            raise
        recorder.record_request(raw, call)
        return call

    def send_reply(self, channel, reply):
        send_frame(channel, encode_reply(reply))

    def recv_reply(self, channel):
        raw = channel.recv_line()
        if raw == self._close_line:
            recorder = getattr(channel, "flight", None)
            if recorder is not None:
                recorder.record_close(raw, "client")
            raise draining_failure()
        line = raw.decode("ascii", errors="replace")
        recorder = getattr(channel, "flight", None)
        if recorder is None:
            return self._parse_reply_line(line)
        try:
            reply = self._parse_reply_line(line)
        except ProtocolError as exc:
            recorder.record_violation(raw, str(exc), "client")
            raise
        recorder.record_reply(raw, reply)
        return reply


class Text2Protocol(TextProtocol):
    """The text grammar framed with a request id (``text2``).

    Identical tokens and escapes to the classic protocol, but every
    two-way message leads with a decimal request id so replies can be
    correlated out of order::

        CALL2 <id> <objref> <operation> <token>...
        ONEWAY2 <objref> <operation> <token>...
        RET2 <id> OK <token>...
        RET2 <id> EXC <repo-id> <token>...
        RET2 <id> ERR <category> <message-token>

    Oneways carry no id — nothing ever correlates back to them.
    Request ids start at 1; **id 0 is reserved** for ``RET2 0 ERR``
    replies to requests the server could not parse (there is no id to
    echo), which a multiplexed client treats as a channel-level failure
    rather than an orphaned reply.  The wire stays one printable-ASCII
    line per message, so the telnet debugging story survives: a human
    types ``CALL2 7 ...`` and greps for ``RET2 7``.
    """

    name = "text2"
    supports_multiplexing = True
    machine_class = Text2Wire

    _parse_request_line = staticmethod(parse_request2_line)
    _parse_reply_line = staticmethod(parse_reply2_line)

    def __init__(self):
        self._request_ids = RequestIdAllocator()

    def next_request_id(self):
        return self._request_ids.next()

    def assign_request_id(self, call):
        # Oneways carry no id — nothing ever correlates back to them.
        if not call.oneway and call.request_id is None:
            call.request_id = self._request_ids.next()

    def send_request(self, channel, call):
        self.assign_request_id(call)
        send_frame(channel, encode_request2(call))

    _close_line = BYE_LINE

    def send_reply(self, channel, reply):
        send_frame(channel, encode_reply2(reply))

    def send_close(self, channel):
        """Send the ``BYE`` frame — text2's orderly-close message."""
        channel.send(BYE_FRAME)


_PROTOCOLS = {"text": TextProtocol, "text2": Text2Protocol}


def get_protocol(name):
    """Look up a protocol by name; GIOP self-registers on import."""
    if name == "giop" and "giop" not in _PROTOCOLS:
        # Imported lazily so the text-only ORB has no GIOP footprint.
        from repro.heidirmi.iiop import GiopProtocol

        _PROTOCOLS["giop"] = GiopProtocol
    factory = _PROTOCOLS.get(name)
    if factory is None:
        raise ProtocolError(f"unknown protocol {name!r}")
    return factory()


def register_protocol(name, factory):
    """Register a custom protocol (the configurable-ORB hook)."""
    _PROTOCOLS[name] = factory
