"""Pluggable ORB protocols: a name, a wire machine, a marshaller, an id rule.

"Most IDL compilers generate stubs and skeletons that utilize an
abstract interface to the ORB [... which] keeps the generated code
independent of any particular ORB protocol, permitting the utilization
of alternate protocols" (paper, Section 2).  :class:`Protocol` is that
abstract interface; stubs and skeletons only ever see Call/Reply.

A protocol is only what differs between wire formats: its name, the
sans-I/O state machine that emits and parses its frames
(:mod:`repro.wire`), the marshaller its calls are written with, the
rule for which messages carry a request id, and its one blocking read
(:meth:`Protocol.read_event`, one frame → one event).  What an event
*means* is decided by the client session
(:mod:`repro.wire.correlation`) and the serving session
(:mod:`repro.heidirmi.serving`), the same two the asyncio pumps in
:mod:`repro.wire.aio` feed — that is the protocol/transport seam the
paper claims, made literal.

Implementations: :class:`TextProtocol` here (the paper's newline
ASCII format), :class:`Text2Protocol` (the same token grammar framed
with a request id, enabling pipelining and connection multiplexing)
and :class:`repro.heidirmi.iiop.GiopProtocol`.
"""

from repro.model.errors import ProtocolError
from repro.wire import events as wire_events
from repro.wire.bufferplan import BufferPlan
from repro.wire.correlation import RequestIdAllocator
from repro.wire.text import Text2Wire, TextWire
from repro.wire.textwire import TextMarshaller


def send_frame(channel, data):
    """Flush one emitted frame to *channel*.

    Emitters return scatter-gather :class:`BufferPlan` objects.  Sinks
    that can flush a plan without joining it (the blocking channel's
    ``sendmsg`` path, the asyncio writer's ``writelines`` path, the
    communicator's coalescing buffers) advertise ``accepts_plans``;
    anything else — test sinks, third-party channels — receives the
    joined contiguous bytes.
    """
    if type(data) is BufferPlan and \
            not getattr(channel, "accepts_plans", False):
        data = data.to_bytes()
    channel.send(data)


def pump_event(channel, machine):
    """Block until *machine* yields one event, feeding exact frames.

    The machine says what it needs next (one line, or an exact byte
    count) and the channel's own blocking primitives fetch it — the
    same deadline enforcement, chaos injection points and
    ``has_buffered`` accounting as every other blocking read, while all
    parsing happens sans-I/O.  The generic read; the built-in protocols
    each have a shorter one.
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


class Protocol:
    """What one wire format is, behind the ORB's abstract interface."""

    name = "?"

    #: True when the protocol frames a request id on every two-way
    #: message, so replies can complete out of order and one channel can
    #: be shared by many concurrent callers.  Protocols that correlate
    #: purely by ordering (the original text protocol) leave this False.
    supports_multiplexing = False

    #: The sans-I/O state machine class backing this protocol (a
    #: :class:`repro.wire.machine.WireMachine` subclass, built per
    #: connection end with its role), driven by every pump.
    machine_class = None

    #: The one blocking read: ``read_event(channel, machine)`` returns
    #: the next event *machine* parses off *channel*.
    read_event = staticmethod(pump_event)

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

    def new_marshaller(self):
        raise NotImplementedError


class TextProtocol(Protocol):
    """The newline-terminated ASCII request/response protocol."""

    name = "text"
    machine_class = TextWire

    def new_marshaller(self):
        return TextMarshaller()

    @staticmethod
    def read_event(channel, machine):
        """One line, one event: the channel demarcates the line and the
        machine parses it in place (no buffering, no hint loop)."""
        return machine.feed_line(channel.recv_line())


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
    echo), which a client treats as a channel-level failure rather than
    an orphaned reply.  The wire stays one printable-ASCII line per
    message, so the telnet debugging story survives: a human types
    ``CALL2 7 ...`` and greps for ``RET2 7``.
    """

    name = "text2"
    supports_multiplexing = True
    machine_class = Text2Wire

    def __init__(self):
        self._request_ids = RequestIdAllocator()

    def next_request_id(self):
        return self._request_ids.next()

    def assign_request_id(self, call):
        # Oneways carry no id — nothing ever correlates back to them.
        if not call.oneway and call.request_id is None:
            call.request_id = self._request_ids.next()


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
