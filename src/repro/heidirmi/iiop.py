"""GIOP as a HeidiRMI protocol — a thin pump over ``repro.wire.giop``.

``GiopProtocol`` plugs CDR marshalling and GIOP 1.0 framing in under the
same ``Call``/``Reply``/``ObjectCommunicator`` machinery the text
protocol uses, demonstrating the paper's claim that the ORB protocol is
a configuration choice invisible to generated stubs and skeletons.

All framing, message parsing, and message emission live in the sans-I/O
state machine :class:`repro.wire.giop.GiopWire`; this module only
performs blocking reads — the two exact reads of the fixed GIOP frame
(:func:`pump_giop_event`), falling back to the generic ``read_hint``
pump when the machine holds buffered bytes — and translates events
into the blocking API's exceptions.

Mapping choices:

- the GIOP object key carries the full stringified HeidiRMI reference,
  so the server-side dispatch path (object id + type id) is identical;
- ``Reply`` status maps onto GIOP reply_status: OK → NO_EXCEPTION,
  EXC → USER_EXCEPTION (repo id leads the body, as CORBA specifies),
  ERR → SYSTEM_EXCEPTION (category string then message string);
- enums travel as CDR unsigned longs (their index), object references
  as strings, and begin/end are no-ops (CDR composites are unframed).
"""

from repro.giop.cdr import CdrRecorder
from repro.giop.messages import (
    GIOP_HEADER_SIZE,
    LOCATE_OBJECT_HERE,
    LOCATE_UNKNOWN_OBJECT,
    MSG_CANCEL_REQUEST,
    MSG_CLOSE_CONNECTION,
    MSG_LOCATE_REPLY,
    MSG_LOCATE_REQUEST,
    MSG_REPLY,
    MSG_REQUEST,
)
from repro.heidirmi.protocol import (
    Protocol,
    channel_machine,
    pump_event,
    send_frame,
)
from repro.model.errors import CommunicationError, ProtocolError
from repro.wire.correlation import RequestIdAllocator, draining_failure
from repro.wire.events import (
    CancelReceived,
    CloseReceived,
    LocateReplied,
    LocateRequested,
    ReplyReceived,
    RequestReceived,
    WireViolation,
)
from repro.wire.giop import (
    GiopWire,
    encode_close,
    encode_locate_reply,
    encode_locate_request,
    encode_request,
)
from repro.wire.giop import encode_reply as _encode_reply

#: GIOP message type behind each non-violation event, for error texts
#: that name the unexpected type ("expected LocateReply, got message
#: type 1") exactly as the pre-refactor reader did.
_EVENT_MESSAGE_TYPE = {
    RequestReceived: MSG_REQUEST,
    ReplyReceived: MSG_REPLY,
    CancelReceived: MSG_CANCEL_REQUEST,
    LocateRequested: MSG_LOCATE_REQUEST,
    LocateReplied: MSG_LOCATE_REPLY,
    CloseReceived: MSG_CLOSE_CONNECTION,
}


def pump_giop_event(channel, machine):
    """:func:`pump_event` specialised for the framed GIOP machine.

    The frame structure is fixed (12-byte header, exact-size body), so
    the blocking path performs the two exact reads directly and hands
    the parts to :meth:`GiopWire.feed_message`, skipping the buffer
    round-trip of the generic hint loop.  Bytes already buffered in the
    machine (a driver that mixed in ``feed_bytes``) drain first.
    """
    if machine.has_buffered:
        return pump_event(channel, machine)
    header_bytes = channel.recv_exact(GIOP_HEADER_SIZE)
    header = machine.frame_header(header_bytes)
    if type(header) is WireViolation:
        if machine.tap is not None:
            machine.tap.record_in(bytes(header_bytes), header, machine.role)
        return header
    return machine.feed_message(
        header, channel.recv_exact(header[1]),
        raw_header=header_bytes if machine.tap is not None else None,
    )


class GiopProtocol(Protocol):
    """GIOP 1.0 framing + CDR payloads behind the Protocol interface."""

    name = "giop"

    #: GIOP's native request_id gives it out-of-order replies for free.
    supports_multiplexing = True

    machine_class = GiopWire

    def __init__(self):
        self._request_ids = RequestIdAllocator()

    def next_request_id(self):
        # GIOP's request id is a ulong and 0 is reserved for channel-
        # level errors: a long-lived client wraps from 2**32 - 1 to 1.
        return (self._request_ids.next() - 1) % 0xFFFFFFFF + 1

    def new_marshaller(self):
        # CDR aligns from the start of the message, so the parameters
        # are recorded and packed behind the header at emit time.
        return CdrRecorder()

    # -- requests ------------------------------------------------------------

    def assign_request_id(self, call):
        # GIOP frames an id on oneways too.
        if call.request_id is None:
            call.request_id = self.next_request_id()

    def send_request(self, channel, call):
        self.assign_request_id(call)
        send_frame(channel, encode_request(call))
        if not getattr(channel, "_multiplexed", False):
            # Serial (one-call-in-flight) clients verify the next reply
            # against this; a demultiplexing communicator correlates by
            # reply.request_id instead, and many ids are in flight.
            channel._giop_last_request_id = call.request_id

    def recv_request(self, channel, object_exists=None):
        """Read the next Request, transparently serving control messages.

        LocateRequest is answered in place (OBJECT_HERE/UNKNOWN_OBJECT,
        consulting *object_exists* over the object key when provided),
        CancelRequest is acknowledged by ignoring it (calls here are
        synchronous), and CloseConnection ends the stream.
        """
        machine = channel_machine(channel, "server", self.machine_class)
        while True:
            event = pump_giop_event(channel, machine)
            kind = type(event)
            if kind is RequestReceived:
                return event.call
            if kind is LocateRequested:
                self._answer_locate(channel, event, object_exists)
                continue
            if kind is CancelReceived:
                continue  # nothing in flight to cancel: requests are serial
            if kind is CloseReceived:
                raise CommunicationError(
                    "peer sent GIOP CloseConnection", kind="peer-closed"
                )
            raise ProtocolError(event.message)  # WireViolation

    def _answer_locate(self, channel, event, object_exists):
        if object_exists is None or object_exists(event.object_key):
            status = LOCATE_OBJECT_HERE
        else:
            status = LOCATE_UNKNOWN_OBJECT
        channel.send(encode_locate_reply(event.request_id, status))

    def locate(self, channel, object_key):
        """Client side: send a LocateRequest and return the status."""
        request_id = self.next_request_id()
        channel.send(encode_locate_request(request_id, object_key))
        machine = channel_machine(channel, "client", self.machine_class)
        event = pump_giop_event(channel, machine)
        kind = type(event)
        if kind is LocateReplied:
            if event.request_id != request_id:
                raise ProtocolError(
                    f"LocateReply for request {event.request_id}, "
                    f"expected {request_id}"
                )
            return event.status
        if kind is WireViolation:
            raise ProtocolError(event.message)
        raise ProtocolError(
            f"expected LocateReply, got message type "
            f"{_EVENT_MESSAGE_TYPE[kind]}"
        )

    def close_connection(self, channel):
        """Send the GIOP CloseConnection notification."""
        channel.send(encode_close())

    #: Protocol.send_close — GIOP's orderly-close frame already exists.
    send_close = close_connection

    # -- replies ----------------------------------------------------------------

    def send_reply(self, channel, reply, request_id=None):
        if request_id is None:
            request_id = reply.request_id
        if request_id is None:
            # Serial servers echo the id of the one request in flight,
            # which the channel's server machine remembers from parsing
            # it; pipelined servers always set reply.request_id (replies
            # may leave out of order, so a stash would cross-wire).
            request_id = channel_machine(
                channel, "server", self.machine_class).pending_reply_id
        send_frame(channel, _encode_reply(reply, request_id))

    def recv_reply(self, channel):
        machine = channel_machine(channel, "client", self.machine_class)
        event = pump_giop_event(channel, machine)
        kind = type(event)
        if kind is ReplyReceived:
            reply = event.reply
            if not getattr(channel, "_multiplexed", False):
                expected = getattr(channel, "_giop_last_request_id", None)
                if expected is not None and reply.request_id != expected:
                    raise ProtocolError(
                        f"reply for request {reply.request_id}, "
                        f"expected {expected}"
                    )
            return reply
        if kind is WireViolation:
            raise ProtocolError(event.message)
        if kind is CloseReceived:
            raise draining_failure()
        raise ProtocolError(
            f"expected GIOP Reply, got message type "
            f"{_EVENT_MESSAGE_TYPE[kind]}"
        )
