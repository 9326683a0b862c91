"""GIOP as a HeidiRMI protocol: CDR marshalling and GIOP 1.0 framing.

``GiopProtocol`` plugs in under the same ``Call``/``Reply``/
``ObjectCommunicator`` machinery the text protocols use, demonstrating
the paper's claim that the ORB protocol is a configuration choice
invisible to generated stubs and skeletons.

All framing, message parsing and message emission live in the sans-I/O
state machine :class:`repro.wire.giop.GiopWire`.  This module holds
the protocol's request-id rule, its one blocking read
(:func:`pump_giop_event`: the two exact reads of the fixed GIOP frame)
and :func:`locate`, the client half of the locate machinery; the
server half is the serving session's.

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
from repro.giop.messages import GIOP_HEADER_SIZE
from repro.heidirmi.protocol import Protocol, pump_event
from repro.model.errors import ProtocolError
from repro.wire.correlation import RequestIdAllocator
from repro.wire.events import LocateReplied
from repro.wire.giop import GiopWire


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
    if type(header) is not tuple:  # the violation these bytes are
        if machine.tap is not None:
            machine.tap.record_in(bytes(header_bytes), header, machine.role)
        return header
    return machine.feed_message(
        header, channel.recv_exact(header[1]),
        raw_header=header_bytes if machine.tap is not None else None,
    )


#: The id of the one LocateRequest :func:`locate` sends on its channel.
_LOCATE_ID = 1


def locate(channel, object_key):
    """Client side: send a LocateRequest for *object_key* over
    *channel* and return the status of the LocateReply to it."""
    machine = GiopWire("client")
    channel.send(machine.emit_locate_request(_LOCATE_ID, object_key))
    event = pump_giop_event(channel, machine)
    if type(event) is LocateReplied and event.request_id == _LOCATE_ID:
        return event.status
    raise ProtocolError(
        f"expected the LocateReply to request {_LOCATE_ID}, got {event!r}"
    )


class GiopProtocol(Protocol):
    """GIOP 1.0 framing + CDR payloads behind the Protocol interface."""

    name = "giop"

    #: GIOP's native request_id gives it out-of-order replies for free.
    supports_multiplexing = True

    machine_class = GiopWire
    read_event = staticmethod(pump_giop_event)

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

    def assign_request_id(self, call):
        # GIOP frames an id on oneways too.
        if call.request_id is None:
            call.request_id = self.next_request_id()
