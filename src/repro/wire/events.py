"""Typed events produced by the wire state machines.

A machine's :meth:`~repro.wire.machine.WireMachine.next_event` returns
one of these (or :data:`NEED_DATA` when the buffered bytes do not yet
hold a complete message).  Events are plain value objects — they carry
already-parsed :class:`~repro.model.call.Call`/``Reply`` objects or
raw protocol fields, never channels or sockets.
"""


class _NeedData:
    """Sentinel: the machine needs more bytes before it can emit."""

    __slots__ = ()

    def __repr__(self):
        return "NEED_DATA"


#: Returned by ``next_event`` when no complete message is buffered.
NEED_DATA = _NeedData()


class WireEvent:
    """Base class for everything a wire machine can emit."""

    __slots__ = ()


class RequestReceived(WireEvent):
    """A complete request arrived (server-role machines)."""

    __slots__ = ("call",)

    def __init__(self, call):
        self.call = call

    def __repr__(self):
        return (f"RequestReceived({self.call.operation!r}, "
                f"id={self.call.request_id})")


class ReplyReceived(WireEvent):
    """A complete reply arrived (client-role machines)."""

    __slots__ = ("reply",)

    def __init__(self, reply):
        self.reply = reply

    def __repr__(self):
        return (f"ReplyReceived({self.reply.status!r}, "
                f"id={self.reply.request_id})")


class LocateRequested(WireEvent):
    """GIOP LocateRequest (server role): answer with a LocateReply."""

    __slots__ = ("request_id", "object_key")

    def __init__(self, request_id, object_key):
        self.request_id = request_id
        self.object_key = object_key

    def __repr__(self):
        return f"LocateRequested(id={self.request_id})"


class LocateReplied(WireEvent):
    """GIOP LocateReply (client role)."""

    __slots__ = ("request_id", "status")

    def __init__(self, request_id, status):
        self.request_id = request_id
        self.status = status

    def __repr__(self):
        return f"LocateReplied(id={self.request_id}, status={self.status})"


class CancelReceived(WireEvent):
    """GIOP CancelRequest: nothing to do for synchronous upcalls."""

    __slots__ = ("request_id",)

    def __init__(self, request_id=None):
        self.request_id = request_id

    def __repr__(self):
        return f"CancelReceived(id={self.request_id})"


class CloseReceived(WireEvent):
    """GIOP CloseConnection: the peer is ending the stream."""

    __slots__ = ()

    def __repr__(self):
        return "CloseReceived()"


class WireViolation(WireEvent):
    """The peer sent something the protocol cannot accept.

    ``recoverable`` is True when the bad message was fully consumed and
    the stream position is still trusted (a malformed text line, an
    unexpected-but-framed GIOP message): a server can report it and keep
    serving, which is what keeps the telnet-debugging story alive.
    ``recoverable=False`` means the stream cannot be re-synchronised
    (an over-long unterminated line) and the connection must die.
    """

    __slots__ = ("message", "recoverable")

    def __init__(self, message, recoverable=True):
        self.message = message
        self.recoverable = recoverable

    def __repr__(self):
        flag = "" if self.recoverable else ", recoverable=False"
        return f"WireViolation({self.message!r}{flag})"
