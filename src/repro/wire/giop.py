"""Sans-I/O state machine for GIOP 1.0.

Framing (the 12-byte header + exact-size body), message parsing, and
message emission for the GIOP/IIOP path — pure bytes in, events out.
The blocking communicator (through
:func:`repro.heidirmi.iiop.pump_giop_event`) and the asyncio pumps
both drive this machine; neither re-implements any framing.

Role rules (what counts as a violation mirrors the pre-refactor
blocking code exactly, message text included):

==================  =======================  =======================
message type        client-role machine      server-role machine
==================  =======================  =======================
Request (0)         violation                RequestReceived
Reply (1)           ReplyReceived            violation
CancelRequest (2)   violation                CancelReceived
LocateRequest (3)   violation                LocateRequested
LocateReply (4)     LocateReplied            violation
CloseConnection(5)  CloseReceived            CloseReceived
MessageError (6)    violation                violation
==================  =======================  =======================
"""

from repro.giop.cdr import CdrDecoder, CdrEncoder, utf8
from repro.giop.messages import (
    GIOP_HEADER_SIZE,
    MSG_CANCEL_REQUEST,
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
    REQUEST_ID_OFFSET,
    LocateReplyHeader,
    LocateRequestHeader,
    ServiceContext,
    fill_giop_header,
    frame_message,
    patch_request_id,
    read_message_header,
    read_reply_header,
    read_request_header,
    write_reply_header,
    write_request_header,
)
from repro.model.call import (
    STATUS_ERROR,
    STATUS_EXCEPTION,
    STATUS_OK,
    Call,
    Reply,
)
from repro.model.errors import MarshalError, ProtocolError
from repro.wire import headers
from repro.wire.bufferplan import FRAME_CACHE, SEND_POOL, BufferPlan
from repro.wire.correlation import RESERVED_CHANNEL_ERROR_ID
from repro.wire.events import (
    NEED_DATA,
    CancelReceived,
    CloseReceived,
    LocateReplied,
    LocateRequested,
    ReplyReceived,
    RequestReceived,
    WireViolation,
)
from repro.wire.machine import CLIENT, WireMachine

#: A body beyond this is an attack or a bug.
MAX_MESSAGE_SIZE = 1 << 24

_STATUS_TO_GIOP = {
    STATUS_OK: REPLY_NO_EXCEPTION,
    STATUS_EXCEPTION: REPLY_USER_EXCEPTION,
    STATUS_ERROR: REPLY_SYSTEM_EXCEPTION,
}
_GIOP_TO_STATUS = {value: key for key, value in _STATUS_TO_GIOP.items()}

#: The CORBA spelling of an admission shed: a TRANSIENT system
#: exception ("the request was not delivered, retrying may succeed").
#: GIOP emission translates the cross-protocol ``Overloaded`` error
#: category to this repository id (plus an HDRA retry-after
#: ServiceContext); decode translates it back, so stubs and the
#: resilient engine see one category on every protocol.
TRANSIENT_REPO_ID = "IDL:omg.org/CORBA/TRANSIENT:1.0"


# ---------------------------------------------------------------------------
# Emission: pure Call/Reply -> framed BufferPlan
# ---------------------------------------------------------------------------

#: The reserved gap a pooled frame starts with; the real header is
#: patched in place once the body length is known.
_HEADER_GAP = bytes(GIOP_HEADER_SIZE)

#: Interned frames are split just past the request id, so repeats
#: patch a fresh 20-byte prefix and borrow the immutable rest.
_INTERN_SPLIT = REQUEST_ID_OFFSET + 4


def _plan(message_type, key, request_id, message, write_header, *fields):
    """The framed plan for one Request or Reply.

    With an intern *key* — only for frames with no service contexts
    (the id offset is fixed), which are emitted in the encoder's native
    little-endian order — a repeat copies the cached 20-byte prefix,
    patches *request_id* into it and borrows the cached immutable tail:
    the body is neither re-encoded nor re-copied.  Anything else is
    built into one pooled owned segment (header gap, the header
    *write_header* makes of *fields*, *message*'s recorded puts, gap
    patched) which the plan hands on as it is; under a key its two
    halves are also interned, as copies.
    """
    if key is not None:
        entry = FRAME_CACHE.get(key)
        if entry is not None:
            # 20 bytes: a direct bytearray copy beats a pool round-trip
            # (two lock acquisitions).  It is still an owned segment —
            # recycle() feeds it back to the pool as scratch.
            prefix = bytearray(entry[0])
            patch_request_id(prefix, request_id)
            return BufferPlan().append_owned(prefix).append_borrowed(entry[1])
    frame = SEND_POOL.acquire()
    frame += _HEADER_GAP
    encoder = CdrEncoder(buffer=frame)
    write_header(encoder, request_id, *fields)
    message.replay_into(encoder)
    fill_giop_header(frame, message_type)
    if key is not None:
        FRAME_CACHE.put(key, (bytes(memoryview(frame)[:_INTERN_SPLIT]),
                              bytes(memoryview(frame)[_INTERN_SPLIT:])))
    return BufferPlan().append_owned(frame)


def encode_request(call):
    """A framed GIOP Request plan for *call* (request_id must be set
    for two-ways; GIOP frames an id on oneways too, so any id works
    there)."""
    request_id = call.request_id
    if request_id is None:
        raise ProtocolError("GIOP request needs a request id")
    service_context = []
    if call.trace_context is not None:
        # GIOP's native extension point: the trace context travels
        # as a ServiceContext entry, which unaware peers skip.
        service_context.append(ServiceContext(
            SERVICE_CONTEXT_TRACE,
            headers.trace_context_data(call.trace_context),
        ))
    if call.deadline is not None:
        # Remaining budget in ms, same relative quantity as the
        # text protocols' dl= token (see SERVICE_CONTEXT_DEADLINE).
        service_context.append(ServiceContext(
            SERVICE_CONTEXT_DEADLINE,
            headers.deadline_context_data(call.deadline),
        ))
    key = None
    if not service_context:
        key = call._m.key("request", call.target, call.operation, call.oneway)
    return _plan(
        MSG_REQUEST, key, request_id, call, write_request_header,
        call.target.encode("utf-8"), call.operation, not call.oneway,
        service_context,
    )


def _write_reply_header(encoder, request_id, status, repo_id, service_context):
    write_reply_header(encoder, request_id, _STATUS_TO_GIOP[status],
                       service_context)
    if status in (STATUS_EXCEPTION, STATUS_ERROR):
        # CORBA: the exception body leads with its repository ID.
        encoder.string(repo_id)


def encode_reply(reply, request_id):
    """A framed GIOP Reply plan echoing *request_id*."""
    repo_id = reply.repo_id
    service_context = []
    if repo_id == headers.OVERLOADED_CATEGORY and reply.status == STATUS_ERROR:
        repo_id = TRANSIENT_REPO_ID
        retry_after = getattr(reply, "retry_after", None)
        if retry_after is not None:
            service_context.append(ServiceContext(
                SERVICE_CONTEXT_RETRY_AFTER,
                headers.retry_after_context_data(retry_after),
            ))
    key = None
    if not service_context:
        key = reply._m.key("reply", reply.status, repo_id)
    return _plan(
        MSG_REPLY, key, request_id, reply, _write_reply_header,
        reply.status, repo_id, service_context,
    )


def _locate_frame(message_type, header):
    encoder = CdrEncoder(start_align=GIOP_HEADER_SIZE)
    header.encode(encoder)
    return frame_message(message_type, encoder.data())


def encode_locate_request(request_id, object_key):
    return _locate_frame(MSG_LOCATE_REQUEST,
                         LocateRequestHeader(request_id, object_key))


def encode_locate_reply(request_id, locate_status):
    return _locate_frame(MSG_LOCATE_REPLY,
                         LocateReplyHeader(request_id, locate_status))


#: CloseConnection has no body, so the frame is a 12-byte constant.
_CLOSE_FRAME = frame_message(MSG_CLOSE_CONNECTION, b"")


def encode_close():
    return _CLOSE_FRAME


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


class GiopWire(WireMachine):
    """GIOP 1.0 framing and message parsing as a pure state machine.

    The machine keeps no correlation state: a reply carries the id it
    was given, and what an id means is the client session's decision
    (``repro.wire.correlation``), in every connection mode.
    """

    protocol_name = "giop"

    def __init__(self, role):
        super().__init__(role)
        #: ``(message_type, message_size, little_endian)`` of a frame
        #: whose header is consumed and whose body is still arriving.
        self._header = None

    def read_hint(self):
        if self._header is None:
            return ("exact", GIOP_HEADER_SIZE - self._available())
        return ("exact", self._header[1] - self._available())

    def frame_header(self, data, offset=0):
        """The 12 header bytes at *offset* of *data*, validated:
        ``(message_type, message_size, little_endian)``, or the
        :class:`WireViolation` they are.  The one place a frame header
        is judged — both for bytes buffered here and for a pump that
        reads the header itself (see :meth:`feed_message`)."""
        try:
            header = read_message_header(data, offset)
        except ProtocolError as exc:
            return WireViolation(str(exc))
        if header[1] > MAX_MESSAGE_SIZE:
            return WireViolation(
                f"implausible GIOP message size {header[1]}")
        return header

    def _parse_one(self):
        header = self._header
        if header is None:
            if self._available() < GIOP_HEADER_SIZE:
                return NEED_DATA
            header = self.frame_header(self._buffer, self._start)
            # Consumed even when bad: whatever follows is re-read as a
            # fresh header (mirrors the blocking reader, which leaves
            # the next bytes unread in the channel).
            self._start += GIOP_HEADER_SIZE
            if type(header) is WireViolation:
                return header
            self._header = header
        if self._available() < header[1]:
            return NEED_DATA
        self._header = None
        return self._parse_message(header, self._consume(header[1]))

    def feed_message(self, header, body, raw_header=None):
        """One already-framed message → event (exact-read fast path).

        A blocking pump that performed the header and body reads
        itself hands :meth:`frame_header`'s verdict and the body
        straight to the parser, skipping the buffer round-trip
        :meth:`feed_frame` would pay.  The role table still applies.
        Only valid while nothing is buffered in the machine.

        *raw_header* is the 12 header bytes as read off the wire; a
        pump driving a tapped machine passes them so the flight record
        holds the replayable full frame (header + body).
        """
        event = self._parse_message(header, body)
        if self.tap is not None and raw_header is not None:
            record = bytearray(raw_header)
            record += body
            self.tap.record_in(record, event, self.role)
        return event

    def _unexpected(self, message_type):
        expected = "GIOP Reply" if self.role == CLIENT else "GIOP Request"
        return WireViolation(
            f"expected {expected}, got message type {message_type}"
        )

    def _parse_message(self, header, body):
        """The event for one whole message; a malformed one is a
        violation — it was consumed whole, so the stream stays aligned
        and the driver may report and continue."""
        message_type, _, little_endian = header
        if message_type == MSG_CLOSE_CONNECTION:
            return CloseReceived()
        decoder = CdrDecoder(body, little_endian, GIOP_HEADER_SIZE)
        try:
            if self.role == CLIENT:
                if message_type == MSG_REPLY:
                    return self._parse_reply(decoder)
                if message_type == MSG_LOCATE_REPLY:
                    locate = LocateReplyHeader.decode(decoder)
                    return LocateReplied(locate.request_id,
                                         locate.locate_status)
            elif message_type == MSG_REQUEST:
                return self._parse_request(decoder)
            elif message_type == MSG_LOCATE_REQUEST:
                locate = LocateRequestHeader.decode(decoder)
                return LocateRequested(locate.request_id, locate.object_key)
            elif message_type == MSG_CANCEL_REQUEST:
                # Body ignored: upcalls here are synchronous, there is
                # nothing in flight to cancel.
                return CancelReceived()
        except (ProtocolError, MarshalError) as exc:
            return WireViolation(str(exc))
        return self._unexpected(message_type)

    def _parse_request(self, decoder):
        (request_id, object_key, operation, response_expected,
         service_context, _) = read_request_header(decoder)
        call = Call(
            utf8(object_key, "object key"),
            operation,
            unmarshaller=decoder,
            oneway=not response_expected,
            request_id=request_id,
        )
        for context in service_context:
            if context.context_id == SERVICE_CONTEXT_TRACE:
                call.trace_context = context.context_data.decode(
                    "ascii", errors="replace"
                )
            elif context.context_id == SERVICE_CONTEXT_DEADLINE:
                call.deadline = headers.parse_deadline_context(
                    context.context_data
                )
        return RequestReceived(call)

    def _parse_reply(self, decoder):
        request_id, reply_status, service_context = read_reply_header(decoder)
        status = _GIOP_TO_STATUS.get(reply_status)
        if status is None:
            raise ProtocolError(f"unsupported reply status {reply_status}")
        repo_id = ""
        if status in (STATUS_EXCEPTION, STATUS_ERROR):
            repo_id = decoder.string()
        reply = Reply(
            status=status,
            repo_id=repo_id,
            unmarshaller=decoder,
            request_id=request_id,
        )
        if repo_id == TRANSIENT_REPO_ID:
            # Translate the CORBA shed spelling back to the shared
            # category; the retry-after hint rides the HDRA context.
            reply.repo_id = headers.OVERLOADED_CATEGORY
            for context in service_context:
                if context.context_id == SERVICE_CONTEXT_RETRY_AFTER:
                    reply.retry_after = headers.parse_retry_after_context(
                        context.context_data
                    )
        return ReplyReceived(reply)

    # -- emission ----------------------------------------------------------

    emit_request = staticmethod(encode_request)

    def emit_reply(self, reply, request_id=None):
        """The reply frame, echoing *request_id* or the reply's own id.

        A reply with neither answers a request that did not parse, so
        it names none: the reserved id 0, exactly as text2's
        ``RET2 0 ERR``.
        """
        if request_id is None:
            request_id = reply.request_id
        if request_id is None:
            request_id = RESERVED_CHANNEL_ERROR_ID
        return encode_reply(reply, request_id)

    emit_locate_request = staticmethod(encode_locate_request)
    emit_locate_reply = staticmethod(encode_locate_reply)
    emit_close = staticmethod(encode_close)
