"""Sans-I/O state machine for GIOP 1.0.

Framing (the 12-byte header + exact-size body), message parsing, and
message emission for the GIOP/IIOP path — pure bytes in, events out.
The blocking :class:`repro.heidirmi.iiop.GiopProtocol` and the asyncio
front-end both pump this machine; neither re-implements any framing.

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

import struct

from repro.giop.cdrmarshal import CdrMarshallerView, CdrUnmarshaller
from repro.giop.cdr import CdrDecoder, CdrEncoder
from repro.giop.messages import (
    GIOP_HEADER_SIZE,
    fill_giop_header,
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
    LocateReplyHeader,
    LocateRequestHeader,
    MessageHeader,
    ReplyHeader,
    RequestHeader,
    ServiceContext,
    frame_message,
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

#: Byte offset of the Request/Reply header's request id when the
#: service-context sequence is empty: 12-byte GIOP header, then the
#: ulong context count.  Interned frames are split just past the id so
#: repeats patch a fresh 20-byte prefix and borrow the immutable rest.
_REQUEST_ID_OFFSET = GIOP_HEADER_SIZE + 4
_INTERN_SPLIT = _REQUEST_ID_OFFSET + 4


def _framed_plan(message_type, build_body):
    """One pooled owned segment: header gap, CDR body, patched header."""
    frame = SEND_POOL.acquire()
    frame += _HEADER_GAP
    build_body(CdrEncoder(buffer=frame))
    fill_giop_header(frame, message_type)
    return BufferPlan().append_owned(frame)


def _interned_plan(key, message_type, request_id, build_body):
    """A plan over the interned frame for *key*, request id patched.

    The cache stores each frame split at :data:`_INTERN_SPLIT`: repeats
    copy only the 20-byte prefix into a pooled segment, overwrite the
    request id in place, and borrow the cached immutable tail — the
    body is never re-encoded or re-copied.  Only valid for frames with
    no service contexts (the id offset is fixed) emitted in the
    encoder's native little-endian order.
    """
    entry = FRAME_CACHE.get(key)
    if entry is None:
        frame = SEND_POOL.acquire()
        frame += _HEADER_GAP
        build_body(CdrEncoder(buffer=frame))
        fill_giop_header(frame, message_type)
        entry = (bytes(memoryview(frame)[:_INTERN_SPLIT]),
                 bytes(memoryview(frame)[_INTERN_SPLIT:]))
        SEND_POOL.release(frame)
        FRAME_CACHE.put(key, entry)
    head, tail = entry
    # The prefix is 20 bytes: a direct bytearray copy beats a pool
    # round-trip (two lock acquisitions) at this size.  It is still an
    # owned segment — recycle() feeds it back to the pool as scratch.
    prefix = bytearray(head)
    struct.pack_into("<I", prefix, _REQUEST_ID_OFFSET, request_id)
    return BufferPlan().append_owned(prefix).append_borrowed(tail)


def _intern_key(kind, marshalled, *shape):
    """An intern key, or ``None`` when the call shape is uncacheable.

    *marshalled* must be a recording marshaller whose operations are
    all hashable — a mutable argument (e.g. a ``bytearray`` payload)
    makes the shape unhashable and the frame uninternable, which is
    also what keeps later caller mutations from reaching a cached
    frame.
    """
    operations = getattr(marshalled, "_operations", None)
    if operations is None:
        return None
    key = (kind, *shape, tuple(operations))
    try:
        hash(key)
    except TypeError:
        return None
    return key


def _encode_request_body(encoder, call, service_context):
    RequestHeader(
        request_id=call.request_id,
        object_key=call.target.encode("utf-8"),
        operation=call.operation,
        response_expected=not call.oneway,
        service_context=service_context,
    ).encode(encoder)
    call.replay_into(CdrMarshallerView(encoder))


def _encode_reply_body(encoder, reply, repo_id, request_id, service_context):
    ReplyHeader(
        request_id=request_id,
        reply_status=_STATUS_TO_GIOP[reply.status],
        service_context=service_context,
    ).encode(encoder)
    if reply.status in (STATUS_EXCEPTION, STATUS_ERROR):
        # CORBA: the exception body leads with its repository ID.
        encoder.string(repo_id)
    reply.replay_into(CdrMarshallerView(encoder))


def encode_request(call):
    """A framed GIOP Request plan for *call* (request_id must be set
    for two-ways; GIOP frames an id on oneways too, so any id works
    there)."""
    request_id = call.request_id
    if request_id is None:
        raise ProtocolError("GIOP request needs a request id")
    if call.trace_context is None and call.deadline is None:
        # No service contexts → fixed id offset → internable.
        key = _intern_key("request", call._m, call.target, call.operation,
                          call.oneway)
        if key is not None:
            return _interned_plan(
                key, MSG_REQUEST, request_id,
                lambda encoder: _encode_request_body(encoder, call, []),
            )
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
    return _framed_plan(
        MSG_REQUEST,
        lambda encoder: _encode_request_body(encoder, call, service_context),
    )


def encode_reply(reply, request_id=None):
    """A framed GIOP Reply plan echoing *request_id* (default: the
    reply's)."""
    if request_id is None:
        request_id = reply.request_id
    if request_id is None:
        request_id = 0
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
    if not service_context:
        key = _intern_key("reply", reply._m, reply.status, repo_id)
        if key is not None:
            return _interned_plan(
                key, MSG_REPLY, request_id,
                lambda encoder: _encode_reply_body(
                    encoder, reply, repo_id, request_id, []),
            )
    return _framed_plan(
        MSG_REPLY,
        lambda encoder: _encode_reply_body(
            encoder, reply, repo_id, request_id, service_context),
    )


def encode_locate_request(request_id, object_key):
    encoder = CdrEncoder(start_align=GIOP_HEADER_SIZE)
    LocateRequestHeader(
        request_id=request_id, object_key=object_key
    ).encode(encoder)
    return frame_message(MSG_LOCATE_REQUEST, encoder.data())


def encode_locate_reply(request_id, locate_status):
    encoder = CdrEncoder(start_align=GIOP_HEADER_SIZE)
    LocateReplyHeader(
        request_id=request_id, locate_status=locate_status
    ).encode(encoder)
    return frame_message(MSG_LOCATE_REPLY, encoder.data())


#: CloseConnection has no body, so the frame is a 12-byte constant.
_CLOSE_FRAME = frame_message(MSG_CLOSE_CONNECTION, b"")


def encode_close():
    return _CLOSE_FRAME


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


class GiopWire(WireMachine):
    """GIOP 1.0 framing and message parsing as a pure state machine.

    Replies are correlated by whoever drives the machine (the client
    session, by ``reply.request_id``); the one-call-in-flight check of
    a serial blocking client is :class:`repro.heidirmi.iiop.GiopProtocol`'s.
    """

    protocol_name = "giop"

    def __init__(self, role):
        super().__init__(role)
        #: Server role: the id of the last parsed Request — the id an
        #: id-less emit_reply echoes (serial servers only; pipelined
        #: servers set reply.request_id explicitly).
        self.pending_reply_id = 0
        self._header = None  # parsed MessageHeader awaiting its body

    def read_hint(self):
        if self._header is None:
            return ("exact", GIOP_HEADER_SIZE - self._available())
        return ("exact", self._header.message_size - self._available())

    def _parse_one(self):
        if self._header is None:
            if self._available() < GIOP_HEADER_SIZE:
                return NEED_DATA
            header_bytes = self._consume(GIOP_HEADER_SIZE)
            try:
                header = MessageHeader.decode(header_bytes)
            except ProtocolError as exc:
                # The 12 bad bytes are consumed; whatever follows is
                # re-read as a fresh header (mirrors the blocking
                # reader, whose ProtocolError left the next bytes
                # unread in the channel).
                return WireViolation(str(exc))
            if header.message_size > MAX_MESSAGE_SIZE:
                return WireViolation(
                    f"implausible GIOP message size {header.message_size}"
                )
            self._header = header
        if self._available() < self._header.message_size:
            return NEED_DATA
        header, self._header = self._header, None
        body = self._consume(header.message_size)
        try:
            return self._parse_message(header, body)
        except (ProtocolError, MarshalError) as exc:
            # The whole message was consumed, so the stream stays
            # aligned; the driver may report and continue.
            return WireViolation(str(exc))

    def feed_message(self, header, body, raw_header=None):
        """One already-framed message → event (exact-read fast path).

        A blocking pump that performed the header and body reads
        itself hands the parts straight to the parser, skipping the
        buffer round-trip :meth:`feed_frame` would pay.  All state
        rules (role table, serial checks, pending ids) still apply.
        Only valid while nothing is buffered in the machine.

        *raw_header* is the 12 header bytes as read off the wire; a
        pump driving a tapped machine passes them so the flight record
        holds the replayable full frame (header + body).
        """
        try:
            event = self._parse_message(header, body)
        except (ProtocolError, MarshalError) as exc:
            event = WireViolation(str(exc))
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
        message_type = header.message_type
        if message_type == MSG_CLOSE_CONNECTION:
            return CloseReceived()
        if self.role == CLIENT:
            if message_type == MSG_REPLY:
                return self._parse_reply(header, body)
            if message_type == MSG_LOCATE_REPLY:
                decoder = self._body_decoder(header, body)
                locate = LocateReplyHeader.decode(decoder)
                return LocateReplied(locate.request_id, locate.locate_status)
            return self._unexpected(message_type)
        if message_type == MSG_REQUEST:
            return self._parse_request(header, body)
        if message_type == MSG_LOCATE_REQUEST:
            decoder = self._body_decoder(header, body)
            locate = LocateRequestHeader.decode(decoder)
            return LocateRequested(locate.request_id, locate.object_key)
        if message_type == MSG_CANCEL_REQUEST:
            # Body ignored: upcalls here are synchronous, there is
            # nothing in flight to cancel.
            return CancelReceived()
        return self._unexpected(message_type)

    @staticmethod
    def _body_decoder(header, body):
        return CdrDecoder(
            body, little_endian=header.little_endian,
            start_align=GIOP_HEADER_SIZE,
        )

    def _parse_request(self, header, body):
        decoder = self._body_decoder(header, body)
        request = RequestHeader.decode(decoder)
        call = Call(
            request.object_key.decode("utf-8"),
            request.operation,
            unmarshaller=CdrUnmarshaller(decoder),
            oneway=not request.response_expected,
            request_id=request.request_id,
        )
        for context in request.service_context:
            if context.context_id == SERVICE_CONTEXT_TRACE:
                call.trace_context = context.context_data.decode(
                    "ascii", errors="replace"
                )
            elif context.context_id == SERVICE_CONTEXT_DEADLINE:
                call.deadline = headers.parse_deadline_context(
                    context.context_data
                )
        # The reply to this request must echo its id; serial drivers
        # reply without call context, so remember it here.
        self.pending_reply_id = request.request_id
        return RequestReceived(call)

    def _parse_reply(self, header, body):
        decoder = self._body_decoder(header, body)
        reply_header = ReplyHeader.decode(decoder)
        status = _GIOP_TO_STATUS.get(reply_header.reply_status)
        if status is None:
            raise ProtocolError(
                f"unsupported reply status {reply_header.reply_status}"
            )
        repo_id = ""
        if status in (STATUS_EXCEPTION, STATUS_ERROR):
            repo_id = decoder.string()
        reply = Reply(
            status=status,
            repo_id=repo_id,
            unmarshaller=CdrUnmarshaller(decoder),
            request_id=reply_header.request_id,
        )
        if repo_id == TRANSIENT_REPO_ID:
            # Translate the CORBA shed spelling back to the shared
            # category; the retry-after hint rides the HDRA context.
            reply.repo_id = headers.OVERLOADED_CATEGORY
            for context in reply_header.service_context:
                if context.context_id == SERVICE_CONTEXT_RETRY_AFTER:
                    reply.retry_after = headers.parse_retry_after_context(
                        context.context_data
                    )
        return ReplyReceived(reply)

    # -- emission ----------------------------------------------------------

    def emit_request(self, call):
        return encode_request(call)

    def emit_reply(self, reply, request_id=None):
        if request_id is None:
            request_id = reply.request_id
        if request_id is None:
            request_id = self.pending_reply_id
        return encode_reply(reply, request_id=request_id)

    def emit_locate_request(self, request_id, object_key):
        return encode_locate_request(request_id, object_key)

    def emit_locate_reply(self, request_id, locate_status):
        return encode_locate_reply(request_id, locate_status)

    def emit_close(self):
        return encode_close()
