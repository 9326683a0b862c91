"""GIOP 1.0 message formats.

Every GIOP message starts with the 12-byte message header::

    char[4] magic = "GIOP"
    octet   version_major, version_minor   (1, 0)
    octet   byte_order                     (1 = little endian)
    octet   message_type
    ulong   message_size                   (bytes following the header)

Request and Reply headers follow the OMG 1.0 layout, including the
service-context sequence and (for requests) the requesting principal.

This module is the one codec for those header bytes: the functions
below read and write them with precompiled ``struct`` layouts, in place
on a :class:`~repro.giop.cdr.CdrDecoder`'s view or a
:class:`~repro.giop.cdr.CdrEncoder`'s buffer (reaching into both —
they are this package's own), and leave the decoder positioned at the
first parameter.  The wire machine calls the functions; the header
dataclasses are the same codec with named fields.
"""

import struct
from dataclasses import dataclass, field
from functools import lru_cache

from repro.giop.cdr import CdrEncoder, utf8
from repro.model.errors import MarshalError, ProtocolError

GIOP_MAGIC = b"GIOP"
GIOP_HEADER_SIZE = 12

#: ServiceContext id carrying the HeidiRMI trace context ("HDTC"):
#: context_data is the ASCII ``trace_id-span_id`` token used by the
#: text protocols' ``ctx=`` header field.  Peers that don't recognise
#: the id skip the entry, as the CORBA spec requires, so traced and
#: untraced ORBs interoperate.
SERVICE_CONTEXT_TRACE = 0x48445443

#: ServiceContext id carrying the HeidiRMI call deadline ("HDDL"):
#: context_data is the *remaining budget* in whole milliseconds as an
#: ASCII decimal string — the same relative quantity as the text
#: protocols' ``dl=`` header token, needing no clock synchronisation.
#: The server re-anchors it on its own monotonic clock at decode time;
#: unaware peers skip the entry.
SERVICE_CONTEXT_DEADLINE = 0x4844444C

#: ServiceContext id carrying the overload retry-after hint ("HDRA"):
#: context_data is the hint in whole milliseconds as an ASCII decimal
#: string, riding a TRANSIENT system-exception reply — the same value
#: the text protocols lead the ``Overloaded`` error message with
#: (``ra=`` token).  Unaware peers skip the entry and still see a
#: standard TRANSIENT.
SERVICE_CONTEXT_RETRY_AFTER = 0x48445241

MSG_REQUEST = 0
MSG_REPLY = 1
MSG_CANCEL_REQUEST = 2
MSG_LOCATE_REQUEST = 3
MSG_LOCATE_REPLY = 4
MSG_CLOSE_CONNECTION = 5
MSG_MESSAGE_ERROR = 6

# ReplyHeader.reply_status values.
REPLY_NO_EXCEPTION = 0
REPLY_USER_EXCEPTION = 1
REPLY_SYSTEM_EXCEPTION = 2
REPLY_LOCATION_FORWARD = 3

# LocateReplyHeader.locate_status values.
LOCATE_UNKNOWN_OBJECT = 0
LOCATE_OBJECT_HERE = 1
LOCATE_OBJECT_FORWARD = 2

# Fixed layouts per byte order, indexed by the little-endian flag.
_MESSAGE = (struct.Struct(">4sBBBBI"), struct.Struct("<4sBBBBI"))
_ULONG = (struct.Struct(">I"), struct.Struct("<I"))
#: RequestHeader past the contexts: request id, response_expected
#: (padded to the next ulong), object key length.
_REQUEST_FIXED = (struct.Struct(">IB3xI"), struct.Struct("<IB3xI"))

#: Byte offset of the request id in a Request or Reply whose
#: service-context sequence is empty: the message header, then the
#: ulong context count.
REQUEST_ID_OFFSET = GIOP_HEADER_SIZE + 4


def read_message_header(data, offset=0):
    """``(message_type, message_size, little_endian)`` of the 12-byte
    header at *offset* of *data*; :class:`ProtocolError` if it is none."""
    if len(data) - offset < GIOP_HEADER_SIZE:
        raise ProtocolError("short GIOP header")
    little_endian = data[offset + 6] == 1
    magic, major, minor, _, message_type, message_size = _MESSAGE[
        little_endian].unpack_from(data, offset)
    if magic != GIOP_MAGIC:
        raise ProtocolError(f"bad GIOP magic {magic!r}")
    if (major, minor) != (1, 0):
        raise ProtocolError(f"unsupported GIOP version {major}.{minor}")
    if message_type > MSG_MESSAGE_ERROR:
        raise ProtocolError(f"unknown GIOP message type {message_type}")
    return message_type, message_size, little_endian


def fill_giop_header(buffer, message_type, little_endian=True):
    """Patch the 12-byte GIOP header into *buffer*'s reserved gap.

    *buffer* is a mutable frame whose first :data:`GIOP_HEADER_SIZE`
    bytes were left as a gap while the body was marshalled behind
    them; the message size is whatever follows the gap.
    """
    _MESSAGE[bool(little_endian)].pack_into(
        buffer, 0, GIOP_MAGIC, 1, 0, 1 if little_endian else 0,
        message_type, len(buffer) - GIOP_HEADER_SIZE)


def patch_request_id(frame, request_id):
    """Overwrite the request id of a little-endian frame that has no
    service contexts (see :data:`REQUEST_ID_OFFSET`) — how an interned
    frame is re-issued under a fresh id."""
    try:
        _ULONG[1].pack_into(frame, REQUEST_ID_OFFSET, request_id)
    except struct.error as exc:
        raise MarshalError(
            f"cannot CDR-encode {request_id!r}: {exc}") from exc


@dataclass
class ServiceContext:
    context_id: int
    context_data: bytes = b""


def _write_contexts_and_id(encoder, contexts, request_id):
    """What Request and Reply headers open with: the service-context
    sequence (no iterations when empty), then the request id."""
    encoder.ulong(len(contexts))
    for context in contexts:
        encoder.ulong(context.context_id)
        encoder.octets(context.context_data)
    encoder.ulong(request_id)


def _read_contexts(decoder):
    count = decoder.ulong()
    if not count:
        return []
    if count > 1024:
        raise ProtocolError(f"implausible service-context count {count}")
    return [ServiceContext(decoder.ulong(), decoder.octets())
            for _ in range(count)]


@lru_cache(maxsize=256)
def _request_tail(object_key, operation, response_expected, principal,
                  little_endian):
    """A RequestHeader from ``response_expected`` on, as bytes.

    The tail starts on a ulong boundary (it follows the request id) and
    holds nothing wider, so it is the same bytes wherever the header
    sits — a pure function of the target, which a client calls over and
    over.  The memo is bounded; its values are immutable.
    """
    encoder = CdrEncoder(little_endian)
    encoder.boolean(response_expected)
    encoder.octets(object_key)
    encoder.string(operation)
    encoder.octets(principal)
    return encoder.data()


def write_request_header(encoder, request_id, object_key, operation,
                         response_expected=True, service_context=(),
                         requesting_principal=b""):
    """Append a GIOP 1.0 RequestHeader to *encoder*'s buffer."""
    _write_contexts_and_id(encoder, service_context, request_id)
    encoder.raw(_request_tail(
        bytes(object_key), operation, bool(response_expected),
        bytes(requesting_principal), encoder.little_endian))


def read_request_header(decoder):
    """The RequestHeader at *decoder*'s position, as a tuple in
    :class:`RequestHeader` field order — object key and principal as
    views into the decoder's buffer, not copies; the decoder is left
    at the first parameter."""
    service_context = _read_contexts(decoder)
    data, base = decoder._data, decoder._start
    ulong = _ULONG[decoder.little_endian].unpack_from
    pos = decoder._pos + (-(base + decoder._pos) & 3)
    try:
        request_id, response_expected, key_size = _REQUEST_FIXED[
            decoder.little_endian].unpack_from(data, pos)
        # Each length is read at the (aligned) end of the run before
        # it, so a run that overshoots fails the next unpack, and only
        # the last needs its own bounds check.
        key_end = pos + 12 + key_size
        name_at = key_end + (-(base + key_end) & 3) + 4
        name_end = name_at + ulong(data, name_at - 4)[0]
        principal_at = name_end + (-(base + name_end) & 3) + 4
        end = principal_at + ulong(data, principal_at - 4)[0]
    except struct.error:
        end = None
    if end is None or end > len(data):
        raise MarshalError("CDR buffer exhausted while reading request header")
    decoder._pos = end
    if name_end == name_at:
        raise MarshalError("CORBA string length must include the NUL")
    if data[name_end - 1] != 0:
        raise MarshalError("CORBA string is not NUL-terminated")
    return (request_id, data[pos + 12:key_end],
            utf8(data[name_at:name_end - 1], "operation name"),
            response_expected != 0, service_context, data[principal_at:end])


def write_reply_header(encoder, request_id, reply_status,
                       service_context=()):
    """Append a GIOP 1.0 ReplyHeader to *encoder*'s buffer."""
    _write_contexts_and_id(encoder, service_context, request_id)
    encoder.ulong(reply_status)


def read_reply_header(decoder):
    """The ReplyHeader at *decoder*'s position, as a tuple in
    :class:`ReplyHeader` field order; the decoder is left at the body."""
    service_context = _read_contexts(decoder)
    request_id, reply_status = decoder.ulong(), decoder.ulong()
    if reply_status > REPLY_LOCATION_FORWARD:
        raise ProtocolError(f"unknown reply status {reply_status}")
    return request_id, reply_status, service_context


@dataclass
class MessageHeader:
    message_type: int
    message_size: int
    little_endian: bool = True
    version: tuple = (1, 0)

    def encode(self):
        try:
            return _MESSAGE[bool(self.little_endian)].pack(
                GIOP_MAGIC, *self.version, 1 if self.little_endian else 0,
                self.message_type, self.message_size)
        except struct.error as exc:
            raise MarshalError(f"cannot CDR-encode {self!r}: {exc}") from exc

    @classmethod
    def decode(cls, data):
        return cls(*read_message_header(data))


@dataclass
class RequestHeader:
    """GIOP 1.0 RequestHeader."""

    request_id: int
    object_key: bytes
    operation: str
    response_expected: bool = True
    service_context: list = field(default_factory=list)
    requesting_principal: bytes = b""

    def encode(self, encoder):
        write_request_header(
            encoder, self.request_id, self.object_key, self.operation,
            self.response_expected, self.service_context,
            self.requesting_principal)

    @classmethod
    def decode(cls, decoder):
        header = cls(*read_request_header(decoder))
        header.object_key = bytes(header.object_key)
        header.requesting_principal = bytes(header.requesting_principal)
        return header


@dataclass
class ReplyHeader:
    """GIOP 1.0 ReplyHeader."""

    request_id: int
    reply_status: int
    service_context: list = field(default_factory=list)

    def encode(self, encoder):
        write_reply_header(encoder, self.request_id, self.reply_status,
                           self.service_context)

    @classmethod
    def decode(cls, decoder):
        return cls(*read_reply_header(decoder))


@dataclass
class LocateRequestHeader:
    request_id: int
    object_key: bytes

    def encode(self, encoder):
        encoder.ulong(self.request_id)
        encoder.octets(self.object_key)

    @classmethod
    def decode(cls, decoder):
        return cls(request_id=decoder.ulong(), object_key=decoder.octets())


@dataclass
class LocateReplyHeader:
    request_id: int
    locate_status: int

    def encode(self, encoder):
        encoder.ulong(self.request_id)
        encoder.ulong(self.locate_status)

    @classmethod
    def decode(cls, decoder):
        header = cls(request_id=decoder.ulong(), locate_status=decoder.ulong())
        if header.locate_status > LOCATE_OBJECT_FORWARD:
            raise ProtocolError(f"unknown locate status {header.locate_status}")
        return header


def frame_message(message_type, body, little_endian=True):
    """A complete GIOP message as contiguous bytes.

    Convenience for tests and cold paths; the hot emitters reserve a
    header gap in a pooled buffer and :func:`fill_giop_header` it in
    place instead of paying this join.
    """
    framed = bytearray(GIOP_HEADER_SIZE)
    framed += body
    fill_giop_header(framed, message_type, little_endian=little_endian)
    return bytes(framed)
