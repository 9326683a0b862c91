"""GIOP 1.0 message formats.

Every GIOP message starts with the 12-byte message header::

    char[4] magic = "GIOP"
    octet   version_major, version_minor   (1, 0)
    octet   byte_order                     (1 = little endian)
    octet   message_type
    ulong   message_size                   (bytes following the header)

Request and Reply headers follow the OMG 1.0 layout, including the
service-context sequence and (for requests) the requesting principal.
"""

import struct
from dataclasses import dataclass, field

from repro.giop.cdr import CdrDecoder, CdrEncoder
from repro.model.errors import ProtocolError

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


@dataclass
class MessageHeader:
    message_type: int
    message_size: int
    little_endian: bool = True
    version: tuple = (1, 0)

    def encode(self):
        encoder = CdrEncoder(little_endian=self.little_endian)
        encoder.raw(GIOP_MAGIC)
        encoder.octet(self.version[0])
        encoder.octet(self.version[1])
        encoder.octet(1 if self.little_endian else 0)
        encoder.octet(self.message_type)
        encoder.ulong(self.message_size)
        return encoder.data()

    @classmethod
    def decode(cls, data):
        if len(data) < GIOP_HEADER_SIZE:
            raise ProtocolError("short GIOP header")
        if bytes(data[:4]) != GIOP_MAGIC:
            raise ProtocolError(f"bad GIOP magic {bytes(data[:4])!r}")
        major, minor = data[4], data[5]
        if (major, minor) != (1, 0):
            raise ProtocolError(f"unsupported GIOP version {major}.{minor}")
        little_endian = data[6] == 1
        message_type = data[7]
        if message_type > MSG_MESSAGE_ERROR:
            raise ProtocolError(f"unknown GIOP message type {message_type}")
        decoder = CdrDecoder(data[8:12], little_endian=little_endian)
        message_size = decoder.ulong()
        return cls(
            message_type=message_type,
            message_size=message_size,
            little_endian=little_endian,
            version=(major, minor),
        )


@dataclass
class ServiceContext:
    context_id: int
    context_data: bytes = b""


def _encode_service_contexts(encoder, contexts):
    encoder.ulong(len(contexts))
    for context in contexts:
        encoder.ulong(context.context_id)
        encoder.octets(context.context_data)


def _decode_service_contexts(decoder):
    count = decoder.ulong()
    if count > 1024:
        raise ProtocolError(f"implausible service-context count {count}")
    return [
        ServiceContext(context_id=decoder.ulong(), context_data=decoder.octets())
        for _ in range(count)
    ]


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
        _encode_service_contexts(encoder, self.service_context)
        encoder.ulong(self.request_id)
        encoder.boolean(self.response_expected)
        encoder.octets(self.object_key)
        encoder.string(self.operation)
        encoder.octets(self.requesting_principal)

    @classmethod
    def decode(cls, decoder):
        service_context = _decode_service_contexts(decoder)
        return cls(
            service_context=service_context,
            request_id=decoder.ulong(),
            response_expected=decoder.boolean(),
            object_key=decoder.octets(),
            operation=decoder.string(),
            requesting_principal=decoder.octets(),
        )


@dataclass
class ReplyHeader:
    """GIOP 1.0 ReplyHeader."""

    request_id: int
    reply_status: int
    service_context: list = field(default_factory=list)

    def encode(self, encoder):
        _encode_service_contexts(encoder, self.service_context)
        encoder.ulong(self.request_id)
        encoder.ulong(self.reply_status)

    @classmethod
    def decode(cls, decoder):
        service_context = _decode_service_contexts(decoder)
        request_id = decoder.ulong()
        reply_status = decoder.ulong()
        if reply_status > REPLY_LOCATION_FORWARD:
            raise ProtocolError(f"unknown reply status {reply_status}")
        return cls(
            service_context=service_context,
            request_id=request_id,
            reply_status=reply_status,
        )


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


def fill_giop_header(buffer, message_type, little_endian=True):
    """Patch the 12-byte GIOP header into *buffer*'s reserved gap.

    *buffer* is a mutable frame whose first :data:`GIOP_HEADER_SIZE`
    bytes were left as a gap while the body was marshalled behind
    them; the message size is whatever follows the gap.
    """
    struct.pack_into(
        "<4sBBBBI" if little_endian else ">4sBBBBI", buffer, 0,
        GIOP_MAGIC, 1, 0, 1 if little_endian else 0, message_type,
        len(buffer) - GIOP_HEADER_SIZE,
    )
