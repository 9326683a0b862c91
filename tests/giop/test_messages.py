"""Tests for GIOP 1.0 message headers and framing."""

import pytest

from repro.giop.cdr import CdrDecoder, CdrEncoder
from repro.giop.messages import (
    GIOP_HEADER_SIZE,
    LOCATE_OBJECT_HERE,
    MSG_CLOSE_CONNECTION,
    MSG_REPLY,
    MSG_REQUEST,
    REPLY_NO_EXCEPTION,
    LocateReplyHeader,
    LocateRequestHeader,
    MessageHeader,
    ReplyHeader,
    RequestHeader,
    ServiceContext,
    frame_message,
)
from repro.model.errors import ProtocolError


class TestMessageHeader:
    def test_encode_layout(self):
        header = MessageHeader(message_type=MSG_REQUEST, message_size=20)
        data = header.encode()
        assert len(data) == GIOP_HEADER_SIZE
        assert data[:4] == b"GIOP"
        assert data[4:6] == b"\x01\x00"  # version 1.0
        assert data[6] == 1  # little endian
        assert data[7] == MSG_REQUEST

    def test_roundtrip(self):
        header = MessageHeader(message_type=MSG_REPLY, message_size=123,
                               little_endian=False)
        decoded = MessageHeader.decode(header.encode())
        assert decoded == header

    def test_bad_magic_rejected(self):
        data = b"JUNK" + bytes(8)
        with pytest.raises(ProtocolError, match="magic"):
            MessageHeader.decode(data)

    def test_bad_version_rejected(self):
        data = b"GIOP\x02\x00\x01\x00" + bytes(4)
        with pytest.raises(ProtocolError, match="version"):
            MessageHeader.decode(data)

    def test_unknown_message_type_rejected(self):
        data = b"GIOP\x01\x00\x01\x09" + bytes(4)
        with pytest.raises(ProtocolError, match="message type"):
            MessageHeader.decode(data)

    def test_short_header_rejected(self):
        with pytest.raises(ProtocolError, match="short"):
            MessageHeader.decode(b"GIOP")


class TestRequestHeader:
    def test_roundtrip(self):
        header = RequestHeader(
            request_id=7,
            object_key=b"#9876#",
            operation="f",
            response_expected=True,
            service_context=[ServiceContext(context_id=1, context_data=b"x")],
            requesting_principal=b"user",
        )
        encoder = CdrEncoder(start_align=GIOP_HEADER_SIZE)
        header.encode(encoder)
        decoder = CdrDecoder(encoder.data(), start_align=GIOP_HEADER_SIZE)
        decoded = RequestHeader.decode(decoder)
        assert decoded == header

    def test_oneway_flag(self):
        header = RequestHeader(request_id=1, object_key=b"k", operation="fire",
                               response_expected=False)
        encoder = CdrEncoder()
        header.encode(encoder)
        decoded = RequestHeader.decode(CdrDecoder(encoder.data()))
        assert decoded.response_expected is False

    def test_implausible_context_count_rejected(self):
        encoder = CdrEncoder()
        encoder.ulong(10_000_000)
        with pytest.raises(ProtocolError):
            RequestHeader.decode(CdrDecoder(encoder.data()))


class TestReplyHeader:
    def test_roundtrip(self):
        header = ReplyHeader(request_id=3, reply_status=REPLY_NO_EXCEPTION)
        encoder = CdrEncoder()
        header.encode(encoder)
        assert ReplyHeader.decode(CdrDecoder(encoder.data())) == header

    def test_unknown_status_rejected(self):
        encoder = CdrEncoder()
        encoder.ulong(0)   # empty service context
        encoder.ulong(1)   # request id
        encoder.ulong(9)   # bogus status
        with pytest.raises(ProtocolError):
            ReplyHeader.decode(CdrDecoder(encoder.data()))


class TestLocateMessages:
    def test_locate_request_roundtrip(self):
        header = LocateRequestHeader(request_id=5, object_key=b"oid")
        encoder = CdrEncoder()
        header.encode(encoder)
        assert LocateRequestHeader.decode(CdrDecoder(encoder.data())) == header

    def test_locate_reply_roundtrip(self):
        header = LocateReplyHeader(request_id=5,
                                   locate_status=LOCATE_OBJECT_HERE)
        encoder = CdrEncoder()
        header.encode(encoder)
        assert LocateReplyHeader.decode(CdrDecoder(encoder.data())) == header


class TestFraming:
    def test_frame_message(self):
        framed = frame_message(MSG_CLOSE_CONNECTION, b"")
        assert len(framed) == GIOP_HEADER_SIZE
        header = MessageHeader.decode(framed)
        assert header.message_type == MSG_CLOSE_CONNECTION
        assert header.message_size == 0

    def test_frame_with_body(self):
        framed = frame_message(MSG_REQUEST, b"BODYBYTES")
        header = MessageHeader.decode(framed[:GIOP_HEADER_SIZE])
        assert header.message_size == 9
        assert framed[GIOP_HEADER_SIZE:] == b"BODYBYTES"
