"""Tests for GIOP 1.0 message headers and framing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.giop.cdr import CdrDecoder, CdrEncoder
from repro.giop.messages import (
    GIOP_HEADER_SIZE,
    LOCATE_OBJECT_HERE,
    MSG_CLOSE_CONNECTION,
    MSG_REPLY,
    MSG_REQUEST,
    REPLY_NO_EXCEPTION,
    REPLY_SYSTEM_EXCEPTION,
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


# ---------------------------------------------------------------------------
# The codec against a field-by-field reference
# ---------------------------------------------------------------------------
#
# The header classes write and read their bytes with precompiled struct
# layouts, in place.  The reference below is the GIOP 1.0 layout spelled
# one CDR primitive at a time; the two must agree byte for byte at every
# alignment, in both byte orders.

ulongs = st.integers(0, (1 << 32) - 1)
contexts = st.lists(
    st.builds(ServiceContext, ulongs, st.binary(max_size=9)), max_size=3)
starts = st.integers(0, 16)


def _reference_contexts(encoder, service_context):
    encoder.ulong(len(service_context))
    for context in service_context:
        encoder.ulong(context.context_id)
        encoder.octets(context.context_data)


def _reference_request(encoder, header):
    _reference_contexts(encoder, header.service_context)
    encoder.ulong(header.request_id)
    encoder.boolean(header.response_expected)
    encoder.octets(header.object_key)
    encoder.string(header.operation)
    encoder.octets(header.requesting_principal)


def _reference_reply(encoder, header):
    _reference_contexts(encoder, header.service_context)
    encoder.ulong(header.request_id)
    encoder.ulong(header.reply_status)


def _check_against(reference, header, little_endian, start_align, lead):
    """Codec bytes == reference bytes; decode gives the header back
    and leaves the decoder on the first byte after it."""
    encoders = [CdrEncoder(little_endian=little_endian,
                           start_align=start_align) for _ in range(2)]
    for encoder in encoders:
        encoder.raw(lead)  # the header need not start aligned
    header.encode(encoders[0])
    reference(encoders[1], header)
    assert encoders[0].data() == encoders[1].data()
    encoders[0].octet(0xAB)
    decoder = CdrDecoder(encoders[0].data(), little_endian=little_endian,
                         start_align=start_align)
    for _ in lead:
        decoder.octet()
    assert type(header).decode(decoder) == header
    assert decoder.octet() == 0xAB
    assert decoder.at_end()


@given(
    header=st.builds(
        RequestHeader, request_id=ulongs,
        object_key=st.binary(max_size=300),
        operation=st.text(st.characters(exclude_categories=("Cs",),
                                        exclude_characters="\x00"),
                          max_size=20),
        response_expected=st.booleans(), service_context=contexts,
        requesting_principal=st.binary(max_size=5)),
    little_endian=st.booleans(), start_align=starts,
    lead=st.binary(max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_request_header_codec_matches_the_reference(
        header, little_endian, start_align, lead):
    _check_against(_reference_request, header, little_endian, start_align,
                   lead)


@given(
    header=st.builds(
        ReplyHeader, request_id=ulongs,
        reply_status=st.integers(0, REPLY_SYSTEM_EXCEPTION + 1),
        service_context=contexts),
    little_endian=st.booleans(), start_align=starts,
    lead=st.binary(max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_reply_header_codec_matches_the_reference(
        header, little_endian, start_align, lead):
    _check_against(_reference_reply, header, little_endian, start_align, lead)


@given(message_type=st.integers(0, 6), message_size=ulongs,
       little_endian=st.booleans())
def test_message_header_codec_matches_the_reference(
        message_type, message_size, little_endian):
    header = MessageHeader(message_type, message_size, little_endian)
    reference = CdrEncoder(little_endian=little_endian)
    reference.raw(b"GIOP")
    for octet in (1, 0, 1 if little_endian else 0, message_type):
        reference.octet(octet)
    reference.ulong(message_size)
    assert header.encode() == reference.data()
    assert MessageHeader.decode(header.encode()) == header
