"""Tests for CDR encoding: alignment, byte orders, round-trip properties."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.giop.cdr import CdrDecoder, CdrEncoder
from repro.model.errors import MarshalError


def roundtrip(write, read, little_endian=True, start_align=0):
    encoder = CdrEncoder(little_endian=little_endian, start_align=start_align)
    write(encoder)
    decoder = CdrDecoder(encoder.data(), little_endian=little_endian,
                         start_align=start_align)
    return read(decoder)


class TestAlignment:
    def test_long_after_octet_is_padded(self):
        encoder = CdrEncoder()
        encoder.octet(1)
        encoder.ulong(2)
        data = encoder.data()
        assert len(data) == 8  # 1 + 3 padding + 4
        assert data[1:4] == b"\x00\x00\x00"

    def test_double_aligned_to_eight(self):
        encoder = CdrEncoder()
        encoder.octet(1)
        encoder.double(1.0)
        assert len(encoder.data()) == 16

    def test_no_padding_when_aligned(self):
        encoder = CdrEncoder()
        encoder.ulong(1)
        encoder.ulong(2)
        assert len(encoder.data()) == 8

    def test_start_align_offsets_alignment(self):
        """A body encoder starting 12 bytes into a GIOP message pads as
        if those 12 bytes were present."""
        encoder = CdrEncoder(start_align=12)
        encoder.double(1.5)  # position 12 → needs 4 bytes padding to 16
        data = encoder.data()
        assert len(data) == 12
        assert data[:4] == b"\x00\x00\x00\x00"
        decoder = CdrDecoder(data, start_align=12)
        assert decoder.double() == 1.5

    def test_short_alignment(self):
        encoder = CdrEncoder()
        encoder.octet(0xAA)
        encoder.short(-2)
        data = encoder.data()
        assert len(data) == 4
        assert data[1] == 0


class TestByteOrder:
    def test_little_endian_layout(self):
        encoder = CdrEncoder(little_endian=True)
        encoder.ulong(1)
        assert encoder.data() == b"\x01\x00\x00\x00"

    def test_big_endian_layout(self):
        encoder = CdrEncoder(little_endian=False)
        encoder.ulong(1)
        assert encoder.data() == b"\x00\x00\x00\x01"

    @pytest.mark.parametrize("little_endian", [True, False])
    def test_roundtrip_both_orders(self, little_endian):
        values = roundtrip(
            lambda e: (e.long(-5), e.double(2.5), e.ushort(7)),
            lambda d: (d.long(), d.double(), d.ushort()),
            little_endian=little_endian,
        )
        assert values == (-5, 2.5, 7)

    def test_cross_order_decode(self):
        """The receiver uses the *sender's* byte order flag."""
        encoder = CdrEncoder(little_endian=False)
        encoder.ulong(0x01020304)
        decoder = CdrDecoder(encoder.data(), little_endian=False)
        assert decoder.ulong() == 0x01020304


class TestStrings:
    def test_corba_string_layout(self):
        encoder = CdrEncoder()
        encoder.string("ab")
        # ulong(3) + "ab" + NUL
        assert encoder.data() == struct.pack("<I", 3) + b"ab\x00"

    def test_empty_string(self):
        assert roundtrip(lambda e: e.string(""), lambda d: d.string()) == ""

    def test_utf8_string(self):
        text = "héllo wörld"
        assert roundtrip(lambda e: e.string(text), lambda d: d.string()) == text

    def test_missing_nul_rejected(self):
        data = struct.pack("<I", 2) + b"ab"  # claims len 2 but no NUL
        with pytest.raises(MarshalError):
            CdrDecoder(data).string()

    def test_zero_length_rejected(self):
        with pytest.raises(MarshalError):
            CdrDecoder(struct.pack("<I", 0)).string()


class TestOctetSequences:
    def test_octets_roundtrip(self):
        payload = bytes(range(10))
        assert roundtrip(lambda e: e.octets(payload),
                         lambda d: d.octets()) == payload

    def test_empty_octets(self):
        assert roundtrip(lambda e: e.octets(b""), lambda d: d.octets()) == b""


class TestEncapsulations:
    def test_encapsulation_roundtrip(self):
        encoder = CdrEncoder.new_encapsulation(little_endian=True)
        encoder.string("inner")
        encoder.ulong(9)
        blob = encoder.encapsulation()
        assert blob[0] == 1  # little-endian flag octet
        decoder = CdrDecoder.from_encapsulation(blob)
        assert decoder.string() == "inner"
        assert decoder.ulong() == 9

    def test_big_endian_encapsulation(self):
        encoder = CdrEncoder.new_encapsulation(little_endian=False)
        encoder.ushort(0x0102)
        decoder = CdrDecoder.from_encapsulation(encoder.encapsulation())
        assert decoder.ushort() == 0x0102

    def test_empty_encapsulation_rejected(self):
        with pytest.raises(MarshalError):
            CdrDecoder.from_encapsulation(b"")


class TestErrors:
    def test_exhausted_buffer(self):
        with pytest.raises(MarshalError):
            CdrDecoder(b"\x01").ulong()

    def test_char_must_be_single(self):
        with pytest.raises(MarshalError):
            CdrEncoder().char("ab")

    def test_out_of_range_pack(self):
        with pytest.raises(MarshalError):
            CdrEncoder().octet(300)


_PRIMS = [
    ("octet", st.integers(0, 255)),
    ("boolean", st.booleans()),
    ("short", st.integers(-(2**15), 2**15 - 1)),
    ("ushort", st.integers(0, 2**16 - 1)),
    ("long", st.integers(-(2**31), 2**31 - 1)),
    ("ulong", st.integers(0, 2**32 - 1)),
    ("longlong", st.integers(-(2**63), 2**63 - 1)),
    ("ulonglong", st.integers(0, 2**64 - 1)),
    ("double", st.floats(allow_nan=False, allow_infinity=False)),
    ("string", st.text(max_size=30)),
]


@given(
    items=st.lists(
        st.sampled_from(range(len(_PRIMS))).flatmap(
            lambda i: _PRIMS[i][1].map(lambda v: (_PRIMS[i][0], v))
        ),
        max_size=15,
    ),
    little_endian=st.booleans(),
    start_align=st.integers(0, 16),
)
@settings(max_examples=120, deadline=None)
def test_mixed_sequence_roundtrip(items, little_endian, start_align):
    encoder = CdrEncoder(little_endian=little_endian, start_align=start_align)
    for method, value in items:
        getattr(encoder, method)(value)
    decoder = CdrDecoder(encoder.data(), little_endian=little_endian,
                         start_align=start_align)
    for method, value in items:
        assert getattr(decoder, method)() == value
    assert decoder.at_end() or decoder.remaining() == 0
