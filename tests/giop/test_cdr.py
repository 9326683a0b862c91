"""Tests for CDR encoding: alignment, byte orders, round-trip properties."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.giop.cdr import CdrDecoder, CdrEncoder, CdrRecorder
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

    def test_float_overflow_is_a_marshal_error(self):
        """struct raises OverflowError, not struct.error, for this."""
        with pytest.raises(MarshalError, match="cannot CDR-encode 1e\\+300"):
            CdrEncoder().float(1e300)

    @pytest.mark.parametrize("put, text", [
        (CdrEncoder.char, "\u20ac"),      # beyond CDR's 8-bit char
        (CdrEncoder.string, "\ud800"),    # a lone surrogate
        (CdrEncoder.put_objref, "@\udfff"),
    ])
    def test_unencodable_text_is_a_marshal_error(self, put, text):
        with pytest.raises(MarshalError, match="cannot be encoded"):
            put(CdrEncoder(), text)


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


# -- the Marshaller/Unmarshaller surface, recorded and direct ---------------

_REF = "@tcp:h:1#1#IDL:X:1.0"
_MEMBERS = ("Start", "Stop", "Pause")

#: put name → (values, the plain primitive writing one, the get
#: reading it back).  Only put_enum/put_objref are not the primitive
#: under another name.
_SURFACE = {
    "put_boolean": (st.booleans(), CdrEncoder.boolean,
                    CdrDecoder.get_boolean),
    "put_octet": (st.integers(0, 255), CdrEncoder.octet,
                  CdrDecoder.get_octet),
    "put_char": (st.characters(max_codepoint=0xFF), CdrEncoder.char,
                 CdrDecoder.get_char),
    "put_short": (st.integers(-(2**15), 2**15 - 1), CdrEncoder.short,
                  CdrDecoder.get_short),
    "put_ushort": (st.integers(0, 2**16 - 1), CdrEncoder.ushort,
                   CdrDecoder.get_ushort),
    "put_long": (st.integers(-(2**31), 2**31 - 1), CdrEncoder.long,
                 CdrDecoder.get_long),
    "put_ulong": (st.integers(0, 2**32 - 1), CdrEncoder.ulong,
                  CdrDecoder.get_ulong),
    "put_longlong": (st.integers(-(2**63), 2**63 - 1), CdrEncoder.longlong,
                     CdrDecoder.get_longlong),
    "put_ulonglong": (st.integers(0, 2**64 - 1), CdrEncoder.ulonglong,
                      CdrDecoder.get_ulonglong),
    "put_float": (st.floats(width=32, allow_nan=False), CdrEncoder.float,
                  CdrDecoder.get_float),
    "put_double": (st.floats(allow_nan=False), CdrEncoder.double,
                   CdrDecoder.get_double),
    "put_string": (st.text(max_size=20), CdrEncoder.string,
                   CdrDecoder.get_string),
    "put_enum": (st.sampled_from(range(len(_MEMBERS))), CdrEncoder.ulong,
                 lambda d: d.get_enum(_MEMBERS)),
    "put_objref": (st.sampled_from((None, _REF)),
                   lambda e, v: e.string(v or ""),
                   CdrDecoder.get_objref),
}

_typed_put = st.sampled_from(sorted(_SURFACE)).flatmap(
    lambda name: _SURFACE[name][0].map(lambda value: (name, value)))

#: A flat run of puts, or a begin/end-bracketed (possibly nested) one.
_put_runs = st.recursive(
    st.lists(_typed_put, max_size=6),
    lambda inner: st.tuples(inner, inner).map(
        lambda pair: [("begin", "s"), *pair[0], ("end", None), *pair[1]]),
    max_leaves=4,
)


def _apply(marshaller, puts):
    for name, value in puts:
        if name == "begin":
            marshaller.begin(value)
        elif name == "end":
            marshaller.end()
        elif name == "put_enum":
            marshaller.put_enum(_MEMBERS[value], value)
        else:
            getattr(marshaller, name)(value)


@given(puts=_put_runs, little_endian=st.booleans())
@settings(max_examples=60, deadline=None)
def test_recorded_puts_replay_as_plain_primitives(puts, little_endian):
    """A recorder replayed behind a header of any length, and the
    encoder's own put_* surface, both write exactly what the plain
    primitives write at that alignment; the decoder's get_* surface
    reads it back and stops exactly at the end."""
    recorder = CdrRecorder()
    _apply(recorder, puts)
    values = [(name, value) for name, value in puts
              if name not in ("begin", "end")]
    for header in range(17):
        plain = CdrEncoder(little_endian, start_align=header)
        for name, value in values:
            _SURFACE[name][1](plain, value)
        body = plain.data()

        behind = CdrEncoder(little_endian, buffer=bytearray(header))
        recorder.replay(behind)
        assert behind.data()[header:] == body
        direct = CdrEncoder(little_endian, start_align=header)
        _apply(direct, puts)
        assert direct.payload() == body
        if header == 0 and little_endian:
            assert recorder.payload() == body  # the standalone encode

        decoder = CdrDecoder(body, little_endian, start_align=header)
        decoder.begin("s")
        for name, value in values:
            assert not decoder.at_end()
            assert _SURFACE[name][2](decoder) == value
        decoder.end()
        assert decoder.at_end()

        if body:
            short = CdrDecoder(body[:-1], little_endian, start_align=header)
            with pytest.raises(MarshalError):
                for name, _ in values:
                    _SURFACE[name][2](short)


def test_get_enum_out_of_range():
    encoder = CdrEncoder()
    encoder.put_enum("Pause", 2)
    with pytest.raises(MarshalError, match="out of range"):
        CdrDecoder(encoder.payload()).get_enum(_MEMBERS[:2])
