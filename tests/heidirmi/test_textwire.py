"""Tests for the text wire format, incl. marshalling round-trip properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.errors import MarshalError, ProtocolError
from repro.wire.textwire import (
    TextMarshaller,
    TextUnmarshaller,
    escape_token,
    unescape_token,
)


class TestTokenEscaping:
    def test_plain_text_unchanged(self):
        assert escape_token("hello") == "hello"

    def test_space_escaped(self):
        assert escape_token("a b") == "a%20b"

    def test_newline_escaped(self):
        assert escape_token("a\nb") == "a%0Ab"

    def test_percent_escaped(self):
        assert escape_token("50%") == "50%25"

    def test_empty_string_token(self):
        assert escape_token("") == "%e"
        assert unescape_token("%e") == ""

    def test_token_never_contains_separators(self):
        for ch in (" ", "\n", "\r", "\t"):
            assert ch not in escape_token(f"a{ch}b")

    def test_bad_escape_rejected(self):
        with pytest.raises(ProtocolError):
            unescape_token("%zz")

    def test_truncated_escape_rejected(self):
        with pytest.raises(ProtocolError):
            unescape_token("abc%2")

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_escape_roundtrip(self, text):
        assert unescape_token(escape_token(text)) == text

    @given(st.text(max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_unicode_escape_roundtrip(self, text):
        """Any Unicode text survives the ASCII wire (UTF-8 + %XX)."""
        token = escape_token(text)
        assert token.isascii()
        assert unescape_token(token) == text

    def test_non_ascii_reply_regression(self):
        """Regression: a '\u25ad' return value must not kill the server
        thread (it once died in .encode('ascii') mid-reply)."""
        assert unescape_token(escape_token("\u25ad")) == "\u25ad"


def roundtrip(puts, gets):
    """Marshal with *puts*, split/join as the wire does, unmarshal."""
    marshaller = TextMarshaller()
    puts(marshaller)
    payload = marshaller.payload()
    unmarshaller = TextUnmarshaller.from_payload(payload)
    return gets(unmarshaller)


class TestPrimitives:
    def test_boolean(self):
        assert roundtrip(
            lambda m: (m.put_boolean(True), m.put_boolean(False)),
            lambda u: (u.get_boolean(), u.get_boolean()),
        ) == (True, False)

    def test_integers(self):
        def puts(m):
            m.put_octet(255)
            m.put_short(-32768)
            m.put_long(2**31 - 1)
            m.put_ulonglong(2**64 - 1)

        def gets(u):
            return (u.get_octet(), u.get_short(), u.get_long(), u.get_ulonglong())

        assert roundtrip(puts, gets) == (255, -32768, 2**31 - 1, 2**64 - 1)

    def test_integer_range_checked_on_put(self):
        with pytest.raises(MarshalError):
            TextMarshaller().put_octet(256)
        with pytest.raises(MarshalError):
            TextMarshaller().put_long(2**31)

    def test_integer_range_checked_on_get(self):
        with pytest.raises(MarshalError):
            TextUnmarshaller(["300"]).get_octet()

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(MarshalError):
            TextMarshaller().put_long(True)

    def test_double_roundtrip_exact(self):
        value = 3.141592653589793
        assert roundtrip(lambda m: m.put_double(value),
                         lambda u: u.get_double()) == value

    def test_string_with_spaces(self):
        text = "hello wide  world\nline2"
        assert roundtrip(lambda m: m.put_string(text),
                         lambda u: u.get_string()) == text

    def test_char(self):
        assert roundtrip(lambda m: m.put_char(" "),
                         lambda u: u.get_char()) == " "
        assert roundtrip(lambda m: m.put_char("\xe9"),
                         lambda u: u.get_char()) == "\xe9"

    def test_char_is_eight_bits_as_on_cdr(self):
        with pytest.raises(MarshalError, match="ISO 8859-1"):
            TextMarshaller().put_char("\u20ac")

    @pytest.mark.parametrize("put", ["put_string", "put_objref", "put_enum"])
    def test_unencodable_text_is_a_marshal_error(self, put):
        args = ("\ud800", 0) if put == "put_enum" else ("\ud800",)
        with pytest.raises(MarshalError, match="cannot be encoded"):
            getattr(TextMarshaller(), put)(*args)

    def test_enum_by_name(self):
        members = ("Start", "Stop")
        index = roundtrip(lambda m: m.put_enum("Stop", 1),
                          lambda u: u.get_enum(members))
        assert index == 1

    def test_enum_accepts_numeric_token(self):
        assert TextUnmarshaller(["1"]).get_enum(("A", "B")) == 1

    def test_enum_rejects_unknown_name(self):
        with pytest.raises(MarshalError):
            TextUnmarshaller(["Bogus"]).get_enum(("A", "B"))

    def test_objref_nil(self):
        assert roundtrip(lambda m: m.put_objref(None),
                         lambda u: u.get_objref()) is None

    def test_objref_value(self):
        ref = "@tcp:h:1#2#IDL:X:1.0"
        assert roundtrip(lambda m: m.put_objref(ref),
                         lambda u: u.get_objref()) == ref


class TestStructuring:
    def test_begin_end_roundtrip(self):
        def puts(m):
            m.begin("Point")
            m.put_long(1)
            m.put_long(2)
            m.end()

        def gets(u):
            u.begin("Point")
            values = (u.get_long(), u.get_long())
            u.end()
            return values

        assert roundtrip(puts, gets) == (1, 2)

    def test_unbalanced_begin_rejected_at_payload(self):
        m = TextMarshaller()
        m.begin("x")
        with pytest.raises(MarshalError):
            m.payload()

    def test_end_without_begin_rejected(self):
        with pytest.raises(MarshalError):
            TextMarshaller().end()

    def test_mismatched_markers_on_read(self):
        m = TextMarshaller()
        m.put_long(5)
        u = TextUnmarshaller.from_payload(m.payload())
        with pytest.raises(MarshalError):
            u.begin()

    def test_human_readable_payload(self):
        """The telnet-debugging property: the payload reads naturally."""
        m = TextMarshaller()
        m.put_string("play")
        m.put_long(3)
        m.put_boolean(True)
        assert m.payload() == b"play 3 T"


class TestExhaustion:
    def test_reading_past_end_raises(self):
        u = TextUnmarshaller([])
        with pytest.raises(MarshalError):
            u.get_long()

    def test_at_end(self):
        u = TextUnmarshaller(["1"])
        assert not u.at_end()
        u.get_long()
        assert u.at_end()


@given(st.lists(
    st.one_of(
        st.integers(-(2**31), 2**31 - 1),
        st.text(alphabet=st.characters(codec="ascii"), max_size=20),
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    max_size=12,
))
@settings(max_examples=100, deadline=None)
def test_mixed_payload_roundtrip(values):
    m = TextMarshaller()
    for value in values:
        if isinstance(value, bool):
            m.put_boolean(value)
        elif isinstance(value, int):
            m.put_long(value)
        elif isinstance(value, float):
            m.put_double(value)
        else:
            m.put_string(value)
    u = TextUnmarshaller.from_payload(m.payload())
    for value in values:
        if isinstance(value, bool):
            assert u.get_boolean() is value
        elif isinstance(value, int):
            assert u.get_long() == value
        elif isinstance(value, float):
            assert u.get_double() == value
        else:
            assert u.get_string() == value
    assert u.at_end()
