"""Tests for the self-describing ``any`` values."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.heidirmi.anyval import get_any, put_any, tag_of
from repro.model.call import Call
from repro.model.errors import MarshalError
from repro.wire.textwire import TextMarshaller, TextUnmarshaller
from repro.giop.cdr import CdrDecoder, CdrEncoder


def text_roundtrip(value):
    call = Call("@tcp:h:1#1#IDL:X:1.0", "op", marshaller=TextMarshaller())
    put_any(call, value)
    incoming = Call(
        "@tcp:h:1#1#IDL:X:1.0", "op",
        unmarshaller=TextUnmarshaller.from_payload(call.payload()),
    )
    return get_any(incoming)


def cdr_roundtrip(value):
    encoder = CdrEncoder()
    call = Call("@tcp:h:1#1#IDL:X:1.0", "op", marshaller=encoder)
    put_any(call, value)
    incoming = Call("@tcp:h:1#1#IDL:X:1.0", "op",
                    unmarshaller=CdrDecoder(encoder.payload()))
    return get_any(incoming)


class TestTagging:
    @pytest.mark.parametrize("value,tag", [
        (None, "null"),
        (True, "boolean"),
        (0, "long"),
        (2**31, "longlong"),
        (-(2**33), "longlong"),
        (1.5, "double"),
        ("x", "string"),
        ([1, 2], "sequence"),
        ((1, 2), "sequence"),
    ])
    def test_tag_selection(self, value, tag):
        assert tag_of(value) == tag

    def test_bool_is_not_long(self):
        """bool is an int subclass; tagging must check bool first."""
        assert tag_of(True) == "boolean"
        assert text_roundtrip(True) is True
        assert text_roundtrip(False) is False

    def test_oversized_int_rejected(self):
        with pytest.raises(MarshalError):
            tag_of(2**64)

    def test_unsupported_value_rejected(self):
        with pytest.raises(MarshalError, match="no any mapping"):
            tag_of(object())


class TestRoundTrips:
    VALUES = [None, True, False, 0, -1, 2**31 - 1, 2**40, 3.25, "",
              "hello world", [], [1, "two", 3.0], [[None, [True]]]]

    @pytest.mark.parametrize("value", VALUES,
                             ids=[repr(v)[:20] for v in VALUES])
    def test_text(self, value):
        assert text_roundtrip(value) == value

    @pytest.mark.parametrize("value", VALUES,
                             ids=[repr(v)[:20] for v in VALUES])
    def test_cdr(self, value):
        assert cdr_roundtrip(value) == value

    def test_tuple_comes_back_as_list(self):
        assert text_roundtrip((1, 2)) == [1, 2]

    def test_deep_nesting_rejected(self):
        value = []
        for _ in range(40):
            value = [value]
        call = Call("@tcp:h:1#1#IDL:X:1.0", "op", marshaller=TextMarshaller())
        with pytest.raises(MarshalError, match="nesting too deep"):
            put_any(call, value)


ANY_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(_min := -(2**63), 2**63 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda children: st.lists(children, max_size=4),
    max_leaves=15,
)


@given(ANY_VALUES)
@settings(max_examples=100, deadline=None)
def test_any_roundtrip_property_text(value):
    assert text_roundtrip(value) == value


@given(ANY_VALUES)
@settings(max_examples=100, deadline=None)
def test_any_roundtrip_property_cdr(value):
    assert cdr_roundtrip(value) == value
