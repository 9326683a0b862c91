"""Fuzz robustness: arbitrary bytes must fail *cleanly*, never crash.

Property-based decoding of random input through every wire-facing
parser: CDR, GIOP headers, IORs, text-protocol tokens, object
references.  The only acceptable outcomes are a successful parse or a
typed protocol/marshal error.
"""

from hypothesis import given, settings, strategies as st

from repro.giop.cdr import CdrDecoder
from repro.giop.ior import IOR
from repro.giop.messages import MessageHeader, ReplyHeader, RequestHeader
from repro.model.errors import MarshalError, ProtocolError
from repro.model.objref import ObjectReference
from repro.wire.textwire import TextUnmarshaller, unescape_token

EXPECTED = (MarshalError, ProtocolError)

random_bytes = st.binary(max_size=128)
random_text = st.text(max_size=64)


@given(random_bytes)
@settings(max_examples=200, deadline=None)
def test_cdr_decoder_never_crashes(data):
    decoder = CdrDecoder(data)
    for method in ("octet", "boolean", "short", "ulong", "longlong",
                   "double", "string", "octets"):
        try:
            getattr(CdrDecoder(data), method)()
        except EXPECTED:
            pass
    try:
        while not decoder.at_end():
            decoder.string()
    except EXPECTED:
        pass


@given(random_bytes)
@settings(max_examples=200, deadline=None)
def test_giop_header_decode_never_crashes(data):
    try:
        MessageHeader.decode(data.ljust(12, b"\x00"))
    except EXPECTED:
        pass


@given(random_bytes)
@settings(max_examples=150, deadline=None)
def test_request_header_decode_never_crashes(data):
    try:
        RequestHeader.decode(CdrDecoder(data))
    except EXPECTED:
        pass


@given(random_bytes)
@settings(max_examples=150, deadline=None)
def test_reply_header_decode_never_crashes(data):
    try:
        ReplyHeader.decode(CdrDecoder(data))
    except EXPECTED:
        pass


@given(random_text)
@settings(max_examples=200, deadline=None)
def test_ior_parse_never_crashes(text):
    try:
        IOR.parse("IOR:" + text)
    except EXPECTED:
        pass


@given(random_bytes)
@settings(max_examples=150, deadline=None)
def test_ior_decode_never_crashes(data):
    try:
        IOR.decode(data)
    except EXPECTED:
        pass


@given(random_text)
@settings(max_examples=200, deadline=None)
def test_object_reference_parse_never_crashes(text):
    try:
        ObjectReference.parse(text)
    except EXPECTED:
        pass


@given(st.text(alphabet=st.characters(codec="ascii",
                                      exclude_characters=" \t\r\n"),
               max_size=40))
@settings(max_examples=200, deadline=None)
def test_unescape_token_never_crashes(token):
    try:
        unescape_token(token)
    except EXPECTED:
        pass


@given(st.lists(st.text(alphabet=st.characters(codec="ascii",
                                               exclude_characters=" \t\r\n"),
                        min_size=1, max_size=12),
                max_size=8))
@settings(max_examples=150, deadline=None)
def test_text_unmarshaller_never_crashes(tokens):
    unmarshaller = TextUnmarshaller(tokens)
    for method in ("get_boolean", "get_long", "get_double", "get_string",
                   "get_objref"):
        try:
            getattr(TextUnmarshaller(list(tokens)), method)()
        except EXPECTED:
            pass
    try:
        while not unmarshaller.at_end():
            unmarshaller.get_string()
    except EXPECTED:
        pass
