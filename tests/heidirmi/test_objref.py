"""Tests for stringified object references, incl. round-trip properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.heidirmi import ObjectReference
from repro.model.errors import ProtocolError

PAPER_REF = "@tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0"


class TestPaperExample:
    def test_parse_paper_reference(self):
        ref = ObjectReference.parse(PAPER_REF)
        assert ref.protocol == "tcp"
        assert ref.host == "galaxy.nec.com"
        assert ref.port == 1234
        assert ref.object_id == "9876"
        assert ref.type_id == "IDL:Heidi/A:1.0"

    def test_stringify_paper_reference(self):
        ref = ObjectReference("tcp", "galaxy.nec.com", 1234, "9876",
                              "IDL:Heidi/A:1.0")
        assert ref.stringify() == PAPER_REF

    def test_bootstrap_tuple(self):
        ref = ObjectReference.parse(PAPER_REF)
        assert ref.bootstrap == ("tcp", "galaxy.nec.com", 1234)

    def test_with_type(self):
        ref = ObjectReference.parse(PAPER_REF).with_type("IDL:Heidi/S:1.0")
        assert ref.type_id == "IDL:Heidi/S:1.0"
        assert ref.object_id == "9876"


class TestValidation:
    @pytest.mark.parametrize("bad", [
        "",
        "tcp:host:1#1#IDL:X:1.0",         # missing @
        "@tcp:host:1#1",                   # missing type part
        "@tcp:host#1#IDL:X:1.0",           # missing port
        "@tcp:host:banana#1#IDL:X:1.0",    # non-numeric port
        "@tcp:host:0#1#IDL:X:1.0",         # port out of range
        "@tcp:host:99999#1#IDL:X:1.0",     # port out of range
        "@tcp:host:1##IDL:X:1.0",          # empty oid
        "@tcp:host:1#1#NotARepoId",        # type not IDL:
        "@:host:1#1#IDL:X:1.0",            # empty protocol
    ])
    def test_malformed_references_rejected(self, bad):
        with pytest.raises(ProtocolError):
            ObjectReference.parse(bad)

    def test_type_id_may_contain_colons_and_hashes_not(self):
        ref = ObjectReference.parse("@inproc:local:9#a-b-c#IDL:M/I:2.1")
        assert ref.object_id == "a-b-c"
        assert ref.type_id == "IDL:M/I:2.1"


class TestEqualityAndHashing:
    def test_references_are_value_objects(self):
        a = ObjectReference.parse(PAPER_REF)
        b = ObjectReference.parse(PAPER_REF)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@given(
    protocol=st.sampled_from(["tcp", "inproc", "ssl"]),
    host=st.from_regex(r"[a-z][a-z0-9.\-]{0,20}", fullmatch=True),
    port=st.integers(1, 65535),
    oid=st.from_regex(r"[A-Za-z0-9\-_.]{1,12}", fullmatch=True),
    path=st.from_regex(r"[A-Za-z][A-Za-z0-9/]{0,16}", fullmatch=True),
    version=st.from_regex(r"[0-9]\.[0-9]", fullmatch=True),
)
@settings(max_examples=100, deadline=None)
def test_stringify_parse_roundtrip(protocol, host, port, oid, path, version):
    ref = ObjectReference(protocol, host, port, oid, f"IDL:{path}:{version}")
    assert ObjectReference.parse(ref.stringify()) == ref
