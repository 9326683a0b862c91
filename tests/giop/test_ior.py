"""Tests for IORs and IIOP profiles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.giop.ior import (
    IIOPProfile,
    IOR,
    TAG_INTERNET_IOP,
    TaggedProfile,
    ior_from_reference,
    reference_from_ior,
)
from repro.model.errors import ProtocolError
from repro.model.objref import ObjectReference


class TestIIOPProfile:
    def test_roundtrip(self):
        profile = IIOPProfile(host="galaxy.nec.com", port=1234,
                              object_key=b"9876")
        assert IIOPProfile.decode(profile.encode()) == profile

    def test_unsupported_version_rejected(self):
        profile = IIOPProfile(host="h", port=1, object_key=b"k",
                              version=(2, 0))
        with pytest.raises(ProtocolError):
            IIOPProfile.decode(profile.encode())


class TestIOR:
    def make(self):
        profile = IIOPProfile(host="h", port=2809, object_key=b"key")
        return IOR(
            type_id="IDL:Heidi/A:1.0",
            profiles=[TaggedProfile(TAG_INTERNET_IOP, profile.encode())],
        )

    def test_binary_roundtrip(self):
        ior = self.make()
        assert IOR.decode(ior.encode()) == ior

    def test_stringified_form(self):
        text = self.make().stringify()
        assert text.startswith("IOR:")
        assert all(c in "0123456789abcdef" for c in text[4:])

    def test_stringify_parse_roundtrip(self):
        ior = self.make()
        assert IOR.parse(ior.stringify()) == ior

    def test_iiop_profile_extraction(self):
        profile = self.make().iiop_profile()
        assert profile.host == "h"
        assert profile.port == 2809

    def test_no_iiop_profile(self):
        ior = IOR(type_id="IDL:X:1.0",
                  profiles=[TaggedProfile(tag=99, profile_data=b"")])
        assert ior.iiop_profile() is None

    def test_bad_prefix_rejected(self):
        with pytest.raises(ProtocolError):
            IOR.parse("NOT-AN-IOR")

    def test_bad_hex_rejected(self):
        with pytest.raises(ProtocolError):
            IOR.parse("IOR:zzzz")


class TestReferenceConversion:
    def test_reference_to_ior_and_back(self):
        ref = ObjectReference("tcp", "galaxy.nec.com", 1234, "9876",
                              "IDL:Heidi/A:1.0")
        assert reference_from_ior(ior_from_reference(ref)) == ref

    def test_ior_without_iiop_rejected(self):
        ior = IOR(type_id="IDL:X:1.0", profiles=[])
        with pytest.raises(ProtocolError):
            reference_from_ior(ior)

    @given(
        host=st.from_regex(r"[a-z][a-z0-9.\-]{0,20}", fullmatch=True),
        port=st.integers(1, 65535),
        oid=st.from_regex(r"[A-Za-z0-9\-]{1,10}", fullmatch=True),
        path=st.from_regex(r"[A-Za-z][A-Za-z0-9/]{0,12}", fullmatch=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, host, port, oid, path):
        ref = ObjectReference("tcp", host, port, oid, f"IDL:{path}:1.0")
        ior = IOR.parse(ior_from_reference(ref).stringify())
        assert reference_from_ior(ior) == ref
