"""Interoperable Object References (IORs) with IIOP profiles.

An IOR is CORBA's equivalent of the HeidiRMI stringified reference: a
repository ID plus tagged profiles telling the client how to reach the
object.  The IIOP profile (tag 0) carries version, host, port and the
opaque object key.  ``IOR:`` stringification is the CDR encapsulation of
the struct, hex-encoded — byte-for-byte what a classic ORB prints.

:func:`ior_from_reference` / :func:`reference_from_ior` convert between
IORs and :class:`repro.model.objref.ObjectReference`, with the
HeidiRMI object id travelling in the object key.
"""

import binascii
from dataclasses import dataclass, field

from repro.giop.cdr import CdrDecoder, CdrEncoder
from repro.model.errors import ProtocolError
from repro.model.objref import ObjectReference

TAG_INTERNET_IOP = 0
TAG_MULTIPLE_COMPONENTS = 1


@dataclass
class TaggedProfile:
    tag: int
    profile_data: bytes


@dataclass
class IIOPProfile:
    """The TAG_INTERNET_IOP profile body."""

    host: str
    port: int
    object_key: bytes
    version: tuple = (1, 0)

    def encode(self):
        encoder = CdrEncoder.new_encapsulation()
        encoder.octet(self.version[0])
        encoder.octet(self.version[1])
        encoder.string(self.host)
        encoder.ushort(self.port)
        encoder.octets(self.object_key)
        return encoder.encapsulation()

    @classmethod
    def decode(cls, data):
        decoder = CdrDecoder.from_encapsulation(data)
        major = decoder.octet()
        minor = decoder.octet()
        if major != 1:
            raise ProtocolError(f"unsupported IIOP profile version {major}.{minor}")
        return cls(
            version=(major, minor),
            host=decoder.string(),
            port=decoder.ushort(),
            object_key=decoder.octets(),
        )


@dataclass
class IOR:
    type_id: str
    profiles: list = field(default_factory=list)

    def encode(self):
        """CDR encapsulation of the IOR struct."""
        encoder = CdrEncoder.new_encapsulation()
        encoder.string(self.type_id)
        encoder.ulong(len(self.profiles))
        for profile in self.profiles:
            encoder.ulong(profile.tag)
            encoder.octets(profile.profile_data)
        return encoder.encapsulation()

    @classmethod
    def decode(cls, data):
        decoder = CdrDecoder.from_encapsulation(data)
        type_id = decoder.string()
        count = decoder.ulong()
        if count > 64:
            raise ProtocolError(f"implausible profile count {count}")
        profiles = [
            TaggedProfile(tag=decoder.ulong(), profile_data=decoder.octets())
            for _ in range(count)
        ]
        return cls(type_id=type_id, profiles=profiles)

    def stringify(self):
        return "IOR:" + binascii.hexlify(self.encode()).decode("ascii")

    @classmethod
    def parse(cls, text):
        if not text.startswith("IOR:"):
            raise ProtocolError(f"not an IOR string: {text[:16]!r}...")
        try:
            data = binascii.unhexlify(text[4:])
        except (binascii.Error, ValueError) as exc:
            raise ProtocolError(f"bad IOR hex: {exc}") from exc
        return cls.decode(data)

    def iiop_profile(self):
        """The first decoded IIOP profile, or None."""
        for profile in self.profiles:
            if profile.tag == TAG_INTERNET_IOP:
                return IIOPProfile.decode(profile.profile_data)
        return None


def ior_from_reference(reference):
    """Build an IOR whose IIOP profile encodes a HeidiRMI reference."""
    profile = IIOPProfile(
        host=reference.host,
        port=reference.port,
        object_key=reference.object_id.encode("utf-8"),
    )
    return IOR(
        type_id=reference.type_id,
        profiles=[TaggedProfile(tag=TAG_INTERNET_IOP, profile_data=profile.encode())],
    )


def reference_from_ior(ior, transport="tcp"):
    """Recover a HeidiRMI ObjectReference from an IOR's IIOP profile."""
    profile = ior.iiop_profile()
    if profile is None:
        raise ProtocolError("IOR has no IIOP profile")
    return ObjectReference(
        protocol=transport,
        host=profile.host,
        port=profile.port,
        object_id=profile.object_key.decode("utf-8"),
        type_id=ior.type_id,
    )
