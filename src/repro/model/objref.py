"""Stringified object references.

A HeidiRMI object reference has three parts (paper, Section 3.1): the
*bootstrap URL* (a protocol–hostname–port tuple naming a communication
channel to the object's address space), the *object identifier* (unique
within that address space), and the *object type* (a repository ID that
selects the right stub/skeleton).  The canonical stringified form is::

    @tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0
"""

from dataclasses import dataclass, replace
from functools import cached_property

from repro.model.errors import ProtocolError


@dataclass(frozen=True)
class ObjectReference:
    """One remote-object reference; immutable and hashable."""

    protocol: str
    host: str
    port: int
    object_id: str
    type_id: str

    # cached_property stores straight into __dict__, which a frozen
    # dataclass allows; the reference is immutable, so both renderings
    # are computed once — stringify() heads every outgoing call.
    @cached_property
    def _stringified(self):
        return f"@{self.protocol}:{self.host}:{self.port}#{self.object_id}#{self.type_id}"

    def stringify(self):
        """Render the ``@proto:host:port#oid#typeid`` form."""
        return self._stringified

    def __str__(self):
        return self._stringified

    @cached_property
    def bootstrap(self):
        """The (protocol, host, port) channel tuple."""
        return (self.protocol, self.host, self.port)

    def with_type(self, type_id):
        """The same object seen through a different interface type."""
        return replace(self, type_id=type_id)

    @classmethod
    def parse(cls, text):
        """Parse a stringified reference; raises ProtocolError if malformed."""
        if not text or text[0] != "@":
            raise ProtocolError(f"object reference must start with '@': {text!r}")
        pieces = text[1:].split("#", 2)
        if len(pieces) != 3:
            raise ProtocolError(
                f"object reference needs url#oid#type parts: {text!r}"
            )
        bootstrap, object_id, type_id = pieces
        url_parts = bootstrap.split(":")
        if len(url_parts) != 3:
            raise ProtocolError(
                f"bootstrap URL must be protocol:host:port: {bootstrap!r}"
            )
        protocol, host, port_text = url_parts
        if not protocol or not host:
            raise ProtocolError(f"empty protocol or host in {text!r}")
        try:
            port = int(port_text)
        except ValueError:
            raise ProtocolError(f"port is not a number in {text!r}") from None
        if not 0 < port < 65536:
            raise ProtocolError(f"port {port} out of range in {text!r}")
        if not object_id:
            raise ProtocolError(f"empty object identifier in {text!r}")
        if not type_id.startswith("IDL:"):
            raise ProtocolError(f"type is not a repository ID in {text!r}")
        return cls(
            protocol=protocol,
            host=host,
            port=port,
            object_id=object_id,
            type_id=type_id,
        )
