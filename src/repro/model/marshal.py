"""Abstract marshalling interface shared by all wire protocols.

A :class:`Marshaller` turns typed values into a payload; an
:class:`Unmarshaller` pulls typed values back out.  The ``Call`` object
(paper, Fig. 4) exposes exactly this surface — "functions for marshaling
and unmarshaling all primitive data types, as well as additional begin
and end functions that permit structuring of the call request so that
such composite data types as structs or sequences can be easily
represented".

One class per encoding implements each interface: the
newline-terminated text format's ``TextMarshaller`` /
``TextUnmarshaller`` (:mod:`repro.wire.textwire`) and CDR's
``CdrEncoder`` / ``CdrDecoder`` (:mod:`repro.giop.cdr`).  GIOP stubs
fill a third marshaller, ``CdrRecorder``, which packs nothing itself:
CDR aligns from the start of the message, so its values are replayed
into a ``CdrEncoder`` once the header in front of them is written.
"""

from repro.model.errors import MarshalError


class Marshaller:
    """Typed put-interface; subclasses encode into their wire format."""

    __slots__ = ()

    def put_boolean(self, value):
        raise NotImplementedError

    def put_octet(self, value):
        raise NotImplementedError

    def put_char(self, value):
        raise NotImplementedError

    def put_short(self, value):
        raise NotImplementedError

    def put_ushort(self, value):
        raise NotImplementedError

    def put_long(self, value):
        raise NotImplementedError

    def put_ulong(self, value):
        raise NotImplementedError

    def put_longlong(self, value):
        raise NotImplementedError

    def put_ulonglong(self, value):
        raise NotImplementedError

    def put_float(self, value):
        raise NotImplementedError

    def put_double(self, value):
        raise NotImplementedError

    def put_string(self, value):
        raise NotImplementedError

    def put_enum(self, name, index):
        """Enums carry both spellings: text writes *name*, CDR *index*."""
        raise NotImplementedError

    def put_objref(self, stringified):
        """A stringified object reference, or None for nil."""
        raise NotImplementedError

    def begin(self, name=""):
        """Open a composite value (struct/sequence/exception)."""
        raise NotImplementedError

    def end(self):
        """Close the innermost composite value."""
        raise NotImplementedError

    def payload(self):
        """The encoded payload bytes."""
        raise NotImplementedError

    def replay(self, encoder):
        """Re-apply the puts to *encoder*.  Only a marshaller that
        records them can, so an emitter that replays (GIOP) refuses
        any other with a typed error."""
        raise MarshalError(f"{type(self).__name__} does not record its puts")

    def key(self, *shape):
        """A recorder's intern key for its frame behind the header
        fields *shape*; ``None`` — build it — from anything else."""
        return None


class Unmarshaller:
    """Typed get-interface matching :class:`Marshaller`."""

    __slots__ = ()

    def get_boolean(self):
        raise NotImplementedError

    def get_octet(self):
        raise NotImplementedError

    def get_char(self):
        raise NotImplementedError

    def get_short(self):
        raise NotImplementedError

    def get_ushort(self):
        raise NotImplementedError

    def get_long(self):
        raise NotImplementedError

    def get_ulong(self):
        raise NotImplementedError

    def get_longlong(self):
        raise NotImplementedError

    def get_ulonglong(self):
        raise NotImplementedError

    def get_float(self):
        raise NotImplementedError

    def get_double(self):
        raise NotImplementedError

    def get_string(self):
        raise NotImplementedError

    def get_enum(self, members):
        """Return the enum *index*; *members* is the name tuple."""
        raise NotImplementedError

    def get_objref(self):
        """A stringified reference or None for nil."""
        raise NotImplementedError

    def begin(self, name=""):
        raise NotImplementedError

    def end(self):
        raise NotImplementedError

    def at_end(self):
        """True when the payload is exhausted (used for optional data)."""
        raise NotImplementedError
