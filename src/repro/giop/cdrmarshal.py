"""CDR-backed Marshaller/Unmarshaller surfaces.

They sit beside :mod:`repro.giop.cdr` so the sans-I/O GIOP state
machine (:mod:`repro.wire.giop`) and the blocking protocol adapter
(:mod:`repro.heidirmi.iiop`) share them.
"""

from repro.giop.cdr import CdrDecoder, CdrEncoder  # noqa: F401 (re-export)
from repro.model.errors import MarshalError
from repro.model.marshal import Marshaller, Unmarshaller


class CdrMarshaller(Marshaller):
    """Typed put-surface over a CdrEncoder."""

    def __init__(self, start_align=0):
        self._encoder = CdrEncoder(start_align=start_align)

    def put_boolean(self, value):
        self._encoder.boolean(value)

    def put_octet(self, value):
        self._encoder.octet(value)

    def put_char(self, value):
        self._encoder.char(value)

    def put_short(self, value):
        self._encoder.short(value)

    def put_ushort(self, value):
        self._encoder.ushort(value)

    def put_long(self, value):
        self._encoder.long(value)

    def put_ulong(self, value):
        self._encoder.ulong(value)

    def put_longlong(self, value):
        self._encoder.longlong(value)

    def put_ulonglong(self, value):
        self._encoder.ulonglong(value)

    def put_float(self, value):
        self._encoder.float(value)

    def put_double(self, value):
        self._encoder.double(value)

    def put_string(self, value):
        self._encoder.string(value)

    def put_enum(self, name, index):
        # CDR enums are unsigned longs holding the member index.
        self._encoder.ulong(index)

    def put_objref(self, stringified):
        # Nil is the empty string; CORBA strings are never empty on the
        # wire (they carry at least the NUL), so this is unambiguous.
        self._encoder.string(stringified or "")

    def begin(self, name=""):
        pass  # CDR composites have no framing

    def end(self):
        pass

    def payload(self):
        return self._encoder.data()


class CdrUnmarshaller(Unmarshaller):
    """Typed get-surface over a CdrDecoder."""

    def __init__(self, decoder):
        self._decoder = decoder

    def get_boolean(self):
        return self._decoder.boolean()

    def get_octet(self):
        return self._decoder.octet()

    def get_char(self):
        return self._decoder.char()

    def get_short(self):
        return self._decoder.short()

    def get_ushort(self):
        return self._decoder.ushort()

    def get_long(self):
        return self._decoder.long()

    def get_ulong(self):
        return self._decoder.ulong()

    def get_longlong(self):
        return self._decoder.longlong()

    def get_ulonglong(self):
        return self._decoder.ulonglong()

    def get_float(self):
        return self._decoder.float()

    def get_double(self):
        return self._decoder.double()

    def get_string(self):
        return self._decoder.string()

    def get_enum(self, members):
        index = self._decoder.ulong()
        if not 0 <= index < len(members):
            raise MarshalError(f"enum index {index} out of range for {tuple(members)}")
        return index

    def get_objref(self):
        value = self._decoder.string()
        return value or None

    def begin(self, name=""):
        pass

    def end(self):
        pass

    def at_end(self):
        return self._decoder.at_end()


class CdrMarshallerView(CdrMarshaller):
    """A CdrMarshaller writing into an existing encoder (post-header)."""

    def __init__(self, encoder):
        self._encoder = encoder


class BufferedCdrMarshaller(Marshaller):
    """Records typed puts so they can be replayed after the GIOP header.

    GIOP alignment is measured from the start of the message, and the
    request/reply header length varies (operation name, object key), so
    the parameter bytes cannot be encoded at a known alignment until the
    header is written.  Stubs marshal into this recorder; the protocol
    replays the operations into the real encoder right after the header.
    """

    def __init__(self):
        self._operations = []

    def _record(self, method, *args):
        self._operations.append((method, args))

    def put_boolean(self, value):
        self._record("put_boolean", value)

    def put_octet(self, value):
        self._record("put_octet", value)

    def put_char(self, value):
        self._record("put_char", value)

    def put_short(self, value):
        self._record("put_short", value)

    def put_ushort(self, value):
        self._record("put_ushort", value)

    def put_long(self, value):
        self._record("put_long", value)

    def put_ulong(self, value):
        self._record("put_ulong", value)

    def put_longlong(self, value):
        self._record("put_longlong", value)

    def put_ulonglong(self, value):
        self._record("put_ulonglong", value)

    def put_float(self, value):
        self._record("put_float", value)

    def put_double(self, value):
        self._record("put_double", value)

    def put_string(self, value):
        self._record("put_string", value)

    def put_enum(self, name, index):
        self._record("put_enum", name, index)

    def put_objref(self, stringified):
        self._record("put_objref", stringified)

    def begin(self, name=""):
        self._record("begin", name)

    def end(self):
        self._record("end")

    def payload(self):
        # Used only for size-estimation/debug paths; encode standalone.
        target = CdrMarshaller()
        self.replay(target)
        return target.payload()

    def replay(self, marshaller):
        for method, args in self._operations:
            getattr(marshaller, method)(*args)
