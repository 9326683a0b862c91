"""Common Data Representation (CDR) encoding.

CDR is CORBA's on-the-wire data format: primitive types are aligned to
their natural boundary *measured from the start of the enclosing
message*, and either byte order is legal (the sender's is flagged in the
message header; the receiver swaps if needed).

``start_align`` exists because GIOP alignment is relative to the start
of the whole message: a body encoder that begins 12 bytes in (after the
GIOP message header) is created with ``start_align=12`` so an 8-byte
double still lands on a true 8-byte boundary.

Encapsulations (used by IORs and tagged profiles) are byte sequences
whose first octet is their own byte-order flag and whose alignment
restarts at zero — see :meth:`CdrEncoder.encapsulation` and
:meth:`CdrDecoder.from_encapsulation`.

The encoder and decoder *are* the CDR :class:`Marshaller` and
:class:`Unmarshaller`: each ``put_*``/``get_*`` is the primitive under
its interface name.  Enums travel as unsigned longs (their index),
object references as strings (nil is the empty string — a CORBA string
always carries its NUL, so that is unambiguous), and ``begin``/``end``
write nothing: CDR composites have no framing.  :class:`CdrRecorder` is
the marshaller a GIOP stub fills, because the alignment of its values
is not known until the header in front of them is.
"""

import struct

from repro.model.errors import MarshalError
from repro.model.marshal import Marshaller, Unmarshaller

LITTLE_ENDIAN = 1
BIG_ENDIAN = 0


#: One precompiled ``Struct`` per primitive and byte order, indexed by
#: the little-endian flag, instead of a format string assembled and
#: looked up on every value.  Every CDR primitive aligns to its own
#: size, so the layout's size is also its boundary.
_LAYOUTS = tuple({code: struct.Struct(order + code) for code in "BhHiIqQfd"}
                 for order in "><")


def utf8(raw, what):
    """Bytes-like *raw* as text.  Invalid UTF-8 is malformed input like
    any other, so it is a :class:`MarshalError` — which the wire machine
    turns into a violation — never a ``UnicodeDecodeError``."""
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise MarshalError(f"CDR {what} is not valid UTF-8: {exc}") from None


def _encoded(text, encoding, what):
    """*text* as bytes; the encode-side mirror of :func:`utf8`."""
    try:
        return text.encode(encoding)
    except UnicodeEncodeError as exc:
        raise MarshalError(
            f"CDR {what} {text!r} cannot be encoded: {exc}") from None


class CdrEncoder(Marshaller):
    """Appends CDR-encoded values to a growing buffer.

    *buffer* lets an emitter lease the backing ``bytearray`` from a
    send pool (and reserve a frame-header gap in it before the first
    CDR write) instead of allocating per message; alignment counts the
    pre-filled bytes, so a 12-byte gap with ``start_align=0`` aligns
    exactly like an empty buffer with ``start_align=12``.
    """

    def __init__(self, little_endian=True, start_align=0, buffer=None):
        self.little_endian = bool(little_endian)
        self._layouts = _LAYOUTS[self.little_endian]
        self._start = start_align
        self._data = bytearray() if buffer is None else buffer

    def _pack(self, code, value):
        """Append *value*, zero-padded up to its boundary."""
        layout = self._layouts[code]
        try:
            packed = layout.pack(value)
        except (struct.error, OverflowError) as exc:
            raise MarshalError(f"cannot CDR-encode {value!r}: {exc}") from exc
        padding = -(self._start + len(self._data)) & (layout.size - 1)
        if padding:
            self._data += bytes(padding)
        self._data += packed

    # -- primitives ------------------------------------------------------

    def octet(self, value):
        self._pack("B", value)

    def boolean(self, value):
        self._pack("B", 1 if value else 0)

    def char(self, value):
        if not isinstance(value, str) or len(value) != 1:
            raise MarshalError(f"char must be one character, got {value!r}")
        self._pack("B", _encoded(value, "latin-1", "char")[0])

    def short(self, value):
        self._pack("h", value)

    def ushort(self, value):
        self._pack("H", value)

    def long(self, value):
        self._pack("i", value)

    def ulong(self, value):
        self._pack("I", value)

    def longlong(self, value):
        self._pack("q", value)

    def ulonglong(self, value):
        self._pack("Q", value)

    def float(self, value):
        self._pack("f", value)

    def double(self, value):
        self._pack("d", value)

    def string(self, value):
        """CORBA string: ulong length including NUL, bytes, NUL."""
        if not isinstance(value, str):
            raise MarshalError(f"expected a string, got {value!r}")
        encoded = _encoded(value, "utf-8", "string")
        self._pack("I", len(encoded) + 1)
        self._data += encoded
        self._data.append(0)

    def octets(self, value):
        """sequence<octet>: ulong count then raw bytes."""
        self._pack("I", len(value))
        self._data += value

    def raw(self, value):
        """Raw bytes with no length prefix (pre-encoded material)."""
        self._data += value

    # -- the Marshaller surface ---------------------------------------------

    put_octet = octet
    put_boolean = boolean
    put_char = char
    put_short = short
    put_ushort = ushort
    put_long = long
    put_ulong = ulong
    put_longlong = longlong
    put_ulonglong = ulonglong
    put_float = float
    put_double = double
    put_string = string

    def put_enum(self, name, index):
        self._pack("I", index)

    def put_objref(self, stringified):
        self.string(stringified or "")

    def begin(self, name=""):
        pass

    def end(self):
        pass

    # -- output -------------------------------------------------------------

    def data(self):
        return bytes(self._data)

    payload = data

    def encapsulation(self):
        """This buffer as an encapsulation body (with byte-order octet).

        Call on a *fresh* encoder whose first write was made after
        construction with ``start_align=1`` — use
        :meth:`new_encapsulation` which arranges this.
        """
        flag = bytes([LITTLE_ENDIAN if self.little_endian else BIG_ENDIAN])
        return flag + bytes(self._data)

    @classmethod
    def new_encapsulation(cls, little_endian=True):
        """An encoder whose alignment accounts for the byte-order octet."""
        return cls(little_endian=little_endian, start_align=1)


def _recorded(put, exact):
    """The :class:`CdrRecorder` method recording ``(put, value)``.

    Interned frames are found by ``==``, which is coarser than the
    bytes: ``1 == 1.0 == True`` though only integers pack as a long,
    and ``0.0 == -0.0`` though their sign bits differ.  A value that is
    not of the *exact* type, or a zero real, leaves the puts
    uninternable; what remains is immutable and equal only to itself.
    """
    if exact is float:
        def record(self, value):
            if type(value) is not float or not value:
                self._internable = False
            self._puts.append((put, value))
    else:
        def record(self, value):
            if type(value) is not exact:
                self._internable = False
            self._puts.append((put, value))
    return record


class CdrRecorder(Marshaller):
    """Records typed puts, to be replayed behind a GIOP header.

    GIOP alignment counts from the start of the message and the
    Request/Reply header length varies (object key, operation name), so
    a stub's values cannot be packed until the header is written.  The
    stub fills this recorder with ``(CdrEncoder primitive, value)``
    pairs; the emitter replays them into the frame's own encoder — or,
    when :meth:`key` finds the frame interned, packs nothing at all.
    Values are judged at replay: a bad one raises at send time.
    """

    __slots__ = ("_puts", "_internable")

    def __init__(self):
        self._puts = []
        self._internable = True

    put_octet = _recorded(CdrEncoder.octet, int)
    put_char = _recorded(CdrEncoder.char, str)
    put_short = _recorded(CdrEncoder.short, int)
    put_ushort = _recorded(CdrEncoder.ushort, int)
    put_long = _recorded(CdrEncoder.long, int)
    put_ulong = _recorded(CdrEncoder.ulong, int)
    put_longlong = _recorded(CdrEncoder.longlong, int)
    put_ulonglong = _recorded(CdrEncoder.ulonglong, int)
    put_float = _recorded(CdrEncoder.float, float)
    put_double = _recorded(CdrEncoder.double, float)
    put_string = _recorded(CdrEncoder.string, str)

    def put_boolean(self, value):
        self._puts.append((CdrEncoder.octet, 1 if value else 0))

    def put_enum(self, name, index):
        self.put_ulong(index)

    def put_objref(self, stringified):
        self.put_string(stringified or "")

    def begin(self, name=""):
        pass  # nothing to record: framing-free composites add no bytes

    def end(self):
        pass

    def replay(self, encoder):
        for put, value in self._puts:
            put(encoder, value)

    def key(self, *shape):
        """The intern key of the frame these puts make behind the
        header fields *shape*, or ``None`` when it cannot be interned.
        Equal keys mean byte-identical frames (see :func:`_recorded`),
        and the tuple is a snapshot: puts made after the emit cannot
        reach the cached frame."""
        if self._internable:
            return (*shape, tuple(self._puts))
        return None

    def payload(self):
        """The puts encoded standalone (sizing; no header, align 0)."""
        encoder = CdrEncoder()
        self.replay(encoder)
        return encoder.data()


class CdrDecoder(Unmarshaller):
    """Pulls CDR-encoded values off a byte buffer."""

    def __init__(self, data, little_endian=True, start_align=0):
        # Zero-copy: decode straight out of whatever buffer the caller
        # holds (a wire machine's consume view, a recv buffer slice).
        # The caller guarantees the bytes behind the view are stable
        # for the decoder's lifetime — receive buffers reallocate
        # instead of resizing while views are outstanding.
        self._data = (data if isinstance(data, memoryview)
                      else memoryview(data))
        self.little_endian = bool(little_endian)
        self._layouts = _LAYOUTS[self.little_endian]
        self._start = start_align
        self._pos = 0

    @classmethod
    def from_encapsulation(cls, data):
        """Decode an encapsulation: first octet is the byte-order flag."""
        if not data:
            raise MarshalError("empty encapsulation")
        return cls(data[1:], little_endian=(data[0] == LITTLE_ENDIAN),
                   start_align=1)

    def _unpack(self, code, what):
        layout = self._layouts[code]
        pos = self._pos
        pos += -(self._start + pos) & (layout.size - 1)
        self._pos = end = pos + layout.size
        if end > len(self._data):
            raise MarshalError(f"CDR buffer exhausted while reading {what}")
        return layout.unpack_from(self._data, pos)[0]

    def _counted(self, what):
        """The bytes behind a ulong count, as a view (no copy)."""
        count = self._unpack("I", what)
        pos = self._pos
        self._pos = end = pos + count
        if end > len(self._data):
            raise MarshalError(f"CDR buffer exhausted while reading {what}")
        return self._data[pos:end]

    # -- primitives -------------------------------------------------------------

    def octet(self):
        return self._unpack("B", "octet")

    def boolean(self):
        return self._unpack("B", "boolean") != 0

    def char(self):
        return chr(self._unpack("B", "char"))

    def short(self):
        return self._unpack("h", "short")

    def ushort(self):
        return self._unpack("H", "unsigned short")

    def long(self):
        return self._unpack("i", "long")

    def ulong(self):
        return self._unpack("I", "unsigned long")

    def longlong(self):
        return self._unpack("q", "long long")

    def ulonglong(self):
        return self._unpack("Q", "unsigned long long")

    def float(self):
        return self._unpack("f", "float")

    def double(self):
        return self._unpack("d", "double")

    def string(self):
        raw = self._counted("string")
        if not raw:
            raise MarshalError("CORBA string length must include the NUL")
        if raw[-1] != 0:
            raise MarshalError("CORBA string is not NUL-terminated")
        return utf8(raw[:-1], "string")

    def octets(self):
        return bytes(self._counted("octets"))

    # -- the Unmarshaller surface ---------------------------------------------

    get_octet = octet
    get_boolean = boolean
    get_char = char
    get_short = short
    get_ushort = ushort
    get_long = long
    get_ulong = ulong
    get_longlong = longlong
    get_ulonglong = ulonglong
    get_float = float
    get_double = double
    get_string = string

    def get_enum(self, members):
        index = self._unpack("I", "enum")
        if index >= len(members):
            raise MarshalError(
                f"enum index {index} out of range for {tuple(members)}")
        return index

    def get_objref(self):
        return self.string() or None

    def begin(self, name=""):
        pass

    def end(self):
        pass

    # -- position -------------------------------------------------------------------

    def at_end(self):
        return self._pos >= len(self._data)

    def remaining(self):
        return len(self._data) - self._pos
