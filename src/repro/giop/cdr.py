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
"""

import struct

from repro.model.errors import MarshalError

LITTLE_ENDIAN = 1
BIG_ENDIAN = 0


class CdrEncoder:
    """Appends CDR-encoded values to a growing buffer.

    *buffer* lets an emitter lease the backing ``bytearray`` from a
    send pool (and reserve a frame-header gap in it before the first
    CDR write) instead of allocating per message; alignment counts the
    pre-filled bytes, so a 12-byte gap with ``start_align=0`` aligns
    exactly like an empty buffer with ``start_align=12``.
    """

    def __init__(self, little_endian=True, start_align=0, buffer=None):
        self.little_endian = little_endian
        self._prefix = "<" if little_endian else ">"
        self._start = start_align
        self._data = bytearray() if buffer is None else buffer

    def _align(self, boundary):
        position = self._start + len(self._data)
        padding = (-position) % boundary
        self._data.extend(b"\x00" * padding)

    def _pack(self, fmt, value, boundary):
        self._align(boundary)
        try:
            self._data.extend(struct.pack(self._prefix + fmt, value))
        except struct.error as exc:
            raise MarshalError(f"cannot CDR-encode {value!r}: {exc}") from exc

    # -- primitives ------------------------------------------------------

    def octet(self, value):
        self._pack("B", value, 1)

    def boolean(self, value):
        self._pack("B", 1 if value else 0, 1)

    def char(self, value):
        if not isinstance(value, str) or len(value) != 1:
            raise MarshalError(f"char must be one character, got {value!r}")
        encoded = value.encode("latin-1", errors="strict")
        self._pack("B", encoded[0], 1)

    def short(self, value):
        self._pack("h", value, 2)

    def ushort(self, value):
        self._pack("H", value, 2)

    def long(self, value):
        self._pack("i", value, 4)

    def ulong(self, value):
        self._pack("I", value, 4)

    def longlong(self, value):
        self._pack("q", value, 8)

    def ulonglong(self, value):
        self._pack("Q", value, 8)

    def float(self, value):
        self._pack("f", value, 4)

    def double(self, value):
        self._pack("d", value, 8)

    def string(self, value):
        """CORBA string: ulong length including NUL, bytes, NUL."""
        if not isinstance(value, str):
            raise MarshalError(f"expected a string, got {value!r}")
        encoded = value.encode("utf-8")
        self.ulong(len(encoded) + 1)
        self._data.extend(encoded)
        self._data.append(0)

    def octets(self, value):
        """sequence<octet>: ulong count then raw bytes."""
        self.ulong(len(value))
        self._data.extend(value)

    def raw(self, value):
        """Raw bytes with no length prefix (pre-encoded material)."""
        self._data.extend(value)

    # -- output -------------------------------------------------------------

    def data(self):
        return bytes(self._data)

    def __len__(self):
        return len(self._data)

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


class CdrDecoder:
    """Pulls CDR-encoded values off a byte buffer."""

    def __init__(self, data, little_endian=True, start_align=0):
        # Zero-copy: decode straight out of whatever buffer the caller
        # holds (a wire machine's consume view, a recv buffer slice).
        # The caller guarantees the bytes behind the view are stable
        # for the decoder's lifetime — receive buffers reallocate
        # instead of resizing while views are outstanding.
        self._data = (data if isinstance(data, memoryview)
                      else memoryview(data))
        self.little_endian = little_endian
        self._prefix = "<" if little_endian else ">"
        self._start = start_align
        self._pos = 0

    @classmethod
    def from_encapsulation(cls, data):
        """Decode an encapsulation: first octet is the byte-order flag."""
        if not data:
            raise MarshalError("empty encapsulation")
        return cls(data[1:], little_endian=(data[0] == LITTLE_ENDIAN),
                   start_align=1)

    def _align(self, boundary):
        position = self._start + self._pos
        self._pos += (-position) % boundary

    def _unpack(self, fmt, size, boundary, what):
        self._align(boundary)
        if self._pos + size > len(self._data):
            raise MarshalError(f"CDR buffer exhausted while reading {what}")
        value = struct.unpack_from(self._prefix + fmt, self._data, self._pos)[0]
        self._pos += size
        return value

    # -- primitives -------------------------------------------------------------

    def octet(self):
        return self._unpack("B", 1, 1, "octet")

    def boolean(self):
        return self._unpack("B", 1, 1, "boolean") != 0

    def char(self):
        return chr(self._unpack("B", 1, 1, "char"))

    def short(self):
        return self._unpack("h", 2, 2, "short")

    def ushort(self):
        return self._unpack("H", 2, 2, "unsigned short")

    def long(self):
        return self._unpack("i", 4, 4, "long")

    def ulong(self):
        return self._unpack("I", 4, 4, "unsigned long")

    def longlong(self):
        return self._unpack("q", 8, 8, "long long")

    def ulonglong(self):
        return self._unpack("Q", 8, 8, "unsigned long long")

    def float(self):
        return self._unpack("f", 4, 4, "float")

    def double(self):
        return self._unpack("d", 8, 8, "double")

    def string(self):
        length = self.ulong()
        if length == 0:
            raise MarshalError("CORBA string length must include the NUL")
        if self._pos + length > len(self._data):
            raise MarshalError("CDR buffer exhausted while reading string")
        raw = bytes(self._data[self._pos : self._pos + length - 1])
        terminator = self._data[self._pos + length - 1]
        if terminator != 0:
            raise MarshalError("CORBA string is not NUL-terminated")
        self._pos += length
        return raw.decode("utf-8")

    def octets(self):
        count = self.ulong()
        if self._pos + count > len(self._data):
            raise MarshalError("CDR buffer exhausted while reading octets")
        value = bytes(self._data[self._pos : self._pos + count])
        self._pos += count
        return value

    # -- position -------------------------------------------------------------------

    @property
    def position(self):
        return self._pos

    def at_end(self):
        return self._pos >= len(self._data)

    def remaining(self):
        return len(self._data) - self._pos
