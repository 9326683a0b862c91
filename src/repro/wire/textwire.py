"""The newline-terminated ASCII wire format.

The current implementation of ``Call`` and ``ObjectCommunicator`` in the
paper "utilize a newline terminated string of ASCII characters to
implement the on-the-wire protocol" — which famously let a human telnet
into the bootstrap port and type requests by hand.  This module is that
format:

- a message is one line of space-separated tokens ending in ``\\n``;
- primitive values are printed readably (``42``, ``T``/``F``, ``3.5``);
- strings are percent-escaped so spaces and newlines survive;
- ``{`` and ``}`` tokens delimit composite values (begin/end);
- ``nil`` is the nil object reference.

Message shapes (framed and parsed by :mod:`repro.wire.text`)::

    CALL <objref> <operation> <token>...
    ONEWAY <objref> <operation> <token>...
    RET OK <token>...
    RET EXC <repo-id> <token>...
    RET ERR <category> <message-token>
"""

import re

from repro.model.errors import MarshalError, ProtocolError
from repro.model.marshal import Marshaller, Unmarshaller

#: The token standing for an empty string (an empty token would vanish).
_EMPTY = "%e"

#: Matches any character the wire format cannot carry verbatim; used as
#: a C-speed pre-check so clean strings skip the per-byte escape loop.
_NEEDS_ESCAPE_RE = re.compile(r"[\x00-\x20%\x7f]|[^\x00-\x7f]")


def _needs_escape(byte):
    # Everything at or below space covers str.split()'s whitespace set
    # (space, \t, \n, \r, \v, \f and the \x1c-\x1f separators) plus other
    # control characters; '%' is the escape character itself; DEL and
    # every non-ASCII byte are escaped so the wire stays pure printable
    # ASCII (the protocol's defining property).
    return byte <= 0x20 or byte == 0x25 or byte >= 0x7F
#: The token standing for a nil object reference.
NIL = "nil"

BEGIN_TOKEN = "{"
END_TOKEN = "}"
TRUE_TOKEN = "T"
FALSE_TOKEN = "F"


def escape_token(text):
    """Escape an arbitrary string into a single pure-ASCII wire token.

    The string is UTF-8 encoded and every byte outside printable ASCII
    (plus ``%`` itself) becomes ``%XX`` — so any Unicode text survives a
    protocol whose lines are plain ASCII.
    """
    if text == "":
        return _EMPTY
    if _NEEDS_ESCAPE_RE.search(text) is None:
        return text  # pure printable ASCII already; nothing to escape
    try:
        encoded = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise MarshalError(f"{text!r} cannot be encoded: {exc}") from None
    out = []
    for byte in encoded:
        if _needs_escape(byte):
            out.append(f"%{byte:02X}")
        else:
            out.append(chr(byte))
    return "".join(out)


def unescape_token(token):
    """Invert :func:`escape_token`."""
    if token == _EMPTY:
        return ""
    if "%" not in token:
        return token  # no escapes: the token is already the string
    out = bytearray()
    index = 0
    while index < len(token):
        ch = token[index]
        if ch == "%":
            if token[index + 1 :].startswith("e"):
                # Only valid as the whole token; inside a token it is an error.
                raise ProtocolError(f"stray %e in token {token!r}")
            code = token[index + 1 : index + 3]
            if len(code) != 2:
                raise ProtocolError(f"truncated escape in token {token!r}")
            try:
                out.append(int(code, 16))
            except ValueError:
                raise ProtocolError(f"bad escape %{code} in token {token!r}") from None
            index += 3
        else:
            out.extend(ch.encode("utf-8"))
            index += 1
    try:
        return out.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"token {token!r} is not valid UTF-8: {exc}") from None


class TextMarshaller(Marshaller):
    """Marshals typed values into a list of text tokens."""

    __slots__ = ("_tokens", "_depth")

    def __init__(self):
        self._tokens = []
        self._depth = 0

    # -- primitives ------------------------------------------------------

    def put_boolean(self, value):
        self._tokens.append(TRUE_TOKEN if value else FALSE_TOKEN)

    def put_octet(self, value):
        self._put_int(value, 0, 2**8 - 1)

    def put_char(self, value):
        # An IDL char is 8 bits (ISO 8859-1) on every protocol; CDR
        # could not carry more.
        if not isinstance(value, str) or len(value) != 1 or value > "\xff":
            raise MarshalError(f"not an ISO 8859-1 char: {value!r}")
        self._tokens.append(escape_token(value))

    def put_short(self, value):
        self._put_int(value, -(2**15), 2**15 - 1)

    def put_ushort(self, value):
        self._put_int(value, 0, 2**16 - 1)

    def put_long(self, value):
        self._put_int(value, -(2**31), 2**31 - 1)

    def put_ulong(self, value):
        self._put_int(value, 0, 2**32 - 1)

    def put_longlong(self, value):
        self._put_int(value, -(2**63), 2**63 - 1)

    def put_ulonglong(self, value):
        self._put_int(value, 0, 2**64 - 1)

    def _put_int(self, value, low, high):
        if isinstance(value, bool) or not isinstance(value, int):
            raise MarshalError(f"expected an integer, got {value!r}")
        if not low <= value <= high:
            raise MarshalError(f"integer {value} out of range [{low}, {high}]")
        self._tokens.append(str(value))

    def put_float(self, value):
        self._put_real(value)

    def put_double(self, value):
        self._put_real(value)

    def _put_real(self, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MarshalError(f"expected a real number, got {value!r}")
        self._tokens.append(repr(float(value)))

    def put_string(self, value):
        if not isinstance(value, str):
            raise MarshalError(f"expected a string, got {value!r}")
        self._tokens.append(escape_token(value))

    def put_enum(self, name, index):
        # Text keeps the human-readable spelling, per the telnet anecdote.
        self._tokens.append(escape_token(name))

    def put_objref(self, stringified):
        if stringified is None:
            self._tokens.append(NIL)
        else:
            self._tokens.append(escape_token(stringified))

    def begin(self, name=""):
        self._tokens.append(BEGIN_TOKEN)
        self._depth += 1

    def end(self):
        if self._depth <= 0:
            raise MarshalError("end() without matching begin()")
        self._tokens.append(END_TOKEN)
        self._depth -= 1

    # -- output ------------------------------------------------------------

    def tokens(self):
        """The marshalled token list (borrowed — do not mutate)."""
        if self._depth != 0:
            raise MarshalError(f"{self._depth} begin() blocks left open")
        return self._tokens

    def payload(self):
        return " ".join(self.tokens()).encode("ascii")


class TextUnmarshaller(Unmarshaller):
    """Pulls typed values back out of a token list."""

    __slots__ = ("_tokens", "_pos", "_depth")

    def __init__(self, tokens):
        self._tokens = list(tokens)
        self._pos = 0
        self._depth = 0

    @classmethod
    def from_payload(cls, payload):
        text = payload.decode("ascii") if isinstance(payload, bytes) else payload
        return cls(text.split()) if text else cls([])

    @classmethod
    def adopt(cls, tokens, pos):
        """Wrap an already-split token list without copying it.

        The protocol layer hands over the freshly split request/reply
        line and a start offset — the caller must not reuse the list.
        """
        self = cls.__new__(cls)
        self._tokens = tokens
        self._pos = pos
        self._depth = 0
        return self

    def _next(self, what):
        if self._pos >= len(self._tokens):
            raise MarshalError(f"ran out of tokens while reading {what}")
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    # -- primitives ---------------------------------------------------------

    def get_boolean(self):
        token = self._next("boolean")
        if token == TRUE_TOKEN:
            return True
        if token == FALSE_TOKEN:
            return False
        raise MarshalError(f"expected T/F boolean token, got {token!r}")

    def get_octet(self):
        return self._get_int("octet", 0, 2**8 - 1)

    def get_char(self):
        value = unescape_token(self._next("char"))
        if len(value) != 1:
            raise MarshalError(f"char token decodes to {value!r}, not 1 character")
        return value

    def get_short(self):
        return self._get_int("short", -(2**15), 2**15 - 1)

    def get_ushort(self):
        return self._get_int("unsigned short", 0, 2**16 - 1)

    def get_long(self):
        return self._get_int("long", -(2**31), 2**31 - 1)

    def get_ulong(self):
        return self._get_int("unsigned long", 0, 2**32 - 1)

    def get_longlong(self):
        return self._get_int("long long", -(2**63), 2**63 - 1)

    def get_ulonglong(self):
        return self._get_int("unsigned long long", 0, 2**64 - 1)

    def _get_int(self, what, low, high):
        token = self._next(what)
        try:
            value = int(token)
        except ValueError:
            raise MarshalError(f"expected {what}, got token {token!r}") from None
        if not low <= value <= high:
            raise MarshalError(f"{what} {value} out of range [{low}, {high}]")
        return value

    def get_float(self):
        return self._get_real("float")

    def get_double(self):
        return self._get_real("double")

    def _get_real(self, what):
        token = self._next(what)
        try:
            return float(token)
        except ValueError:
            raise MarshalError(f"expected {what}, got token {token!r}") from None

    def get_string(self):
        return unescape_token(self._next("string"))

    def get_enum(self, members):
        token = unescape_token(self._next("enum"))
        # Accept the spelled-out name (what our marshaller and human
        # clients write) or a numeric index.
        if token in members:
            return members.index(token)
        try:
            index = int(token)
        except ValueError:
            raise MarshalError(
                f"enum token {token!r} is not one of {tuple(members)}"
            ) from None
        if not 0 <= index < len(members):
            raise MarshalError(f"enum index {index} out of range for {tuple(members)}")
        return index

    def get_objref(self):
        token = self._next("object reference")
        if token == NIL:
            return None
        return unescape_token(token)

    def begin(self, name=""):
        token = self._next("begin marker")
        if token != BEGIN_TOKEN:
            raise MarshalError(f"expected '{{' begin marker, got {token!r}")
        self._depth += 1

    def end(self):
        token = self._next("end marker")
        if token != END_TOKEN:
            raise MarshalError(f"expected '}}' end marker, got {token!r}")
        self._depth -= 1

    def at_end(self):
        return self._pos >= len(self._tokens)
