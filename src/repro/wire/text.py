"""Sans-I/O state machines for the text and text2 wire protocols.

The only place a text request or reply line is emitted or parsed: the
blocking communicator reads one line per event through
:meth:`TextWire.feed_line`, the asyncio pumps feed chunks through
``feed_bytes``, and both go through the same per-line parse.

Message shapes (one printable-ASCII line each, ``\\n``-terminated)::

    CALL   [ctx=..] [dl=..] <objref> <operation> <token>...
    ONEWAY [ctx=..] [dl=..] <objref> <operation> <token>...
    RET OK <token>...
    RET EXC <repo-id> <token>...
    RET ERR <category> <message-token>

    CALL2 <id> [ctx=..] [dl=..] <objref> <operation> <token>...
    ONEWAY2 [ctx=..] [dl=..] <objref> <operation> <token>...
    RET2 <id> OK <token>...
    RET2 <id> EXC <repo-id> <token>...
    RET2 <id> ERR <category> <message-token>
    BYE

``BYE`` is text2-only (the classic protocol signals close by EOF): an
orderly-shutdown announcement, the text2 spelling of GIOP's
CloseConnection.  A draining server sends it after its last reply so a
multiplexed client can fail still-pending calls as retryable handoffs
(kind ``draining``) instead of a channel death; either side may send
it before closing.
"""

from time import monotonic as _monotonic

from repro.model.call import (
    STATUS_ERROR,
    STATUS_EXCEPTION,
    STATUS_OK,
    Call,
    Reply,
)
from repro.model.errors import ProtocolError
from repro.wire.textwire import (
    TextUnmarshaller,
    escape_token,
    unescape_token,
)
from repro.wire import headers
from repro.wire.bufferplan import BufferPlan
from repro.wire.events import (
    NEED_DATA,
    CloseReceived,
    ReplyReceived,
    RequestReceived,
    WireViolation,
)
from repro.wire.machine import CLIENT, WireMachine

#: A line beyond this with no newline is an attack or a bug; the stream
#: cannot be re-synchronised past it.  (Matches the transport channel's
#: own cap, which fires first on the blocking path.)
MAX_LINE = 1 << 20

#: Memo for header tokens (targets, operation names): the same handful
#: of strings heads every request on a connection, so escaping each
#: once beats re-scanning them per call.  Bounded against churn.
_HEADER_ESCAPES = {}


def _escape_header(text):
    token = _HEADER_ESCAPES.get(text)
    if token is None:
        if len(_HEADER_ESCAPES) >= 4096:
            _HEADER_ESCAPES.clear()
        token = escape_token(text)
        _HEADER_ESCAPES[text] = token
    return token


# ---------------------------------------------------------------------------
# Emission: pure Call/Reply -> BufferPlan
# ---------------------------------------------------------------------------


def _request_tail(call):
    """The encoded target/operation/args tail, memoized on the call.

    The tail is the expensive, attempt-invariant part of a request line;
    caching its encoded bytes (terminator included) on the Call means a
    retry re-enqueues the marshalled frame verbatim — only the
    verb/id/header prefix (fresh request id, refreshed ``dl=``
    remaining) is rebuilt per attempt.  Plans borrow the tail, so the
    bytes are shared across attempts without a copy.
    """
    tail = call._wire_tail
    if tail is None:
        tail = (" ".join(
            [_escape_header(call.target), _escape_header(call.operation)]
            + call._m.tokens()
        ) + "\n").encode("ascii")
        call._wire_tail = tail
    return tail


def _deadline_token(call):
    """The ``dl=<ms>`` piece for a deadlined call (deadline-only fast
    path of the resilient hot loop — traced calls go through
    ``headers.header_tokens`` instead).

    A first attempt stamped by the resilient engine carries the plan's
    pre-rendered full-budget token (``call._dl_token``); everything
    else — explicit deadlines, retries, hand-built calls — computes the
    live remaining budget, ``remaining_ms`` inlined (rounded up so a
    positive remainder survives as at least 1 ms).  Duck-typed
    deadlines without ``expires_at`` keep the method call.  The grammar
    stays headers.py's.
    """
    token = call._dl_token
    if token is not None:
        return token
    deadline = call.deadline
    try:
        remaining = deadline.expires_at - _monotonic()
    except AttributeError:
        ms = deadline.remaining_ms()
    else:
        ms = int(remaining * 1000.0) + 1 if remaining > 0.0 else 0
    return headers.DL_PREFIX + str(ms)


def _request_plan(pieces, call):
    """Shared CALL/CALL2 assembly: render the attempt-specific verb /
    id / ``ctx=`` / ``dl=`` prefix into an owned gap segment leased
    from the pool, then borrow the memoized tail.

    Both request grammars differ only in their verb pieces, so this is
    the one place header tokens are chosen (full ``headers`` frame for
    traced calls, engine-stamped or freshly computed ``dl=`` token for
    the deadline-only fast path).
    """
    if call.trace_context is not None:
        pieces += headers.header_tokens(call)
    elif call.deadline is not None:
        # The engine-stamped token avoids even the helper frame here.
        token = call._dl_token
        pieces.append(token if token is not None else _deadline_token(call))
    # Short prefixes: a direct bytearray copy beats a pool round-trip
    # (two lock acquisitions); recycle() still pools it afterwards.
    prefix = bytearray(" ".join(pieces).encode("ascii"))
    prefix += b" "
    plan = BufferPlan()
    plan.append_owned(prefix)
    plan.append_borrowed(_request_tail(call))
    return plan


def _reply_plan(pieces, reply):
    """Shared RET/RET2 assembly: exception identifier, then the
    marshalled result tokens, rendered into one owned segment (replies
    are not retried, so nothing is worth borrowing)."""
    if reply.status in (STATUS_EXCEPTION, STATUS_ERROR):
        pieces.append(escape_token(reply.repo_id))
    pieces += reply._m.tokens()
    line = bytearray(" ".join(pieces).encode("ascii"))
    line += b"\n"
    return BufferPlan().append_owned(line)


def encode_request(call):
    """Classic ``CALL``/``ONEWAY`` plan for *call*."""
    # Build the line in one pass at the token level; going through
    # payload() would encode and re-decode the same bytes.
    return _request_plan(["ONEWAY" if call.oneway else "CALL"], call)


def encode_reply(reply):
    """Classic ``RET`` plan for *reply*."""
    return _reply_plan(["RET", reply.status], reply)


def encode_request2(call):
    """``CALL2 <id>``/``ONEWAY2`` plan for *call*.

    Two-way calls must already carry a request id (the communicator or
    machine allocates one); oneways never do — nothing correlates back.
    """
    if call.oneway:
        pieces = ["ONEWAY2"]
    else:
        if call.request_id is None:
            raise ProtocolError("text2 two-way request needs a request id")
        pieces = ["CALL2", str(call.request_id)]
    return _request_plan(pieces, call)


def encode_reply2(reply):
    """``RET2 <id>`` plan for *reply* (id 0 = reserved channel error)."""
    request_id = (reply.request_id if reply.request_id is not None
                  else 0)
    return _reply_plan(["RET2", str(request_id), reply.status], reply)


# ---------------------------------------------------------------------------
# Parsing: decoded line -> Call/Reply (shared by both machines)
# ---------------------------------------------------------------------------


def parse_request_id(token):
    """A decimal request-id token → int (ids are never negative)."""
    try:
        request_id = int(token)
    except ValueError:
        raise ProtocolError(f"bad request id {token!r}") from None
    if request_id < 0:
        raise ProtocolError(f"negative request id {request_id}")
    return request_id


def _parse_request_tail(tokens, head, oneway, request_id):
    """Shared tail of both request grammars: headers, target, args."""
    trace_context, deadline, head = headers.scan_header_tokens(tokens, head)
    if len(tokens) < head + 2:
        raise ProtocolError(
            "request needs an object reference and an operation"
        )
    call = Call(
        unescape_token(tokens[head]),
        unescape_token(tokens[head + 1]),
        unmarshaller=TextUnmarshaller.adopt(tokens, head + 2),
        oneway=oneway,
        request_id=request_id,
    )
    call.trace_context = trace_context
    call.deadline = deadline
    return call


def parse_request_line(line):
    """Classic request line (already decoded) → Call."""
    tokens = line.split()
    if not tokens:
        raise ProtocolError("empty request line")
    verb = tokens[0]
    if verb not in ("CALL", "ONEWAY"):
        raise ProtocolError(
            f"expected CALL or ONEWAY, got {verb!r} "
            "(request shape: CALL <objref> <operation> <args...>)"
        )
    return _parse_request_tail(
        tokens, 1, oneway=(verb == "ONEWAY"), request_id=None
    )


def parse_request2_line(line):
    """text2 request line (already decoded) → Call."""
    tokens = line.split()
    if not tokens:
        raise ProtocolError("empty request line")
    verb = tokens[0]
    if verb == "CALL2":
        try:
            request_id = parse_request_id(tokens[1])
        except IndexError:
            raise ProtocolError("CALL2 needs a request id") from None
        head = 2
        oneway = False
    elif verb == "ONEWAY2":
        request_id = None
        head = 1
        oneway = True
    else:
        raise ProtocolError(
            f"expected CALL2 or ONEWAY2, got {verb!r} "
            "(request shape: CALL2 <id> <objref> <operation> <args...>)"
        )
    return _parse_request_tail(tokens, head, oneway, request_id)


def parse_reply_line(line):
    """Classic reply line (already decoded) → Reply."""
    tokens = line.split()
    if len(tokens) < 2 or tokens[0] != "RET":
        raise ProtocolError(f"malformed reply line {line!r}")
    status = tokens[1]
    if status == STATUS_OK:
        return Reply(
            status=STATUS_OK, unmarshaller=TextUnmarshaller.adopt(tokens, 2)
        )
    if status in (STATUS_EXCEPTION, STATUS_ERROR):
        if len(tokens) < 3:
            raise ProtocolError(f"{status} reply needs an identifier")
        return Reply(
            status=status,
            repo_id=unescape_token(tokens[2]),
            unmarshaller=TextUnmarshaller.adopt(tokens, 3),
        )
    raise ProtocolError(f"unknown reply status {status!r}")


def parse_reply2_line(line):
    """text2 reply line (already decoded) → Reply."""
    tokens = line.split()
    if len(tokens) < 3 or tokens[0] != "RET2":
        raise ProtocolError(f"malformed reply line {line!r}")
    try:
        request_id = int(tokens[1])
    except ValueError:
        raise ProtocolError(f"bad request id {tokens[1]!r}") from None
    if request_id < 0:
        raise ProtocolError(f"negative request id {request_id}")
    status = tokens[2]
    if status == STATUS_OK:
        return Reply(
            status=STATUS_OK,
            unmarshaller=TextUnmarshaller.adopt(tokens, 3),
            request_id=request_id,
        )
    if status in (STATUS_EXCEPTION, STATUS_ERROR):
        if len(tokens) < 4:
            raise ProtocolError(f"{status} reply needs an identifier")
        return Reply(
            status=status,
            repo_id=unescape_token(tokens[3]),
            unmarshaller=TextUnmarshaller.adopt(tokens, 4),
            request_id=request_id,
        )
    raise ProtocolError(f"unknown reply status {status!r}")


# ---------------------------------------------------------------------------
# The machines
# ---------------------------------------------------------------------------


class TextWire(WireMachine):
    """State machine for the classic newline-ASCII protocol."""

    protocol_name = "text"

    _parse_request = staticmethod(parse_request_line)
    _parse_reply = staticmethod(parse_reply_line)

    #: The raw line that means "orderly close" (terminator excluded):
    #: none for the classic protocol, whose only goodbye is EOF.
    _close_line = None

    def __init__(self, role):
        super().__init__(role)
        # The role fixes which grammar every line is parsed with, so the
        # per-line path picks neither the parser nor the event class.
        if role == CLIENT:
            self._parse_line, self._event = self._parse_reply, ReplyReceived
        else:
            self._parse_line, self._event = self._parse_request, RequestReceived

    def read_hint(self):
        return ("line",)

    def _parse_one(self):
        index = self._buffer.find(b"\n", self._start)
        if index < 0:
            if self._available() > MAX_LINE:
                # Discard the poisoned bytes so the violation is
                # delivered once, not re-parsed forever; the driver
                # must abandon the stream (recoverable=False) anyway.
                self._consume(self._available())
                return WireViolation(
                    "request line too long", recoverable=False
                )
            return NEED_DATA
        raw = self._buffer[self._start:index]
        self._start = index + 1
        while raw and raw[-1] == 0x0D:  # rstrip(b"\r"), no realloc
            del raw[-1]
        return self._event_for_line(raw)

    def feed_line(self, raw):
        """One complete line (terminator already stripped) → event.

        The blocking read of both text protocols: the channel's
        ``recv_line`` has already demarcated the line, so when nothing
        is buffered the machine parses it in place instead of paying a
        copy into its own buffer and a second newline scan.  With bytes
        pending (a feed_bytes driver mixing styles) it falls back to
        ordered buffering so no message can overtake another.
        """
        if len(self._buffer) > self._start:
            self._buffer += raw
            self._buffer += b"\n"
            return self.next_event()
        event = self._event_for_line(raw)
        if self.tap is not None:
            # The channel stripped the terminator; restore it so the
            # recorded frame is replayable byte-for-byte.  The caller's
            # line is a fresh buffer it never reuses (the ``recv_line``
            # contract), so a mutable one grows in place — the recorder
            # takes ownership either way.
            if not isinstance(raw, bytearray):
                raw = bytearray(raw)
            raw += b"\n"
            self.tap.record_in(raw, event, self.role)
        return event

    def _event_for_line(self, raw):
        # The close line is accepted in both roles (either side may
        # announce an orderly close); one short compare per line.
        if raw == self._close_line:
            return CloseReceived()
        try:
            return self._event(
                self._parse_line(raw.decode("ascii", "replace")))
        except ProtocolError as exc:
            return WireViolation(str(exc))

    # -- emission ----------------------------------------------------------

    emit_request = staticmethod(encode_request)
    emit_reply = staticmethod(encode_reply)


#: The text2 orderly-close line (terminator excluded, like recv_line).
BYE_LINE = b"BYE"

#: The encoded close frame (what a draining peer actually sends).
BYE_FRAME = b"BYE\n"


class Text2Wire(TextWire):
    """State machine for the id-framed text2 protocol."""

    protocol_name = "text2"

    _parse_request = staticmethod(parse_request2_line)
    _parse_reply = staticmethod(parse_reply2_line)
    _close_line = BYE_LINE

    emit_request = staticmethod(encode_request2)
    emit_reply = staticmethod(encode_reply2)

    def emit_close(self):
        """The orderly-close frame this machine's peer will parse."""
        return BYE_FRAME
