"""Shared wire-header tokens: trace context and deadline.

Before the sans-I/O refactor the ``ctx=``/``dl=`` parse and emit code
was duplicated between the text and text2 protocols (and the same
millisecond-budget validation re-implemented a third time for GIOP's
deadline ServiceContext), and the copies had started to drift.  This
module is now the only place that knows the token grammar:

- ``ctx=<trace_id-span_id>`` — the propagated trace context (see
  ``repro.observe.context``); pure hex-and-dash ASCII, needs no
  escaping.
- ``dl=<ms>`` — the call's *remaining budget* in whole milliseconds, a
  relative quantity needing no clock synchronisation; the receiver
  re-anchors it on its own monotonic clock at parse time.

Both tokens sit between the verb (and request id) and the ``@``-target;
a stringified object reference always starts with ``@``, so the scan is
unambiguous and the tokens compose in either order.  GIOP carries the
same two values as ServiceContext entries ("HDTC"/"HDDL") whose bodies
reuse the validation here.

The overload-shed reply adds a third token, ``ra=<ms>``: the server's
*retry-after* hint, whole milliseconds, leading the message of a typed
``Overloaded`` error reply (``RET ERR Overloaded`` / ``RET2 <id> ERR
Overloaded``).  The hint rides *inside* the message string — one
escaped token on the wire — so the reply grammar of all three
protocols is untouched; GIOP carries the same value as a ServiceContext
entry ("HDRA") on its TRANSIENT system-exception reply.  Peers that
don't recognise the prefix see a human-readable message.
"""

from time import monotonic

from repro.model.errors import ProtocolError
from repro.model.deadline import Deadline

#: Prefix of the optional trace-context header token.
CTX_PREFIX = "ctx="

#: Prefix of the optional deadline header token.
DL_PREFIX = "dl="

_CTX_LEN = len(CTX_PREFIX)
_DL_LEN = len(DL_PREFIX)

# Single-entry parse memo for the deadline token.  A server under a
# default-deadline client sees the same full-budget token (e.g.
# ``dl=30000``) on every first attempt, so remembering the last
# (token, seconds) pair skips the slice/int/validate work on the read
# loop's hot path.  Benign under races: worst case a thread re-parses.
_DL_MEMO = ("", 0.0)


def deadline_from_ms(ms):
    """A received whole-millisecond budget → re-anchored Deadline."""
    if ms < 0:
        raise ProtocolError(f"negative deadline {ms}ms")
    # A budget past 2**53 ms (285,000 years) is no deadline at all; the
    # cap keeps one that no float can hold from raising OverflowError.
    return Deadline.after(min(ms, 1 << 53) / 1000.0)


def parse_deadline_token(token):
    """``dl=<ms>`` → a receiver-side re-anchored Deadline."""
    try:
        ms = int(token[len(DL_PREFIX):])
    except ValueError:
        raise ProtocolError(f"bad deadline token {token!r}") from None
    return deadline_from_ms(ms)


def parse_deadline_context(data):
    """A GIOP deadline ServiceContext body (ASCII ms) → Deadline."""
    try:
        ms = int(data.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError(
            f"bad deadline service context {data!r}"
        ) from None
    return deadline_from_ms(ms)


def scan_header_tokens(tokens, head):
    """Consume optional ``ctx=``/``dl=`` tokens starting at *head*.

    Returns ``(trace_context, deadline, head)`` with *head* advanced
    past every header token (they are accepted in either order).
    Raises :class:`ProtocolError` on a malformed deadline token.
    """
    trace_context = None
    deadline = None
    while len(tokens) > head:
        token = tokens[head]
        if token[0] == "@":
            # A stringified object reference always starts with ``@``
            # and always terminates the (maybe empty) header run: one
            # char compare ends the scan instead of two prefix tests.
            break
        if token.startswith(DL_PREFIX):
            # Inlined parse_deadline_token/deadline_from_ms: this runs
            # once per deadlined request on the server's read loop.
            global _DL_MEMO
            memo_token, seconds = _DL_MEMO
            if token != memo_token:
                try:
                    ms = int(token[_DL_LEN:])
                except ValueError:
                    raise ProtocolError(
                        f"bad deadline token {token!r}"
                    ) from None
                if ms < 0:
                    raise ProtocolError(f"negative deadline {ms}ms")
                seconds = min(ms, 1 << 53) / 1000.0  # deadline_from_ms's cap
                _DL_MEMO = (token, seconds)
            deadline = Deadline(monotonic() + seconds, seconds)
        elif token.startswith(CTX_PREFIX):
            trace_context = token[_CTX_LEN:]
        else:
            break
        head += 1
    return trace_context, deadline, head


def header_tokens(call):
    """The ``ctx=``/``dl=`` emission pieces for *call* (maybe empty)."""
    pieces = []
    if call.trace_context is not None:
        pieces.append(CTX_PREFIX + call.trace_context)
    deadline = call.deadline
    if deadline is not None:
        pieces.append(DL_PREFIX + str(deadline.remaining_ms()))
    return pieces


def trace_context_data(trace_context):
    """The GIOP trace ServiceContext body for a context token."""
    return trace_context.encode("ascii", errors="replace")


def deadline_context_data(deadline):
    """The GIOP deadline ServiceContext body for a Deadline."""
    return str(deadline.remaining_ms()).encode("ascii")


# -- retry-after (overloaded-reply) grammar ---------------------------------

#: Prefix of the retry-after hint leading an ``Overloaded`` error
#: reply's message (``ra=<ms>``, whole milliseconds).
RA_PREFIX = "ra="

#: The ERR category of a typed overload-shed reply, shared by all
#: three protocols' reply decode paths (GIOP translates its TRANSIENT
#: system exception back to this category).
OVERLOADED_CATEGORY = "Overloaded"

_RA_LEN = len(RA_PREFIX)


def overload_message(retry_after, text):
    """Render an overloaded-reply message, hint first.

    *retry_after* is seconds (None omits the hint); the wire carries
    whole milliseconds, floored to at least 1ms so a sub-millisecond
    hint survives the round trip as a nonzero backoff floor.
    """
    if retry_after is None:
        return text
    ms = max(1, int(retry_after * 1000.0))
    return f"{RA_PREFIX}{ms} {text}"


def parse_overload_message(message):
    """``"ra=<ms> <text>"`` → ``(retry_after_seconds, text)``.

    Returns ``(None, message)`` when no well-formed hint leads the
    message — a hintless shed is legal, and a mangled hint degrades to
    prose rather than a protocol error (the reply already parsed).
    """
    if not message.startswith(RA_PREFIX):
        return None, message
    head, _, rest = message.partition(" ")
    try:
        ms = int(head[_RA_LEN:])
    except ValueError:
        return None, message
    if ms < 0:
        return None, message
    return ms / 1000.0, rest


def retry_after_context_data(retry_after):
    """The GIOP retry-after ServiceContext body (ASCII whole ms)."""
    return str(max(1, int(retry_after * 1000.0))).encode("ascii")


def parse_retry_after_context(data):
    """A GIOP retry-after ServiceContext body → seconds (None if bad)."""
    try:
        ms = int(data.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        return None
    return ms / 1000.0 if ms >= 0 else None
