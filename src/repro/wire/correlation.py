"""Request-id correlation, shared by every protocol and both I/O stacks.

Before this module each protocol (and the blocking communicator)
carried its own id allocator and its own reserved-id folklore.  Now:

- :class:`RequestIdAllocator` hands out the ids every multiplexing
  protocol frames (text2 ``CALL2 <id>``, GIOP's native request_id);
- :data:`RESERVED_CHANNEL_ERROR_ID` (0) is the "no correlation" id a
  server uses when it must reject a request it could not even parse —
  :func:`is_channel_level_error` is the one test for that case and
  :func:`channel_level_failure` the one error both clients fail their
  in-flight calls with;
- :class:`CorrelationTable` is the completion table mapping in-flight
  request ids to waiters of the blocking
  :class:`~repro.heidirmi.communicator.ObjectCommunicator` (real
  threads).  The asyncio client in :mod:`repro.wire.aio` does not use
  it: one event loop owns its state, so it keeps a plain dict (and a
  FIFO for the serial text protocol) and arms deadlines as loop timers.
"""

import itertools
import threading

from repro.heidirmi.call import STATUS_ERROR
from repro.heidirmi.errors import CommunicationError

#: Request id 0 is reserved: real ids start at 1, and an error reply
#: tagged 0 means "I could not parse the request, so I cannot name the
#: call I am rejecting" — a channel-level failure, not an orphan.
RESERVED_CHANNEL_ERROR_ID = 0


def is_channel_level_error(reply):
    """True when *reply* is the reserved uncorrelatable error reply."""
    return (reply.status == STATUS_ERROR
            and reply.request_id == RESERVED_CHANNEL_ERROR_ID)


def channel_level_failure(reply):
    """What every call in flight fails with when *reply* is the reserved
    error reply: the server's ``[category] detail`` is the only clue to
    which request it choked on."""
    try:
        detail = reply.get_string()
    except Exception:
        detail = ""
    return CommunicationError(
        "peer reported an uncorrelatable protocol error "
        f"[{reply.repo_id}] {detail}".rstrip(),
        kind="peer-protocol-error",
    )


class RequestIdAllocator:
    """Monotonic request ids starting at 1 (0 is reserved).

    ``next()`` on the underlying :func:`itertools.count` is atomic
    under the GIL, so allocation needs no lock on the hot path.
    """

    __slots__ = ("_ids",)

    def __init__(self, start=1):
        self._ids = itertools.count(start)

    def next(self):
        return next(self._ids)

    __next__ = next


class CorrelationTable:
    """In-flight request ids → waiters, with one shared lock.

    The table does not know what a waiter *is* — the blocking
    communicator stores ``concurrent.futures.Future`` and bulk
    collectors — it only owns the id → waiter map and its consistency.
    Compound operations (register-many-then-send) take :attr:`lock`
    directly and work on :attr:`entries`; the common single steps have
    methods.

    Entries may also carry an **armed deadline**: an absolute monotonic
    expiry filed in :attr:`deadlines` alongside the waiter.  The table
    stays pure — it never reads a clock; the pump passes ``now`` in —
    so the front-end that drains it (the blocking demultiplexer's
    select timeout) enforces expiry from its own wait primitive instead
    of every caller re-checking a budget per attempt.
    """

    __slots__ = ("lock", "entries", "deadlines")

    def __init__(self):
        self.lock = threading.Lock()
        self.entries = {}  # guarded-by: self.lock
        #: request id → absolute monotonic expiry, a subset of
        #: :attr:`entries`'s keys.  Compound registration blocks that
        #: hold :attr:`lock` directly write it in place.
        self.deadlines = {}  # guarded-by: self.lock

    def register(self, request_id, waiter, expires_at=None):
        """File a waiter (optionally deadlined); returns the new depth."""
        with self.lock:
            self.entries[request_id] = waiter
            if expires_at is not None:
                self.deadlines[request_id] = expires_at
            return len(self.entries)

    def take(self, request_ids):
        """Pop each id's waiter (None when absent) under one lock.

        Returns ``(waiters, depth)`` with *waiters* in request order —
        the demultiplexer resolves a whole batch of replies this way.
        """
        entries = self.entries
        deadlines = self.deadlines
        with self.lock:
            waiters = [entries.pop(request_id, None)
                       for request_id in request_ids]
            if deadlines:
                for request_id in request_ids:
                    deadlines.pop(request_id, None)
            return waiters, len(entries)

    def discard(self, request_id):
        """Drop one entry (caller stopped waiting).

        Returns ``(waiter_or_None, depth)``.
        """
        with self.lock:
            waiter = self.entries.pop(request_id, None)
            self.deadlines.pop(request_id, None)
            return waiter, len(self.entries)

    def drain(self):
        """Remove and return every entry (channel death)."""
        with self.lock:
            entries, self.entries = self.entries, {}
            self.deadlines.clear()
        return entries

    def next_expiry(self):
        """The earliest armed expiry, or None when nothing is deadlined.

        The unlocked emptiness peek keeps the no-deadline pump loop at
        one dict truthiness test per batch.
        """
        deadlines = self.deadlines
        if not deadlines:
            return None
        with self.lock:
            if not deadlines:
                return None
            return min(deadlines.values())

    def expire(self, now):
        """Pop every entry whose expiry is ``<= now``.

        Returns ``[(request_id, waiter), ...]`` for the pump to fail;
        an entry whose waiter was already taken is skipped.  *now* is
        caller-provided monotonic time — the table owns no clock.
        """
        deadlines = self.deadlines
        if not deadlines:
            return []
        with self.lock:
            due = [request_id for request_id, expires_at in deadlines.items()
                   if expires_at <= now]
            expired = []
            for request_id in due:
                del deadlines[request_id]
                waiter = self.entries.pop(request_id, None)
                if waiter is not None:
                    expired.append((request_id, waiter))
            return expired

    @property
    def depth(self):
        return len(self.entries)  # race-ok: GIL-atomic len, metrics only

    def __len__(self):
        return len(self.entries)  # race-ok: GIL-atomic len, metrics only
