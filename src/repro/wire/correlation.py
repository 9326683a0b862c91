"""The sans-I/O client session: what a client decides about its calls.

One connection's worth of client policy, written once and pumped by
every client runtime — the blocking
:class:`~repro.heidirmi.communicator.ObjectCommunicator` (its
demultiplexing thread, or the calling thread of an exclusive round
trip) and the reader coroutine of
:class:`~repro.wire.aio.AioClientConnection`:

- :class:`RequestIdAllocator` hands out the ids every multiplexing
  protocol frames (text2 ``CALL2 <id>``, GIOP's native request_id);
- :data:`RESERVED_CHANNEL_ERROR_ID` (0) is the "no correlation" id a
  server uses when it must reject a request it could not even parse —
  :func:`is_channel_level_error` is the one test for that case and
  :func:`channel_level_failure` the one error in-flight calls fail with;
- :func:`draining_failure` is the one error an orderly close (text2
  ``BYE``, GIOP CloseConnection) means to a waiting client;
- :class:`ClientSession` files a waiter (and its expiry) per request
  and turns everything that can happen to the connection afterwards —
  a reply, an orderly close, a garbled frame, the transport dying, a
  deadline passing, a send that failed — into *completions*:
  ``(waiter, Reply-or-exception)`` pairs.  One correlation rule per
  connection mode: on a multiplexed connection a reply for an id not
  in flight is a counted orphan (its call expired); on an exclusive
  one nothing can be orphaned — an expired exclusive call takes its
  channel with it — so such a reply is a ``peer-protocol-error`` and
  the connection dies.

The session owns no socket, thread, event loop or clock.  A pump moves
bytes, tells the session what arrived (and what time it is), and
completes whatever waiters it is handed back; it never decides what an
event means, so two pumps cannot disagree.
"""

import itertools
import threading

from repro.model.call import STATUS_ERROR
from repro.model.errors import CommunicationError, DeadlineExceeded
from repro.wire.events import CloseReceived, ReplyReceived, WireViolation

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


def draining_failure():
    """What a client's pending calls fail with on an orderly close.

    The server finished what it owed and hands the rest back
    un-dispatched: ``kind="draining"`` is retryable by default and
    leaves an armed flight ring clean.
    """
    return CommunicationError(
        "peer is draining: sent an orderly close", kind="draining"
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


class ClientSession:
    """In-flight requests of one connection → completions.

    A waiter is whatever the pump completes — a
    ``concurrent.futures.Future``, a bulk collector, the slot of an
    exclusive round trip, an asyncio future;
    the session only files it under the request's key and hands it back
    with its outcome.  On id-framing protocols the key is the request
    id; on the id-less ``text`` protocol it is a private serial number
    and a reply answers the oldest entry (arrival order).

    An entry may carry an **armed deadline**, an absolute monotonic
    expiry filed in :attr:`deadlines`.  The session never reads a clock
    — the pump passes ``now`` to :meth:`expire` from its own wait
    primitive (a select timeout, a loop timer).

    Every method takes :attr:`lock` at most once, so a registered
    window and a demultiplexed batch each cost one acquisition.
    """

    __slots__ = ("lock", "entries", "deadlines", "orphaned_replies",
                 "closed", "peer", "tap", "multiplexed", "_assign_id",
                 "_serial")

    def __init__(self, protocol, peer="?", multiplexed=True):
        self.lock = threading.Lock()
        #: False for a one-call-at-a-time connection, where a reply to
        #: an id not in flight cannot be an orphan.
        self.multiplexed = multiplexed
        self.entries = {}  # guarded-by: self.lock
        #: key → absolute monotonic expiry, a subset of the entries.
        self.deadlines = {}  # guarded-by: self.lock
        #: Replies that matched no waiter (their call expired, or the
        #: peer is buggy); they are dropped, not delivered.
        self.orphaned_replies = 0  # guarded-by: self.lock
        #: Why the connection is gone (None while it lives).
        self.closed = None  # guarded-by: self.lock
        self.peer = peer
        #: Optional observer upcall ``tap(failure)`` whenever every
        #: waiter fails at once — like the wire machine's ``tap``, it
        #: watches and never decides.
        self.tap = None
        self._assign_id = protocol.assign_request_id
        self._serial = (None if protocol.supports_multiplexing
                        else itertools.count(1))

    def __len__(self):
        return len(self.entries)  # race-ok: GIL-atomic len

    def _closed_error(self):
        return CommunicationError(
            f"channel to {self.peer} is closed", kind="channel-closed"
        )

    def oneway(self, call, now):
        """Tag a oneway by the protocol's id rule; nothing waits for it.

        Refused when the connection is gone or the budget ran out
        before the send.  Lock-free: it files nothing.
        """
        # race-ok: an unlocked peek; a racing close fails the send
        if self.closed is not None:
            raise self._closed_error()
        if call.deadline is not None and call.deadline.expires_at <= now:
            raise DeadlineExceeded(
                f"deadline expired before oneway {call.operation!r} was sent"
            )
        self._assign_id(call)

    def register(self, calls, waiter, expires_at=None):
        """Tag *calls* and file *waiter* for each two-way among them.

        An entry expires at its call's deadline or at *expires_at* (the
        window's own budget), whichever is sooner.  Returns the keys
        filed, for :meth:`unregister` should the requests never reach
        the wire.
        """
        entries, serial, assign_id = self.entries, self._serial, self._assign_id
        keys = []
        with self.lock:
            if self.closed is not None:
                raise self._closed_error()
            for call in calls:
                assign_id(call)
                if call.oneway:
                    continue
                key = call.request_id if serial is None else next(serial)
                entries[key] = waiter
                keys.append(key)
                deadline = call.deadline
                if deadline is not None:
                    self.deadlines[key] = (
                        deadline.expires_at if expires_at is None
                        else min(deadline.expires_at, expires_at))
                elif expires_at is not None:
                    self.deadlines[key] = expires_at
        return keys

    def unregister(self, keys):
        """Emit or send failed: nothing will answer these entries."""
        with self.lock:
            for key in keys:
                self.entries.pop(key, None)
                self.deadlines.pop(key, None)

    def _fail_all(self, failure):  # holds-lock: self.lock
        waiters = [waiter for waiter in self.entries.values()
                   if waiter is not None]
        self.entries.clear()
        self.deadlines.clear()
        if waiters and self.tap is not None:
            self.tap(failure)
        return [(waiter, failure) for waiter in waiters]

    def event(self, event):
        """Completions for one client-role wire event."""
        return self.events((event,))

    def events(self, events):
        """Completions for a batch of client-role wire events, in order,
        under one acquisition of the lock."""
        entries, deadlines = self.entries, self.deadlines
        done = []
        with self.lock:
            for event in events:
                kind = type(event)
                if kind is ReplyReceived:
                    reply = event.reply
                    key = reply.request_id
                    if key is None:
                        key = next(iter(entries), None)  # oldest entry
                    waiter = entries.pop(key, None)
                    if deadlines:
                        deadlines.pop(key, None)
                    if waiter is not None:
                        done.append((waiter, reply))
                    elif is_channel_level_error(reply):
                        # The server could not name the call it
                        # rejected; one of our waiters would otherwise
                        # never complete, so all fail with the server's
                        # diagnosis.  The connection itself survives.
                        done += self._fail_all(channel_level_failure(reply))
                    elif self.multiplexed:
                        self.orphaned_replies += 1
                    else:
                        done += self._die(CommunicationError(
                            f"reply for request {key}, expected "
                            f"{next(iter(entries), None)}",
                            kind="peer-protocol-error"))
                elif kind is CloseReceived:
                    done += self._die(draining_failure())
                elif kind is WireViolation:
                    done += self._die(event.message)
                # Anything else (a LocateReply) answers traffic the
                # session never filed.
        return done

    def dead(self, cause):
        """The connection is gone: fail every entry, refuse new ones.

        A ``CommunicationError`` (transport death, orderly close) is
        what the waiters get; anything else — a framing error leaves
        the stream position unknown, so nothing after it can be trusted
        — becomes ``kind="reader-died"``.  :attr:`closed` keeps the
        first cause.
        """
        with self.lock:
            return self._die(cause)

    def _die(self, cause):  # holds-lock: self.lock
        if not isinstance(cause, CommunicationError):
            cause = CommunicationError(
                f"reply reader failed: {cause}", kind="reader-died"
            )
        if self.closed is None:
            self.closed = cause
        return self._fail_all(cause)

    def close(self):
        """This side closed the connection."""
        return self.dead(CommunicationError(
            f"channel to {self.peer} was closed", kind="channel-closed"
        ))

    def next_expiry(self):
        """The earliest armed expiry, or None when nothing is deadlined.

        The unlocked emptiness peek keeps the no-deadline pump loop at
        one dict truthiness test per batch.
        """
        deadlines = self.deadlines
        if not deadlines:
            return None
        with self.lock:
            return min(deadlines.values(), default=None)

    def expire(self, now):
        """Completions for every entry whose expiry is ``<= now``.

        On id-framing protocols the entry goes, so a late reply is
        counted as an orphan.  On the id-less protocol the late reply
        still arrives *in order*: the slot stays, emptied, so that
        reply is swallowed instead of answering the next caller.
        """
        entries, deadlines = self.entries, self.deadlines
        if not deadlines:
            return []
        done = []
        with self.lock:
            for key in [key for key, expires_at in deadlines.items()
                        if expires_at <= now]:
                del deadlines[key]
                if self._serial is None:
                    waiter, tag = entries.pop(key), f" (id {key})"
                else:
                    waiter, entries[key], tag = entries[key], None, ""
                done.append((waiter, DeadlineExceeded(
                    f"deadline expired waiting for reply{tag} "
                    f"from {self.peer}"
                )))
        return done
