"""``ObjectCommunicator`` — request demarcation over a channel.

"An ObjectCommunicator provides the abstraction of a communication
channel on which individual requests can be demarcated" (paper,
Section 3.1).  It pairs a transport channel with a protocol; the client
side invokes calls through it, the server side pulls requests off it.

Two client-side operating modes:

- **exclusive** (the default, the paper's model): one call in flight at
  a time; ``invoke`` sends the request and blocks for the reply on the
  calling thread.
- **multiplexed** (``multiplexed=True``, protocols with request ids
  only): many callers share the channel concurrently.  Each request is
  registered with the connection's sans-I/O
  :class:`~repro.wire.correlation.ClientSession`; a single
  demultiplexing reader thread drains replies off the channel, feeds
  them to the session and completes the waiters it hands back.  The
  thread is a *pump*: what a reply, a close, a garbled frame or an
  expired deadline means is the session's decision, shared with the
  asyncio client.  ``invoke_async`` returns the future; ``invoke`` is
  just ``invoke_async(...).result()``.

Oneway batching (``batch_oneways=True``) coalesces small oneway sends
into one channel write; the buffer flushes when it grows past
:data:`BATCH_MAX_BYTES`/:data:`BATCH_MAX_CALLS`, before any two-way
send (so ordering between a oneway and a later call is preserved), or
on an explicit :meth:`flush`.
"""

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout

from repro.model.errors import (
    CommunicationError,
    HeidiRmiError,
    ProtocolError,
)
from repro.wire.bufferplan import BufferPlan
from repro.wire.correlation import ClientSession

#: A oneway batch flushes once it holds this much.
BATCH_MAX_BYTES = 8192
BATCH_MAX_CALLS = 32
#: Server-side reply coalescing must never withhold replies without
#: limit, but the bound is looser than the oneway batch so a whole
#: pipelined window still goes out in one send.
REPLY_MAX_BYTES = 65536
REPLY_MAX_CALLS = 256


class _SendBuffer:
    """A channel-shaped sink that records bytes instead of sending them."""

    #: Coalescing copies every frame into one burst anyway, so a
    #: BufferPlan is appended segment-by-segment (no contiguous join)
    #: and its pooled segments recycled immediately.
    accepts_plans = True

    def __init__(self):
        self.data = bytearray()

    def send(self, payload):
        if type(payload) is BufferPlan:
            for segment in payload.segments():
                self.data += segment
            payload.recycle()
        else:
            self.data += payload


class _BulkCollector:
    """Completion sink for a whole burst: one event, not one per call.

    Completed like a ``Future`` (``set_result`` once per correlated
    reply, ``set_exception`` on failure), but it files the replies by
    id and sets its event when the last lands — far lighter than a
    ``concurrent.futures.Future`` per call on the hot path.
    """

    __slots__ = ("replies", "remaining", "event", "error")

    def __init__(self, expected):
        self.replies = {}
        self.remaining = expected
        self.event = threading.Event()
        self.error = None

    def set_result(self, reply):
        self.replies[reply.request_id] = reply
        self.remaining -= 1
        if self.remaining <= 0:
            self.event.set()

    def set_exception(self, exc):
        self.error = exc
        self.event.set()


class ObjectCommunicator:
    """One demarcated request/reply stream over a Channel."""

    def __init__(self, channel, protocol, multiplexed=False,
                 batch_oneways=False, observer=None):
        self.channel = channel
        # Bound once: the exclusive deadline path arms and disarms the
        # channel expiry on every deadlined call, so the two attribute
        # hops per call are worth pre-resolving.  (``channel`` is fixed
        # for the communicator's lifetime; duck-typed test channels
        # without set_deadline only fail if a deadlined call reaches
        # them, as before.)
        self._set_deadline = getattr(channel, "set_deadline", None)
        self.protocol = protocol
        if multiplexed and not getattr(protocol, "supports_multiplexing", False):
            raise HeidiRmiError(
                f"protocol {protocol.name!r} has no request ids and cannot "
                "be multiplexed; use 'text2' or 'giop'"
            )
        self.multiplexed = multiplexed
        if multiplexed:
            # Protocols with per-channel serial-reply checks (GIOP) relax
            # them when many requests share the channel.
            channel._multiplexed = True
        # Waiters (Future or _BulkCollector per request) live in the
        # sans-I/O client session, which also decides what every
        # inbound event means to them; the demux loop only pumps it.
        self._session = ClientSession(protocol, getattr(channel, "peer", "?"))
        self._reader = None
        self._reader_lock = threading.Lock()
        self._batch_oneways = batch_oneways
        self._batch = bytearray()  # guarded-by: self._batch_lock
        self._batch_calls = 0  # guarded-by: self._batch_lock
        self._batch_lock = threading.Lock()
        # Server-side reply coalescing sink; only the serial request
        # loop touches it, so it needs no lock.  Persistent so each
        # buffered reply encodes straight into it with no fresh buffer.
        self._reply_sink = _SendBuffer()  # guarded-by: <serial:server-loop>
        self._sink_replies = 0  # guarded-by: <serial:server-loop>
        # Pre-resolved instruments (repro.observe): resolving each once
        # here keeps recording to one method call on the hot path, and
        # the unobserved path to bare ``is None`` tests.
        self._observer = observer
        if observer is not None:
            metrics = observer.metrics
            self._pending_gauge = metrics.gauge("rpc.pending_replies")
            self._demux_batch = metrics.histogram(
                "rpc.demux_batch_replies", buckets=(1, 2, 4, 8, 16, 32, 64,
                                                    128, 256, 512))
            self._coalesced_replies = metrics.counter("rpc.replies_coalesced")
            self._reply_flushes = metrics.counter("rpc.reply_flushes")
            self._oneway_flushes = metrics.counter("rpc.oneway_flushes")
            self._metrics = metrics
            self._session.tap = self._count_error
        else:
            self._pending_gauge = None
            self._demux_batch = None
            self._coalesced_replies = None
            self._reply_flushes = None
            self._oneway_flushes = None
            self._metrics = None

    def _count_error(self, exc):
        """Bump the per-kind channel error counter (the session's tap)."""
        self._metrics.counter("channel.errors", kind=exc.kind).inc()

    # -- client side -------------------------------------------------------

    @property
    def orphaned_replies(self):
        """Replies whose id matched no waiter (expired call, buggy
        peer); they are dropped, not delivered — the session counts."""
        return self._session.orphaned_replies

    def invoke(self, call):
        """Send *call*; return the Reply (or None for oneway calls)."""
        if call.oneway:
            self._send_oneway(call)
            return None
        deadline = call.deadline
        if self.multiplexed:
            future = self.invoke_async(call)
            if deadline is None:
                return future.result()
            try:
                return future.result(timeout=max(0.0, deadline.remaining()))
            except _FutureTimeout:
                # Backstop for a reader stalled mid-frame: the budget
                # has run out, so this is one more deadline tick.  Only
                # lapsed entries die; the demux reader and the shared
                # channel keep serving channel-mates.
                self._complete(self._session.expire(deadline.expires_at))
                return future.result()
        self.flush()
        if deadline is not None:
            # Exclusive channels enforce the budget at the socket: a
            # timed-out channel closes (its stream position is unknown).
            self._set_deadline(deadline.expires_at)
        try:
            self.protocol.send_request(self.channel, call)
            if call.trace_span is not None:
                call.trace_span.stage("send")
            return self._recv_reply_checked()
        finally:
            if deadline is not None:
                # Disarming is a plain attribute store, harmless even
                # on a channel the deadline just killed.
                self._set_deadline(None)

    def _recv_reply_checked(self):
        """recv_reply with framing errors normalized to channel failures.

        A ProtocolError mid-reply leaves the stream position unknown —
        the exclusive mirror of the demux reader dying — so the channel
        closes and the caller sees ``kind="peer-protocol-error"``
        (which the connection cache then discards) instead of a leaked,
        poisoned communicator going back into the pool.
        """
        try:
            return self.protocol.recv_reply(self.channel)
        except ProtocolError as exc:
            self.channel.close()
            raise CommunicationError(
                f"unparseable reply from {self.channel.peer}: {exc}",
                kind="peer-protocol-error",
            ) from exc

    def invoke_async(self, call):
        """Send *call* without waiting; returns a Future of the Reply.

        On a multiplexed communicator the calling thread only pays for
        the send — the demux reader completes the future when the
        correlated reply arrives.  On an exclusive communicator the
        round trip runs inline and the returned future is already done
        (the Orb wraps exclusive invokes in a worker thread instead).
        """
        future = Future()
        if call.oneway or not self.multiplexed:
            try:
                future.set_result(self.invoke(call))
            except Exception as exc:
                future.set_exception(exc)
            return future
        # A deadline is armed on the session entry: the demux reader's
        # select timeout enforces it even when nobody blocks on the
        # future.
        keys = self._register((call,), future)
        try:
            self.flush()
            self.protocol.send_request(self.channel, call)
        except BaseException as exc:
            self._send_failed(keys, exc)
            raise
        if call.trace_span is not None:
            call.trace_span.stage("send")
        return future

    def invoke_pipelined_sync(self, calls, deadline=None):
        """Send a burst in ONE write and block until every reply lands.

        The transmission-policy counterpart of oneway batching for
        two-way traffic: every request in *calls* is tagged, registered
        with the session, encoded back-to-back and flushed with a
        single send, so a window of W calls costs one syscall instead
        of W — and the whole window completes through one shared
        :class:`_BulkCollector` event instead of a future per call.
        Returns replies in call order (None for oneways).
        """
        if not self.multiplexed:
            raise HeidiRmiError(
                "pipelined bursts need a multiplexed communicator"
            )
        if not isinstance(calls, (list, tuple)):
            calls = list(calls)
        collector = _BulkCollector(
            sum(1 for call in calls if not call.oneway))
        buffer = _SendBuffer()
        send_request = self.protocol.send_request
        registered = self._register(
            calls, collector, None if deadline is None else deadline.expires_at)
        try:
            for call in calls:
                send_request(buffer, call)
            self.flush()
            if buffer.data:
                self.channel.send(bytes(buffer.data))
        except BaseException as exc:
            self._send_failed(registered, exc)
            raise
        if registered:
            if deadline is None:
                collector.event.wait()
            elif not collector.event.wait(
                timeout=max(0.0, deadline.remaining())
            ):
                # The window's budget ran out: one more deadline tick
                # (see invoke).  Late replies become counted orphans;
                # channel-mates are untouched.
                self._complete(self._session.expire(deadline.expires_at))
            if collector.error is not None:
                raise collector.error
        return [None if call.oneway else collector.replies[call.request_id]
                for call in calls]

    def _register(self, calls, waiter, expires_at=None):
        """File *waiter* with the session for *calls*; a reader is up."""
        keys = self._session.register(calls, waiter, expires_at)
        if self._pending_gauge is not None:
            self._pending_gauge.set(len(self._session))
        self._ensure_reader()
        return keys

    def _send_failed(self, keys, exc):
        """The requests behind *keys* never reached the wire."""
        self._session.unregister(keys)
        if isinstance(exc, CommunicationError):
            # A failed send killed the channel; spool its flight ring
            # from this thread.  The demux reader reports the same
            # death, but an orderly stop can disarm the recorder before
            # that thread wakes — the once-only spool guard dedupes
            # when both get there.
            self._channel_postmortem(exc)

    def _send_oneway(self, call):
        self._session.oneway(call, time.monotonic())
        if not self._batch_oneways:
            self.flush()
            self.protocol.send_request(self.channel, call)
            return
        buffer = _SendBuffer()
        self.protocol.send_request(buffer, call)
        with self._batch_lock:
            self._batch += buffer.data
            self._batch_calls += 1
            full = (len(self._batch) >= BATCH_MAX_BYTES
                    or self._batch_calls >= BATCH_MAX_CALLS)
        if full:
            self.flush()

    def flush(self):
        """Push any batched oneway bytes onto the wire."""
        # Unlocked empty peek: flush-before-send ordering only matters
        # for the calling thread's OWN earlier oneways, and those are
        # visible to its own len() read; racing appends by other threads
        # carry no ordering promise against this call.
        if not self._batch:
            return
        with self._batch_lock:
            if not self._batch:
                return
            data = bytes(self._batch)
            self._batch.clear()
            self._batch_calls = 0
        self.channel.send(data)
        if self._oneway_flushes is not None:
            self._oneway_flushes.inc()

    # -- reply demultiplexing: the thread pump over the session ------------

    def _ensure_reader(self):
        if self._reader is not None:
            return
        with self._reader_lock:
            if self._reader is None:
                self._reader = threading.Thread(
                    target=self._demux_loop,
                    name="heidirmi-demux",
                    daemon=True,
                )
                self._reader.start()

    def _complete(self, completions):
        """Hand each waiter the outcome the session decided for it."""
        for waiter, outcome in completions:
            if isinstance(outcome, Exception):
                waiter.set_exception(outcome)
            else:
                waiter.set_result(outcome)
        if completions and self._pending_gauge is not None:
            self._pending_gauge.set(len(self._session))

    def _enforce_deadlines(self):
        """Park until bytes arrive or the earliest armed expiry passes.

        The pump half of deadline enforcement: instead of every caller
        polling its own budget, the demux reader waits on the channel
        with a timeout equal to the session's earliest armed expiry and
        tells the session the time — with zero inbound bytes ever
        required.  Channel-mates and the shared channel itself are
        untouched.
        """
        session = self._session
        wait_readable = getattr(self.channel, "wait_readable", None)
        while True:
            expiry = session.next_expiry()
            if expiry is None:
                return
            now = time.monotonic()
            if expiry > now:
                if wait_readable is None:
                    # Channel cannot wait with a timeout (a bare test
                    # double); caller-side backstops still enforce.
                    return
                if wait_readable(expiry - now):
                    return  # bytes (or channel death): go read them
                now = time.monotonic()
            self._complete(session.expire(now))

    def _demux_loop(self):
        recv_reply = self.protocol.recv_reply
        channel = self.channel
        session = self._session
        deadlines = session.deadlines
        while True:
            batch = []
            try:
                # One dict truthiness test on the no-deadline hot path;
                # armed entries route through the select-timeout wait.
                if deadlines and not channel.has_buffered:
                    self._enforce_deadlines()
                batch.append(recv_reply(channel))
                # Servers coalesce replies into one send, so more whole
                # replies usually sit in the receive buffer already —
                # drain them now and resolve the lot under one lock.
                while channel.has_buffered:
                    batch.append(recv_reply(channel))
            except Exception as exc:
                self._complete(session.replies(batch))
                self._fail_pending(session.dead(exc))
                return
            if self._demux_batch is not None:
                self._demux_batch.record(len(batch))
            self._complete(session.replies(batch))

    def _fail_pending(self, completions):
        """The session declared the channel dead: bury it, then fail
        the waiters it handed back."""
        reason = self._session.closed
        self._channel_postmortem(reason)
        # Mark the channel dead before failing waiters: the multiplexed
        # ConnectionCache only replaces a shared communicator once it
        # reads as closed, and the reader thread is never restarted —
        # leaving the channel "open" would hang every later invoke.
        self.channel.close()
        self._complete(completions)

    # -- server side -------------------------------------------------------

    def next_request(self, object_exists=None):
        """Block for the next incoming request Call."""
        return self.protocol.recv_request(self.channel,
                                          object_exists=object_exists)

    def reply(self, reply):
        sink = self._reply_sink
        if sink.data:
            # Earlier coalesced replies ride along in the same send.
            self.protocol.send_reply(sink, reply)
            data = bytes(sink.data)
            sink.data.clear()
            self._sink_replies = 0
            self.channel.send(data)
            if self._reply_flushes is not None:
                self._reply_flushes.inc()
            return
        self.protocol.send_reply(self.channel, reply)

    def buffer_reply(self, reply):
        """Hold *reply* to coalesce with the next reply's send.

        Servers call this instead of :meth:`reply` while further
        requests are already buffered on the channel — correlation ids
        let the client sort the grouped replies out, and one send for a
        backlog of replies beats one syscall each.  Coalescing is capped
        by :data:`REPLY_MAX_BYTES`/:data:`REPLY_MAX_CALLS` so a saturated
        pipeline cannot have its replies withheld without bound.
        """
        sink = self._reply_sink
        self.protocol.send_reply(sink, reply)
        self._sink_replies += 1
        if self._coalesced_replies is not None:
            self._coalesced_replies.inc()
        if (len(sink.data) >= REPLY_MAX_BYTES
                or self._sink_replies >= REPLY_MAX_CALLS):
            self.flush_replies()

    def flush_replies(self):
        """Send any coalesced replies held in the sink.

        The server loop calls this before blocking for the next request:
        a trailing oneway (or a client that simply stops sending) would
        otherwise leave buffered replies stranded forever.
        """
        sink = self._reply_sink
        if not sink.data:
            return
        data = bytes(sink.data)
        sink.data.clear()
        self._sink_replies = 0
        self.channel.send(data)
        if self._reply_flushes is not None:
            self._reply_flushes.inc()

    # -- lifecycle ------------------------------------------------------------

    def _channel_postmortem(self, reason):
        """Spool the channel's flight bundle for an abnormal death."""
        recorder = getattr(self.channel, "flight", None)
        if recorder is not None:
            recorder.postmortem(reason)

    def close(self):
        # Orderly teardown: a disarmed recorder never spools, so cache
        # eviction and Orb.stop() leave no bogus "postmortem" bundles.
        recorder = getattr(self.channel, "flight", None)
        if recorder is not None:
            recorder.disarm()
        self._fail_pending(self._session.close())

    @property
    def closed(self):
        return self.channel.closed
