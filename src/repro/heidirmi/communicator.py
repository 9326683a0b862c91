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
  tagged with a correlation id and registered in a completion table; a
  single demultiplexing reader thread drains replies off the channel
  and resolves the matching future.  ``invoke_async`` returns the
  future; ``invoke`` is just ``invoke_async(...).result()``.

Oneway batching (``batch_oneways=True``) coalesces small oneway sends
into one channel write; the buffer flushes when it grows past
``batch_max_bytes``/``batch_max_calls``, before any two-way send (so
ordering between a oneway and a later call is preserved), or on an
explicit :meth:`flush`.
"""

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout

from repro.heidirmi.errors import (
    CommunicationError,
    DeadlineExceeded,
    HeidiRmiError,
    ProtocolError,
)
from repro.wire.bufferplan import BufferPlan
from repro.wire.correlation import (
    CorrelationTable,
    channel_level_failure,
    is_channel_level_error,
)


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

    The demux reader files each correlated reply into ``replies`` and
    sets the event when the last lands — far lighter than a
    ``concurrent.futures.Future`` per call on the hot path.  Only the
    demux thread mutates it after registration.
    """

    __slots__ = ("replies", "remaining", "event", "error")

    def __init__(self, expected):
        self.replies = {}
        self.remaining = expected
        self.event = threading.Event()
        self.error = None

    def add(self, request_id, reply):
        self.replies[request_id] = reply
        self.remaining -= 1
        if self.remaining <= 0:
            self.event.set()

    def fail(self, exc):
        self.error = exc
        self.event.set()


class ObjectCommunicator:
    """One demarcated request/reply stream over a Channel."""

    def __init__(self, channel, protocol, multiplexed=False,
                 batch_oneways=False, batch_max_bytes=8192,
                 batch_max_calls=32, reply_max_bytes=65536,
                 reply_max_calls=256, observer=None):
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
        # Completion table: request id -> Future or _BulkCollector,
        # resolved by the demux loop.  The table itself (and the
        # reserved-id semantics applied in _resolve) is the shared
        # correlation core from repro.wire; the aliases keep the
        # compound register-then-send blocks below on the same lock.
        self._table = CorrelationTable()
        self._pending = self._table.entries  # guarded-by: self._pending_lock
        self._pending_lock = self._table.lock
        self._reader = None
        self._reader_lock = threading.Lock()
        #: Replies whose id matched no waiter (cancelled/buggy peer);
        #: they are dropped, not delivered — this counts them.
        self.orphaned_replies = 0
        self._batch_oneways = batch_oneways
        self._batch_max_bytes = batch_max_bytes
        self._batch_max_calls = batch_max_calls
        self._batch = bytearray()  # guarded-by: self._batch_lock
        self._batch_calls = 0  # guarded-by: self._batch_lock
        self._batch_lock = threading.Lock()
        # Server-side reply coalescing sink; only the serial request
        # loop touches it, so it needs no lock.  Persistent so each
        # buffered reply encodes straight into it with no fresh buffer.
        # Bounded by the reply caps above: coalescing must never
        # withhold replies without limit, but the bound is looser than
        # the oneway batch so a whole pipelined window still goes out
        # in one send.
        self._reply_max_bytes = reply_max_bytes
        self._reply_max_calls = reply_max_calls
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
        else:
            self._pending_gauge = None
            self._demux_batch = None
            self._coalesced_replies = None
            self._reply_flushes = None
            self._oneway_flushes = None
            self._metrics = None

    def _count_error(self, exc):
        """Bump the per-kind channel error counter (observed mode only)."""
        if self._metrics is not None:
            kind = getattr(exc, "kind", "communication")
            self._metrics.counter("channel.errors", kind=kind).inc()

    # -- client side -------------------------------------------------------

    def invoke(self, call):
        """Send *call*; return the Reply (or None for oneway calls)."""
        deadline = call.deadline
        if call.oneway:
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(
                    f"deadline expired before oneway {call.operation!r} "
                    "was sent"
                )
            self._send_oneway(call)
            return None
        if self.multiplexed:
            future = self.invoke_async(call)
            if deadline is None:
                return future.result()
            try:
                return future.result(timeout=max(0.0, deadline.remaining()))
            except _FutureTimeout:
                # Only this call's completion-table entry dies; the
                # demux reader and the shared channel keep serving
                # channel-mates, and the late reply (if any) is counted
                # as an orphan.
                self.abandon(call.request_id)
                raise DeadlineExceeded(
                    f"deadline expired waiting for reply to "
                    f"{call.operation!r} (id {call.request_id})"
                ) from None
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
        if call.oneway:
            try:
                self._send_oneway(call)
            except Exception as exc:
                future.set_exception(exc)
            else:
                future.set_result(None)
            return future
        if not self.multiplexed:
            try:
                future.set_result(self.invoke(call))
            except Exception as exc:
                future.set_exception(exc)
            return future
        if call.request_id is None:
            call.request_id = self.protocol.next_request_id()
        deadline = call.deadline
        with self._pending_lock:
            if self.channel.closed:
                raise CommunicationError(
                    f"channel to {self.channel.peer} is closed",
                    kind="channel-closed",
                )
            self._pending[call.request_id] = future
            if deadline is not None:
                # Arm the expiry on the completion-table entry: the
                # demux reader's select timeout enforces it even when
                # nobody blocks on the future (invoke's result-timeout
                # backstop still covers mid-frame stalls).
                self._table.deadlines[call.request_id] = deadline.expires_at
            depth = len(self._pending)
        if self._pending_gauge is not None:
            self._pending_gauge.set(depth)
        self._ensure_reader()
        try:
            self.flush()
            self.protocol.send_request(self.channel, call)
        except BaseException as exc:
            with self._pending_lock:
                self._pending.pop(call.request_id, None)
                self._table.deadlines.pop(call.request_id, None)
            if isinstance(exc, CommunicationError):
                # A failed send killed the channel; spool its flight
                # ring from this thread.  The demux reader reports the
                # same death, but an orderly stop can disarm the
                # recorder before that thread wakes — the once-only
                # spool guard dedupes when both get there.
                self._channel_postmortem(exc)
            raise
        if call.trace_span is not None:
            call.trace_span.stage("send")
        return future

    def invoke_pipelined_sync(self, calls, deadline=None):
        """Send a burst in ONE write and block until every reply lands.

        The transmission-policy counterpart of oneway batching for
        two-way traffic: every request in *calls* is tagged, registered
        in the completion table, encoded back-to-back and flushed with
        a single send, so a window of W calls costs one syscall instead
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
        expected = sum(1 for call in calls if not call.oneway)
        collector = _BulkCollector(expected)
        registered = []
        buffer = _SendBuffer()
        send_request = self.protocol.send_request
        next_request_id = self.protocol.next_request_id
        pending = self._pending
        try:
            with self._pending_lock:
                if self.channel.closed:
                    raise CommunicationError(
                        f"channel to {self.channel.peer} is closed",
                        kind="channel-closed",
                    )
                for call in calls:
                    if not call.oneway:
                        if call.request_id is None:
                            call.request_id = next_request_id()
                        pending[call.request_id] = collector
                        if call.deadline is not None:
                            self._table.deadlines[call.request_id] = (
                                call.deadline.expires_at
                            )
                        registered.append(call.request_id)
                    send_request(buffer, call)
                depth = len(pending)
            if self._pending_gauge is not None:
                self._pending_gauge.set(depth)
            self._ensure_reader()
            self.flush()
            if buffer.data:
                self.channel.send(bytes(buffer.data))
        except BaseException as exc:
            with self._pending_lock:
                for request_id in registered:
                    self._pending.pop(request_id, None)
                    self._table.deadlines.pop(request_id, None)
            if isinstance(exc, CommunicationError):
                # Sender-side spool: see invoke_async.
                self._channel_postmortem(exc)
            raise
        if registered:
            if deadline is None:
                collector.event.wait()
            elif not collector.event.wait(
                timeout=max(0.0, deadline.remaining())
            ):
                # Unregister what is still outstanding so late replies
                # become counted orphans; channel-mates are untouched.
                with self._pending_lock:
                    for request_id in registered:
                        self._pending.pop(request_id, None)
                        self._table.deadlines.pop(request_id, None)
                    depth = len(self._pending)
                if self._pending_gauge is not None:
                    self._pending_gauge.set(depth)
                raise DeadlineExceeded(
                    f"deadline expired with {collector.remaining} of "
                    f"{len(registered)} replies outstanding"
                )
            if collector.error is not None:
                raise collector.error
        return [None if call.oneway else collector.replies[call.request_id]
                for call in calls]

    def _send_oneway(self, call):
        if not self._batch_oneways:
            self.flush()
            self.protocol.send_request(self.channel, call)
            return
        buffer = _SendBuffer()
        self.protocol.send_request(buffer, call)
        with self._batch_lock:
            self._batch += buffer.data
            self._batch_calls += 1
            full = (len(self._batch) >= self._batch_max_bytes
                    or self._batch_calls >= self._batch_max_calls)
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

    # -- reply demultiplexing ----------------------------------------------

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

    def _enforce_deadlines(self):
        """Park until bytes arrive or the earliest armed expiry passes.

        The pump half of deadline enforcement: instead of every caller
        polling its own budget, the demux reader waits on the channel
        with a timeout equal to the completion table's earliest armed
        expiry and fails exactly the entries that lapsed — with zero
        inbound bytes ever required.  Channel-mates and the shared
        channel itself are untouched; a late reply to an expired id is
        counted as an orphan like any abandoned call's.
        """
        table = self._table
        channel = self.channel
        wait_readable = getattr(channel, "wait_readable", None)
        while True:
            expiry = table.next_expiry()
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
            expired = table.expire(now)
            if expired and self._pending_gauge is not None:
                self._pending_gauge.set(len(table))
            for request_id, waiter in expired:
                exc = DeadlineExceeded(
                    f"deadline expired waiting for reply "
                    f"(id {request_id}) from {channel.peer}"
                )
                if type(waiter) is _BulkCollector:
                    waiter.fail(exc)
                else:
                    waiter.set_exception(exc)

    def _demux_loop(self):
        recv_reply = self.protocol.recv_reply
        channel = self.channel
        deadlines = self._table.deadlines
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
            except CommunicationError as exc:
                self._resolve(batch)
                self._channel_postmortem(exc)
                # Mark the channel dead before failing waiters: the
                # multiplexed ConnectionCache only replaces a shared
                # communicator once it reads as closed, and this reader
                # thread is never restarted — leaving the channel "open"
                # would hang every later invoke on it.
                self.channel.close()
                self._fail_pending(exc)
                return
            except Exception as exc:
                # A framing error leaves the stream position unknown;
                # nothing after it can be trusted, so the channel dies.
                # kind="reader-died" distinguishes this from transport
                # failures (recv-failed/peer-closed), which keep their
                # own kind from the except branch above.
                self._resolve(batch)
                died = CommunicationError(
                    f"demultiplexer failed: {exc}", kind="reader-died"
                )
                self._channel_postmortem(died)
                self.channel.close()
                self._fail_pending(died)
                return
            if self._demux_batch is not None:
                self._demux_batch.record(len(batch))
            self._resolve(batch)

    def _resolve(self, replies):
        if not replies:
            return
        waiters, depth = self._table.take(
            [reply.request_id for reply in replies]
        )
        if self._pending_gauge is not None:
            self._pending_gauge.set(depth)
        for waiter, reply in zip(waiters, replies):
            if waiter is None:
                if is_channel_level_error(reply):
                    # Id 0 is reserved: the server failed on a request it
                    # could not even parse, so it cannot name the call it
                    # is rejecting.  One of our waiters would otherwise
                    # never complete — fail them all with the server's
                    # diagnosis rather than hang the unlucky one.
                    self._fail_pending(channel_level_failure(reply))
                    continue
                self.orphaned_replies += 1
            elif type(waiter) is _BulkCollector:
                waiter.add(reply.request_id, reply)
            else:
                waiter.set_result(reply)

    def abandon(self, request_id):
        """Drop one pending entry whose caller stopped waiting.

        Used by deadline enforcement on multiplexed channels: the
        expired call's completion-table entry is removed so the demux
        reader counts its late reply (if one ever arrives) as an orphan
        instead of delivering it to nobody — and every channel-mate
        keeps its own entry.  Returns True if the entry existed.
        """
        waiter, depth = self._table.discard(request_id)
        if self._pending_gauge is not None:
            self._pending_gauge.set(depth)
        return waiter is not None

    def _fail_pending(self, exc):
        pending = self._table.drain()
        # race-ok: alias refresh after drain swapped the dict; the
        # channel is already closed, so invoke_async's closed-check
        # under the lock keeps new registrations out of the old dict.
        self._pending = self._table.entries
        if pending and self._metrics is not None:
            self._count_error(exc)
            self._pending_gauge.set(0)
        for waiter in pending.values():
            if type(waiter) is _BulkCollector:
                waiter.fail(exc)
            else:
                waiter.set_exception(exc)

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
        by ``reply_max_bytes``/``reply_max_calls`` so a saturated
        pipeline cannot have its replies withheld without bound.
        """
        sink = self._reply_sink
        self.protocol.send_reply(sink, reply)
        self._sink_replies += 1
        if self._coalesced_replies is not None:
            self._coalesced_replies.inc()
        if (len(sink.data) >= self._reply_max_bytes
                or self._sink_replies >= self._reply_max_calls):
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
        self.channel.close()
        self._fail_pending(
            CommunicationError(
                f"channel to {self.channel.peer} was closed",
                kind="channel-closed",
            )
        )

    @property
    def closed(self):
        return self.channel.closed
