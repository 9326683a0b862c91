"""``ObjectCommunicator`` — request demarcation over a channel.

"An ObjectCommunicator provides the abstraction of a communication
channel on which individual requests can be demarcated" (paper,
Section 3.1).  It pairs a transport channel with its end of the
connection's wire machine (built once, for the communicator's role),
sends what the machine emits and reads one event per frame through the
protocol's one read; the client side invokes calls through it, the
server side pulls events off it.

Every client call is registered with the connection's sans-I/O
:class:`~repro.wire.correlation.ClientSession`, and every event read
goes to that session, which decides what a reply, a close, a garbled
frame or an expired deadline means — the same session the asyncio
client pumps.  Two client-side operating modes differ only in who
pumps:

- **exclusive** (the default, the paper's model): one call in flight at
  a time; ``invoke`` sends the request and the calling thread pumps
  until the session completes its call.
- **multiplexed** (``multiplexed=True``, protocols with request ids
  only): many callers share the channel concurrently; a single
  demultiplexing reader thread pumps for all of them.
  ``invoke_async`` returns the future; ``invoke`` is just
  ``invoke_async(...).result()``.

A oneway is one frame sent at once, in call order with the two-ways.
"""

import functools
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout

from repro.heidirmi.protocol import send_frame
from repro.model.errors import (
    CommunicationError,
    DeadlineExceeded,
    HeidiRmiError,
)
from repro.wire.bufferplan import BufferPlan
from repro.wire.correlation import ClientSession
from repro.wire.events import ReplyReceived

#: Server-side reply coalescing must never withhold replies without
#: limit, but the bound is loose enough that a whole pipelined window
#: still goes out in one send.
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


class _Pumped:
    """The waiter every exclusive round trip files.

    Its thread is the pump: it takes the call's outcome from the
    completion the session hands back, so there is nothing to wait on
    and nothing to fill — completing it (a concurrent :meth:`close`
    failing it) does nothing.
    """

    __slots__ = ()

    def set_result(self, outcome):
        pass

    set_exception = set_result


_PUMPED = _Pumped()


class ObjectCommunicator:
    """One demarcated request/reply stream over a Channel."""

    def __init__(self, channel, protocol, multiplexed=False, observer=None,
                 role="client"):
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
        #: This end's wire machine.  A flight-recorded channel's
        #: recorder is its tap, so every inbound event lands in the
        #: ring with its exact frame bytes.
        self.machine = machine = protocol.machine_class(role)
        machine.tap = getattr(channel, "flight", None)
        self._emit_request = machine.emit_request
        self._emit_reply = machine.emit_reply
        #: Block for the next inbound wire event (the protocol's read).
        self.next_event = functools.partial(
            protocol.read_event, channel, machine)
        # Waiters (_PUMPED, a Future or a _BulkCollector per request) live
        # in the sans-I/O client session, which also decides what every
        # inbound event means to them; this class only pumps it.
        self._session = ClientSession(
            protocol, getattr(channel, "peer", "?"), multiplexed)
        self._reader = None
        self._reader_lock = threading.Lock()
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
            self._metrics = metrics
            self._session.tap = self._count_error
        else:
            self._pending_gauge = None
            self._demux_batch = None
            self._coalesced_replies = None
            self._reply_flushes = None
            self._metrics = None

    def _count_error(self, exc):
        """Bump the per-kind channel error counter (the session's tap)."""
        self._metrics.counter("channel.errors", kind=exc.kind).inc()

    # -- client side -------------------------------------------------------

    def invoke(self, call):
        """Send *call*; return the Reply (or None for oneway calls)."""
        if call.oneway:
            self._send_oneway(call)
            return None
        deadline = call.deadline
        session = self._session
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
                self._complete(session.expire(deadline.expires_at))
                return future.result()
        # Exclusive: the calling thread is the pump, putting events to
        # the session until one completes this call — the only call the
        # connection has in flight, so the completion is its own.
        keys = session.register((call,), _PUMPED)
        if deadline is not None:
            # Exclusive channels time out at the socket: the deadline
            # watchdog shuts the channel at expiry, which is this
            # pump's tick (the stream position is unknown after it).
            self._set_deadline(deadline.expires_at)
        try:
            try:
                send_frame(self.channel, self._emit_request(call))
            except BaseException:
                session.unregister(keys)  # the caller settles the channel
                raise
            if call.trace_span is not None:
                call.trace_span.stage("send")
            event, read = session.event, self.next_event
            try:
                done = event(read())
                while not done:
                    done = event(read())
            except DeadlineExceeded:
                done = session.expire(time.monotonic())
            except Exception as exc:
                done = session.dead(exc)
        finally:
            if deadline is not None:
                # Disarming is a plain attribute store, harmless even
                # on a channel the deadline just killed.
                self._set_deadline(None)
        if session.closed is not None:
            self._bury(session.closed)
        # Nothing completed: a concurrent close() took the call first,
        # and the cause it recorded is the call's.
        outcome = done[0][1] if done else session.closed
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

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
            send_frame(self.channel, self._emit_request(call))
        except BaseException as exc:
            self._send_failed(keys, exc)
            raise
        if call.trace_span is not None:
            call.trace_span.stage("send")
        return future

    def invoke_pipelined_sync(self, calls, deadline=None):
        """Send a burst in ONE write and block until every reply lands.

        Every request in *calls* is tagged, registered
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
        emit_request = self._emit_request
        # Registering tags every call with its id, ahead of the emit.
        registered = self._register(
            calls, collector, None if deadline is None else deadline.expires_at)
        try:
            for call in calls:
                buffer.send(emit_request(call))
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
        send_frame(self.channel, self._emit_request(call))

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

    def _bury(self, reason):
        """The session declared the connection dead for *reason*: spool
        the flight ring and close the channel."""
        self._channel_postmortem(reason)
        self.channel.close()

    def _complete(self, completions):
        """Hand each waiter the outcome the session decided for it —
        after burying the channel if the session has declared the
        connection dead."""
        reason = self._session.closed
        if reason is not None:
            # Mark the channel dead before failing waiters: the
            # multiplexed ConnectionCache only replaces a shared
            # communicator once it reads as closed, and the reader
            # thread is never restarted — leaving the channel "open"
            # would hang every later invoke.
            self._bury(reason)
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
        read = self.next_event
        channel = self.channel
        session = self._session
        deadlines = session.deadlines
        while session.closed is None:
            batch = []
            try:
                # One dict truthiness test on the no-deadline hot path;
                # armed entries route through the select-timeout wait.
                if deadlines and not channel.has_buffered:
                    self._enforce_deadlines()
                event = read()
                batch.append(event)
                # Servers coalesce replies into one send, so more whole
                # replies usually sit in the receive buffer already —
                # drain them now and resolve the lot under one lock.
                # Anything but a reply goes to the session at once.
                while type(event) is ReplyReceived and channel.has_buffered:
                    event = read()
                    batch.append(event)
            except Exception as exc:
                self._complete(session.events(batch) + session.dead(exc))
                return
            if self._demux_batch is not None:
                self._demux_batch.record(len(batch))
            self._complete(session.events(batch))

    # -- server side -------------------------------------------------------

    def reply(self, reply):
        sink = self._reply_sink
        if sink.data:
            # Earlier coalesced replies ride along in the same send.
            sink.send(self._emit_reply(reply))
            data = bytes(sink.data)
            sink.data.clear()
            self._sink_replies = 0
            self.channel.send(data)
            if self._reply_flushes is not None:
                self._reply_flushes.inc()
            return
        send_frame(self.channel, self._emit_reply(reply))

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
        sink.send(self._emit_reply(reply))
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
        if self.machine.tap is not None:
            self.machine.tap.postmortem(reason)

    def close(self):
        # Orderly teardown: a disarmed recorder never spools, so cache
        # eviction and Orb.stop() leave no bogus "postmortem" bundles.
        if self.machine.tap is not None:
            self.machine.tap.disarm()
        self._complete(self._session.close())

    @property
    def closed(self):
        return self.channel.closed
