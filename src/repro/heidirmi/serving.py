"""The serving core and the blocking pump that drives it (Fig. 5).

Every decision a server makes about one request lives in
:class:`ServerCore` and its per-connection :class:`Session`, once:

    account (stats, ``rpc.requests``, server span, trace event)
    → expired on arrival → draining → admission
    → dispatch (re-checked first: expired or over-age while it waited)
    → ``admission.finished`` → reply / encode-failure reply
    → malformed-request reply → idle (for the orderly drain)

The core does no I/O and starts nothing: a parsed ``Call`` goes in, and
out comes a ``Reply`` to write, ``None`` (nothing to say), or
``DISPATCH`` — run ``session.dispatch(call)``, a plain blocking
callable, wherever the pump likes (the reader thread, a pool worker,
``loop.run_in_executor``).  Its only clock is the admission policy's.

A *pump* owns how bytes are read, where ``dispatch`` runs, and how a
``Reply`` is written or coalesced — nothing else.  Two exist:
:class:`BlockingServer` below (acceptor thread, a reader thread per
connection, optional pipeline pool) and the coroutine
``repro.wire.aio.AioOrbServer``.
"""

import collections
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

from repro.model.call import Reply, STATUS_ERROR, STATUS_EXCEPTION, STATUS_OK
from repro.heidirmi.communicator import ObjectCommunicator
from repro.model.errors import (
    CommunicationError,
    HeidiRmiError,
    ProtocolError,
)
from repro.heidirmi.exceptions_user import HdUserException
from repro.observe import context as _trace_state
from repro.wire.headers import OVERLOADED_CATEGORY, overload_message

#: ``Session.arrive`` outcome: run ``session.dispatch(call)``.
DISPATCH = object()


def error_reply(protocol, category, message, request_id=None):
    """A system-level ``ERR`` reply: *category* plus one message string."""
    reply = Reply(
        status=STATUS_ERROR,
        repo_id=category,
        marshaller=protocol.new_marshaller(),
        request_id=request_id,
    )
    reply.put_string(message)
    return reply


# ---------------------------------------------------------------------------
# The core: policy, no I/O
# ---------------------------------------------------------------------------


class ServerCore:
    """Serving policy for one server front-end of an :class:`Orb`.

    Shared by every connection the front-end accepts; the per-connection
    part (what is in flight) is a :class:`Session` over it.
    """

    def __init__(self, orb):
        self.orb = orb
        self.protocol = orb.protocol
        #: True while an orderly drain runs: new requests are handed
        #: back as retryable sheds, admitted ones still finish.
        self.draining = False
        self.admission = orb._admission
        self.clock = (self.admission.policy.clock
                      if self.admission is not None else None)
        self.observer = orb.observer
        if self.observer is not None:
            metrics = self.observer.metrics
            self._requests = metrics.counter(
                "rpc.requests", protocol=self.protocol.name
            )
            self._expired = metrics.counter(
                "resilience.deadline_expired", side="server"
            )

    def malformed(self, message):
        """The reply to a request that did not parse.

        It carries no id (there is none to echo — ``RET2 0 ERR``); the
        pump keeps the connection, which is what makes telnet debugging
        possible.
        """
        return error_reply(self.protocol, "Protocol", message)

    def handle(self, call):
        """Select the skeleton from the call header and dispatch (Fig. 5).

        Always returns a Reply: user exceptions, unknown objects and
        methods, and implementation bugs all become ``EXC``/``ERR``
        replies rather than escaping into the pump.
        """
        orb = self.orb
        try:
            # Fast path: target string straight to skeleton, skipping
            # reference parsing (counts as a cache hit — the skeleton
            # came from the skeleton cache originally).
            skeleton = orb._target_skeletons.get(call.target)
            if skeleton is not None:
                orb._count("skeleton_hits")
            else:
                skeleton = orb._select_skeleton(call.target)
            reply = Reply(status=STATUS_OK,
                          marshaller=self.protocol.new_marshaller())
            if orb.trace is not None:
                orb._event(
                    "orb:dispatch",
                    operation=call.operation,
                    skeleton=type(skeleton).__name__,
                )
            span = call.trace_span
            if span is not None:
                span.stage("select")
                # Activate this span's context for the upcall: any
                # outbound calls the implementation makes on this thread
                # parent onto the server span and extend the trace.
                previous = _trace_state.activate(span.context)
            serial = orb._dispatch_serial_lock
            try:
                if serial is None:
                    skeleton.dispatch(call, reply)
                else:
                    with serial:
                        skeleton.dispatch(call, reply)
            finally:
                if span is not None:
                    _trace_state.restore(previous)
            if span is not None:
                span.stage("dispatch")
        except HdUserException as exc:
            reply = Reply(
                status=STATUS_EXCEPTION,
                repo_id=exc._hd_repo_id_,
                marshaller=self.protocol.new_marshaller(),
            )
            exc._hd_marshal(reply, orb)
        except HeidiRmiError as exc:
            # ObjectNotFound, MethodNotFound, a parameter that would not
            # unmarshal, a result the marshaller rejected.
            reply = error_reply(self.protocol, type(exc).__name__, str(exc))
        except Exception as exc:  # implementation bug: report, don't die
            orb._event("orb:implementation-error",
                       error=traceback.format_exc())
            if call.trace_span is not None:
                call.trace_span.fail(exc)
            reply = error_reply(self.protocol, "Implementation",
                                f"{type(exc).__name__}: {exc}")
        # Pipelined protocols echo the request's correlation id so the
        # client's demultiplexer can match out-of-order replies.
        reply.request_id = call.request_id
        return reply

    def _finish_span(self, call, reply=None, coalesced=False):
        """Close the server span once its reply left (or was buffered)."""
        span = call.trace_span
        if span is None:
            return
        # A request is finished once; a later ``done`` finds no span.
        call.trace_span = None
        if reply is not None:
            span.set("status", reply.status)
            if coalesced:
                span.set("coalesced", True)
            span.stage("reply")
        span.finish()
        self.orb._op_histogram("dispatch", call.operation).record(
            span.duration_us)

    def _expire(self, call):
        """Drop a request whose wire-propagated deadline already passed.

        Two-ways still get a ``DeadlineExceeded`` error reply (the
        client maps that category back to a TimeoutError if it is
        somehow still listening); oneways are dropped silently.
        """
        if self.observer is not None:
            self._expired.inc()
        if self.orb.trace is not None:
            self.orb._event("orb:deadline-drop", operation=call.operation)
        if call.trace_span is not None:
            call.trace_span.set("deadline.expired", True)
            self._finish_span(call)
        if call.oneway:
            return None
        return error_reply(
            self.protocol,
            "DeadlineExceeded",
            f"request {call.operation!r} expired before dispatch",
            request_id=call.request_id,
        )

    def _shed(self, call, hint, message, reason):
        """Refuse one request with a typed ``Overloaded`` reply.

        *hint* (seconds) rides the wire twice over: rendered into the
        message as the ``ra=<ms>`` token (the text protocols' in-band
        spelling) and stored on the Reply for encoders with an
        out-of-band slot (GIOP's HDRA ServiceContext + TRANSIENT).
        Shed oneways are simply dropped — there is nothing to answer.
        """
        if self.observer is not None:
            self.observer.metrics.counter("overload.shed",
                                          reason=reason).inc()
        if self.orb.trace is not None:
            self.orb._event("orb:shed", operation=call.operation,
                            reason=reason)
        if call.trace_span is not None:
            call.trace_span.set("shed", reason)
            self._finish_span(call)
        if call.oneway:
            return None
        reply = error_reply(self.protocol, OVERLOADED_CATEGORY,
                            overload_message(hint, message),
                            request_id=call.request_id)
        reply.retry_after = hint
        return reply


class Session:
    """One connection's share of the core: what the pump calls.

    Per request the pump calls :meth:`arrive`; on ``DISPATCH`` it runs
    :meth:`dispatch` somewhere, writes the Reply that returns (asking
    :meth:`encode_failed` for a substitute if it will not encode), and
    reports :meth:`done`.  :attr:`idle` is the drain's question.
    """

    __slots__ = ("core", "_inflight")

    def __init__(self, core):
        self.core = core
        # Admitted requests the pump has not reported done.  A deque
        # because append/pop are atomic: the reading thread (or loop)
        # appends, whichever thread writes the reply pops, no lock.
        self._inflight = collections.deque()

    @property
    def idle(self):
        """Nothing admitted is unfinished: safe to announce a close."""
        return not self._inflight

    def arrive(self, call):
        """Account for one parsed request and decide what happens to it.

        Returns a Reply to write, None (a refused oneway: nothing to
        write), or ``DISPATCH``.
        """
        core = self.core
        orb = core.orb
        if orb.trace is not None:
            orb._event("orb:request", operation=call.operation)
        orb._count("requests")
        if core.observer is not None:
            # Server span: starts once the request is fully parsed (not
            # while the pump idles in a read) and parents onto the
            # wire-propagated client context when the peer sent one;
            # untraced peers just get a root span.
            call.trace_span = core.observer.start_span(
                "server", call.operation, parent=call.trace_context,
                protocol=core.protocol.name,
            )
            core._requests.inc()
        deadline = call.deadline
        if deadline is not None and deadline.budget <= 0.0:
            # The wire said the budget was already gone when the peer
            # sent it (dl=0): the client has stopped waiting, so
            # dispatching is dead work.  The parse re-anchored the
            # budget microseconds ago, so comparing the budget itself
            # replaces a clock read; ``dispatch`` re-checks against the
            # real clock for requests that age on their way to it.
            return core._expire(call)
        admission = core.admission
        if core.draining:
            hint = (admission.shed_draining_one()
                    if admission is not None else 0.05)
            return core._shed(call, hint, "server draining", "draining")
        if admission is None:
            call.admitted_at = None
        else:
            hint = admission.admit(call.operation)
            if hint is not None:
                return core._shed(call, hint, "server overloaded",
                                  "admission")
            call.admitted_at = core.clock()
        self._inflight.append(call)
        return DISPATCH

    def dispatch(self, call):
        """Run one admitted request; returns its Reply, None for oneways.

        A plain blocking callable.  However long the request waited
        between :meth:`arrive` and here (a pool queue, an executor
        hand-off, or no time at all) is the span's ``queue`` stage, and
        a request that out-waited its deadline or the admission
        policy's max queue age is refused instead of run: the caller
        has most likely given up, and doing the work anyway is the
        overload death spiral.
        """
        core = self.core
        if call.trace_span is not None:
            call.trace_span.stage("queue")
        admitted_at = call.admitted_at
        service_started = None
        try:
            if call.deadline is not None and call.deadline.expired:
                return core._expire(call)
            if admitted_at is not None:
                now = core.clock()
                if core.admission.over_age(now - admitted_at):
                    return core._shed(call, core.admission.shed_aged(),
                                      "queued past max age", "age")
                service_started = now
            reply = core.handle(call)
            return None if call.oneway else reply
        finally:
            if admitted_at is not None:
                now = core.clock()
                core.admission.finished(
                    call.operation, now - admitted_at,
                    service_time=(None if service_started is None
                                  else now - service_started),
                )

    def encode_failed(self, call, exc):
        """The Reply to send in place of one that would not encode."""
        return error_reply(self.core.protocol, type(exc).__name__, str(exc),
                           request_id=call.request_id)

    def done(self, call, reply=None, coalesced=False):
        """The pump is through with a dispatched request.

        *reply* is what it wrote (None: a oneway, or the peer is gone);
        *coalesced* says the write was buffered to share a later send.
        """
        self._inflight.pop()
        if call.trace_span is not None:
            self.core._finish_span(call, reply, coalesced)


# ---------------------------------------------------------------------------
# The blocking pump: threads over Channels
# ---------------------------------------------------------------------------


class BlockingServer:
    """Accept on the bootstrap port; serve each connection on a thread.

    "When a client connects to the bootstrap port, a new
    ObjectCommunicator is wrapped around the resulting connection."
    With ``pipeline_workers > 0`` the connection's reader reads ahead
    and hands id-carrying two-way requests to a worker pool, so replies
    complete out of order and one slow call no longer stalls the
    connection.
    """

    def __init__(self, orb):
        self.orb = orb
        self.core = ServerCore(orb)
        self.listener = None
        self.running = False
        self._lock = threading.Lock()
        #: Accepted communicators, closed on stop() so reader threads
        #: blocked in recv unwind promptly.
        self.active = set()  # guarded-by: self._lock
        self._pool = None  # guarded-by: self._lock
        observer = orb.observer
        self._pipeline_gauge = self._meter = None
        if observer is not None:
            self._pipeline_gauge = observer.metrics.gauge(
                "rpc.pipeline_inflight")
            self._meter = observer.channel_meter("server")

    # -- lifecycle ---------------------------------------------------------

    def start(self, host, port):
        """Bind and start accepting; False if already running."""
        with self._lock:
            if self.running:
                return False
            self.listener = self.orb._transport.listen(host, port)
            self.running = True
            self.core.draining = False
        threading.Thread(
            target=self._accept_loop, name="heidirmi-acceptor", daemon=True
        ).start()
        return True

    def stop(self, drain=None):
        """Close the listener, every accepted connection, and the pool."""
        if drain is not None:
            self._drain(float(drain))
        with self._lock:
            was_running, self.running = self.running, False
            self.core.draining = False
            active = list(self.active)
            self.active.clear()
            pool, self._pool = self._pool, None
        if was_running:
            self.listener.close()
            for communicator in active:
                communicator.close()
        if pool is not None:
            pool.shutdown(wait=False)

    def _drain(self, timeout):
        """Orderly-drain phase of ``stop(drain=...)``.

        Sets the draining flag (the core sheds new work from here on),
        closes the listener, then polls the accepted connections: each
        idle one gets its withheld replies flushed, the orderly-close
        frame, and a close — which also unwinds its reader thread,
        blocked in recv, with a clean ``channel-closed``.  Returns once
        every connection is gone or the drain deadline passes
        (stragglers are force-closed, with no close frame, by stop()).
        """
        with self._lock:
            if not self.running or self.core.draining:
                return
            self.core.draining = True
        self.listener.close()
        self.orb._event("orb:drain", timeout=timeout)
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                remaining = [c for c in self.active if not c.closed]
            if not remaining:
                return
            for communicator in remaining:
                if communicator.session.idle:
                    self._close_orderly(communicator)
            if time.monotonic() >= deadline:
                self.orb._event("orb:drain-expired",
                                remaining=len(remaining))
                return
            time.sleep(0.002)

    def _close_orderly(self, communicator):
        """Flush withheld replies, announce the close, close the socket."""
        try:
            communicator.flush_replies()
            self.orb.protocol.send_close(communicator.channel)
        except (CommunicationError, OSError):
            pass  # peer already gone; the close below still runs
        communicator.close()

    def _executor(self):
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(1, self.orb.pipeline_workers),
                    thread_name_prefix="heidirmi-dispatch",
                )
            return self._pool

    # -- accepting ---------------------------------------------------------

    def _accept_loop(self):
        while self.running:
            try:
                channel = self.listener.accept()
            except CommunicationError:
                break
            self.orb._event("orb:accept", peer=channel.peer)
            threading.Thread(
                target=self._serve_channel,
                args=(channel,),
                name="heidirmi-conn",
                daemon=True,
            ).start()

    def _serve_channel(self, channel):
        # Whatever happens inside, this thread must never die without
        # closing the channel — a silently leaked connection would leave
        # the client blocked forever.
        observer = self.orb.observer
        if self._meter is not None:
            channel.meter = self._meter
        flight = getattr(observer, "flight", None)
        if flight is not None:
            flight.attach(channel, self.orb.protocol.name, "server")
        communicator = ObjectCommunicator(channel, self.orb.protocol,
                                          observer=observer)
        communicator.session = Session(self.core)
        with self._lock:
            self.active.add(communicator)
        try:
            self._serve(communicator)
        except Exception:  # defensive: bug in the server loop itself
            self.orb._event("orb:server-loop-error",
                            error=traceback.format_exc())
        finally:
            with self._lock:
                self.active.discard(communicator)
            communicator.close()

    @staticmethod
    def _postmortem(communicator, reason):
        """Spool a flight bundle for a server channel that died.

        A peer that simply hung up between requests is routine — only
        mid-stream failures (resets, garbled frames, chaos kills) leave
        a bundle.
        """
        if getattr(reason, "kind", None) == "peer-closed":
            return
        recorder = getattr(communicator.channel, "flight", None)
        if recorder is not None:
            recorder.postmortem(reason)

    # -- serving -----------------------------------------------------------

    def _serve(self, communicator):
        session = communicator.session
        workers = self.orb.pipeline_workers
        # Bounded read-ahead: at most this many requests of one
        # connection sit in (or wait for) the pool.
        window = (threading.Semaphore(max(2, workers * 2))
                  if workers > 0 else None)
        # Hoisted out of the per-request loop: these run once per call.
        channel = communicator.channel
        next_request = communicator.next_request
        object_key_exists = self.orb._object_key_exists
        arrive = session.arrive
        dispatch = session.dispatch
        while self.running and not communicator.closed:
            if not channel.has_buffered:
                # The read-ahead backlog drained: nothing further can
                # coalesce with any withheld replies (the next request
                # may be a oneway, or never come at all), so push them
                # out before blocking — otherwise a burst ending in a
                # oneway would strand its replies in the sink forever.
                try:
                    communicator.flush_replies()
                except CommunicationError as exc:
                    self._postmortem(communicator, exc)
                    return
            try:
                call = next_request(object_exists=object_key_exists)
            except CommunicationError as exc:
                self._postmortem(communicator, exc)
                return
            except ProtocolError as exc:
                reply = self.core.malformed(str(exc))
            else:
                reply = arrive(call)
            if reply is not DISPATCH:
                if reply is not None:
                    try:
                        communicator.reply(reply)
                    except CommunicationError:
                        pass  # peer already gone; the next read says so
                continue
            if (
                window is not None
                and not call.oneway
                and call.request_id is not None
            ):
                # Oneways stay inline (their per-connection ordering is
                # a guarantee) and id-less requests stay serial (replies
                # would be correlated by order alone).
                window.acquire()
                if self._pipeline_gauge is not None:
                    self._pipeline_gauge.add(1)
                try:
                    self._executor().submit(
                        self._serve_pooled, communicator, call, window)
                    continue
                except RuntimeError:
                    # The pool shut down mid-stop: finish this request
                    # inline, like any other caught in flight by stop().
                    self._release(window)
            reply = dispatch(call)
            # More requests already waiting: coalesce this reply with
            # theirs into one send (ids let the client demultiplex, so
            # grouping replies is safe).
            coalesce = (reply is not None and call.request_id is not None
                        and channel.has_buffered)
            try:
                reply = self._write(communicator, call, reply, coalesce)
            except CommunicationError as exc:
                self._postmortem(communicator, exc)
                return
            finally:
                session.done(call, reply, coalesce)

    def _serve_pooled(self, communicator, call, window):
        """Pipeline worker body: dispatch one read-ahead request."""
        session = communicator.session
        reply = None
        try:
            reply = self._write(communicator, call, session.dispatch(call))
        except CommunicationError:
            pass  # connection died; the reader loop notices too
        except Exception:  # defensive: bug in the pipeline itself
            self.orb._event("orb:server-loop-error",
                            error=traceback.format_exc())
        finally:
            session.done(call, reply)
            self._release(window)

    def _release(self, window):
        window.release()
        if self._pipeline_gauge is not None:
            self._pipeline_gauge.add(-1)

    @staticmethod
    def _write(communicator, call, reply, coalesce=False):
        """Send (or buffer) *reply*; returns the Reply that went out.

        A reply that will not encode (a result value the marshaller
        rejects at emission) is replaced by the core's typed error
        reply instead of killing the connection.
        """
        if reply is None:
            return None
        try:
            if coalesce:
                communicator.buffer_reply(reply)
            else:
                communicator.reply(reply)
        except CommunicationError:
            raise
        except Exception as exc:
            reply = communicator.session.encode_failed(call, exc)
            communicator.reply(reply)
        return reply
