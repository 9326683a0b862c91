"""The serving core and the blocking pump that drives it (Fig. 5).

Every decision a server makes about one connection lives in
:class:`ServerCore` and its per-connection :class:`Session`, once:

    the event: a request, a locate, a cancel, an orderly close, a
      malformed message (answered, the connection kept) or one the
      stream cannot survive (spooled, the connection closed)
    → account (stats, ``rpc.requests``, server span, trace event)
    → expired on arrival → draining → admission
    → dispatch (re-checked first: expired or over-age while it waited)
    → ``admission.finished`` → reply / encode-failure reply
    → idle (for the orderly drain)

The core does no I/O and starts nothing: a wire event goes in, and out
comes a ``Reply`` to write, a ``LocateReplied`` to emit, ``None``
(nothing to say), ``CLOSE`` (end the connection) or ``DISPATCH`` — run
``session.dispatch(event.call)``, a plain blocking callable, wherever
the pump likes (the reader thread, ``loop.run_in_executor``).  Its only
clock is the admission policy's.

A *pump* owns how bytes are read, where ``dispatch`` runs, and how a
``Reply`` is written or coalesced — nothing else.  Two exist:
:class:`BlockingServer` below (acceptor thread, a reader thread per
connection) and the coroutine ``repro.wire.aio.AioOrbServer``.  Both
dispatch one connection's requests serially, in arrival order.
"""

import collections
import threading
import time
import traceback

from repro.model.call import Reply, STATUS_ERROR, STATUS_EXCEPTION, STATUS_OK
from repro.heidirmi.communicator import ObjectCommunicator
from repro.model.errors import (
    CommunicationError,
    HeidiRmiError,
    ProtocolError,
)
from repro.heidirmi.exceptions_user import HdUserException
from repro.observe import context as _trace_state
from repro.wire.events import (
    CloseReceived,
    LocateReplied,
    LocateRequested,
    RequestReceived,
    WireViolation,
)
from repro.wire.headers import OVERLOADED_CATEGORY, overload_message

#: ``Session.event`` / ``Session.arrive`` outcome: run
#: ``session.dispatch(call)``.
DISPATCH = object()

#: ``Session.event`` outcome: the connection is over; close it.
CLOSE = object()


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

        It carries no id (there is none to echo), so it leaves with the
        reserved id 0 — ``RET2 0 ERR``, a GIOP Reply to request 0 —
        and the connection is kept, which is what makes telnet
        debugging possible.  The only reply that names no request.
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

    Per inbound wire event the pump calls :meth:`event`; on
    ``DISPATCH`` it runs :meth:`dispatch` somewhere, writes the Reply
    that returns (asking :meth:`encode_failed` for a substitute if it
    will not encode), and reports :meth:`done`.  :attr:`idle` is the
    drain's question.  *flight* is the connection's flight recorder, if
    it has one.
    """

    __slots__ = ("core", "flight", "_inflight")

    def __init__(self, core, flight=None):
        self.core = core
        self.flight = flight
        # Admitted requests the pump has not reported done.  A deque
        # because append/pop are atomic: the pump appends and pops, the
        # drain reads ``idle`` from another thread, no lock.
        self._inflight = collections.deque()

    @property
    def idle(self):
        """Nothing admitted is unfinished: safe to announce a close."""
        return not self._inflight

    def event(self, event):
        """What the pump does about one server-role wire event.

        A request is :meth:`arrive`'s to decide; a LocateRequest is
        answered with the :class:`LocateReplied` to emit; a malformed
        message with :meth:`ServerCore.malformed`'s reply, keeping the
        connection; a CancelRequest with nothing (dispatch is
        synchronous, there is nothing to cancel).  An orderly close
        ends the connection — ``CLOSE`` — and so does a violation the
        stream cannot survive, once the flight ring is spooled.
        """
        kind = type(event)
        if kind is RequestReceived:
            return self.arrive(event.call)
        if kind is WireViolation:
            if event.recoverable:
                return self.core.malformed(event.message)
            if self.flight is not None:
                self.flight.postmortem(ProtocolError(event.message))
            return CLOSE
        if kind is LocateRequested:
            # GIOP-only traffic: the text-only server never loads this.
            from repro.giop.messages import (
                LOCATE_OBJECT_HERE,
                LOCATE_UNKNOWN_OBJECT,
            )

            here = self.core.orb._object_key_exists(event.object_key)
            return LocateReplied(
                event.request_id,
                LOCATE_OBJECT_HERE if here else LOCATE_UNKNOWN_OBJECT)
        if kind is CloseReceived:
            return CLOSE
        return None

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
        between :meth:`arrive` and here (an executor hand-off, or no
        time at all) is the span's ``queue`` stage, and
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
    The connection's reader thread dispatches each request inline, so
    a slow upcall holds back the requests behind it on the same
    connection; exclusive client connections get a thread each.
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
        observer = orb.observer
        self._meter = (observer.channel_meter("server")
                       if observer is not None else None)

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
        """Close the listener and every accepted connection."""
        if drain is not None:
            self._drain(float(drain))
        with self._lock:
            was_running, self.running = self.running, False
            self.core.draining = False
            active = list(self.active)
            self.active.clear()
        if was_running:
            self.listener.close()
            for communicator in active:
                communicator.close()

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
        # Classic text has no close frame; EOF is its only goodbye.
        emit_close = getattr(communicator.machine, "emit_close", None)
        try:
            communicator.flush_replies()
            if emit_close is not None:
                communicator.channel.send(emit_close())
        except (CommunicationError, OSError):
            pass  # peer already gone; the close below still runs
        communicator.close()

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
                                          observer=observer, role="server")
        communicator.session = Session(self.core, communicator.machine.tap)
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
        if communicator.machine.tap is not None:
            communicator.machine.tap.postmortem(reason)

    # -- serving -----------------------------------------------------------

    def _serve(self, communicator):
        session = communicator.session
        # Hoisted out of the per-request loop: these run once per call.
        channel = communicator.channel
        next_event = communicator.next_event
        decide = session.event
        dispatch = session.dispatch
        while self.running and not channel.closed:
            if not channel.has_buffered:
                # The receive backlog drained: nothing further can
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
                event = next_event()
            except CommunicationError as exc:
                self._postmortem(communicator, exc)
                return
            outcome = decide(event)
            if outcome is not DISPATCH:
                if outcome is CLOSE:
                    return
                if outcome is not None:
                    try:
                        self._answer(communicator, outcome)
                    except CommunicationError:
                        pass  # peer already gone; the next read says so
                continue
            call = event.call
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

    @staticmethod
    def _answer(communicator, outcome):
        """Write what the session answered without a dispatch."""
        if type(outcome) is LocateReplied:
            communicator.channel.send(communicator.machine.emit_locate_reply(
                outcome.request_id, outcome.status))
        else:
            communicator.reply(outcome)

    @staticmethod
    def _write(communicator, call, reply, coalesce):
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
