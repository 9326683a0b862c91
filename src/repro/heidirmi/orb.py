"""The per-address-space ORB core.

One :class:`Orb` per address space: it owns the bootstrap port, the
object table, the stub/skeleton caches and the connection cache, and it
drives both sides of Figs. 4 and 5:

- client side — ``create_call`` / ``invoke`` behind the stubs;
- server side — the object table and skeleton cache that requests are
  dispatched against.  Accepting connections, reading requests and
  deciding what happens to each is :mod:`repro.heidirmi.serving`.

Everything the paper calls configurable is a constructor knob: the
transport, the wire protocol, the dispatch strategy, and each cache.
"""

import functools
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.model.call import Call
from repro.heidirmi.connection import ConnectionCache
from repro.model.errors import (
    CommunicationError,
    DeadlineExceeded,
    HeidiRmiError,
    MarshalError,
    ObjectNotFound,
    ProtocolError,
    RemoteError,
)
from repro.heidirmi.exceptions_user import HdUserException
from repro.model.objref import ObjectReference
from repro.heidirmi.protocol import get_protocol
from repro.heidirmi.serialize import GLOBAL_TYPES
from repro.heidirmi.serving import BlockingServer
from repro.heidirmi.stub import HdStub
from repro.heidirmi.transport import get_transport
from repro.resilience.breaker import BREAKER_CLOSED, BREAKER_OPEN, CircuitBreaker
from repro.model.deadline import Deadline
from repro.resilience.engine import PolicyPlan, resilient_invoke, resolve_deadline
from repro.resilience.overload import AdmissionController


class Orb:
    """A configurable object request broker for one address space."""

    def __init__(
        self,
        host="127.0.0.1",
        port=0,
        transport="tcp",
        protocol="text",
        dispatch_strategy="hash",
        types=None,
        cache_stubs=True,
        cache_skeletons=True,
        cache_connections=True,
        threading_model="threaded",
        multiplex=False,
        pipeline_workers=0,
        batch_oneways=False,
        trace=None,
        observer=None,
        connect_timeout=None,
        default_deadline=None,
        resilience=None,
        admission=None,
        monitor=False,
    ):
        self.host = host
        self.transport_name = transport
        self.protocol = get_protocol(protocol)
        self.dispatch_strategy = dispatch_strategy
        if threading_model not in ("threaded", "serialized"):
            raise HeidiRmiError(
                f"unknown threading model {threading_model!r}; "
                "choose 'threaded' or 'serialized'"
            )
        #: "threaded" dispatches requests concurrently (one worker per
        #: connection); "serialized" runs at most one implementation
        #: upcall at a time — the non-preemptive computation model the
        #: paper says made a general-purpose ORB unusable for Heidi.
        self.threading_model = threading_model
        self._dispatch_serial_lock = (
            threading.Lock() if threading_model == "serialized" else None
        )
        self.types = types if types is not None else GLOBAL_TYPES
        self.trace = trace
        #: ``repro.observe.Observer``: when set, every invoke produces a
        #: client span, every served request a server span (linked via
        #: the wire-propagated trace context), and the ORB records the
        #: metric catalogue of docs/OBSERVABILITY.md into its registry.
        #: None (the default) keeps the hot path to ``is None`` tests.
        self.observer = observer
        #: True registers the built-in ORBMonitor object (live ORB
        #: introspection served over the ORB itself) on start().
        self.monitor = bool(monitor)
        self._transport = get_transport(transport)
        self._requested_port = port
        self._lock = threading.RLock()

        # Object table: oid -> (impl, type_id); skeletons made lazily.
        self._objects = {}
        self._object_refs = {}  # id(impl) -> ObjectReference
        self._next_oid = 1
        # Parsed-target memo for the server hot path: every request on a
        # connection repeats the same stringified references, so parsing
        # each once is pure win.  Bounded to stay byte-sane under churn.
        self._parsed_targets = {}

        self._cache_stubs = cache_stubs
        self._cache_skeletons = cache_skeletons
        # Front cache for the dispatch hot path: raw target string ->
        # skeleton, skipping reference parsing entirely on a hit.
        # Cleared wholesale on unregister; bounded against churn.
        self._target_skeletons = {}
        self._stubs = {}
        self._skeletons = {}
        #: True when client calls share one demultiplexed channel per
        #: peer instead of checking a connection out exclusively.
        self.multiplex = bool(multiplex)
        if self.multiplex and not getattr(
            self.protocol, "supports_multiplexing", False
        ):
            raise HeidiRmiError(
                f"protocol {self.protocol.name!r} has no request ids and "
                "cannot be multiplexed; use protocol='text2' or 'giop'"
            )
        #: >0 enables the server-side pipeline: the connection reader
        #: reads ahead and dispatches to this many pooled workers, so
        #: replies on id-carrying protocols can complete out of order.
        self.pipeline_workers = int(pipeline_workers)
        #: Connection-establishment budget in seconds; None defers to
        #: the transport default (30 s for tcp).
        self.connect_timeout = connect_timeout
        #: Default per-call deadline (seconds or a Deadline budget)
        #: applied when neither the call nor the invoke carries one.
        self.default_deadline = default_deadline
        #: :class:`repro.resilience.ResiliencePolicy` (retry, breaker,
        #: default deadline) — None keeps the pre-resilience hot path.
        self.resilience = resilience
        # One extra boolean test on Orb.invoke is all the resilience
        # layer costs an unconfigured Orb.
        self._resilient = resilience is not None or default_deadline is not None
        if self._resilient:
            # Every invoke on this Orb takes the resilient path, so
            # bind the engine as the *instance's* invoke: stubs reach
            # resilient_invoke in one frame instead of detouring
            # through the class method's dispatch test.  (Policies are
            # fixed at construction; nothing rebinds this later.)
            self.invoke = functools.partial(resilient_invoke, self)
        #: Server-side overload control: an
        #: :class:`~repro.resilience.overload.AdmissionPolicy` (or a
        #: prebuilt AdmissionController) bounds the dispatch queue and
        #: answers the excess with typed ``Overloaded`` replies carrying
        #: retry-after hints.  None (the default) admits everything.
        if admission is None or isinstance(admission, AdmissionController):
            self._admission = admission
        else:
            self._admission = AdmissionController(admission)
        # Lazily-built per-endpoint retry budgets (bootstrap-keyed, like
        # the breakers); consulted by the engine before every retry.
        self._retry_budgets = {}  # guarded-by: self._lock
        # Lazily-built per-endpoint circuit breakers (bootstrap-keyed),
        # bounded: once the table outgrows _breaker_cap, creating a new
        # breaker reaps closed breakers whose endpoints hold no cached
        # connections (lifecycle tied to ConnectionCache eviction).
        self._breakers = {}  # guarded-by: self._lock
        self._breaker_cap = 256
        # Bumped whenever the breaker table is reaped; cached PolicyPlans
        # carry the epoch they were built under and rebuild on mismatch.
        self._plan_epoch = 0  # guarded-by: self._lock
        self.connections = ConnectionCache(
            get_transport,
            self.protocol,
            enabled=cache_connections,
            mode="multiplexed" if self.multiplex else "exclusive",
            communicator_options={"batch_oneways": batch_oneways,
                                  "observer": observer},
            observer=observer,
            connect_timeout=connect_timeout,
        )
        self._async_pool = None  # guarded-by: self._pool_lock
        self._pool_lock = threading.Lock()
        #: Counters read by the caching benchmarks.  Mutated through
        #: _count() under _stats_lock — concurrent client threads and
        #: pipelined server workers all bump them.
        self._stats_lock = threading.Lock()
        self.stats = {  # guarded-by: self._stats_lock
            "stub_hits": 0,
            "stub_created": 0,
            "skeleton_hits": 0,
            "skeleton_created": 0,
            "requests": 0,
            "calls": 0,
        }
        # Per-operation latency histograms are memoized here so the hot
        # path never touches the registry dict.
        self._op_instruments = {}
        #: The blocking server front-end (listener, reader threads,
        #: drain) and, inside it, the serving core; idle until start().
        self._server = BlockingServer(self)

    def _count(self, key, n=1):
        with self._stats_lock:
            self.stats[key] += n

    # -- observe helpers -----------------------------------------------------

    def _op_histogram(self, side, operation):
        """Memoized per-(side, operation) latency histogram."""
        key = (side, operation)
        histogram = self._op_instruments.get(key)
        if histogram is None:
            histogram = self.observer.metrics.histogram(
                f"rpc.{side}_us",
                protocol=self.protocol.name,
                operation=operation,
            )
            self._op_instruments[key] = histogram
        return histogram

    def _finish_client_span(self, call, reply=None, error=None):
        """Close a client span: wait stage, status/error tags, latency."""
        span = call.trace_span
        if span is None:
            return
        if error is not None:
            span.finish(error=error)
            self.observer.metrics.counter(
                "rpc.errors", kind=getattr(error, "kind", "error")
            ).inc()
        else:
            span.stage("wait")
            if reply is not None:
                span.set("status", reply.status)
            span.finish()
        self._op_histogram("invoke", call.operation).record(span.duration_us)

    def _watch_future(self, call, future):
        """Finish the call's client span when its reply future resolves."""
        def _complete(done):
            error = done.exception()
            if error is not None:
                self._finish_client_span(call, error=error)
            else:
                self._finish_client_span(call, reply=done.result())
        future.add_done_callback(_complete)

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Bind the bootstrap port and start accepting connections."""
        if not self._server.start(self.host, self._requested_port):
            return self
        if self.monitor:
            # Registered after the listener binds (references embed the
            # bound port) and exactly once across restarts.  Imported
            # lazily: repro.observe.monitor imports the stub/skeleton
            # bases from this package.
            from repro.observe.monitor import MONITOR_OID, MonitorImpl

            with self._lock:
                already = MONITOR_OID in self._objects
            if not already:
                self.register(MonitorImpl(self), oid=MONITOR_OID)
        self._event("orb:listen", address=self.address)
        return self

    def stop(self, drain=None):
        """Shut down the listener, worker threads and cached connections.

        *drain* (seconds) requests an orderly drain first: stop
        accepting, let in-flight requests finish under the drain
        deadline, and send each idle peer the protocol's orderly-close
        frame (text2 ``BYE``, GIOP CloseConnection) before the socket
        closes — so multiplexed clients see their pending calls fail as
        retryable ``draining`` handoffs, not channel deaths.  Whatever
        is still busy when the drain deadline passes is force-closed
        exactly as a plain ``stop()`` would.
        """
        self._server.stop(drain)
        # Outbound connections exist even on a client-only Orb that was
        # never start()ed; close them unconditionally so their flight
        # recorders disarm BEFORE the peer's shutdown can look like a
        # channel death from this side.
        self.connections.close_all()
        with self._pool_lock:
            pool, self._async_pool = self._async_pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def _async_executor(self):
        with self._pool_lock:
            if self._async_pool is None:
                self._async_pool = ThreadPoolExecutor(
                    max_workers=8, thread_name_prefix="heidirmi-async"
                )
            return self._async_pool

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, exc_tb):
        self.stop()

    @property
    def address(self):
        """(host, port) actually bound (port resolves 0 → ephemeral)."""
        listener = self._server.listener
        if listener is not None:
            return listener.address
        return (self.host, self._requested_port)

    @property
    def port(self):
        return self.address[1]

    def _event(self, name, **detail):
        if self.trace is not None:
            self.trace(name, detail)

    # -- object registration ---------------------------------------------------

    def register(self, impl, type_id=None, oid=None):
        """Register an implementation object; returns its reference.

        The implementation need not know it is remote-accessible — the
        delegation skeleton is created lazily, at first dispatch or when
        the reference crosses the wire.
        """
        if type_id is None:
            type_id = self._type_id_of(impl)
        with self._lock:
            if oid is None:
                oid = str(self._next_oid)
                self._next_oid += 1
            elif oid in self._objects:
                raise HeidiRmiError(f"object id {oid!r} already registered")
            self._objects[oid] = (impl, type_id)
            reference = ObjectReference(
                protocol=self.transport_name,
                host=self.host,
                port=self.port,
                object_id=oid,
                type_id=type_id,
            )
            self._object_refs[id(impl)] = reference
        self._event("orb:register", oid=oid, type_id=type_id)
        return reference

    def export(self, impl, type_id=None):
        """The reference for *impl*, registering it on first export."""
        with self._lock:
            existing = self._object_refs.get(id(impl))
        if existing is not None:
            return existing
        return self.register(impl, type_id=type_id)

    def unregister(self, oid):
        with self._lock:
            self._objects.pop(oid, None)
            self._skeletons.pop(oid, None)
            # Target strings embed the oid; dropping the whole front
            # cache is simpler than finding them (unregister is rare).
            self._target_skeletons.clear()

    @staticmethod
    def _type_id_of(impl):
        type_id = getattr(impl, "_hd_type_id_", None)
        if isinstance(type_id, str) and type_id:
            return type_id
        getter = getattr(impl, "_hd_type_id", None)
        if callable(getter):
            return getter()
        raise HeidiRmiError(
            f"cannot infer a repository ID for {type(impl).__name__}; "
            "pass type_id= explicitly"
        )

    # -- stubs -------------------------------------------------------------------

    def resolve(self, reference):
        """A stub for *reference* (cached per stringified reference)."""
        if isinstance(reference, str):
            reference = ObjectReference.parse(reference)
        key = reference.stringify()
        if self._cache_stubs:
            # Lock-free read; see _skeleton_for for why this is safe.
            stub = self._stubs.get(key)
            if stub is not None:
                self._count("stub_hits")
                return stub
        stub_class = self.types.stub_class(reference.type_id) or HdStub
        stub = stub_class(reference, self)
        self._count("stub_created")
        self._event("orb:stub", type_id=reference.type_id,
                    cls=stub_class.__name__)
        if self._cache_stubs:
            with self._lock:
                # A racing resolver may have cached one meanwhile; keep
                # the first so callers keep seeing a single identity.
                stub = self._stubs.setdefault(key, stub)
        return stub

    # -- client call path (Fig. 4) --------------------------------------------------

    def create_call(self, reference, operation, oneway=False, idempotent=False):
        """A new writable Call addressed at *reference* (Fig. 4 step 1).

        *idempotent* declares the operation retry-safe: a configured
        RetryPolicy may transparently re-send it on retryable failures
        (oneways always qualify).
        """
        if self.trace is not None:
            self._event("call:new", operation=operation)
        call = Call(
            reference.stringify(),
            operation,
            marshaller=self.protocol.new_marshaller(),
            oneway=oneway,
            idempotent=idempotent,
        )
        if self.observer is not None:
            # The span starts here so parameter marshalling (between
            # create_call and invoke) shows up as the marshal stage;
            # its context token rides the wire to link the server span.
            span = self.observer.start_span(
                "client", operation, protocol=self.protocol.name
            )
            call.trace_span = span
            call.trace_context = span.context.token()
        return call

    def invoke(self, reference, call, deadline=None):
        """Invoke *call* (Fig. 4 steps 2–4); returns the Reply.

        *deadline* (seconds or a :class:`repro.resilience.Deadline`)
        bounds the whole invocation — connect, send and reply wait —
        and is propagated on the wire so the server can drop the
        request once it expires.  Calls with no deadline, on an Orb
        with no resilience policy, take the exact pre-resilience path.
        """
        if deadline is not None or self._resilient or call.deadline is not None:
            return resilient_invoke(self, reference, call, deadline)
        self._count("calls")
        span = call.trace_span
        if span is not None:
            # Everything since create_call was parameter marshalling.
            span.stage("marshal")
        try:
            reply = self._invoke_once(reference, call)
        except CommunicationError as exc:
            self._finish_client_span(call, error=exc)
            raise
        if span is not None:
            self._finish_client_span(call, reply=reply)
        return reply

    def _invoke_once(self, reference, call):
        """One acquire→invoke→release attempt; the span stays open.

        Shared by the fast path and the resilient engine (which may
        run several attempts under one client span).  A call deadline
        clamps connection establishment too.
        """
        bootstrap = reference.bootstrap
        # The deadline clamps connection establishment too, but the
        # remaining budget is only computed if the cache actually has
        # to connect — a pooled hit pays nothing for it.
        communicator = self.connections.acquire(
            bootstrap, None, call.deadline
        )
        if self.trace is not None:
            self._event("call:invoke", operation=call.operation,
                        target=call.target)
        try:
            reply = communicator.invoke(call)
        except BaseException as exc:
            self._settle_failed(bootstrap, communicator, exc)
            raise
        self.connections.release(bootstrap, communicator)
        if self.trace is not None:
            self._event("call:reply",
                        status=None if reply is None else reply.status)
        return reply

    def _settle_failed(self, bootstrap, communicator, exc):
        """Give back or drop *communicator* after *exc* ended a call on
        it, so that no failure leaks a checked-out connection."""
        if isinstance(exc, (DeadlineExceeded, MarshalError)):
            # The channel is intact unless the deadline closed it: one
            # expired call must not take a shared channel from its
            # channel-mates, and an encode error (GIOP judges values
            # at emit, after the acquire) put nothing on the wire.
            if communicator.closed:
                self.connections.discard(communicator)
            else:
                self.connections.release(bootstrap, communicator)
        elif isinstance(exc, CommunicationError):
            self.connections.discard(communicator, reason=exc)
        elif not communicator.multiplexed:
            # Anything else leaves an exclusive channel's stream
            # position unknown; a shared one is its demux reader's.
            self.connections.discard(communicator)

    def invoke_async(self, reference, call):
        """Invoke *call* without blocking; returns a Future of the Reply.

        On a multiplexed ORB the request is pipelined onto the shared
        channel and the demultiplexer completes the future.  On an
        exclusive ORB the blocking round trip runs on a small helper
        pool, so the caller still gets a future either way.
        """
        self._count("calls")
        span = call.trace_span
        if span is not None:
            span.stage("marshal")
        bootstrap = reference.bootstrap
        communicator = self.connections.acquire(bootstrap)
        if self.trace is not None:
            self._event("call:invoke", operation=call.operation,
                        target=call.target)
        if communicator.multiplexed:
            try:
                future = communicator.invoke_async(call)
            except CommunicationError as exc:
                self.connections.discard(communicator, reason=exc)
                self._finish_client_span(call, error=exc)
                raise
            self.connections.release(bootstrap, communicator)
            if span is not None:
                self._watch_future(call, future)
            return future

        def _round_trip():
            try:
                reply = communicator.invoke(call)
            except BaseException as exc:
                self._settle_failed(bootstrap, communicator, exc)
                if isinstance(exc, CommunicationError):
                    self._finish_client_span(call, error=exc)
                raise
            self.connections.release(bootstrap, communicator)
            self._finish_client_span(call, reply=reply)
            return reply

        return self._async_executor().submit(_round_trip)

    def invoke_bulk(self, reference, calls, deadline=None):
        """Pipeline a burst of calls and block for all their replies.

        On a multiplexed ORB the window goes out in one send and the
        caller sleeps on a single completion event until the last reply
        lands — far less per-call overhead than a future each.  Returns
        replies in call order (None for oneways).  Exclusive ORBs fall
        back to sequential :meth:`invoke`.

        *deadline* bounds the whole window: every call in the burst
        shares the one budget (propagated per-request on the wire), and
        expiry abandons the outstanding entries without touching
        channel-mates.
        """
        if not isinstance(calls, (list, tuple)):
            calls = list(calls)
        if deadline is not None or self._resilient:
            deadline = resolve_deadline(self, deadline)
            if deadline is not None:
                for call in calls:
                    call.deadline = deadline
        bootstrap = reference.bootstrap
        communicator = self.connections.acquire(bootstrap)
        if not communicator.multiplexed:
            self.connections.release(bootstrap, communicator)
            return [self.invoke(reference, call, deadline=deadline)
                    for call in calls]
        self._count("calls", len(calls))
        try:
            replies = communicator.invoke_pipelined_sync(calls,
                                                         deadline=deadline)
        except CommunicationError as exc:
            self._settle_failed(bootstrap, communicator, exc)
            if self.observer is not None:
                for call in calls:
                    self._finish_client_span(call, error=exc)
            raise
        self.connections.release(bootstrap, communicator)
        if self.observer is not None:
            for call, reply in zip(calls, replies):
                self._finish_client_span(call, reply=reply)
        return replies

    def flush(self):
        """Flush any batched oneway sends on cached client connections."""
        self.connections.flush_all()

    def rebuild_exception(self, reply):
        """Turn an EXC reply back into the declared exception instance."""
        exc_class = self.types.value_class(reply.repo_id)
        if exc_class is not None and issubclass(exc_class, HdUserException):
            return exc_class._hd_unmarshal(reply, self)
        return RemoteError("user exception", repo_id=reply.repo_id)

    # -- resilience helpers ------------------------------------------------

    def _plan_for(self, reference):
        """The cached :class:`PolicyPlan` for *reference*, rebuilt when
        stale (different Orb, or the breaker table was reaped since).

        ObjectReference is a frozen dataclass with a ``__dict__`` (its
        cached_property renders live there), so the plan rides the
        reference the same way: the per-call cost of policy resolution
        is one ``getattr`` and two compares instead of policy/default
        lookups, a Deadline coercion and a ``_breakers`` probe per
        invoke.
        """
        plan = getattr(reference, "_hd_plan", None)
        if (plan is not None and plan.orb is self
                and plan.epoch == self._plan_epoch):
            return plan
        policy = self.resilience
        retry = policy.retry if policy is not None else None
        budget = policy.default_deadline if policy is not None else None
        if budget is None:
            budget = self.default_deadline
        if budget is not None and not isinstance(budget, Deadline):
            budget = float(budget)
        retry_budget = None
        if policy is not None and policy.retry_budget is not None:
            retry_budget = self._retry_budget_for(reference.bootstrap)
        plan = PolicyPlan(self, self._plan_epoch, budget, retry,
                          self._breaker_for(reference.bootstrap),
                          retry_budget=retry_budget)
        # Store past the frozen-dataclass guard, exactly as
        # cached_property does.
        reference.__dict__["_hd_plan"] = plan
        return plan

    def _retry_budget_for(self, bootstrap):
        """This endpoint's RetryBudget (lazily built, breaker-style)."""
        # race-ok: lock-free probe; a miss re-probes under the lock.
        budget = self._retry_budgets.get(bootstrap)
        if budget is None:
            with self._lock:
                budget = self._retry_budgets.get(bootstrap)
                if budget is None:
                    if len(self._retry_budgets) >= self._breaker_cap:
                        # Endpoint churn outgrew the table: start over
                        # (fresh full buckets — strictly permissive for
                        # one burst) and invalidate cached plans.
                        self._retry_budgets.clear()
                        self._plan_epoch += 1
                    budget = self.resilience.retry_budget.build()
                    self._retry_budgets[bootstrap] = budget
        return budget

    def _breaker_for(self, bootstrap):
        """This endpoint's CircuitBreaker (lazily built); None when the
        resilience policy has no breaker configured."""
        policy = self.resilience
        if policy is None or policy.breaker is None:
            return None
        # race-ok: lock-free probe; a miss re-probes under the lock.
        breaker = self._breakers.get(bootstrap)
        if breaker is None:
            with self._lock:
                breaker = self._breakers.get(bootstrap)
                if breaker is None:
                    if len(self._breakers) >= self._breaker_cap:
                        self._reap_breakers()
                    breaker = CircuitBreaker(
                        policy.breaker,
                        on_transition=(
                            lambda old, new, bootstrap=bootstrap:
                            self._breaker_transition(bootstrap, old, new)
                        ),
                    )
                    self._breakers[bootstrap] = breaker
        return breaker

    def _reap_breakers(self):  # holds-lock: self._lock
        """Drop closed breakers for endpoints with no cached connections.

        Called under ``_lock`` when the breaker table hits its cap, so
        per-endpoint breakers cannot grow without bound as references
        churn.  Open and half-open breakers are never reaped — their
        state is exactly what sheds traffic to a broken endpoint — and
        an endpoint that still holds pooled/shared connections keeps
        its breaker (its window is live history).  Reaping bumps the
        plan epoch so cached PolicyPlans drop their stale breaker refs.
        """
        has_cached = self.connections.has_cached
        victims = [
            bootstrap
            for bootstrap, breaker in self._breakers.items()
            if breaker.state == BREAKER_CLOSED and not has_cached(bootstrap)
        ]
        if not victims:
            return
        for bootstrap in victims:
            del self._breakers[bootstrap]
        self._plan_epoch += 1

    def _breaker_transition(self, bootstrap, old, new):
        if self.observer is not None:
            self.observer.metrics.counter(
                "resilience.breaker_transitions", to=new
            ).inc()
        if self.trace is not None:
            self._event(
                "resilience:breaker",
                endpoint=f"{bootstrap[1]}:{bootstrap[2]}",
                old=old, new=new,
            )
        if new == BREAKER_OPEN:
            # Connections to an endpoint judged broken are torn down
            # now, so the eventual half-open probe reconnects fresh
            # instead of inheriting a wedged channel.
            self.connections.evict_endpoint(bootstrap)

    def _object_key_exists(self, object_key):
        """Locate support: does this address space host *object_key*?"""
        try:
            reference = ObjectReference.parse(
                object_key.decode("utf-8") if isinstance(object_key, bytes)
                else object_key
            )
        except (ProtocolError, UnicodeDecodeError):
            return False
        return reference.object_id in self._objects

    # -- object table lookups for the serving core (Fig. 5) ------------------

    def _handle_request(self, call):
        """Dispatch one parsed request to its skeleton; returns the Reply."""
        return self._server.core.handle(call)

    def _select_skeleton(self, target):
        """The skeleton behind a raw target string (front-cache miss)."""
        reference = self._parsed_targets.get(target)
        if reference is None:
            reference = ObjectReference.parse(target)
            if len(self._parsed_targets) >= 4096:
                self._parsed_targets.clear()
            self._parsed_targets[target] = reference
        skeleton = self._skeleton_for(reference)
        if self._cache_skeletons:
            if len(self._target_skeletons) >= 4096:
                self._target_skeletons.clear()
            self._target_skeletons[target] = skeleton
        return skeleton

    def _skeleton_for(self, reference):
        """The skeleton for a local object, created lazily and cached."""
        oid = reference.object_id
        if self._cache_skeletons:
            # Lock-free read: dict.get is atomic under the GIL and
            # writers only add entries (setdefault below, under _lock),
            # so a stale miss just falls through to the slow path.
            skeleton = self._skeletons.get(oid)
            if skeleton is not None:
                self._count("skeleton_hits")
                return skeleton
        with self._lock:
            entry = self._objects.get(oid)
        if entry is None:
            raise ObjectNotFound(oid)
        impl, type_id = entry
        skel_class = self.types.skeleton_class(type_id)
        if skel_class is None:
            skel_class = getattr(impl, "_hd_skel_class_", None)
        if skel_class is None:
            raise HeidiRmiError(
                f"no skeleton class registered for {type_id!r}"
            )
        skeleton = skel_class(impl, self, dispatch_strategy=self.dispatch_strategy)
        self._count("skeleton_created")
        self._event("orb:skeleton", type_id=type_id, cls=skel_class.__name__)
        if self._cache_skeletons:
            with self._lock:
                skeleton = self._skeletons.setdefault(oid, skeleton)
        return skeleton
