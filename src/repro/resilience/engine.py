"""The resilient invoke path, fused into the wire pump.

``Orb.invoke`` is a two-line fast-path check: calls with no deadline, on
an Orb with no resilience policy, never reach this module.  Everything
else funnels through :func:`resilient_invoke`, which since the fusion
pays (near-)nothing on the zero-fault hot path:

- **policy resolution is precomputed**: the effective (deadline budget,
  retry policy, breaker) tuple is resolved once per reference into a
  :class:`PolicyPlan` cached on the reference itself
  (``Orb._plan_for``), so the per-call work is one dict probe and an
  epoch check instead of policy/default/dict churn;
- **deadlines are wakeups, not per-attempt checks**: the budget is
  stamped on the call once and enforced where the I/O already waits —
  a process-wide watchdog tick that shuts down an exclusive channel's
  socket at expiry (the socket itself stays in plain blocking mode, so
  the zero-fault path pays no timeout bookkeeping), the multiplexed
  completion table's armed expiry drained by the demultiplexer's
  select timeout, and the asyncio client's loop timers.  There is no
  ``expired`` poll before an attempt; an expired budget surfaces from
  the blocking point as :class:`DeadlineExceeded`;
- **breaker accounting is lock-free when closed**: admission is one
  attribute compare (``state == closed``) and a success is a bare
  bounded-deque append; only open/half-open circuits and failures take
  the breaker lock;
- **retry is frame re-enqueue**: a retryable failure re-sends the
  already-marshalled token tail (cached on the call by the text
  encoders) under a fresh request id — no re-marshal, no second span.

Every decision still feeds the ``repro.observe`` metrics registry when
the Orb has an observer: ``resilience.retries{kind}``,
``resilience.breaker_transitions{to}`` (emitted by the Orb's breaker
callback) and ``resilience.deadline_expired{side}``.
"""

from time import monotonic as _monotonic

from repro.model.call import STATUS_ERROR
from repro.model.errors import (
    CircuitOpenError,
    CommunicationError,
    DeadlineExceeded,
)
from repro.resilience.breaker import BREAKER_CLOSED
from repro.model.deadline import Deadline
from repro.resilience.overload import overload_error_from_reply
from repro.wire.headers import DL_PREFIX, OVERLOADED_CATEGORY

_new_deadline = object.__new__


class PolicyPlan:
    """The per-reference (deadline, retry, breaker) tuple, prebuilt.

    Built once by ``Orb._plan_for`` and cached on the ObjectReference;
    ``epoch`` invalidates cached plans when the Orb's breaker table is
    reaped (so a plan can never keep feeding a breaker the Orb dropped)
    and ``orb`` guards references shared between Orbs.  The effective
    default deadline is pre-split so the hot path never type-checks:
    ``budget`` is a pre-floated number of seconds (the common case) and
    ``fixed_deadline`` a caller-provided absolute Deadline; at most one
    is non-None.
    """

    __slots__ = ("orb", "epoch", "budget", "fixed_deadline", "dl_token",
                 "retry", "breaker", "retry_budget")

    def __init__(self, orb, epoch, budget, retry, breaker,
                 retry_budget=None):
        self.orb = orb
        self.epoch = epoch
        if isinstance(budget, Deadline):
            self.budget = None
            self.fixed_deadline = budget
            self.dl_token = None
        else:
            self.budget = budget
            self.fixed_deadline = None
            if budget is None:
                self.dl_token = None
            else:
                # The wire token for a freshly-stamped full budget,
                # rendered once: ceil(budget * 1000), matching what
                # ``Deadline.remaining_ms`` (round-up) yields for any
                # sub-millisecond stamp-to-encode gap.
                ms = int(budget * 1000.0)
                if ms < budget * 1000.0:
                    ms += 1
                self.dl_token = DL_PREFIX + str(ms)
        self.retry = retry
        self.breaker = breaker
        #: Per-endpoint success-refilled :class:`RetryBudget` (shared by
        #: every reference to the endpoint, like the breaker).
        self.retry_budget = retry_budget


def resolve_deadline(orb, deadline, call=None):
    """Effective deadline: explicit arg > call's own > policy default.

    The all-``None`` path allocates nothing and returns None — callers
    on the no-deadline hot path must not pay for a Deadline they do not
    have.  (``invoke_bulk`` still resolves per window; per-call
    resolution goes through the cached PolicyPlan instead.)
    """
    if deadline is None and call is not None:
        deadline = call.deadline
    if deadline is None:
        policy = orb.resilience
        if policy is None or policy.default_deadline is None:
            return None
        deadline = policy.default_deadline
    return Deadline.coerce(deadline)


def resilient_invoke(orb, reference, call, deadline=None):
    """Invoke *call* under the Orb's deadline/retry/breaker policies.

    Mirrors the contract of the fast path: returns the Reply (or None
    for oneways), raises CommunicationError subclasses on transport
    failure, and finishes the client span exactly once.
    """
    orb._count("calls")
    span = call.trace_span
    if span is not None:
        span.stage("marshal")
    # Inlined fresh-plan probe (the body of Orb._plan_for): on the hot
    # path the cached plan is one dict get and two compares away.
    plan = reference.__dict__.get("_hd_plan")
    if (plan is None or plan.orb is not orb
            or plan.epoch != orb._plan_epoch):
        plan = orb._plan_for(reference)
    if deadline is not None:
        call.deadline = Deadline.coerce(deadline)
    elif call.deadline is None:
        budget = plan.budget
        if budget is not None:
            # Allocation without the __init__ frame: two slot stores on
            # a bare instance (this is the per-call stamp of the zero-
            # fault hot path, measurably hotter than Deadline(...)).
            stamped = _new_deadline(Deadline)
            stamped.expires_at = _monotonic() + budget
            stamped.budget = budget
            call.deadline = stamped
            # First-attempt wire token, pre-rendered on the plan.  The
            # encoders fall back to live remaining-ms arithmetic when
            # this is None (explicit deadlines, retries).
            call._dl_token = plan.dl_token
        elif plan.fixed_deadline is not None:
            call.deadline = plan.fixed_deadline
    breaker = plan.breaker
    attempt = 1
    while True:
        # Lock-free admission: the closed state (every zero-fault call)
        # is one attribute compare; only open/half-open circuits reach
        # allow(), which drives the open → half-open probe machinery.
        if (breaker is not None and breaker.state != BREAKER_CLOSED
                and not breaker.allow()):
            exc = CircuitOpenError(
                f"circuit open for {reference.bootstrap[1]}:{reference.bootstrap[2]}; "
                f"shed {call.operation!r} without a connection attempt"
            )
            orb._finish_client_span(call, error=exc)
            raise exc
        try:
            reply = orb._invoke_once(reference, call)
            if (
                reply is not None
                and reply.status == STATUS_ERROR
                and reply.repo_id == OVERLOADED_CATEGORY
            ):
                # The server answered — but with a typed shed.  Surface
                # it as an OverloadedError (carrying the retry-after
                # hint) so it flows through the same retry machinery as
                # a transport failure.
                raise overload_error_from_reply(reply)
        except CommunicationError as exc:
            kind = getattr(exc, "kind", "communication")
            if breaker is not None:
                if kind == "overloaded":
                    # Back-pressure is not an outage: counted apart so
                    # shedding cannot flip the breaker (except to
                    # re-open a half-open probe — see the breaker).
                    breaker.record_overloaded()
                elif kind != "draining":
                    # An orderly drain handed the call back before a
                    # clean close; the endpoint is healthy, just going
                    # away.  Not a breaker-visible failure either.
                    breaker.record_failure()
            retry = plan.retry  # loaded only on the failure path
            observer = orb.observer
            if isinstance(exc, DeadlineExceeded) and observer is not None:
                observer.metrics.counter(
                    "resilience.deadline_expired", side="client"
                ).inc()
            if (
                retry is None
                or not (call.oneway or call.idempotent)
                or attempt >= retry.max_attempts
                or not retry.retryable(kind)
            ):
                orb._finish_client_span(call, error=exc)
                raise
            retry_budget = plan.retry_budget
            if retry_budget is not None and not retry_budget.take():
                # The per-endpoint budget is spent: every retry from
                # here on would be part of a storm, not a recovery.
                if observer is not None:
                    observer.metrics.counter(
                        "resilience.budget_denied", kind=kind
                    ).inc()
                orb._finish_client_span(call, error=exc)
                raise
            delay = retry.delay(attempt)
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None and retry_after > delay:
                # The server's hint is a floor on the backoff — it knows
                # its queue better than our jitter does.
                delay = retry_after
            active = call.deadline
            if active is not None:
                remaining = active.remaining()
                if remaining <= 0.0:
                    orb._finish_client_span(call, error=exc)
                    raise
                delay = min(delay, remaining)
            if observer is not None:
                observer.metrics.counter("resilience.retries", kind=kind).inc()
            orb._event(
                "resilience:retry",
                operation=call.operation,
                attempt=attempt,
                kind=kind,
            )
            if delay > 0.0:
                retry.sleep(delay)
            # Retry as re-enqueue: the encoders re-send the cached
            # marshalled tail under a FRESH request id, so a straggling
            # reply to the failed attempt can never alias this one.
            # The pre-rendered dl= token is dropped too — a retry must
            # carry the *refreshed* remaining budget, not the original.
            call.request_id = None
            call._dl_token = None
            attempt += 1
            continue
        if breaker is not None:
            if breaker.state == BREAKER_CLOSED:
                # Inlined closed-state record_success: a bare GIL-atomic
                # bounded-deque append (see CircuitBreaker's own fast
                # path for why no lock is needed).
                breaker._outcomes.append(True)
            else:
                breaker.record_success()
        retry_budget = plan.retry_budget
        if retry_budget is not None:
            retry_budget.record_success()
        if call.trace_span is not None:
            orb._finish_client_span(call, reply=reply)
        return reply
