"""Overload control: bounded admission, AIMD limits, retry budgets.

The resilience features shipped so far (deadlines, retries, breakers)
assume the server keeps up.  Under sustained overload they make things
*worse*: the dispatch queue grows without bound, every queued call
blows its deadline doing dead work, and the jittered retries amplify
the offered load.  This module closes that loop from both ends —

**Server side** (:class:`AdmissionController`, built from an
:class:`AdmissionPolicy` and wired in with ``Orb(admission=...)``):

- *bounded admission* — a hard cap on concurrently admitted requests
  (``max_queue_depth``) plus a max queue age: a request that waited
  longer than ``max_queue_age`` before dispatch is shed instead of
  dispatched (its caller has likely given up; doing the work anyway is
  the classic overload death spiral);
- *adaptive concurrency limit* — AIMD on the observed sojourn latency
  (admit → completion, which includes every queue the request sat in):
  each completion under ``latency_target`` nudges the limit up
  additively, a completion over it halves the limit (multiplicative
  decrease, rate-limited by ``decrease_cooldown``), so the accepted-work
  p99 stays bounded while *goodput* degrades gracefully instead of
  collapsing;
- *cost-aware shedding* — between the adaptive limit and the hard cap,
  operations whose EWMA cost is above the running average are shed
  first and cheap ones still admitted, so one expensive method cannot
  starve the cheap traffic behind it;
- every shed is answered with a typed ``Overloaded`` error reply
  carrying a ``retry-after`` hint (:func:`shed_retry_after` estimates
  it from the live queue state), so well-behaved clients back off for
  roughly as long as the backlog needs to clear.

**Client side** (:class:`RetryBudget`, built per endpoint from a
:class:`RetryBudgetPolicy` on the :class:`ResiliencePolicy`): a token
bucket **refilled by successes** — every retry spends one token, every
success credits ``refill_rate`` of one.  The sustained retry rate is
therefore structurally bounded to a fraction of the success rate:
when an endpoint stops succeeding, the bucket drains and retries stop
entirely, which is exactly the storm a fleet of deadline-driven
retriers would otherwise feed.

Everything here is plain state + arithmetic: no threads, no I/O, an
injectable clock, so tests are deterministic.
"""

import threading
from time import monotonic

from repro.model.errors import OverloadedError

__all__ = [
    "AdmissionPolicy",
    "AdmissionController",
    "RetryBudgetPolicy",
    "RetryBudget",
    "overload_error_from_reply",
]


class AdmissionPolicy:
    """Configuration for a server-side :class:`AdmissionController`."""

    def __init__(self, max_queue_depth=64, max_queue_age=None,
                 latency_target=0.1, initial_limit=None, min_limit=1,
                 increase=1.0, decrease=0.5, decrease_cooldown=0.05,
                 cost_aware=True, retry_after_min=0.01,
                 retry_after_max=5.0, clock=monotonic):
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if min_limit < 1:
            raise ValueError("min_limit must be >= 1")
        if not (0.0 < decrease < 1.0):
            raise ValueError("decrease must be in (0, 1)")
        #: Hard cap on concurrently admitted (queued + executing)
        #: requests; nothing is admitted past it, cheap or not.
        self.max_queue_depth = max_queue_depth
        #: Seconds a request may wait between admission and dispatch
        #: before it is shed instead of executed (None disables).
        self.max_queue_age = max_queue_age
        #: The AIMD setpoint: observed admit→completion latency the
        #: adaptive limit steers under.
        self.latency_target = latency_target
        #: Starting value of the adaptive limit (None = the hard cap).
        #: Clamped to the cap: the controller's admit fast path relies
        #: on ``limit <= max_queue_depth`` so one compare covers both.
        self.initial_limit = (max_queue_depth if initial_limit is None
                              else min(max_queue_depth, initial_limit))
        self.min_limit = min(min_limit, max_queue_depth)
        #: Additive increase per under-target completion (spread over
        #: the current limit, classic AIMD: ``limit += increase/limit``).
        self.increase = increase
        #: Multiplicative decrease factor on an over-target completion.
        self.decrease = decrease
        #: Minimum seconds between two multiplicative decreases, so one
        #: burst of queued stragglers does not crater the limit.
        self.decrease_cooldown = decrease_cooldown
        #: Shed expensive operations first between the adaptive limit
        #: and the hard cap (EWMA cost above the running average).
        self.cost_aware = cost_aware
        #: Clamp for the retry-after hint sent with a shed reply.
        self.retry_after_min = retry_after_min
        self.retry_after_max = retry_after_max
        self.clock = clock

    def __repr__(self):
        return (
            f"<AdmissionPolicy depth<={self.max_queue_depth} "
            f"age<={self.max_queue_age} target={self.latency_target}s>"
        )


#: EWMA smoothing for per-operation cost and sojourn latency: ~20
#: samples of memory, enough to track load shifts without flapping.
_EWMA_ALPHA = 0.1


class AdmissionController:
    """Live admission state for one Orb's dispatch path.

    One controller guards *all* connections of an Orb: depth is the
    orb-wide count of admitted-but-unfinished requests, so a fleet of
    serial connections and a pipelined one share the same limit.  All
    mutable state is guarded by one small lock; the per-request cost is
    two short critical sections (admit, finish) on a path that already
    crossed a socket.
    """

    def __init__(self, policy):
        self.policy = policy
        self._clock = policy.clock
        self._lock = threading.Lock()
        self._depth = 0  # guarded-by: self._lock
        self._limit = float(policy.initial_limit)  # guarded-by: self._lock
        self._last_decrease = 0.0  # guarded-by: self._lock
        #: EWMA of admit→completion sojourn seconds (the AIMD signal).
        self._sojourn_ewma = None  # guarded-by: self._lock
        #: Per-operation EWMA cost (seconds) and the running mean of
        #: those EWMAs, for cost-aware shedding.
        self._op_cost = {}  # guarded-by: self._lock
        self._mean_cost = 0.0  # guarded-by: self._lock
        # Counters (monitor/metrics surface; all guarded by the lock).
        self.accepted = 0  # guarded-by: self._lock
        self.shed_depth = 0  # guarded-by: self._lock
        self.shed_limit = 0  # guarded-by: self._lock
        self.shed_age = 0  # guarded-by: self._lock
        self.shed_draining = 0  # guarded-by: self._lock
        self.completed = 0  # guarded-by: self._lock

    # -- admission ---------------------------------------------------------

    def admit(self, operation):
        """Admit or shed one request; returns None or a retry-after.

        None means admitted (the caller MUST pair it with one
        :meth:`finished` call); a float is the retry-after hint, in
        seconds, to send with the ``Overloaded`` shed reply.
        """
        with self._lock:
            depth = self._depth
            if depth < self._limit:
                # Fast path: under the adaptive limit (which finished()
                # keeps clamped to the hard cap, so one compare covers
                # both).  Everything else is the overloaded slow path.
                self._depth = depth + 1
                self.accepted += 1
                return None
            policy = self.policy
            if depth >= policy.max_queue_depth:
                self.shed_depth += 1
                return self._retry_after_locked(depth)
            # Between the adaptive limit and the hard cap: shed
            # expensive operations, let cheap ones through.  An
            # unknown operation is optimistically cheap — its first
            # completion prices it.
            if policy.cost_aware and self._mean_cost > 0.0:
                cost = self._op_cost.get(operation)
                if cost is None or cost <= self._mean_cost:
                    self._depth = depth + 1
                    self.accepted += 1
                    return None
            self.shed_limit += 1
            return self._retry_after_locked(depth)

    def shed_aged(self):
        """Count one max-queue-age shed; returns its retry-after hint.

        The caller detected (at dispatch time) that the request waited
        longer than ``max_queue_age``; the admitted slot must still be
        released through :meth:`finished` — this only prices the hint.
        """
        with self._lock:
            self.shed_age += 1
            return self._retry_after_locked(self._depth)

    def shed_draining_one(self):
        """Count one shed-because-draining; returns a retry-after hint."""
        with self._lock:
            self.shed_draining += 1
            return self._retry_after_locked(self._depth)

    def over_age(self, queue_age):
        """Did this request out-wait the policy's max queue age?"""
        max_age = self.policy.max_queue_age
        return max_age is not None and queue_age > max_age

    # -- completion / AIMD -------------------------------------------------

    def finished(self, operation, sojourn, service_time=None):
        """One admitted request completed (or was aged out).

        *sojourn* is admit→now seconds (the AIMD signal);
        *service_time* prices the operation for cost-aware shedding
        (None for requests that never dispatched).
        """
        policy = self.policy
        with self._lock:
            if self._depth > 0:
                self._depth -= 1
            self.completed += 1
            ewma = self._sojourn_ewma
            self._sojourn_ewma = (
                sojourn if ewma is None
                else ewma + _EWMA_ALPHA * (sojourn - ewma)
            )
            if service_time is not None and policy.cost_aware:
                # Cost-blind controllers never read these, so the
                # zero-overload fast path skips the pricing entirely.
                cost = self._op_cost.get(operation)
                cost = (service_time if cost is None
                        else cost + _EWMA_ALPHA * (service_time - cost))
                self._op_cost[operation] = cost
                costs = self._op_cost
                self._mean_cost = sum(costs.values()) / len(costs)
            limit = self._limit
            if sojourn > policy.latency_target:
                # The clock read lives here, not at function top: only
                # the decrease path needs a timestamp (cooldown), and
                # under-target completions are the common case.
                now = self._clock()
                if now - self._last_decrease >= policy.decrease_cooldown:
                    self._limit = max(float(policy.min_limit),
                                      limit * policy.decrease)
                    self._last_decrease = now
            elif limit < policy.max_queue_depth:
                self._limit = min(float(policy.max_queue_depth),
                                  limit + policy.increase / limit)

    def _retry_after_locked(self, depth):
        # holds-lock: self._lock
        # Rough backlog-clearing time: the backlog ahead of a returning
        # caller, priced at the smoothed sojourn over the current limit
        # (≈ parallelism), clamped to the policy window.
        policy = self.policy
        sojourn = self._sojourn_ewma
        if sojourn is None or sojourn <= 0.0:
            return policy.retry_after_min
        estimate = sojourn * (depth + 1) / max(self._limit, 1.0)
        return min(policy.retry_after_max,
                   max(policy.retry_after_min, estimate))

    # -- introspection -----------------------------------------------------

    @property
    def depth(self):
        return self._depth  # race-ok: monitoring read of a GIL-atomic int

    @property
    def limit(self):
        return self._limit  # race-ok: monitoring read of a GIL-atomic float

    def shed_total(self):
        with self._lock:
            return (self.shed_depth + self.shed_limit + self.shed_age
                    + self.shed_draining)

    def snapshot(self):
        """Plain-data state for the ORBMonitor / metrics exposition."""
        with self._lock:
            sojourn = self._sojourn_ewma
            return {
                "depth": self._depth,
                "limit": round(self._limit, 2),
                "max_queue_depth": self.policy.max_queue_depth,
                "accepted": self.accepted,
                "completed": self.completed,
                "shed": {
                    "depth": self.shed_depth,
                    "limit": self.shed_limit,
                    "age": self.shed_age,
                    "draining": self.shed_draining,
                },
                "sojourn_ewma_ms": (None if sojourn is None
                                    else round(sojourn * 1000.0, 3)),
                "overloaded": self._depth >= self._limit,
            }


class RetryBudgetPolicy:
    """Configuration for per-endpoint :class:`RetryBudget` buckets.

    ``capacity`` bounds the burst of retries an endpoint can absorb;
    ``refill_rate`` is the fraction of a token each *success* credits,
    so the sustained retry rate can never exceed ``refill_rate`` times
    the success rate — the structural guarantee that makes retry
    storms impossible no matter how the backoff jitter lands.
    """

    def __init__(self, capacity=10.0, refill_rate=0.1, initial=None):
        if capacity <= 0.0:
            raise ValueError("capacity must be > 0")
        if refill_rate < 0.0:
            raise ValueError("refill_rate must be >= 0")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self.initial = capacity if initial is None else float(initial)

    def build(self):
        return RetryBudget(self)

    def __repr__(self):
        return (f"<RetryBudgetPolicy capacity={self.capacity} "
                f"refill={self.refill_rate}/success>")


class RetryBudget:
    """One endpoint's success-refilled retry token bucket.

    ``record_success`` runs on the zero-fault hot path, so it is
    lock-free: a float read-modify-write under the GIL.  Two racing
    successes can lose one refill fraction — strictly conservative
    (the budget only under-fills), so the storm bound still holds.
    ``take`` sits on the (rare) retry path and uses the lock so two
    racing retries cannot both spend the last token.
    """

    __slots__ = ("policy", "_lock", "_tokens", "denied", "spent")

    def __init__(self, policy):
        self.policy = policy
        self._lock = threading.Lock()
        self._tokens = policy.initial  # race-ok: success refill is a benign lossy float add
        self.denied = 0  # guarded-by: self._lock
        self.spent = 0  # guarded-by: self._lock

    def record_success(self):
        """Credit one success (lock-free, called per successful call)."""
        tokens = self._tokens + self.policy.refill_rate  # race-ok: lossy refill under-fills only
        capacity = self.policy.capacity
        self._tokens = tokens if tokens < capacity else capacity  # race-ok: lossy refill under-fills only

    def take(self):
        """Spend one token for a retry; False when the budget is dry."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.spent += 1
                return True
            self.denied += 1
            return False

    @property
    def tokens(self):
        return self._tokens  # race-ok: monitoring read

    def snapshot(self):
        with self._lock:
            return {
                "tokens": round(self._tokens, 3),
                "capacity": self.policy.capacity,
                "spent": self.spent,
                "denied": self.denied,
            }


def overload_error_from_reply(reply):
    """The typed client-side exception for an ``Overloaded`` ERR reply.

    The retry-after hint is taken from the reply's decoded slot when
    the protocol carried it out-of-band (GIOP's HDRA ServiceContext)
    and parsed out of the leading ``ra=<ms>`` message token otherwise
    (the text protocols).
    """
    # Imported here, not at module top: ``repro.wire.headers`` imports
    # this package (for Deadline) while initializing.
    from repro.wire.headers import parse_overload_message

    try:
        message = reply.get_string()
    except Exception:  # noqa: BLE001 - a shed reply with no body
        message = "server overloaded"
    retry_after = getattr(reply, "retry_after", None)
    # The server embeds the hint in the message unconditionally (it is
    # protocol-agnostic); strip the token either way, and prefer the
    # out-of-band slot when the protocol decoded one.
    parsed_after, message = parse_overload_message(message)
    if retry_after is None:
        retry_after = parsed_after
    return OverloadedError(message or "server overloaded",
                           retry_after=retry_after)
