"""Declarative retry and resilience policies.

A :class:`RetryPolicy` never decides *whether* a call is safe to retry —
that is structural: oneways (fire-and-forget by contract) and operations
explicitly marked idempotent (``idempotent=True`` on stubs/DII, or a
mapping pack's ``idempotent_operations``) qualify; everything else fails
fast on the first error exactly as before.  The policy only decides
*how*: how many attempts, which ``CommunicationError.kind`` values are
worth another try, and how long to back off (exponential with **full
jitter** — each delay is drawn uniformly from ``[0, min(cap, base *
multiplier**attempt)]``, which de-synchronises retry storms far better
than equal or half jitter).

Both the RNG and the sleep function are injectable so tests are seeded
and instantaneous.
"""

import random
import time

#: Kinds that indicate the *request may not have executed* (or executed
#: at most once on a peer that is now unreachable) and a fresh
#: connection could succeed.  Deliberately excludes "deadline-exceeded"
#: (the budget is gone), "circuit-open" (retrying defeats the breaker),
#: "frame-overflow" and "peer-protocol-error" (deterministic failures a
#: retry would only repeat).  "overloaded" (the server shed the call at
#: admission — it never executed) and "draining" (the peer handed the
#: pending call back before an orderly close) are retryable by design:
#: both are the server explicitly saying "elsewhere or later", and the
#: per-endpoint retry budget bounds how hard "later" can be hammered.
DEFAULT_RETRYABLE_KINDS = frozenset(
    {
        "connect-refused",
        "connect-timeout",
        "send-failed",
        "recv-failed",
        "peer-closed",
        "channel-closed",
        "reader-died",
        "overloaded",
        "draining",
    }
)


class RetryPolicy:
    """How to retry calls that are structurally safe to retry."""

    def __init__(
        self,
        max_attempts=3,
        base_delay=0.05,
        max_delay=2.0,
        multiplier=2.0,
        retryable_kinds=DEFAULT_RETRYABLE_KINDS,
        rng=None,
        sleep=time.sleep,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.retryable_kinds = frozenset(retryable_kinds)
        self.rng = rng if rng is not None else random.Random()
        self.sleep = sleep

    def retryable(self, kind):
        return kind in self.retryable_kinds

    def delay(self, attempt):
        """Backoff before retry number *attempt* (1-based): full jitter."""
        cap = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        return self.rng.uniform(0.0, cap)


class ResiliencePolicy:
    """The bundle an Orb is configured with: ``Orb(resilience=...)``.

    Every part is optional; omitted parts simply do nothing.  An Orb
    without a ResiliencePolicy runs the pre-resilience hot path
    untouched.
    """

    def __init__(self, retry=None, breaker=None, default_deadline=None,
                 retry_budget=None):
        #: :class:`RetryPolicy` applied to oneway/idempotent calls.
        self.retry = retry
        #: :class:`~repro.resilience.breaker.BreakerPolicy` — one
        #: :class:`CircuitBreaker` is built per endpoint from it.
        self.breaker = breaker
        #: Default deadline (seconds or :class:`Deadline` budget) for
        #: calls that do not carry one explicitly.
        self.default_deadline = default_deadline
        #: :class:`~repro.resilience.overload.RetryBudgetPolicy` — one
        #: success-refilled token bucket is built per endpoint from it
        #: and consulted before *every* retry, so a dead or overloaded
        #: endpoint structurally cannot be stormed.
        self.retry_budget = retry_budget

    def __repr__(self):
        return (
            f"<ResiliencePolicy retry={self.retry is not None} "
            f"breaker={self.breaker is not None} "
            f"default_deadline={self.default_deadline} "
            f"retry_budget={self.retry_budget is not None}>"
        )
