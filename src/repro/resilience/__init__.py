"""Policy-driven fault tolerance for the HeidiRMI RPC path.

The paper's ORB assumes a cooperative LAN: a call blocks forever on a
stalled peer and a failed call simply raises.  This package makes
failure a first-class, *configurable* input — in the spirit of Walker
et al.'s separation of transmission policy from implementation, none of
it lives in stubs or skeletons:

- :class:`Deadline` — a monotonic-clock budget enforced client-side on
  connect/send/wait and propagated on the wire (``dl=`` token on the
  text protocols, a ServiceContext entry on GIOP) so servers can drop
  already-expired queued requests instead of doing dead work;
- :class:`RetryPolicy` — declarative retry (max attempts, exponential
  backoff with full jitter, a retryable ``CommunicationError.kind``
  whitelist) applied automatically to oneways and operations marked
  idempotent;
- :class:`CircuitBreaker` / :class:`BreakerPolicy` — a per-endpoint
  closed/open/half-open breaker that sheds load fast and lets the
  connection cache evict and re-probe broken endpoints;
- :class:`AdmissionPolicy` / :class:`AdmissionController` — server-side
  overload control: bounded admission (max depth + max queue age), an
  AIMD-adaptive concurrency limit, cost-aware shedding answered with
  typed ``Overloaded`` replies carrying retry-after hints;
- :class:`RetryBudgetPolicy` / :class:`RetryBudget` — per-endpoint
  success-refilled token buckets consulted before every retry, so
  retry storms are structurally impossible;
- :class:`FaultPlan` / :class:`ChaosTransport` — a deterministic,
  seeded fault-injection harness that wraps any transport and injects
  connect refusals, mid-frame disconnects, partial writes, delays,
  latency (``slow``) and garbage frames underneath any protocol.

Everything is off by default: an ``Orb`` constructed without a
``resilience=`` policy runs the exact pre-resilience hot path.  See
``docs/RESILIENCE.md``.
"""

from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.resilience.chaos import (
    ChaosChannel,
    ChaosTransport,
    FaultPlan,
    install_chaos,
)
from repro.model.deadline import Deadline
from repro.resilience.overload import (
    AdmissionController,
    AdmissionPolicy,
    RetryBudget,
    RetryBudgetPolicy,
)
from repro.resilience.policy import (
    DEFAULT_RETRYABLE_KINDS,
    ResiliencePolicy,
    RetryPolicy,
)

__all__ = [
    "Deadline",
    "RetryPolicy",
    "ResiliencePolicy",
    "DEFAULT_RETRYABLE_KINDS",
    "BreakerPolicy",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "AdmissionPolicy",
    "AdmissionController",
    "RetryBudgetPolicy",
    "RetryBudget",
    "FaultPlan",
    "ChaosTransport",
    "ChaosChannel",
    "install_chaos",
]
