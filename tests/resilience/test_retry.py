"""Retry policy: jittered backoff, structural gating, deadline clamp.

Retries only ever apply to calls that are structurally safe to repeat —
oneways and operations marked idempotent; everything else fails fast on
the first error exactly as an unconfigured ORB does.
"""

import random

import pytest

from repro.model.errors import CommunicationError, DeadlineExceeded
from repro.resilience import (
    DEFAULT_RETRYABLE_KINDS,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
)

from tests.resilience.rig import make_pair, stop_pair


def instant_retry(max_attempts=3, **kwargs):
    """A seeded policy that never actually sleeps."""
    sleeps = []
    policy = RetryPolicy(max_attempts=max_attempts,
                         rng=random.Random(0),
                         sleep=sleeps.append, **kwargs)
    return policy, sleeps


# -- the policy object ------------------------------------------------------


def test_full_jitter_delay_is_bounded_and_seeded():
    policy = RetryPolicy(base_delay=0.1, max_delay=1.0, multiplier=2.0,
                         rng=random.Random(7))
    caps = [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]
    for attempt, cap in enumerate(caps, start=1):
        delay = policy.delay(attempt)
        assert 0.0 <= delay <= cap
    # Same seed, same draws: the schedule is reproducible.
    first = RetryPolicy(base_delay=0.1, max_delay=1.0, multiplier=2.0,
                        rng=random.Random(7))
    second = RetryPolicy(base_delay=0.1, max_delay=1.0, multiplier=2.0,
                         rng=random.Random(7))
    assert ([first.delay(a) for a in range(1, 7)]
            == [second.delay(a) for a in range(1, 7)])


def test_default_retryable_kinds():
    for kind in ("connect-refused", "connect-timeout", "send-failed",
                 "recv-failed", "peer-closed", "reader-died"):
        assert kind in DEFAULT_RETRYABLE_KINDS
    for kind in ("deadline-exceeded", "circuit-open", "frame-overflow",
                 "peer-protocol-error"):
        assert kind not in DEFAULT_RETRYABLE_KINDS


def test_max_attempts_must_be_positive():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


# -- engine behaviour -------------------------------------------------------


def test_idempotent_call_retries_through_connect_refusals():
    """Two scripted refusals, then success: three attempts, one upcall."""
    plan = FaultPlan(script={("connect", 0): "refuse",
                             ("connect", 1): "refuse"})
    retry, sleeps = instant_retry(max_attempts=3)
    server, client, stub, impl = make_pair(
        plan=plan, client_kwargs={"resilience": ResiliencePolicy(retry=retry)}
    )
    try:
        assert stub.echo("tok", idempotent=True) == "ack:tok"
        assert impl.echoed == ["tok"]
        assert plan.stats["connect:refuse"] == 2
        assert len(sleeps) == 2
    finally:
        stop_pair(server, client)


def test_non_idempotent_call_fails_fast():
    plan = FaultPlan(script={("connect", 0): "refuse"})
    retry, sleeps = instant_retry(max_attempts=3)
    server, client, stub, impl = make_pair(
        plan=plan, client_kwargs={"resilience": ResiliencePolicy(retry=retry)}
    )
    try:
        with pytest.raises(CommunicationError) as excinfo:
            stub.echo("tok")
        assert excinfo.value.kind == "connect-refused"
        assert not isinstance(excinfo.value, DeadlineExceeded)
        assert sleeps == []
        assert plan.stats["connect:refuse"] == 1
        assert impl.echoed == []
    finally:
        stop_pair(server, client)


def test_oneways_are_retried_without_marking():
    plan = FaultPlan(script={("connect", 0): "refuse"})
    retry, sleeps = instant_retry(max_attempts=2)
    server, client, stub, impl = make_pair(
        plan=plan, client_kwargs={"resilience": ResiliencePolicy(retry=retry)}
    )
    try:
        stub.note("n0")
        stub.echo("fence", idempotent=True)
        assert impl.noted == ["n0"]
        assert len(sleeps) == 1
    finally:
        stop_pair(server, client)


def test_attempts_are_exhausted_then_original_error_raised():
    plan = FaultPlan(connect_refuse=1.0)
    retry, sleeps = instant_retry(max_attempts=3)
    server, client, stub, _ = make_pair(
        plan=plan, client_kwargs={"resilience": ResiliencePolicy(retry=retry)}
    )
    try:
        with pytest.raises(CommunicationError) as excinfo:
            stub.echo("tok", idempotent=True)
        assert excinfo.value.kind == "connect-refused"
        assert plan.stats["connect:refuse"] == 3
        assert len(sleeps) == 2
    finally:
        stop_pair(server, client)


def test_non_retryable_kind_fails_fast():
    plan = FaultPlan(connect_refuse=1.0)
    retry, sleeps = instant_retry(
        max_attempts=5, retryable_kinds=frozenset({"send-failed"})
    )
    server, client, stub, _ = make_pair(
        plan=plan, client_kwargs={"resilience": ResiliencePolicy(retry=retry)}
    )
    try:
        with pytest.raises(CommunicationError):
            stub.echo("tok", idempotent=True)
        assert sleeps == []
        assert plan.stats["connect:refuse"] == 1
    finally:
        stop_pair(server, client)


def test_backoff_never_outlives_the_deadline():
    """A huge backoff is clamped to the remaining budget; the call still
    fails with the transport error, within deadline + slack."""
    import time

    plan = FaultPlan(connect_refuse=1.0)
    retry = RetryPolicy(max_attempts=10, base_delay=30.0, max_delay=30.0,
                        rng=random.Random(1))  # real sleeps, clamped
    server, client, stub, _ = make_pair(
        plan=plan, client_kwargs={"resilience": ResiliencePolicy(retry=retry)}
    )
    try:
        started = time.monotonic()
        with pytest.raises(CommunicationError):
            stub.echo("tok", idempotent=True, deadline=0.3)
        assert time.monotonic() - started < 2.0
    finally:
        stop_pair(server, client)


def test_retry_fires_trace_events():
    events = []
    plan = FaultPlan(script={("connect", 0): "refuse"})
    retry, _ = instant_retry(max_attempts=2)
    server, client, stub, _ = make_pair(
        plan=plan,
        client_kwargs={
            "resilience": ResiliencePolicy(retry=retry),
            "trace": lambda name, detail: events.append((name, detail)),
        },
    )
    try:
        assert stub.echo("tok", idempotent=True) == "ack:tok"
        retries = [d for n, d in events if n == "resilience:retry"]
        assert len(retries) == 1
        assert retries[0]["kind"] == "connect-refused"
        assert retries[0]["attempt"] == 1
    finally:
        stop_pair(server, client)
