"""Circuit breaker: the state machine, and its wiring into the ORB.

All timing goes through the policy's injectable clock, so the
open → half-open transition is tested without sleeping.
"""

import pytest

from repro.model.errors import CircuitOpenError, CommunicationError
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerPolicy,
    CircuitBreaker,
    FaultPlan,
    ResiliencePolicy,
)

from tests.resilience.rig import make_pair, stop_pair


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def breaker(clock=None, **kwargs):
    policy = BreakerPolicy(clock=clock or FakeClock(), **kwargs)
    return CircuitBreaker(policy)


# -- state machine ----------------------------------------------------------


def test_stays_closed_below_min_calls():
    b = breaker(min_calls=4, failure_threshold=0.5)
    for _ in range(3):
        b.record_failure()
    assert b.state == BREAKER_CLOSED
    assert b.allow()


def test_opens_at_failure_rate_threshold():
    b = breaker(min_calls=4, failure_threshold=0.5)
    b.record_success()
    b.record_success()
    b.record_failure()
    assert b.state == BREAKER_CLOSED
    b.record_failure()  # 2/4 = 50% >= threshold
    assert b.state == BREAKER_OPEN
    assert not b.allow()


def test_open_to_half_open_after_reset_timeout():
    clock = FakeClock()
    b = breaker(clock=clock, min_calls=1, failure_threshold=0.5,
                reset_timeout=5.0)
    b.record_failure()
    assert b.state == BREAKER_OPEN
    clock.now += 4.9
    assert not b.allow()
    clock.now += 0.2
    assert b.allow()
    assert b.state == BREAKER_HALF_OPEN


def test_half_open_probe_success_closes():
    clock = FakeClock()
    b = breaker(clock=clock, min_calls=1, reset_timeout=1.0)
    b.record_failure()
    clock.now += 1.1
    assert b.allow()
    b.record_success()
    assert b.state == BREAKER_CLOSED
    # The window was cleared: old failures cannot re-trip it.
    assert b.failure_rate == 0.0


def test_half_open_probe_failure_reopens_with_fresh_timer():
    clock = FakeClock()
    b = breaker(clock=clock, min_calls=1, reset_timeout=1.0)
    b.record_failure()
    clock.now += 1.1
    assert b.allow()
    b.record_failure()
    assert b.state == BREAKER_OPEN
    assert not b.allow()  # the reset timer restarted
    clock.now += 1.1
    assert b.allow()


def test_half_open_admits_bounded_probes():
    clock = FakeClock()
    b = breaker(clock=clock, min_calls=1, reset_timeout=1.0,
                half_open_probes=2)
    b.record_failure()
    clock.now += 1.1
    assert b.allow()   # transition, probe 1
    assert b.allow()   # probe 2
    assert not b.allow()  # shed


def test_transition_callback_fires_outside_lock():
    transitions = []
    clock = FakeClock()
    policy = BreakerPolicy(clock=clock, min_calls=1, reset_timeout=1.0)
    b = CircuitBreaker(policy, on_transition=lambda old, new:
                       transitions.append((old, new)))
    b.record_failure()
    clock.now += 1.1
    b.allow()
    b.record_success()
    assert transitions == [
        (BREAKER_CLOSED, BREAKER_OPEN),
        (BREAKER_OPEN, BREAKER_HALF_OPEN),
        (BREAKER_HALF_OPEN, BREAKER_CLOSED),
    ]


def test_policy_validates_threshold():
    with pytest.raises(ValueError):
        BreakerPolicy(failure_threshold=0.0)
    with pytest.raises(ValueError):
        BreakerPolicy(failure_threshold=1.5)


# -- ORB integration --------------------------------------------------------


def test_open_circuit_sheds_calls_without_touching_transport():
    plan = FaultPlan(connect_refuse=1.0)
    server, client, stub, _ = make_pair(
        plan=plan,
        client_kwargs={"resilience": ResiliencePolicy(
            breaker=BreakerPolicy(min_calls=2, failure_threshold=0.5,
                                  reset_timeout=3600.0)
        )},
    )
    try:
        for _ in range(2):
            with pytest.raises(CommunicationError):
                stub.echo("x")
        attempts_before = plan.stats["connect:events"]
        with pytest.raises(CircuitOpenError) as excinfo:
            stub.echo("x")
        assert excinfo.value.kind == "circuit-open"
        assert plan.stats["connect:events"] == attempts_before, (
            "an open circuit still attempted a connection"
        )
    finally:
        stop_pair(server, client)


def test_breaker_trip_evicts_cached_endpoint_connections():
    """On closed→open the ORB tears down pooled connections to the
    endpoint, so the eventual half-open probe starts from a fresh one."""
    server, client, stub, _ = make_pair(
        client_kwargs={"resilience": ResiliencePolicy(
            breaker=BreakerPolicy(min_calls=1, failure_threshold=0.5)
        )},
    )
    try:
        assert stub.echo("warm") == "ack:warm"
        assert client.connections.idle_count == 1
        bootstrap = stub._hd_ref.bootstrap
        b = client._breaker_for(bootstrap)
        b.record_failure()
        assert b.state == BREAKER_OPEN
        assert client.connections.idle_count == 0, (
            "opening the circuit left stale pooled connections behind"
        )
    finally:
        stop_pair(server, client)


def test_breaker_recovery_end_to_end():
    """Refusals trip the circuit; after the reset timeout one probe goes
    through, succeeds, and the circuit closes for good."""
    plan = FaultPlan(script={("connect", 0): "refuse",
                             ("connect", 1): "refuse"})
    server, client, stub, _ = make_pair(
        plan=plan,
        client_kwargs={"resilience": ResiliencePolicy(
            breaker=BreakerPolicy(min_calls=2, failure_threshold=0.5,
                                  reset_timeout=0.05)
        )},
    )
    try:
        import time

        for _ in range(2):
            with pytest.raises(CommunicationError):
                stub.echo("x")
        with pytest.raises(CircuitOpenError):
            stub.echo("x")
        time.sleep(0.1)
        # Half-open: the scripted refusals are spent, the probe connects.
        assert stub.echo("probe") == "ack:probe"
        bootstrap = stub._hd_ref.bootstrap
        assert client._breaker_for(bootstrap).state == BREAKER_CLOSED
        assert stub.echo("steady") == "ack:steady"
    finally:
        stop_pair(server, client)


def test_breaker_transitions_are_traced():
    events = []
    plan = FaultPlan(connect_refuse=1.0)
    server, client, stub, _ = make_pair(
        plan=plan,
        client_kwargs={
            "resilience": ResiliencePolicy(
                breaker=BreakerPolicy(min_calls=1, failure_threshold=0.5)
            ),
            "trace": lambda name, detail: events.append((name, detail)),
        },
    )
    try:
        with pytest.raises(CommunicationError):
            stub.echo("x")
        trips = [d for n, d in events if n == "resilience:breaker"]
        assert any(d.get("new") == BREAKER_OPEN for d in trips)
    finally:
        stop_pair(server, client)
