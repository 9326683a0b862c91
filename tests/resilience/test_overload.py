"""Overload control: admission, AIMD limits, shedding, retry budgets.

The controller and budget are pure state machines over an injectable
clock, so every unit test below is deterministic; the end-to-end tests
occupy a real server with a slow call and assert the shed reply's typed
``Overloaded`` error (and its retry-after hint) on every protocol.
"""

import itertools
import random
import threading
import time

import pytest

from repro.model.errors import CommunicationError, OverloadedError
from repro.resilience import (
    AdmissionController,
    AdmissionPolicy,
    FaultPlan,
    ResiliencePolicy,
    RetryBudget,
    RetryBudgetPolicy,
    RetryPolicy,
)

from tests.resilience.rig import SERVER_RUNTIMES, make_pair, stop_pair

PROTOCOLS = ("text", "text2", "giop")


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def controller(**kwargs):
    clock = FakeClock()
    kwargs.setdefault("clock", clock)
    return AdmissionController(AdmissionPolicy(**kwargs)), clock


# -- admission: bounded depth -----------------------------------------------


def test_admits_until_hard_cap_then_sheds():
    ctl, _ = controller(max_queue_depth=2)
    assert ctl.admit("op") is None
    assert ctl.admit("op") is None
    hint = ctl.admit("op")
    assert isinstance(hint, float)
    assert hint >= ctl.policy.retry_after_min
    assert ctl.shed_depth == 1
    assert ctl.depth == 2


def test_finished_releases_the_slot():
    ctl, _ = controller(max_queue_depth=1)
    assert ctl.admit("op") is None
    assert ctl.admit("op") is not None
    ctl.finished("op", 0.01)
    assert ctl.depth == 0
    assert ctl.admit("op") is None
    assert ctl.completed == 1


def test_policy_validation():
    with pytest.raises(ValueError):
        AdmissionPolicy(max_queue_depth=0)
    with pytest.raises(ValueError):
        AdmissionPolicy(min_limit=0)
    with pytest.raises(ValueError):
        AdmissionPolicy(decrease=1.5)


# -- admission: AIMD on sojourn latency -------------------------------------


def test_fast_completions_raise_the_limit_additively():
    ctl, _ = controller(max_queue_depth=10, initial_limit=2,
                        latency_target=1.0, increase=1.0)
    assert ctl.admit("op") is None
    ctl.finished("op", 0.01)
    assert ctl.limit == pytest.approx(2.5)  # 2 + 1/2
    assert ctl.admit("op") is None
    ctl.finished("op", 0.01)
    assert ctl.limit == pytest.approx(2.9)  # 2.5 + 1/2.5


def test_slow_completion_halves_the_limit_with_cooldown():
    ctl, clock = controller(max_queue_depth=10, initial_limit=4,
                            latency_target=0.1, decrease=0.5,
                            decrease_cooldown=5.0)
    ctl.admit("op")
    ctl.finished("op", 0.5)
    assert ctl.limit == pytest.approx(2.0)
    # A second over-target completion inside the cooldown does not
    # compound the decrease (one burst of stragglers, one halving).
    ctl.admit("op")
    ctl.finished("op", 0.5)
    assert ctl.limit == pytest.approx(2.0)
    clock.now += 6.0
    ctl.admit("op")
    ctl.finished("op", 0.5)
    assert ctl.limit == pytest.approx(1.0)


def test_limit_never_drops_below_min():
    ctl, clock = controller(max_queue_depth=10, initial_limit=2,
                            latency_target=0.1, min_limit=1,
                            decrease_cooldown=0.0)
    for _ in range(5):
        clock.now += 1.0
        ctl.admit("op")
        ctl.finished("op", 9.0)
    assert ctl.limit == pytest.approx(1.0)


# -- admission: cost-aware shedding -----------------------------------------


def test_expensive_ops_shed_first_between_limit_and_cap():
    # increase=0 freezes the AIMD limit so only the cost logic moves.
    ctl, _ = controller(max_queue_depth=10, initial_limit=1,
                        latency_target=10.0, increase=0.0)
    ctl.admit("heavy")
    ctl.finished("heavy", 0.5, service_time=0.5)
    ctl.admit("light")
    ctl.finished("light", 0.01, service_time=0.01)
    # Occupy the single adaptive slot.
    assert ctl.admit("light") is None
    # Above the limit: heavy (EWMA cost over the mean) is shed, light
    # and never-seen operations still get through.
    assert ctl.admit("heavy") is not None
    assert ctl.shed_limit == 1
    assert ctl.admit("light") is None
    assert ctl.admit("never-seen") is None
    assert ctl.depth == 3


def test_cost_blind_mode_sheds_everything_over_the_limit():
    ctl, _ = controller(max_queue_depth=10, initial_limit=1,
                        latency_target=10.0, increase=0.0,
                        cost_aware=False)
    ctl.admit("light")
    ctl.finished("light", 0.01, service_time=0.01)
    assert ctl.admit("light") is None
    assert ctl.admit("light") is not None


# -- admission: queue age ----------------------------------------------------


def test_over_age_and_aged_shed_accounting():
    ctl, _ = controller(max_queue_depth=10, max_queue_age=0.05)
    assert not ctl.over_age(0.01)
    assert ctl.over_age(0.06)
    hint = ctl.shed_aged()
    assert hint >= ctl.policy.retry_after_min
    assert ctl.shed_age == 1
    no_age, _ = controller(max_queue_depth=10)
    assert not no_age.over_age(99.0)


# -- admission: the retry-after hint ----------------------------------------


def test_retry_after_hint_prices_the_backlog():
    ctl, _ = controller(max_queue_depth=10, initial_limit=4,
                        latency_target=1.0, increase=0.0)
    for _ in range(3):
        assert ctl.admit("op") is None
    ctl.finished("op", 0.2)  # seeds the sojourn EWMA at 0.2s
    # backlog of 2 ahead + self, at 0.2s each over parallelism 4.
    assert ctl.shed_draining_one() == pytest.approx(0.2 * 3 / 4)
    assert ctl.shed_draining == 1


def test_retry_after_hint_is_clamped():
    ctl, _ = controller(max_queue_depth=10, initial_limit=1,
                        latency_target=100.0, increase=0.0,
                        retry_after_min=0.02, retry_after_max=0.5)
    # No EWMA yet: the floor.
    ctl.admit("op")
    assert ctl.shed_draining_one() == 0.02
    # Enormous backlog estimate: the ceiling.
    ctl.finished("op", 60.0)
    assert ctl.shed_draining_one() == 0.5


def test_snapshot_shape():
    ctl, _ = controller(max_queue_depth=8, initial_limit=4)
    ctl.admit("op")
    snap = ctl.snapshot()
    assert snap["depth"] == 1
    assert snap["limit"] == 4.0
    assert snap["max_queue_depth"] == 8
    assert snap["accepted"] == 1
    assert snap["shed"] == {"depth": 0, "limit": 0, "age": 0, "draining": 0}
    assert snap["sojourn_ewma_ms"] is None
    assert snap["overloaded"] is False
    assert ctl.shed_total() == 0


# -- retry budgets -----------------------------------------------------------


def test_budget_spends_then_denies():
    budget = RetryBudgetPolicy(capacity=2, refill_rate=0.0).build()
    assert budget.take()
    assert budget.take()
    assert not budget.take()
    assert budget.spent == 2
    assert budget.denied == 1


def test_successes_refill_fractionally_and_clamp_at_capacity():
    budget = RetryBudgetPolicy(capacity=2, refill_rate=0.5, initial=0).build()
    assert not budget.take()
    budget.record_success()
    assert not budget.take()  # 0.5 tokens: still under a whole one
    budget.record_success()
    assert budget.take()  # 1.0 token
    for _ in range(10):
        budget.record_success()
    assert budget.tokens == pytest.approx(2.0)  # clamped at capacity
    snap = budget.snapshot()
    assert snap["capacity"] == 2.0
    assert snap["spent"] == 1
    assert snap["denied"] == 2


def test_budget_policy_validation():
    with pytest.raises(ValueError):
        RetryBudgetPolicy(capacity=0)
    with pytest.raises(ValueError):
        RetryBudgetPolicy(refill_rate=-0.1)
    assert isinstance(RetryBudgetPolicy().build(), RetryBudget)


# -- end to end: the typed Overloaded reply ----------------------------------


def _occupy(stub, delay_ms=300):
    """A thread holding the server's one admission slot with a slow call."""
    result = {}

    def call():
        try:
            result["value"] = stub.echo("slow", delay_ms=delay_ms)
        except Exception as exc:  # pragma: no cover - surfaced by the test
            result["error"] = exc

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    time.sleep(0.1)  # let the slow call get admitted
    return thread, result


@pytest.mark.parametrize("runtime", SERVER_RUNTIMES)
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
def test_shed_reply_surfaces_as_overloaded_error(protocol_name, runtime):
    server, client, stub, _ = make_pair(
        protocol=protocol_name, transport="tcp", runtime=runtime,
        server_kwargs={"admission": AdmissionPolicy(
            max_queue_depth=1, latency_target=60.0)},
    )
    try:
        thread, result = _occupy(stub)
        with pytest.raises(OverloadedError) as excinfo:
            stub.echo("excess")
        exc = excinfo.value
        assert exc.kind == "overloaded"
        assert exc.retry_after is not None
        assert exc.retry_after >= 0.001
        assert "server overloaded" in str(exc)
        assert "ra=" not in str(exc)  # the hint token is stripped
        thread.join(timeout=5)
        assert result.get("value") == "ack:slow"
        snap = server._admission.snapshot()
        assert snap["shed"]["depth"] == 1
        assert snap["accepted"] >= 1
        # The slow call's service time reached the controller: it is
        # what cost-aware shedding prices the operation with.
        assert server._admission._op_cost["echo"] >= 0.25
    finally:
        stop_pair(server, client)


@pytest.mark.parametrize("runtime", SERVER_RUNTIMES)
def test_request_queued_past_max_age_is_shed_not_run(runtime):
    # The admission clock is the core's only clock; one that jumps a
    # second per reading ages every request past the limit between its
    # admission and its dispatch, whichever thread runs that.
    ticks = itertools.count()
    server, client, stub, impl = make_pair(
        protocol="text2", transport="tcp", runtime=runtime,
        server_kwargs={"admission": AdmissionPolicy(
            max_queue_depth=8, max_queue_age=0.5,
            clock=lambda: float(next(ticks)))},
    )
    try:
        with pytest.raises(OverloadedError, match="queued past max age"):
            stub.echo("stale")
        assert impl.echoed == []
        snap = server._admission.snapshot()
        assert snap["shed"]["age"] == 1
        assert snap["depth"] == 0  # the admitted slot was released
    finally:
        stop_pair(server, client)


def test_retry_after_hint_floors_the_backoff():
    sleeps = []
    retry = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0,
                        rng=random.Random(0), sleep=sleeps.append)
    server, client, stub, _ = make_pair(
        protocol="text2", transport="tcp",
        server_kwargs={"admission": AdmissionPolicy(
            max_queue_depth=1, latency_target=60.0)},
        client_kwargs={"resilience": ResiliencePolicy(retry=retry)},
    )
    try:
        thread, result = _occupy(stub)
        # base_delay=0 means the jittered delay is 0; anything recorded
        # is the server's retry-after hint flooring the backoff.
        with pytest.raises(OverloadedError):
            stub.echo("excess", idempotent=True)
        assert len(sleeps) == 1
        assert sleeps[0] >= 0.001
        thread.join(timeout=5)
        assert result.get("value") == "ack:slow"
    finally:
        stop_pair(server, client)


def test_overloaded_counts_on_breaker_without_tripping_it():
    from repro.resilience import BREAKER_CLOSED, BreakerPolicy

    retry = RetryPolicy(max_attempts=1)
    server, client, stub, _ = make_pair(
        protocol="text2", transport="tcp",
        server_kwargs={"admission": AdmissionPolicy(
            max_queue_depth=1, latency_target=60.0)},
        client_kwargs={"resilience": ResiliencePolicy(
            retry=retry,
            breaker=BreakerPolicy(min_calls=2, failure_threshold=0.5),
        )},
    )
    try:
        thread, result = _occupy(stub)
        for _ in range(4):
            with pytest.raises(OverloadedError):
                stub.echo("excess", idempotent=True)
        breaker = next(iter(client._breakers.values()))
        # Four consecutive sheds: counted, but the endpoint answered —
        # the failure window stays clean and the circuit stays closed.
        assert breaker.overloaded_count == 4
        assert breaker.state == BREAKER_CLOSED
        thread.join(timeout=5)
        assert result.get("value") == "ack:slow"
    finally:
        stop_pair(server, client)


# -- end to end: retry budgets gate retries ----------------------------------


def test_exhausted_budget_stops_retries():
    events = []
    plan = FaultPlan(script={("send", 0): "disconnect"})
    retry = RetryPolicy(max_attempts=4, rng=random.Random(0),
                        sleep=lambda _s: None)
    server, client, stub, _ = make_pair(
        protocol="text2", transport="tcp", plan=plan,
        client_kwargs={
            "resilience": ResiliencePolicy(
                retry=retry,
                retry_budget=RetryBudgetPolicy(capacity=2, refill_rate=0.0),
            ),
            "trace": lambda name, detail: events.append((name, detail)),
        },
    )
    try:
        # The script kills the first send on *every* channel, so each
        # attempt fails and wants a retry.  Capacity 2 with no refill:
        # the first call burns both tokens, then retries stop cold.
        with pytest.raises(CommunicationError):
            stub.echo("one", idempotent=True)
        with pytest.raises(CommunicationError):
            stub.echo("two", idempotent=True)
        retries = [d for n, d in events if n == "resilience:retry"]
        assert len(retries) == 2
        budget = next(iter(client._retry_budgets.values()))
        snap = budget.snapshot()
        assert snap["spent"] == 2
        assert snap["denied"] >= 1
    finally:
        stop_pair(server, client)


def test_successes_earn_back_retries():
    retry = RetryPolicy(max_attempts=2, rng=random.Random(0),
                        sleep=lambda _s: None)
    server, client, stub, _ = make_pair(
        protocol="text2", transport="tcp",
        client_kwargs={"resilience": ResiliencePolicy(
            retry=retry,
            retry_budget=RetryBudgetPolicy(capacity=2, refill_rate=0.5,
                                           initial=0),
        )},
    )
    try:
        assert stub.echo("a") == "ack:a"
        budget = next(iter(client._retry_budgets.values()))
        # One success at refill 0.5: still short of a whole token.
        assert not budget.take()
        assert stub.echo("b") == "ack:b"
        # The second success completes the token (0.5 + 0.5 earned,
        # minus nothing spent since the failed take above is free).
        assert budget.take()
    finally:
        stop_pair(server, client)
