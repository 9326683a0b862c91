"""End-to-end acceptance: the full policy stack under a seeded 5% plan.

The contract from the issue: under a deterministic 5%-per-event fault
plan, idempotent calls with retry configured succeed >= 99% of the
time, every failure carries a well-known kind, and nothing ever hangs
past its deadline (plus scheduling slack).  Exclusive and multiplexed
paths alike.
"""

import random
import time

import pytest

from repro.model.errors import CommunicationError, DeadlineExceeded
from repro.resilience import (
    DEFAULT_RETRYABLE_KINDS,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
)

from tests.resilience.rig import make_pair, stop_pair

N_CALLS = 300
DEADLINE = 5.0
EPSILON = 1.5

#: Every kind a chaos-injected failure may legitimately surface as.
KNOWN_KINDS = {
    "connect-refused", "connect-timeout", "send-failed", "recv-failed",
    "peer-closed", "channel-closed", "reader-died", "peer-protocol-error",
    "deadline-exceeded",
}

#: For *idempotent* traffic a lost/garbled reply is safe to retry: the
#: default whitelist plus the two kinds a poisoned reply stream maps to.
RETRYABLE = frozenset(DEFAULT_RETRYABLE_KINDS | {"peer-protocol-error"})


def five_percent_plan(seed):
    return FaultPlan(seed=seed, connect_refuse=0.05, disconnect=0.05,
                     garbage=0.05)


def run_workload(multiplex, seed):
    plan = five_percent_plan(seed)
    retry = RetryPolicy(max_attempts=4, retryable_kinds=RETRYABLE,
                        rng=random.Random(seed), sleep=lambda s: None)
    server, client, stub, _ = make_pair(
        protocol="text2", multiplex=multiplex, plan=plan,
        client_kwargs={"resilience": ResiliencePolicy(
            retry=retry, default_deadline=DEADLINE
        )},
    )
    outcomes = []
    try:
        for index in range(N_CALLS):
            started = time.monotonic()
            try:
                result = stub.echo(f"c{index}", idempotent=True)
                assert result == f"ack:c{index}", (
                    f"cross-wired under faults: {result!r}"
                )
                outcomes.append("ok")
            except CommunicationError as exc:
                assert exc.kind in KNOWN_KINDS, (
                    f"fault surfaced with unknown kind {exc.kind!r}"
                )
                outcomes.append(exc.kind)
            elapsed = time.monotonic() - started
            assert elapsed < DEADLINE + EPSILON, (
                f"call {index} took {elapsed:.2f}s, past its {DEADLINE}s "
                "deadline plus slack"
            )
    finally:
        stop_pair(server, client)
    return outcomes, plan


@pytest.mark.parametrize("multiplex", [False, True],
                         ids=["exclusive", "multiplexed"])
def test_idempotent_traffic_survives_five_percent_faults(multiplex):
    outcomes, plan = run_workload(multiplex, seed=42)
    successes = sum(1 for outcome in outcomes if outcome == "ok")
    assert plan.injected() > 0, "the 5% plan injected nothing in 300 calls"
    assert successes >= 0.99 * N_CALLS, (
        f"only {successes}/{N_CALLS} succeeded under the 5% plan; "
        f"failures: {[o for o in outcomes if o != 'ok'][:10]}"
    )


def test_exclusive_run_is_deterministic_across_replays():
    """Same seed, same call sequence, same outcomes and fault counts —
    the property the CI chaos-smoke job's 3x loop relies on."""
    first_outcomes, first_plan = run_workload(False, seed=7)
    second_outcomes, second_plan = run_workload(False, seed=7)
    assert first_outcomes == second_outcomes
    assert first_plan.stats == second_plan.stats


def test_unprotected_traffic_actually_fails_under_the_same_plan():
    """Control: without retry the same plan visibly hurts — proving the
    resilience layer (not luck) carried the test above."""
    plan = five_percent_plan(seed=42)
    server, client, stub, _ = make_pair(protocol="text2", plan=plan)
    failures = 0
    try:
        for index in range(N_CALLS):
            try:
                stub.echo(f"c{index}")
            except CommunicationError:
                failures += 1
    finally:
        stop_pair(server, client)
    assert failures > 0, (
        "the control run saw no faults; the acceptance test is vacuous"
    )


def test_deadline_holds_even_when_retries_are_exhausted():
    """With 100% refusals and generous attempts, the deadline still
    bounds the whole invocation."""
    plan = FaultPlan(connect_refuse=1.0)
    server, client, stub, _ = make_pair(
        plan=plan,
        client_kwargs={"resilience": ResiliencePolicy(
            retry=RetryPolicy(max_attempts=50, base_delay=0.05,
                              rng=random.Random(0)),
        )},
    )
    try:
        started = time.monotonic()
        with pytest.raises((CommunicationError, DeadlineExceeded)):
            stub.echo("x", idempotent=True, deadline=0.4)
        assert time.monotonic() - started < 0.4 + EPSILON
    finally:
        stop_pair(server, client)
