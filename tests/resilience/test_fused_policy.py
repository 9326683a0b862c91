"""The fused policy fast path: plan caching, pump-armed deadlines,
retry-as-re-enqueue, and the bounded breaker table.

These tests pin the observable contracts of moving resilience
bookkeeping out of the per-call wrapper and into the correlation/pump
layer: deadline expiry must surface from the pump's own wakeup (no
caller-side timer), a retried call must still finish exactly one client
span and count its retries identically, policy resolution must allocate
nothing when no deadline applies, and the per-endpoint breaker table
must stay bounded instead of growing with every address ever dialled.
"""

import random
import threading
import time

import pytest

from repro.heidirmi import Orb
from repro.model.call import Call
from repro.model.errors import DeadlineExceeded
from repro.heidirmi.protocol import get_protocol
from repro.heidirmi.transport import get_transport
from repro.observe import Observer
from repro.resilience import (
    BreakerPolicy,
    Deadline,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.resilience.breaker import BREAKER_OPEN
from repro.resilience import engine

from tests.resilience.rig import TYPE_ID, make_pair, registry, stop_pair

#: Scheduling slack allowed on top of a deadline before we call an
#: enforcement path "late" (CI machines stall threads for tens of ms).
EPSILON = 1.5


def instant_retry(max_attempts=3, **kwargs):
    """A RetryPolicy whose sleeps are recorded, not slept."""
    sleeps = []
    policy = RetryPolicy(max_attempts=max_attempts, base_delay=0.01,
                         rng=random.Random(0), **kwargs)
    policy.sleep = sleeps.append
    return policy, sleeps


def _wait_spans(observer, n, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = observer.exporter.snapshot()
        if len(spans) >= n:
            return spans
        time.sleep(0.005)
    return observer.exporter.snapshot()


# -- the bounded breaker table (satellite: Orb._breakers growth) ------------


def test_breaker_table_stays_bounded_and_reap_spares_live_state():
    """Dialling many distinct endpoints must not grow ``_breakers``
    without bound; the reap spares open circuits (their state is the
    whole point) and endpoints with live cached connections (their
    rolling window is current history)."""
    policy = ResiliencePolicy(breaker=BreakerPolicy())
    server, client, stub, _ = make_pair(
        client_kwargs={"resilience": policy}
    )
    try:
        client._breaker_cap = 8
        # A real call leaves a cached connection to the live endpoint.
        assert stub.echo("live", idempotent=True) == "ack:live"
        live = client._breaker_for(stub._hd_ref.bootstrap)

        # Drive one ghost endpoint's circuit open: it must survive.
        opened = client._breaker_for(("inproc", "dead-host", 1))
        for _ in range(opened.policy.min_calls):
            opened.record_failure()
        assert opened.state == BREAKER_OPEN

        for port in range(100):
            client._breaker_for(("inproc", "ghost-host", port))

        assert len(client._breakers) <= client._breaker_cap + 1, (
            f"breaker table grew to {len(client._breakers)} entries "
            f"past the cap of {client._breaker_cap}"
        )
        assert client._breaker_for(stub._hd_ref.bootstrap) is live
        assert client._breaker_for(("inproc", "dead-host", 1)) is opened
        # Reaping bumped the plan epoch; cached plans rebuild and the
        # stub keeps working against the surviving breaker.
        assert stub.echo("after-reap", idempotent=True) == "ack:after-reap"
    finally:
        stop_pair(server, client)


# -- allocation-free policy resolution (satellite: resolve_deadline) --------


def test_resolve_deadline_all_none_path_allocates_no_deadline(monkeypatch):
    """With no explicit deadline, no call deadline, no policy default
    and no Orb default, resolution returns None without constructing a
    single Deadline object."""
    built = []

    class CountingDeadline(Deadline):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "Deadline", CountingDeadline)
    orb = Orb(transport="inproc", protocol="text2", types=registry())
    protocol = get_protocol("text2")
    try:
        call = Call("@x:h:1#o#t", "echo",
                    marshaller=protocol.new_marshaller())
        assert engine.resolve_deadline(orb, None, call) is None
        assert engine.resolve_deadline(orb, None, None) is None
        assert built == [], (
            "the all-None fast path constructed a Deadline"
        )
        # Sanity: a real budget still coerces (and now allocates).
        assert engine.resolve_deadline(orb, 0.5, None) is not None
        assert built, "coercion no longer constructs a Deadline at all?"
    finally:
        orb.stop()


def test_cached_plan_reused_across_calls():
    """The (deadline, retry, breaker) tuple is resolved once per
    reference, not once per call."""
    retry, _ = instant_retry()
    server, client, stub, _ = make_pair(
        client_kwargs={"resilience": ResiliencePolicy(retry=retry)}
    )
    try:
        assert stub.echo("one", idempotent=True) == "ack:one"
        first = client._plan_for(stub._hd_ref)
        assert stub.echo("two", idempotent=True) == "ack:two"
        assert client._plan_for(stub._hd_ref) is first
    finally:
        stop_pair(server, client)


# -- deadline expiry from the pump wakeup (satellite: pump deadlines) -------


def test_async_call_expires_from_pump_without_caller_timeout():
    """``invoke_async`` hands back a bare future: nothing on the caller
    side is watching the clock, so a prompt DeadlineExceeded can only
    come from the pump's own wakeup.  The expiry happens in the
    multiplexed completion table with zero reply bytes inbound (the
    doomed call is the channel's only traffic and the server is still
    sleeping), and must not tear down the shared channel."""
    server, client, stub, _ = make_pair(protocol="text2", multiplex=True)
    try:
        orb = stub._hd_orb
        call = orb.create_call(stub._hd_ref, "echo")
        call.put_string("doomed")
        call.put_long(5000)
        call.deadline = Deadline.after(0.25)
        started = time.monotonic()
        future = orb.invoke_async(stub._hd_ref, call)
        # The 30s backstop exists only so a broken pump fails the test
        # instead of hanging it; enforcement must beat it by ~29.5s.
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=30)
        elapsed = time.monotonic() - started
        assert elapsed < 0.25 + EPSILON, (
            f"pump-side enforcement took {elapsed:.2f}s for a 0.25s budget"
        )
        # Channel-mates and the shared channel survive the expiry.
        time.sleep(0.1)
        assert stub.echo("alive") == "ack:alive"
        assert client.connections.stats["opened"] == 1, (
            "an expired async call tore down the shared channel"
        )
    finally:
        stop_pair(server, client)


def test_exclusive_deadline_enforced_at_the_blocking_point():
    """Exclusive mode arms the budget on the socket itself; the slow
    call fails within budget plus slack and the connection is not
    poisoned for the next call."""
    server, client, stub, _ = make_pair(protocol="text2", multiplex=False)
    try:
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            stub.echo("slow", delay_ms=2000, deadline=0.2)
        elapsed = time.monotonic() - started
        assert elapsed < 0.2 + EPSILON
        # The abandoned upcall finishes server-side; afterwards a fresh
        # undeadlined call must not inherit the armed socket timeout.
        time.sleep(2.2)
        assert stub.echo("fresh") == "ack:fresh"
    finally:
        stop_pair(server, client)


def test_native_aio_client_expires_on_loop_timer_with_zero_bytes():
    """The coroutine client arms expiry on the shared loop's timer
    wheel: against a server that accepts and never replies a deadlined
    invoke fails promptly with literally zero inbound bytes."""
    import asyncio

    from repro.wire.aio import AioClientConnection, get_event_loop

    listener = get_transport("tcp").listen("127.0.0.1", 0)
    held = []

    def acceptor():
        try:
            held.append(listener.accept())
        except Exception:
            pass

    thread = threading.Thread(target=acceptor, daemon=True)
    thread.start()
    protocol = get_protocol("text2")

    host, port = listener.address

    async def drive():
        connection = await AioClientConnection.open(protocol, host, port)
        call = Call("@x:h:1#o#t", "echo",
                    marshaller=protocol.new_marshaller())
        call.put_string("doomed")
        call.put_long(0)
        call.deadline = Deadline.after(0.25)
        started = time.monotonic()
        try:
            await connection.invoke(call)
            raise AssertionError("silent server produced a reply?")
        except DeadlineExceeded:
            elapsed = time.monotonic() - started
        finally:
            await connection.close()
        return elapsed

    try:
        elapsed = asyncio.run_coroutine_threadsafe(
            drive(), get_event_loop()
        ).result(30)
        assert elapsed < 0.25 + EPSILON, (
            f"loop-timer enforcement took {elapsed:.2f}s for a 0.25s budget"
        )
    finally:
        listener.close()
        for channel in held:
            channel.close()
        thread.join(timeout=5)


# -- retry as re-enqueue (satellite: spans + metrics preserved) -------------


def test_retried_call_finishes_exactly_one_client_span():
    """Two refusals then success is still ONE call: one client span
    finish, one upcall, and a retries counter of exactly two."""
    plan = FaultPlan(script={("connect", 0): "refuse",
                             ("connect", 1): "refuse"})
    retry, _ = instant_retry(max_attempts=3)
    observer = Observer()
    server, client, stub, impl = make_pair(
        plan=plan,
        client_kwargs={
            "resilience": ResiliencePolicy(retry=retry),
            "observer": observer,
        },
    )
    try:
        assert stub.echo("tok", idempotent=True) == "ack:tok"
        assert impl.echoed == ["tok"]
        spans = _wait_spans(observer, 1)
        assert len(spans) == 1, (
            f"a retried call finished {len(spans)} client spans, not 1"
        )
        metrics = observer.metrics.snapshot()
        entries = metrics["resilience.retries"]
        assert len(entries) == 1
        assert entries[0]["labels"] == {"kind": "connect-refused"}
        assert entries[0]["value"] == 2
    finally:
        stop_pair(server, client)


def _seeded_fault_run(calls=60, seed=5):
    """One observed workload under a seeded 5% fault plan; returns the
    (sorted retries-metric entries, retry trace events, successes)."""
    from repro.resilience import DEFAULT_RETRYABLE_KINDS

    events = []
    # The acceptance suite's 5% plan shape: recv-level faults too, so
    # injections land even though connections are cached across calls.
    plan = FaultPlan(seed=seed, connect_refuse=0.05, disconnect=0.05,
                     garbage=0.05)
    retry, _ = instant_retry(
        max_attempts=4,
        retryable_kinds=frozenset(
            DEFAULT_RETRYABLE_KINDS | {"peer-protocol-error"}
        ),
    )
    observer = Observer()
    server, client, stub, _ = make_pair(
        plan=plan,
        client_kwargs={
            "resilience": ResiliencePolicy(retry=retry),
            "observer": observer,
            "trace": lambda name, detail: events.append((name, detail)),
        },
    )
    try:
        successes = 0
        for index in range(calls):
            try:
                if stub.echo(f"c{index}", idempotent=True) == f"ack:c{index}":
                    successes += 1
            except Exception:
                pass
        retries = sorted(
            (tuple(sorted(entry["labels"].items())), entry["value"])
            for entry in observer.metrics.snapshot().get(
                "resilience.retries", ()
            )
        )
        retry_events = [detail for name, detail in events
                        if name == "resilience:retry"]
        return retries, retry_events, successes
    finally:
        stop_pair(server, client)


def test_retry_metrics_are_reproducible_under_a_seeded_plan():
    """Golden compare: the fused engine's ``resilience.retries{kind}``
    accounting is a pure function of the seeded fault plan — two
    identical runs produce identical metric snapshots, and the counter
    total equals the number of retry trace events observed."""
    first_metrics, first_events, first_ok = _seeded_fault_run()
    second_metrics, second_events, second_ok = _seeded_fault_run()
    assert first_metrics == second_metrics
    assert len(first_events) == len(second_events)
    assert first_ok == second_ok
    total = sum(value for _labels, value in first_metrics)
    assert total == len(first_events), (
        "the retries counter and the retry trace events disagree"
    )
    assert total > 0, "a 5% plan over 60 calls injected nothing; seed drifted?"
