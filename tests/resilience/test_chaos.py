"""The chaos harness itself: determinism, fault surfaces, correct kinds."""

import time

import pytest

from repro.model.errors import CommunicationError
from repro.resilience import (
    ChaosChannel,
    ChaosTransport,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.resilience.chaos import install_chaos

from tests.resilience.rig import make_pair, stop_pair


class FakeInnerChannel:
    closed = False
    peer = "fake:0"

    def __init__(self):
        self.sent = []

    def send(self, data):
        self.sent.append(bytes(data))

    def recv_line(self):
        return bytearray(b"RET OK\n")

    def close(self):
        self.closed = True


# -- the deterministic draw -------------------------------------------------


def test_decisions_are_pure_functions_of_event_identity():
    plan_a = FaultPlan(seed=3, disconnect=0.3, garbage=0.3)
    plan_b = FaultPlan(seed=3, disconnect=0.3, garbage=0.3)
    events = [("send", channel, index)
              for channel in range(1, 5) for index in range(50)]
    assert ([plan_a.decide(*event) for event in events]
            == [plan_b.decide(*event) for event in events])
    assert plan_a.stats == plan_b.stats


def test_different_seeds_give_different_schedules():
    schedule = lambda seed: [  # noqa: E731 - tiny local helper
        FaultPlan(seed=seed, disconnect=0.5).decide("send", 1, index)
        for index in range(64)
    ]
    assert schedule(1) != schedule(2)


def test_script_pins_specific_events():
    plan = FaultPlan(script={("send", 2): "disconnect"})
    assert plan.decide("send", 1, 0) is None
    assert plan.decide("send", 1, 1) is None
    assert plan.decide("send", 1, 2) == "disconnect"
    assert plan.stats["send:disconnect"] == 1
    assert plan.stats["send:events"] == 3
    assert plan.injected() == 1


def test_zero_rates_inject_nothing():
    plan = FaultPlan(seed=9)
    assert all(plan.decide("send", 1, index) is None for index in range(100))
    assert plan.injected() == 0


# -- the channel wrapper ----------------------------------------------------


def test_disconnect_fault_closes_channel_with_send_failed():
    inner = FakeInnerChannel()
    channel = ChaosChannel(inner, FaultPlan(script={("send", 0): "disconnect"}), 1)
    with pytest.raises(CommunicationError) as excinfo:
        channel.send(b"CALL x y\n")
    assert excinfo.value.kind == "send-failed"
    assert inner.closed
    assert inner.sent == []


def test_partial_write_sends_half_then_fails():
    inner = FakeInnerChannel()
    channel = ChaosChannel(inner, FaultPlan(script={("send", 0): "partial"}), 1)
    payload = b"CALL 12345678\n"
    with pytest.raises(CommunicationError) as excinfo:
        channel.send(payload)
    assert excinfo.value.kind == "send-failed"
    assert inner.closed
    assert inner.sent == [payload[: len(payload) // 2]]


def test_garbage_fault_poisons_the_read():
    inner = FakeInnerChannel()
    channel = ChaosChannel(inner, FaultPlan(script={("recv", 0): "garbage"}), 1)
    line = channel.recv_line()
    assert bytes(line) != b"RET OK\n"
    # The next read is clean again.
    assert bytes(channel.recv_line()) == b"RET OK\n"


def test_clean_events_delegate_to_inner():
    inner = FakeInnerChannel()
    channel = ChaosChannel(inner, FaultPlan(), 1)
    channel.send(b"data")
    assert inner.sent == [b"data"]
    assert channel.peer == "fake:0"  # __getattr__ fallthrough


def test_chaos_transport_wraps_any_registered_transport():
    plan = FaultPlan(script={("connect", 0): "refuse"})
    name = install_chaos("inproc", plan)
    from repro.heidirmi.transport import get_transport

    transport = get_transport(name)
    assert isinstance(transport, ChaosTransport)
    with pytest.raises(CommunicationError) as excinfo:
        transport.connect("nowhere", 1)
    assert excinfo.value.kind == "connect-refused"


# -- fault kinds through the full stack -------------------------------------


def test_connect_refused_vs_connect_timeout_kinds():
    """The two connect failure modes keep distinct kinds end to end."""
    plan = FaultPlan(script={("connect", 0): "refuse",
                             ("connect", 1): "timeout"})
    server, client, stub, _ = make_pair(plan=plan)
    try:
        with pytest.raises(CommunicationError) as refused:
            stub.echo("a")
        assert refused.value.kind == "connect-refused"
        with pytest.raises(CommunicationError) as timed_out:
            stub.echo("b")
        assert timed_out.value.kind == "connect-timeout"
    finally:
        stop_pair(server, client)


def test_mid_frame_disconnect_surfaces_as_send_failed():
    # A script applies to the matching event of *every* channel: the
    # second call proves the fault repeats on the fresh connection too.
    plan = FaultPlan(script={("send", 1): "disconnect"})
    server, client, stub, _ = make_pair(plan=plan)
    try:
        assert stub.echo("warm") == "ack:warm"
        with pytest.raises(CommunicationError) as excinfo:
            stub.echo("x")
        assert excinfo.value.kind == "send-failed"
        assert plan.stats["send:disconnect"] == 1
        # The cache discarded the poisoned connection; the replacement
        # channel replays the script (send event 1 dies again).
        assert stub.echo("y") == "ack:y"
        with pytest.raises(CommunicationError):
            stub.echo("z")
    finally:
        stop_pair(server, client)


def test_garbage_reply_exclusive_fails_the_call_as_reader_died():
    """A garbled reply means on an exclusive connection what it means
    on a multiplexed one: the reply stream is lost (``reader-died``)."""
    plan = FaultPlan(script={("recv", 1): "garbage"})
    server, client, stub, _ = make_pair(plan=plan)
    try:
        assert stub.echo("warm") == "ack:warm"
        with pytest.raises(CommunicationError) as excinfo:
            stub.echo("x")
        assert excinfo.value.kind == "reader-died"
        # The poisoned channel was closed and discarded; a fresh one
        # serves its first (clean) read normally.
        assert stub.echo("y") == "ack:y"
    finally:
        stop_pair(server, client)


def test_garbage_reply_exclusive_is_resent_only_when_idempotent():
    """``reader-died`` is a default retryable kind, so an idempotent call
    whose reply came back garbled on an exclusive connection is sent
    again on a fresh one — the server runs it twice — while a call not
    marked idempotent fails on the first garbled reply."""
    plan = FaultPlan(script={("recv", 1): "garbage"})
    policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=2,
                                                base_delay=0.0))
    server, client, stub, impl = make_pair(
        plan=plan, client_kwargs={"resilience": policy})
    # The garbage replaces the real reply at the client, so the server
    # may still be running the call when the client gives up on it.
    def executed(count):
        give_up = time.monotonic() + 5.0
        while len(impl.echoed) < count and time.monotonic() < give_up:
            time.sleep(0.005)
        return impl.echoed

    try:
        assert stub.echo("warm") == "ack:warm"
        # Connection 1's second read is garbled; connection 2's first
        # read is clean.
        assert stub.echo("x", idempotent=True) == "ack:x"
        assert executed(3) == ["warm", "x", "x"]
        assert client.connections.stats["opened"] == 2
        # Connection 2's second read is garbled too, and nothing resends.
        with pytest.raises(CommunicationError) as excinfo:
            stub.echo("y")
        assert excinfo.value.kind == "reader-died"
        assert executed(4) == ["warm", "x", "x", "y"]
        assert client.connections.stats["opened"] == 2
    finally:
        stop_pair(server, client)


def test_garbage_reply_multiplexed_fails_pending_as_reader_died():
    """A garbage frame kills the demux reader; calls already pending in
    the completion table fail with kind="reader-died", not a hang."""
    # recv event 0 is the first (clean) reply; the reader's next read
    # draws garbage while the second call is still pending.
    plan = FaultPlan(script={("recv", 1): "garbage"})
    server, client, stub, _ = make_pair(multiplex=True, plan=plan)
    try:
        first = stub.echo_async("one", delay_ms=150)
        second = stub.echo_async("two", delay_ms=150)
        assert first.result(timeout=10).get_string() == "ack:one"
        with pytest.raises(CommunicationError) as excinfo:
            second.result(timeout=10)
        assert excinfo.value.kind == "reader-died"
        # The cache replaces the dead shared channel transparently.
        assert stub.echo("again") == "ack:again"
        assert client.connections.stats["opened"] == 2
    finally:
        stop_pair(server, client)


def test_delay_fault_slows_but_succeeds():
    plan = FaultPlan(script={("send", 0): "delay"}, delay_s=0.05)
    server, client, stub, _ = make_pair(plan=plan)
    try:
        assert stub.echo("x") == "ack:x"
        assert plan.stats["send:delay"] == 1
    finally:
        stop_pair(server, client)


def test_same_plan_same_run_twice_is_identical():
    """Two fresh rigs replaying the same call sequence under same-seed
    plans inject the same faults and end with identical stats."""

    def run(seed):
        plan = FaultPlan(seed=seed, connect_refuse=0.1, disconnect=0.1,
                         garbage=0.1)
        server, client, stub, _ = make_pair(plan=plan)
        outcomes = []
        try:
            for index in range(60):
                try:
                    outcomes.append(stub.echo(f"c{index}"))
                except CommunicationError as exc:
                    outcomes.append(f"!{exc.kind}")
        finally:
            stop_pair(server, client)
        return outcomes, dict(plan.stats)

    outcomes_a, stats_a = run(seed=11)
    outcomes_b, stats_b = run(seed=11)
    assert outcomes_a == outcomes_b
    assert stats_a == stats_b
    assert sum(1 for o in outcomes_a if o.startswith("!")) > 0, (
        "the 10% plan injected nothing in 60 calls — seed draw broken?"
    )


def test_slow_fault_injects_latency_without_corruption():
    plan = FaultPlan(script={("recv", 0): "slow"}, slow_s=0.15)
    server, client, stub, _ = make_pair(plan=plan)
    try:
        started = time.monotonic()
        assert stub.echo("x") == "ack:x"
        # The scripted slow read stalled the reply, then delivered the
        # real bytes untouched — latency injection, not corruption.
        assert time.monotonic() - started >= 0.14
        assert plan.stats["recv:slow"] == 1
        assert plan.injected("recv") == 1
    finally:
        stop_pair(server, client)


def test_slow_rate_draws_deterministically():
    plan_a = FaultPlan(seed=5, slow=0.3)
    plan_b = FaultPlan(seed=5, slow=0.3)
    draws_a = [plan_a.decide("recv", 1, index) for index in range(40)]
    draws_b = [plan_b.decide("recv", 1, index) for index in range(40)]
    assert draws_a == draws_b
    assert draws_a.count("slow") > 0
