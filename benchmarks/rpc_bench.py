"""RPC throughput harness: calls/sec across protocols × connection modes.

The measurement behind the pipelining claim: N concurrent client
threads hammer one echo object through a single shared client ORB, over
either the paper's exclusive-checkout connection cache or the
multiplexed (one shared, demultiplexed channel) mode, for each wire
protocol that supports the mode.

Call styles match what each mode is for: exclusive rows issue blocking
stub calls (one request in flight per caller — all the classic protocol
can express), multiplexed rows drive the pipeline with windowed bursts
(``Orb.invoke_bulk``), which is the feature under measurement.  Every
reply is verified against its caller's token, so a cross-wired reply
fails the run rather than inflating it.

``run_matrix`` produces the deterministic document written to
``BENCH_rpc.json`` at the repo root; ``benchmarks/run_bench.py`` is the
command-line entry point.
"""

import json
import os
import platform
import random
import subprocess
import sys
import threading
import time

from repro.heidirmi import HdSkel, HdStub, Orb
from repro.model.errors import CommunicationError, OverloadedError
from repro.heidirmi.serialize import TypeRegistry
from repro.observe import FlightControl, Observer
from repro.observe.cli import percentile
from repro.resilience import (
    DEFAULT_RETRYABLE_KINDS,
    AdmissionPolicy,
    BreakerPolicy,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.resilience.chaos import install_chaos

TYPE_ID = "IDL:Bench/Echo:1.0"

#: (protocol, mode) pairs measured; multiplexing needs request ids, so
#: the classic text protocol only runs exclusive.
CONFIGURATIONS = (
    ("text", "exclusive"),
    ("text2", "exclusive"),
    ("text2", "multiplexed"),
    ("giop", "exclusive"),
    ("giop", "multiplexed"),
)


class Echo_stub(HdStub):
    _hd_type_id_ = TYPE_ID

    def echo(self, text):
        call = self._new_call("echo")
        call.put_string(text)
        return self._invoke(call).get_string()


class Echo_skel(HdSkel):
    _hd_type_id_ = TYPE_ID
    _hd_operations_ = (("echo", "_op_echo"),)

    def _op_echo(self, call, reply):
        reply.put_string(self.impl.echo(call.get_string()))


class EchoImpl:
    def echo(self, text):
        return text


def _registry():
    types = TypeRegistry()
    types.register_interface(TYPE_ID, stub_class=Echo_stub,
                             skeleton_class=Echo_skel)
    return types


def _run_once(transport, protocol, mode, clients, calls_per_client,
              window, client_kwargs=None, server_kwargs=None):
    """One timed run; returns elapsed seconds (replies all verified)."""
    types = _registry()
    server = Orb(transport=transport, protocol=protocol, types=types,
                 **(server_kwargs or {})).start()
    client = Orb(transport=transport, protocol=protocol, types=types,
                 multiplex=(mode == "multiplexed"),
                 **(client_kwargs or {}))
    try:
        stub = client.resolve(
            server.register(EchoImpl(), type_id=TYPE_ID).stringify()
        )
        stub.echo("warmup")
        errors = []
        start_barrier = threading.Barrier(clients + 1)
        pipelined = (mode == "multiplexed")

        def body(thread_index):
            token = f"c{thread_index}"
            start_barrier.wait()
            try:
                if pipelined:
                    done = 0
                    while done < calls_per_client:
                        burst = min(window, calls_per_client - done)
                        calls = []
                        for _ in range(burst):
                            call = stub._new_call("echo")
                            call.put_string(token)
                            calls.append(call)
                        replies = client.invoke_bulk(stub.reference, calls)
                        for reply in replies:
                            if reply.get_string() != token:
                                errors.append("cross-wired reply")
                                return
                        done += burst
                else:
                    for _ in range(calls_per_client):
                        if stub.echo(token) != token:
                            errors.append("cross-wired reply")
                            return
            except Exception as exc:  # noqa: BLE001 - fail the run below
                errors.append(repr(exc))

        threads = [threading.Thread(target=body, args=(index,))
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise RuntimeError(f"benchmark run failed: {errors[:3]}")
        return elapsed
    finally:
        client.stop()
        server.stop()


def measure(transport, protocol, mode, clients, calls_per_client,
            window=64, trials=3):
    """Calls/sec for one configuration, best of *trials* runs."""
    elapsed = min(
        _run_once(transport, protocol, mode, clients, calls_per_client,
                  window)
        for _ in range(trials)
    )
    total = clients * calls_per_client
    return {
        "transport": transport,
        "protocol": protocol,
        "mode": mode,
        "call_style": "pipelined" if mode == "multiplexed" else "blocking",
        "clients": clients,
        "calls": total,
        "seconds": round(elapsed, 6),
        "calls_per_sec": round(total / elapsed, 1),
    }


def run_matrix(transport="inproc", client_counts=(1, 16),
               calls_per_client=200, window=64, trials=3):
    """The full measurement document (machine info + every config)."""
    results = []
    for clients in client_counts:
        for protocol, mode in CONFIGURATIONS:
            results.append(measure(
                transport, protocol, mode, clients, calls_per_client,
                window=window, trials=trials,
            ))
    document = {
        "benchmark": "rpc_throughput",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "params": {
            "transport": transport,
            "client_counts": list(client_counts),
            "calls_per_client": calls_per_client,
            "window": window,
            "trials": trials,
        },
        "results": results,
    }
    document["claim"] = measure_claim(
        transport, max(client_counts), calls_per_client,
        window=window, trials=max(trials, 4),
    )
    return document


def measure_claim(transport, clients, calls_per_client, window=64,
                  trials=4):
    """The headline comparison: multiplexed text2 vs exclusive text.

    Measured as interleaved pairs (exclusive run, then multiplexed run,
    repeated) so both sides of the ratio see the same machine
    conditions; the best run of each side is kept.  Sequential rows in
    the matrix can land in different CPU-frequency windows, which would
    make a ratio between them noise.
    """
    exclusive_best = None
    multiplexed_best = None
    for _ in range(trials):
        exclusive = _run_once(transport, "text", "exclusive", clients,
                              calls_per_client, window)
        multiplexed = _run_once(transport, "text2", "multiplexed", clients,
                                calls_per_client, window)
        if exclusive_best is None or exclusive < exclusive_best:
            exclusive_best = exclusive
        if multiplexed_best is None or multiplexed < multiplexed_best:
            multiplexed_best = multiplexed
    total = clients * calls_per_client
    return {
        "clients": clients,
        "method": f"interleaved pairs, best of {trials}",
        "multiplexed_text2_calls_per_sec": round(total / multiplexed_best, 1),
        "exclusive_text_calls_per_sec": round(total / exclusive_best, 1),
        "speedup": round(exclusive_best / multiplexed_best, 2),
    }


#: (protocol, mode) pairs for the traced suite: the classic blocking
#: path, plus the two multiplexed protocols whose pipeline stages the
#: spans are meant to attribute.
TRACED_CONFIGURATIONS = (
    ("text", "exclusive"),
    ("text2", "multiplexed"),
    ("giop", "multiplexed"),
)


def _wait_spans(observer, n, timeout=5.0):
    """Server spans finish on server threads; poll briefly for export."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = observer.exporter.snapshot()
        if len(spans) >= n:
            return spans
        time.sleep(0.005)
    return observer.exporter.snapshot()


def _stage_quantiles(spans):
    """p50/p99 of span durations and of each stage, in microseconds."""
    durations = [span["duration_us"] for span in spans
                 if span.get("duration_us") is not None]
    stages = {}
    for span in spans:
        for name, micros in span.get("stages", ()):
            stages.setdefault(name, []).append(micros)
    return {
        "count": len(durations),
        "p50_us": round(percentile(durations, 0.50) or 0, 1),
        "p99_us": round(percentile(durations, 0.99) or 0, 1),
        "stages": {
            name: {
                "p50_us": round(percentile(values, 0.50) or 0, 1),
                "p99_us": round(percentile(values, 0.99) or 0, 1),
            }
            for name, values in sorted(stages.items())
        },
    }


def _run_traced_once(transport, protocol, mode, calls):
    """One traced run; returns (client spans, server spans, elapsed s)."""
    types = _registry()
    client_observer, server_observer = Observer(), Observer()
    server = Orb(transport=transport, protocol=protocol, types=types,
                 observer=server_observer).start()
    client = Orb(transport=transport, protocol=protocol, types=types,
                 multiplex=(mode == "multiplexed"),
                 observer=client_observer)
    try:
        stub = client.resolve(
            server.register(EchoImpl(), type_id=TYPE_ID).stringify()
        )
        started = time.perf_counter()
        for index in range(calls):
            token = f"t{index}"
            if stub.echo(token) != token:
                raise RuntimeError("cross-wired reply in traced run")
        elapsed = time.perf_counter() - started
        client_spans = _wait_spans(client_observer, calls)
        server_spans = _wait_spans(server_observer, calls)
        return client_spans, server_spans, elapsed
    finally:
        client.stop()
        server.stop()


def measure_flight_claim(transport, clients, calls_per_client, window=64,
                         trials=4):
    """What the flight recorder costs: recorder-on vs recorder-off.

    Interleaved pairs on the multiplexed text2 axis — the hottest path
    the wire-event tap touches — with observers on both ends in both
    runs, so the ratio isolates the recorder itself rather than
    tracing.  The "on" side attaches a :class:`FlightControl` (ring
    capture of every frame, both directions, both ends); the "off"
    side runs the same observers with no recorder, i.e. the tap
    attribute stays ``None`` and the hot path takes its one-pointer
    fast test.  Best run of each side is kept.
    """
    off_best = None
    on_best = None
    for _ in range(trials):
        off = _run_once(
            transport, "text2", "multiplexed", clients, calls_per_client,
            window,
            client_kwargs={"observer": Observer()},
            server_kwargs={"observer": Observer()},
        )
        on = _run_once(
            transport, "text2", "multiplexed", clients, calls_per_client,
            window,
            client_kwargs={"observer": Observer(flight=FlightControl())},
            server_kwargs={"observer": Observer(flight=FlightControl())},
        )
        if off_best is None or off < off_best:
            off_best = off
        if on_best is None or on < on_best:
            on_best = on
    total = clients * calls_per_client
    return {
        "clients": clients,
        "calls_per_client": calls_per_client,
        "method": f"interleaved pairs, best of {trials}",
        "recorder_off_calls_per_sec": round(total / off_best, 1),
        "recorder_on_calls_per_sec": round(total / on_best, 1),
        "recorder_overhead_pct": round((on_best / off_best - 1.0) * 100, 2),
    }


def run_traced(transport="inproc", calls=100, clients=8,
               calls_per_client=150, trials=4):
    """The traced suite: per-stage latency attribution under tracing.

    Runs each configuration with observers on both ends, then reduces
    the exported spans to p50/p99 per pipeline stage.  The claim block
    prices the flight recorder: recorder-on throughput must track
    recorder-off on the multiplexed text2 axis.  Returns the
    ``BENCH_obs.json`` document plus every raw span (for spans.jsonl).
    """
    results = []
    all_spans = []
    for protocol, mode in TRACED_CONFIGURATIONS:
        client_spans, server_spans, elapsed = _run_traced_once(
            transport, protocol, mode, calls
        )
        all_spans.extend(client_spans)
        all_spans.extend(server_spans)
        linked = {span["parent_id"] for span in server_spans}
        results.append({
            "transport": transport,
            "protocol": protocol,
            "mode": mode,
            "calls": calls,
            "seconds": round(elapsed, 6),
            "traced_calls_per_sec": round(calls / elapsed, 1),
            "linked_spans": sum(
                1 for span in client_spans if span["span_id"] in linked
            ),
            "client": _stage_quantiles(client_spans),
            "server": _stage_quantiles(server_spans),
        })
    document = {
        "benchmark": "rpc_traced_stages",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "params": {
            "transport": transport,
            "calls": calls,
            "claim_clients": clients,
            "claim_calls_per_client": calls_per_client,
            "claim_trials": trials,
        },
        "results": results,
        "claim": measure_flight_claim(
            transport, clients, calls_per_client, trials=trials,
        ),
    }
    return document, all_spans


#: Fault rates for the resilience suite: a clean control, then the two
#: rates the acceptance contract names (1% and 5% per event).
FAULT_RATES = (0.0, 0.01, 0.05)

#: Modes the faulted suite measures; both need request ids to survive a
#: poisoned stream, so only text2 runs.
FAULT_MODES = ("exclusive", "multiplexed")

#: For idempotent bench traffic a garbled reply is safe to retry, so
#: the poisoned-stream kind joins the default whitelist (the same
#: reasoning as tests/resilience/test_acceptance.py).
_FAULT_RETRYABLE = frozenset(DEFAULT_RETRYABLE_KINDS | {"peer-protocol-error"})


def _run_faulted_once(transport, mode, rate, calls, seed, deadline):
    """One faulted run: per-call latency + outcome for idempotent calls.

    A seeded chaos plan injects connect refusals, mid-frame disconnects
    and garbage frames at *rate* per event underneath text2; the client
    retries with tight (real but sub-millisecond-scale) backoff under a
    per-call deadline.  Rate 0.0 still runs through the chaos wrapper,
    so latencies compare apples-to-apples across rates.
    """
    plan = FaultPlan(seed=seed, connect_refuse=rate, disconnect=rate,
                     garbage=rate)
    chaos_transport = install_chaos(transport, plan)
    types = _registry()
    server = Orb(transport=chaos_transport, protocol="text2",
                 types=types).start()
    client = Orb(transport=chaos_transport, protocol="text2", types=types,
                 multiplex=(mode == "multiplexed"),
                 resilience=ResiliencePolicy(
                     retry=RetryPolicy(max_attempts=4, base_delay=0.001,
                                       max_delay=0.01,
                                       retryable_kinds=_FAULT_RETRYABLE,
                                       rng=random.Random(seed)),
                     default_deadline=deadline,
                 ))
    latencies_us = []
    successes = 0
    try:
        stub = client.resolve(
            server.register(EchoImpl(), type_id=TYPE_ID).stringify()
        )
        for index in range(calls):
            token = f"c{index}"
            call = stub._new_call("echo", idempotent=True)
            call.put_string(token)
            started = time.perf_counter()
            try:
                if stub._invoke(call).get_string() != token:
                    raise RuntimeError("cross-wired reply under faults")
                successes += 1
            except CommunicationError:
                pass
            latencies_us.append((time.perf_counter() - started) * 1e6)
    finally:
        client.stop()
        server.stop()
    return {
        "transport": transport,
        "protocol": "text2",
        "mode": mode,
        "fault_rate": rate,
        "calls": calls,
        "success_rate": round(successes / calls, 4),
        "p50_us": round(percentile(latencies_us, 0.50) or 0, 1),
        "p99_us": round(percentile(latencies_us, 0.99) or 0, 1),
        "faults_injected": plan.injected(),
    }


def measure_resilience_claim(transport, clients, calls_per_client,
                             window=64, trials=4):
    """The overhead check: a resilience-configured ORB at zero faults.

    Interleaved pairs (no-policy run, then policy run, repeated; best
    of each kept) on the blocking exclusive text2 path — the path
    ``resilient_invoke`` wraps.  ``no_policy_calls_per_sec`` is also
    directly comparable against BENCH_rpc.json from the pre-resilience
    tree, since an Orb without a policy takes the untouched hot path.
    """
    policy_kwargs = {
        "resilience": ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, rng=random.Random(0)),
            breaker=BreakerPolicy(),
            default_deadline=30.0,
        )
    }
    bare_best = None
    policy_best = None
    for _ in range(trials):
        bare = _run_once(transport, "text2", "exclusive", clients,
                         calls_per_client, window)
        policy = _run_once(transport, "text2", "exclusive", clients,
                           calls_per_client, window,
                           client_kwargs=policy_kwargs)
        if bare_best is None or bare < bare_best:
            bare_best = bare
        if policy_best is None or policy < policy_best:
            policy_best = policy
    total = clients * calls_per_client
    return {
        "clients": clients,
        "method": f"interleaved pairs, best of {trials}",
        "no_policy_calls_per_sec": round(total / bare_best, 1),
        "policy_zero_faults_calls_per_sec": round(total / policy_best, 1),
        "policy_overhead_pct": round((policy_best / bare_best - 1.0) * 100, 2),
    }


#: Runs one timed blocking-exclusive text2 workload against whatever
#: tree sys.argv points it at, printing the elapsed seconds.  Works
#: against this tree and against older checkouts alike: ``_run_once``
#: has had this signature prefix since the benchmark was introduced,
#: and older trees take one more required argument (a server worker
#: count, 0 for the serial server every tree has).
_BASELINE_SNIPPET = (
    "import sys\n"
    "from inspect import Parameter, signature\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from rpc_bench import _run_once\n"
    "args = ['inproc', 'text2', 'exclusive',\n"
    "        int(sys.argv[3]), int(sys.argv[4]), 64]\n"
    "if list(signature(_run_once).parameters.values())[6].default \\\n"
    "        is Parameter.empty:\n"
    "    args.append(0)\n"
    "print(_run_once(*args))\n"
)


def _subprocess_elapsed(tree_root, clients, calls_per_client):
    """One workload in a fresh interpreter over *tree_root*'s sources."""
    result = subprocess.run(
        [sys.executable, "-c", _BASELINE_SNIPPET,
         os.path.join(tree_root, "src"),
         os.path.join(tree_root, "benchmarks"),
         str(clients), str(calls_per_client)],
        capture_output=True, text=True, check=True,
    )
    return float(result.stdout.strip().splitlines()[-1])


def measure_baseline_regression(baseline_root, clients, calls_per_client,
                                trials=4):
    """No-policy throughput of this tree vs an older checkout's.

    Both trees run the identical blocking exclusive text2 workload in
    fresh interpreters, as interleaved pairs (baseline, current,
    repeated; best of each kept) so both sides see the same machine
    conditions.  This is the direct check that an Orb *without* a
    resilience policy still runs the pre-resilience hot path: extract
    the pre-resilience revision (e.g. ``git archive <rev> | tar -x -C
    benchmarks/out/baseline``) and pass it as *baseline_root*.
    """
    current_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_best = None
    current_best = None
    for _ in range(trials):
        baseline = _subprocess_elapsed(baseline_root, clients,
                                       calls_per_client)
        current = _subprocess_elapsed(current_root, clients,
                                      calls_per_client)
        if baseline_best is None or baseline < baseline_best:
            baseline_best = baseline
        if current_best is None or current < current_best:
            current_best = current
    total = clients * calls_per_client
    return {
        "clients": clients,
        "method": f"interleaved subprocess pairs, best of {trials}",
        "baseline_calls_per_sec": round(total / baseline_best, 1),
        "current_no_policy_calls_per_sec": round(total / current_best, 1),
        "regression_pct": round((current_best / baseline_best - 1.0) * 100, 2),
    }


def run_faults(transport="inproc", calls=300, seed=42, deadline=5.0,
               rates=FAULT_RATES, clients=8, calls_per_client=150,
               trials=4, baseline_root=None):
    """The resilience measurement document (``BENCH_resilience.json``).

    For each fault rate × connection mode: p50/p99 latency and success
    rate of idempotent retry traffic under a seeded chaos plan.  The
    claim block measures what resilience *costs* when nothing fails;
    with *baseline_root* (an extracted pre-resilience checkout) it also
    measures the no-policy regression against that tree directly.
    """
    results = []
    for rate in rates:
        for mode in FAULT_MODES:
            results.append(_run_faulted_once(
                transport, mode, rate, calls, seed, deadline
            ))
    document = {
        "benchmark": "rpc_resilience",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "params": {
            "transport": transport,
            "calls": calls,
            "seed": seed,
            "deadline_s": deadline,
            "fault_rates": list(rates),
            "retry": {"max_attempts": 4, "base_delay": 0.001,
                      "max_delay": 0.01},
        },
        "results": results,
        "claim": measure_resilience_claim(
            transport, clients, calls_per_client, trials=trials,
        ),
    }
    if baseline_root is not None:
        document["claim"]["no_policy_vs_baseline"] = (
            measure_baseline_regression(baseline_root, clients,
                                        calls_per_client, trials=trials)
        )
    return document


#: Offered-load multiples the overload suite measures, as factors of
#: ``base_clients``; the acceptance contract gates the highest one.
OVERLOAD_LOADS = (1, 4, 16)


def _spin(seconds):
    """Burn CPU for *seconds* — real work the GIL serialises, so server
    capacity saturates honestly instead of hiding in a sleep()."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class SpinEchoImpl(EchoImpl):
    """Echo with a fixed CPU cost per call (the overload workload)."""

    def __init__(self, service_s):
        self.service_s = service_s

    def echo(self, text):
        _spin(self.service_s)
        return text


def _run_overload_once(transport, clients, service_s, deadline_s,
                       warmup_s, measure_s, admission):
    """One overload cell: goodput + accepted-latency under closed-loop load.

    *clients* caller threads hammer a CPU-bound echo (``service_s`` of
    spin per call) through blocking exclusive text2 calls with a per-call
    deadline.  Callers honour the server's shed hints: an ``Overloaded``
    reply pauses that caller for the ``retry-after`` the server asked
    for, exactly what a well-behaved resilient client does.  The first
    ``warmup_s`` of the run is discarded (the AIMD limit is converging),
    then outcomes are counted for ``measure_s``.
    """
    types = _registry()
    server_kwargs = {"admission": admission} if admission is not None else {}
    server = Orb(transport=transport, protocol="text2", types=types,
                 **server_kwargs).start()
    client = Orb(transport=transport, protocol="text2", types=types,
                 resilience=ResiliencePolicy(default_deadline=deadline_s))
    measuring = threading.Event()
    stop = threading.Event()
    lock = threading.Lock()
    outcomes = {"ok": 0, "shed": 0, "failed": 0}
    latencies_ms = []
    try:
        reference = server.register(
            SpinEchoImpl(service_s), type_id=TYPE_ID
        ).stringify()

        def worker(index):
            stub = client.resolve(reference)
            token = f"w{index}"
            while not stop.is_set():
                started = time.perf_counter()
                try:
                    if stub.echo(token) != token:
                        raise RuntimeError("cross-wired reply under overload")
                except OverloadedError as exc:
                    if measuring.is_set():
                        with lock:
                            outcomes["shed"] += 1
                    pause = exc.retry_after if exc.retry_after else 0.005
                    stop.wait(min(pause, 0.05))
                    continue
                except CommunicationError:
                    if measuring.is_set():
                        with lock:
                            outcomes["failed"] += 1
                    continue
                elapsed_ms = (time.perf_counter() - started) * 1e3
                if measuring.is_set():
                    with lock:
                        outcomes["ok"] += 1
                        latencies_ms.append(elapsed_ms)

        threads = [
            threading.Thread(target=worker, args=(index,), daemon=True)
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        time.sleep(warmup_s)
        measuring.set()
        started = time.perf_counter()
        time.sleep(measure_s)
        measured = time.perf_counter() - started
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        snapshot = (server._admission.snapshot()
                    if admission is not None else None)
    finally:
        stop.set()
        client.stop()
        server.stop()
    row = {
        "transport": transport,
        "protocol": "text2",
        "mode": "exclusive",
        "shed": admission is not None,
        "clients": clients,
        "window_s": round(measured, 3),
        "goodput_calls_per_sec": round(outcomes["ok"] / measured, 1),
        "shed_calls_per_sec": round(outcomes["shed"] / measured, 1),
        "failed_calls_per_sec": round(outcomes["failed"] / measured, 1),
        "accepted_p50_ms": round(percentile(latencies_ms, 0.50) or 0, 2),
        "accepted_p99_ms": round(percentile(latencies_ms, 0.99) or 0, 2),
    }
    if snapshot is not None:
        row["admission"] = {
            "limit": snapshot["limit"],
            "shed": snapshot["shed"],
            "sojourn_ewma_ms": snapshot["sojourn_ewma_ms"],
        }
    return row


def _overload_admission(service_s):
    """The admission policy the overload grid runs under.

    The AIMD setpoint is three service times, and the hard cap matches
    it: CPU-bound calls stretch with every concurrent spinner the GIL
    interleaves, so admitted wall time tops out near cap x service
    time — a cap of target/service IS the accepted-tail bound.
    Cost-aware shedding is off: it exists to protect cheap operations
    from expensive ones, and with a single homogeneous operation its
    "admit at-or-below-average cost" rule would admit everything up to
    the hard cap, bypassing the adaptive limit under measurement.  The
    retry-after floor is 25 service times: every shed client parked
    for a while is one fewer runnable thread stealing CPU from the
    admitted work, which is most of what keeps the accepted tail down
    on a saturated box.
    """
    return AdmissionPolicy(
        max_queue_depth=3,
        latency_target=3.0 * service_s,
        cost_aware=False,
        retry_after_min=0.05,
    )


def measure_overload_overhead(transport, clients, calls_per_client,
                              admission=None, trials=4):
    """The zero-overload fast-path check: an idle admission controller.

    Interleaved pairs (bare server, then admission-configured server;
    best of each kept) of the plain no-spin echo workload — load far
    below the limit, so every call pays exactly the admit/finished
    bookkeeping and nothing is ever shed.  *admission* is the policy
    under measurement (the grid's own policy when called from
    :func:`run_overload`).

    The estimator is a *trimmed ratio of sums*: each side's slowest
    runs are dropped (they are the ones a scheduler hiccup landed on)
    and the ratio is taken over the summed remainder.  A best-of-one
    ratio would divide two single noisy samples — the overhead being
    resolved (~1.5us per ~25us call) is smaller than this box's
    run-to-run swing, so only trimmed averaging over interleaved pairs
    separates the policy's cost from the machine's mood.
    """
    bare_runs = []
    admitted_runs = []
    for _ in range(trials):
        bare_runs.append(
            _run_once(transport, "text2", "exclusive", clients,
                      calls_per_client, 64, 0)
        )
        admitted_runs.append(_run_once(
            transport, "text2", "exclusive", clients, calls_per_client,
            64, 0,
            server_kwargs={
                "admission": admission or AdmissionPolicy(),
            },
        ))
    keep = max(1, (trials * 5) // 8)
    bare_kept = sum(sorted(bare_runs)[:keep])
    admitted_kept = sum(sorted(admitted_runs)[:keep])
    total = clients * calls_per_client * keep
    return {
        "clients": clients,
        "method": (f"interleaved pairs, trimmed ratio of sums "
                   f"(fastest {keep} of {trials} per side)"),
        "bare_calls_per_sec": round(total / bare_kept, 1),
        "admission_idle_calls_per_sec": round(total / admitted_kept, 1),
        "admission_overhead_pct": round(
            (admitted_kept / bare_kept - 1.0) * 100, 2
        ),
    }


def run_overload(transport="inproc", base_clients=2, loads=OVERLOAD_LOADS,
                 service_ms=2.0, deadline_ms=30.0, warmup_s=0.5,
                 measure_s=2.0, claim_clients=8, calls_per_client=300,
                 trials=4):
    """The overload measurement document (``BENCH_overload.json``).

    For each load multiple × shed on/off: goodput (successful calls per
    second), accepted-call p50/p99 and the shed/failure rates of a
    closed-loop CPU-bound workload.  The claim block compares the
    shed-on overloaded cell against the shed-on baseline cell — graceful
    degradation means goodput holds and accepted latency stays bounded
    while offered load grows 16x — and measures what an *idle* admission
    controller costs on the fast path.
    """
    service_s = service_ms / 1e3
    deadline_s = deadline_ms / 1e3
    # The fast-path overhead claim runs FIRST: the saturation grid
    # leaves the box hot (scheduler debt, frequency throttling), and a
    # one-percent-scale ratio measured in that hangover reads as pure
    # noise.  The claim's policy keeps the grid's cost-blind
    # configuration but with the default depth headroom — "zero
    # overload" means nothing is ever shed, and the per-call
    # admit/finished cost does not depend on how far away the cap is.
    claim = measure_overload_overhead(
        transport, claim_clients, calls_per_client,
        admission=AdmissionPolicy(latency_target=3.0 * service_s,
                                  cost_aware=False),
        trials=max(trials, 8),
    )
    results = []
    for shed in (True, False):
        for load in loads:
            admission = _overload_admission(service_s) if shed else None
            row = _run_overload_once(
                transport, base_clients * load, service_s, deadline_s,
                warmup_s, measure_s, admission,
            )
            row["load_x"] = load
            results.append(row)
            # Let the run's thread churn drain before the next cell so
            # each cell starts from comparable scheduler conditions.
            time.sleep(0.25)
    by_cell = {(row["shed"], row["load_x"]): row for row in results}
    base = by_cell[(True, min(loads))]
    peak = by_cell[(True, max(loads))]
    claim.update({
        "clients_base": base["clients"],
        "clients_overload": peak["clients"],
        "goodput_base_calls_per_sec": base["goodput_calls_per_sec"],
        "goodput_overload_calls_per_sec": peak["goodput_calls_per_sec"],
        "goodput_retention_pct": round(
            100.0 * peak["goodput_calls_per_sec"]
            / max(base["goodput_calls_per_sec"], 1e-9), 1
        ),
        "accepted_p99_base_ms": base["accepted_p99_ms"],
        "accepted_p99_overload_ms": peak["accepted_p99_ms"],
        "accepted_p99_blowup_x": round(
            peak["accepted_p99_ms"] / max(base["accepted_p99_ms"], 1e-9), 2
        ),
    })
    return {
        "benchmark": "rpc_overload",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "params": {
            "transport": transport,
            "base_clients": base_clients,
            "loads": list(loads),
            "service_ms": service_ms,
            "deadline_ms": deadline_ms,
            "warmup_s": warmup_s,
            "measure_s": measure_s,
            "claim_clients": claim_clients,
            "claim_calls_per_client": calls_per_client,
            "claim_trials": max(trials, 8),
            "admission": {
                "max_queue_depth": 3,
                "latency_target_s": 3.0 * service_s,
                "cost_aware": False,
                "retry_after_min_s": 0.05,
            },
        },
        "results": results,
        "claim": claim,
    }


# ---------------------------------------------------------------------------
# Wire-cost suite: bytes/call and calls/s through the zero-copy emitter
# ---------------------------------------------------------------------------

#: (protocol, mode) pairs the wire-cost suite measures: each protocol
#: in the mode it is fastest in, so the numbers compare emission cost,
#: not connection policy.
WIRE_CONFIGURATIONS = (
    ("text", "exclusive"),
    ("text2", "multiplexed"),
    ("giop", "multiplexed"),
)


def _frame_cost_call(protocol_name):
    """The canonical bench call (echo of a short token) for one
    protocol, shaped like the throughput suite's traffic."""
    from repro.model.call import Call
    from repro.heidirmi.protocol import get_protocol

    protocol = get_protocol(protocol_name)
    call = Call("@tcp:127.0.0.1:9999#7#IDL:Bench/Echo:1.0", "echo",
                marshaller=protocol.new_marshaller(),
                request_id=7 if protocol_name != "text" else None)
    call.put_string("c0")
    return call


def _frame_cost_reply(protocol_name):
    from repro.model.call import Reply, STATUS_OK
    from repro.heidirmi.protocol import get_protocol

    protocol = get_protocol(protocol_name)
    reply = Reply(status=STATUS_OK, repo_id="",
                  marshaller=protocol.new_marshaller(), request_id=7)
    reply.put_string("c0")
    return reply


def measure_frame_costs():
    """Bytes on the wire — and bytes *copied* — per canonical call.

    Sans-I/O: frames are emitted straight from the wire machines.  Each
    protocol is emitted twice with fresh same-shape calls so the repeat
    column shows what the zero-copy emitter actually renders once the
    memoized tails / interned frames are warm
    (``BufferPlan.copied_bytes``).
    """
    from repro.wire import machine_for

    costs = []
    for protocol, _mode in WIRE_CONFIGURATIONS:
        client = machine_for(protocol, "client")
        server = machine_for(protocol, "server")
        first = client.emit_request(_frame_cost_call(protocol))
        first_copied = getattr(first, "copied_bytes", len(first))
        repeat = client.emit_request(_frame_cost_call(protocol))
        repeat_copied = getattr(repeat, "copied_bytes", len(repeat))
        reply = server.emit_reply(_frame_cost_reply(protocol))
        costs.append({
            "protocol": protocol,
            "request_bytes": len(repeat),
            "reply_bytes": len(reply),
            "round_trip_bytes": len(repeat) + len(reply),
            "first_request_copied_bytes": first_copied,
            "repeat_request_copied_bytes": repeat_copied,
        })
    return costs


def run_wire_cost(transport="inproc", client_counts=(1, 16, 256),
                  calls_total=3200, window=64, trials=3,
                  pre_refactor=None):
    """The wire-cost document: frame costs plus calls/s per protocol.

    *calls_total* is split across the callers of each cell so every
    client count moves the same number of messages.  *pre_refactor*
    optionally embeds the recorded bytes-concatenation throughput
    (GIOP multiplexed, 16 callers) that the zero-copy speedup claim is
    stated against; the compare gate re-checks it on fresh runs.
    """
    results = []
    for clients in client_counts:
        calls_per_client = max(1, calls_total // clients)
        for protocol, mode in WIRE_CONFIGURATIONS:
            results.append(measure(
                transport, protocol, mode, clients, calls_per_client,
                window=window, trials=trials,
            ))
    claim_clients = 16 if 16 in client_counts else max(client_counts)
    claim = {
        "clients": claim_clients,
        "rates": {
            f"{protocol}_{mode}_calls_per_sec": next(
                row["calls_per_sec"] for row in results
                if row["protocol"] == protocol and row["mode"] == mode
                and row["clients"] == claim_clients
            )
            for protocol, mode in WIRE_CONFIGURATIONS
        },
    }
    if pre_refactor is not None:
        giop_rate = claim["rates"]["giop_multiplexed_calls_per_sec"]
        claim["pre_refactor"] = dict(
            pre_refactor,
            zero_copy_speedup=round(
                giop_rate / pre_refactor["giop_multiplexed_calls_per_sec"],
                2,
            ),
        )
    return {
        "benchmark": "wire_cost",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "params": {
            "transport": transport,
            "client_counts": list(client_counts),
            "calls_total": calls_total,
            "window": window,
            "trials": trials,
        },
        "frame_costs": measure_frame_costs(),
        "results": results,
        "claim": claim,
    }


def write_spans(spans, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
    return path


def write_document(document, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
