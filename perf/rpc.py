"""The six RPC workloads: server process, client set-up, load loops.

The generator is this process; the server under test is a child
(``perf/server.py``) reached over real tcp loopback.  Every reply is
compared with the value its input determines.
"""

import json
import os
import subprocess
import sys
import threading
import time
from contextlib import ExitStack

from perf import host, payloads
from perf.measure import Slice, closed_slices, cpu_delta
from perf.server import load_bench_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Verified calls made after connecting, inside ``setup_s``: enough to
#: fill the stub, skeleton, connection and dispatch caches.
WARMUP_OPS = 64


class ServerDied(RuntimeError):
    """The server process ended (or was killed by the watchdog) early."""


class ServerProcess:
    """Handle on one ``perf/server.py`` child; a context manager.

    A watchdog kills the child when the workload outlives *budget_s*,
    and leaving the ``with`` block never leaves the child running.
    """

    def __init__(self, workload, cpus, budget_s, observe=False,
                 raw_echo=False):
        self.cpu = host.cpu_for(cpus, host.SERVER_SLOT)
        command = [
            sys.executable, os.path.join(ROOT, "perf", "server.py"),
            "--protocol", workload.protocol,
            "--runtime", workload.runtime,
            "--guarded", str(int(workload.guarded)),
            "--observe", str(int(observe)),
            "--raw-echo", str(int(raw_echo)),
            "--cpu", str(self.cpu),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
        )
        self._process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=ROOT, env=env, text=True,
        )
        self._watchdog = threading.Timer(budget_s, self._process.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.ready = None

    def __enter__(self):
        self.ready = self._read()
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self._watchdog.cancel()
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()
        self._process.stdin.close()
        self._process.stdout.close()

    def _read(self):
        line = self._process.stdout.readline()
        if not line:
            raise ServerDied(
                f"server exited with {self._process.wait()} before answering"
            )
        return json.loads(line)

    def mark(self):
        """The server's (user, sys) CPU seconds right now."""
        self._process.stdin.write("mark\n")
        self._process.stdin.flush()
        return tuple(self._read()["mark"])

    def finish(self):
        """EOF the server; returns its exit report."""
        self._process.stdin.close()
        report = self._read()
        self._process.wait(timeout=10)
        return report


def client_orb(workload, observer=None):
    from repro.heidirmi import Orb

    kwargs = {}
    if workload.guarded:
        from repro.resilience import (
            BreakerPolicy,
            ResiliencePolicy,
            RetryPolicy,
        )

        kwargs["resilience"] = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3), breaker=BreakerPolicy(),
            default_deadline=1.0,
        )
    return Orb(transport="tcp", protocol=workload.protocol,
               multiplex=workload.multiplex, observer=observer, **kwargs)


def call_op(stub, op, failures):
    """One blocking stub call, verified; a failure is counted, not raised."""
    try:
        result = getattr(stub, op.name)(*op.args)
    except Exception as exc:  # noqa: BLE001 - the run reports it as failed
        failures.add(f"{op.name}: {exc!r}")
        return
    if result != op.expected:
        failures.add(f"{op.name}: wrong result")


def call_window(client, reference, ops, failures):
    """One ``invoke_bulk`` window of echo calls, every reply verified."""
    calls = []
    for op in ops:
        call = client.create_call(reference, op.name)
        call.put_string(op.args[0])
        calls.append(call)
    try:
        replies = client.invoke_bulk(reference, calls)
        for op, reply in zip(ops, replies):
            if not reply.is_ok or reply.get_string() != op.expected:
                failures.add(f"{op.name}: wrong reply in window")
    except Exception as exc:  # noqa: BLE001 - the run reports it as failed
        for _ in ops:
            failures.add(f"window: {exc!r}")


class Session:
    """One set-up: server process, generated stubs, connected client.

    Entering it does everything ``setup_s`` covers — spawn the server
    (interpreter start, import, IDL -> skeletons), generate the stubs
    from bench.idl, connect, make WARMUP_OPS verified calls — and
    leaving it stops the client and never leaves the server running.
    """

    def __init__(self, workload, seed, cpus, budget_s, failures,
                 observer=None, observe_server=False, raw_echo=False):
        self.workload = workload
        self.seed = seed
        self._failures = failures
        self._server_args = (workload, cpus, budget_s, observe_server,
                             raw_echo)
        self._observer = observer
        self._stack = None

    def __enter__(self):
        workload = self.workload
        start = time.perf_counter()
        with ExitStack() as stack:
            self.server = stack.enter_context(
                ServerProcess(*self._server_args))
            namespace = load_bench_module()
            self.namespace = namespace
            self.ops = payloads.build(workload.ops, self.seed,
                                      namespace["Bench_Sample"])
            self.client = client_orb(workload, self._observer)
            stack.callback(self.client.stop)
            self.stub = self.client.resolve(self.server.ready["reference"])
            self.run_cycle(self._failures, limit=WARMUP_OPS)
            self._stack = stack.pop_all()
        self.setup_s = time.perf_counter() - start
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self._stack.close()

    def finish(self):
        """Stop the client, EOF the server; returns its exit report."""
        self.client.stop()
        return self.server.finish()

    def run_cycle(self, failures, limit=None, client=None, stub=None):
        """One pass over the op cycle in the workload's call style.

        Returns (latency_us, ops) samples: one per call, or one per
        ``invoke_bulk`` window, whose ops share the window's
        issue-to-completion time.
        """
        client = client or self.client
        stub = stub or self.stub
        ops = self.ops if limit is None else self.ops[:limit]
        clock = time.perf_counter
        samples = []
        if self.workload.loop == "pipe":
            window = self.workload.window
            for index in range(0, len(ops), window):
                batch = ops[index:index + window]
                start = clock()
                call_window(client, stub.reference, batch, failures)
                samples.append(((clock() - start) * 1e6, len(batch)))
        else:
            for op in ops:
                start = clock()
                call_op(stub, op, failures)
                samples.append(((clock() - start) * 1e6, 1))
        return samples


def measure(session, seconds, slice_seconds, cpus, failures):
    """The measured phase; returns (slices, extras)."""
    if session.workload.loop == "open":
        return _measure_open(session, seconds,
                             max(3, round(seconds / slice_seconds)), cpus,
                             failures)
    results = closed_slices(lambda: session.run_cycle(failures), seconds,
                            slice_seconds, session.server.mark)
    return results, {"attempted": sum(s.ops for s in results)}


def _measure_open(session, seconds, slices, cpus, failures):
    """Fixed schedule shared by min(2, nproc) callers.

    Op *i* is due at ``start + i / rate`` whatever happened to the ops
    before it, and its latency runs from that instant, so a stall is
    charged to every op it delays (no coordinated omission).  Callers
    pace with ``sleep`` only, never spin, so CPU per op keeps meaning.
    """
    workload, stub, ops = session.workload, session.stub, session.ops
    threads = min(2, len(cpus))
    total = int(workload.rate * seconds)
    interval = 1.0 / workload.rate
    start_at = time.perf_counter() + 0.05
    per_thread = [[] for _ in range(threads)]

    def caller(slot):
        records = per_thread[slot]
        clock = time.perf_counter
        own_interval = interval * threads
        for index in range(slot, total, threads):
            due = start_at + index * interval
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            call_op(stub, ops[index % len(ops)], failures)
            done = clock()
            lag = sent - due
            # (done, latency_us, lag_us, own ops already due and unsent)
            records.append((done, (done - due) * 1e6, lag * 1e6,
                            int(lag / own_interval)))

    marks = [(start_at, host.cpu_seconds(), session.server.mark())]
    workers = [threading.Thread(target=caller, args=(slot,), daemon=True)
               for slot in range(threads)]
    for worker in workers:
        worker.start()
    for index in range(1, slices + 1):
        wait = start_at + seconds * index / slices - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        if index == slices:
            for worker in workers:
                worker.join()
        marks.append((time.perf_counter(), host.cpu_seconds(),
                      session.server.mark()))
    records = sorted(r for records in per_thread for r in records)
    results = []
    for (t0, c0, s0), (t1, c1, s1) in zip(marks, marks[1:]):
        inside = [r for r in records if t0 < r[0] <= t1]
        results.append(Slice(
            t1 - t0, len(inside), sorted(r[1] for r in inside),
            cpu_delta(c0, c1), cpu_delta(s0, s1),
        ))
    last = [r[3] for r in records if r[0] > marks[-2][0]]
    return results, {
        "attempted": total,
        "lags_us": sorted(r[2] for r in records),
        "backlog_max": max(r[3] for r in records),
        "backlog_max_last_slice": max(last, default=0),
    }


def wire_bytes_per_op(session, failures):
    """Request + reply bytes per op over one op cycle, counted exactly.

    The count comes from the transport channel's byte meter on a fresh
    client Orb with no Observer, so no trace token is on the wire and
    request ids start at 1: the same bytes the measured phase sends.
    """
    from repro.heidirmi.transport import (
        TcpTransport,
        register_transport,
        set_transport_alias,
    )
    from repro.observe import ChannelMeter, Counter

    sent, received = Counter(), Counter()
    meter = ChannelMeter(sent, received)

    class MeteredTcp(TcpTransport):
        def connect(self, host_name, port, timeout=None):
            channel = super().connect(host_name, port, timeout=timeout)
            channel.meter = meter
            return channel

    register_transport("perf-metered", MeteredTcp)
    set_transport_alias("tcp", "perf-metered")
    client = client_orb(session.workload)
    try:
        stub = client.resolve(session.server.ready["reference"])
        session.run_cycle(failures, client=client, stub=stub)
    finally:
        client.stop()
        set_transport_alias("tcp", None)
    return (sent.value + received.value) / len(session.ops)
