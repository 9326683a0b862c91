"""The measured phase: equal slices, per-slice clocks, the good tenth."""

import threading
import time
from collections import namedtuple

from perf import host


class Failures:
    """Counts failed ops and keeps the first few reasons for the report."""

    def __init__(self):
        self.count = 0
        self.reasons = []
        self._lock = threading.Lock()

    def add(self, reason):
        with self._lock:
            self.count += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


#: One slice: wall seconds, ops completed, ascending latency samples
#: (µs), and each process's (user, sys) CPU seconds inside the slice.
Slice = namedtuple("Slice", "elapsed ops latencies client_cpu server_cpu")

NO_CPU = (0.0, 0.0)


def cpu_delta(before, after):
    return (after[0] - before[0], after[1] - before[1])


def closed_slices(run_cycle, seconds, slice_seconds, server_mark=None):
    """Drive a closed loop for *seconds*, cut into slices.

    *run_cycle* runs one whole op cycle and returns its (latency_us,
    ops) samples.  A slice ends at the first cycle boundary at least
    *slice_seconds* after it began, which gives every slice the same op
    mix; slices follow one another until *seconds* have passed.  Both
    processes' CPU clocks are read between slices, with nothing in
    flight.
    """
    results = []
    clock = time.perf_counter
    end = clock() + seconds
    while clock() < end:
        client_before = host.cpu_seconds()
        server_before = server_mark() if server_mark else NO_CPU
        start = clock()
        samples = []
        while True:
            samples.extend(run_cycle())
            if clock() >= start + slice_seconds:
                break
        elapsed = clock() - start
        server_after = server_mark() if server_mark else NO_CPU
        client_after = host.cpu_seconds()
        results.append(Slice(
            elapsed, sum(ops for _, ops in samples),
            sorted(latency for latency, _ in samples),
            cpu_delta(client_before, client_after),
            cpu_delta(server_before, server_after),
        ))
    return results


def good_tenth(values, better):
    """The value a tenth of the way in from the good end of *values*.

    Interference from the host's other tenants only ever slows a slice,
    so the slow side of the per-slice values moves from run to run with
    the neighbours while the fast side stays put.  The good tenth (4th
    best of 40 slices) ignores up to three freak slices and repeats
    better than the median: measured over 10 runs of pipe_giop, 7 %
    against 12 % on ops/s and 12 % against 23 % on p90.
    """
    return host.percentile(sorted(values), 90 if better == "higher" else 10)


def summarize(slices):
    """The good tenth of every per-slice timing."""
    def low(values):
        return good_tenth(values, "lower")

    client_cpu = [sum(s.client_cpu) / s.ops * 1e6 for s in slices]
    server_cpu = [sum(s.server_cpu) / s.ops * 1e6 for s in slices]
    server_sys = [s.server_cpu[1] / sum(s.server_cpu)
                  for s in slices if sum(s.server_cpu) > 0]
    everything = sorted(x for s in slices for x in s.latencies)
    return {
        "ops": sum(s.ops for s in slices),
        "samples": len(everything),
        "ops_per_s": good_tenth([s.ops / s.elapsed for s in slices],
                                "higher"),
        "latency_p50_us": low(
            [host.percentile(s.latencies, 50) for s in slices]),
        "latency_p90_us": low(
            [host.percentile(s.latencies, 90) for s in slices]),
        "latency_p99_us": host.percentile(everything, 99),
        "latency_max_us": everything[-1],
        "cpu_us_per_op": low(
            [c + s for c, s in zip(client_cpu, server_cpu)]),
        "client_cpu_us_per_op": low(client_cpu),
        "server_cpu_us_per_op": low(server_cpu),
        "server_sys_cpu_share":
            host.median(server_sys) if server_sys else 0.0,
    }
