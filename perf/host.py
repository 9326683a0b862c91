"""Noise hygiene: CPU placement, calibration loop, CPU clocks, quantiles."""

import math
import os
import resource
import statistics
import subprocess
import sys
import time

#: The load generator runs on the first allowed CPU, the server on the
#: second when there is one.
GENERATOR_SLOT = 0
SERVER_SLOT = 1


def allowed_cpus():
    return sorted(os.sched_getaffinity(0))


def placement(cpus):
    """``split`` when generator and server get a CPU each, else ``shared``."""
    return "split" if len(cpus) >= 2 else "shared"


def cpu_for(cpus, slot):
    """The CPU a slot runs on: its own, or the only one there is."""
    return cpus[slot % len(cpus)]


def pin(cpus, slot):
    """Pin this process to its slot's CPU; returns the CPU it runs on."""
    cpu = cpu_for(cpus, slot)
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cpu_quota():
    """True when a cgroup limits this process's CPU time: spinning
    would spend the quota the measured processes need."""
    for path, unlimited in (("/sys/fs/cgroup/cpu.max", "max"),
                            ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "-1")):
        try:
            with open(path, encoding="ascii") as handle:
                return handle.read().split()[0] != unlimited
        except (OSError, IndexError):
            continue
    return False


class KeepAwake:
    """Idle-priority spinners on the benchmark's CPUs; a context manager.

    See ``perf/awake.py`` for why.  ``state`` records what was done:
    ``spinners``, or ``off`` with the reason (one CPU, a CPU quota, or
    no idle priority to be had).
    """

    def __init__(self, cpus):
        self._cpus = cpus[:2]
        self._spinners = []
        self.state = "off"

    def __enter__(self):
        if len(self._cpus) < 2:
            self.state = "off (one cpu)"
            return self
        if _cpu_quota():
            self.state = "off (cpu quota)"
            return self
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "awake.py")
        for cpu in self._cpus:
            spinner = subprocess.Popen(
                [sys.executable, script, str(cpu)], stdout=subprocess.PIPE)
            self._spinners.append(spinner)
        if all(s.stdout.readline() for s in self._spinners):
            self.state = "spinners"
        else:
            self._stop()
            self.state = "off (no idle priority)"
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self._stop()

    def _stop(self):
        for spinner in self._spinners:
            spinner.kill()
            spinner.wait()
            spinner.stdout.close()
        self._spinners = []


def cpu_seconds():
    """(user, sys) CPU seconds of this process, microsecond resolution."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def peak_rss_mb():
    """Peak resident set of this process in MiB.

    Read from ``VmHWM``: ``ru_maxrss`` of a freshly exec'd child starts
    at its parent's resident set at fork time, so a server would report
    the generator's size, not its own.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate():
    """Milliseconds for a fixed pure-Python loop (best of 9).

    Run before and after each workload: when the two disagree by more
    than a tenth the host's speed changed under the run and the row is
    marked noisy.
    """
    best = None
    for _ in range(9):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i & 7
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best * 1000.0


def drift_share(before, after):
    return abs(after - before) / before


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (q in 0..100)."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = math.ceil(q / 100.0 * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]


median = statistics.median
