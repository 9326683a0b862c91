"""Keep one CPU awake: spin on it at idle priority while the parent lives.

On a virtual machine a CPU with nothing to run halts into the
hypervisor, and waking it costs tens of microseconds that depend on
what the host's other tenants are doing.  A closed loop between two
pinned processes idles each CPU once per call, so that cost — not the
program — sets the run-to-run spread.  A ``SCHED_IDLE`` spinner runs
only when the CPU would otherwise halt and is preempted the moment the
process under test wakes, so the CPU never halts.  Its CPU time is its
own and is not in any metric.
"""

import os
import sys

#: Exit code when idle priority is not available: better no spinner
#: than one that competes with the processes under test.
NO_IDLE_PRIORITY = 3


def main(argv=None):
    cpu = int((argv or sys.argv[1:])[0])
    parent = os.getppid()
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        return NO_IDLE_PRIORITY
    sys.stdout.write("spinning\n")
    sys.stdout.flush()
    # The parent kills this process when the run ends; the check below
    # ends it too when the parent died without doing so.
    while os.getppid() == parent:
        for _ in range(200_000):
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
