"""Run one `toda` command as the `toda` entry point does, for the benchmark.

Usage: launch.py REPORT_FILE TRACE PHASE SPAWN_TIME TODA_ARG...

The command is `todalab.cli.main(TODA_ARG...)`, whose exit code becomes
this process's.  Around it the benchmark's calibration kernel runs before,
after and (untraced) once a second during it, on whichever core this
process got, so the parent can scale the process's wall time by the speed
of that core at that time.
With TRACE=1 the span wrappers are installed first.  SPAWN_TIME is the
parent's `time.monotonic()` just before it started this process; the time
from there to the first kernel is the process's start-up time.  The kernel
times and, when traced, the spans with the start-up time go to REPORT_FILE
as JSON.
"""

import json
import signal
import sys
import time

from harness import SpeedProbe
from tracing import Tracer

SAMPLE_S = 1.0


def main():
    report_file, trace, phase = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    spawned = float(sys.argv[4])
    tracer = Tracer(phase)
    if trace:
        tracer.install()
    import todalab.cli
    probe = SpeedProbe(dense=False)
    startup = time.monotonic() - spawned
    # The first kernel in a fresh process runs cold (code pages, first
    # allocations); it is run and timed but not kept as a speed sample.
    probe.measure()
    probe.times["sparse"].clear()
    probe.measure()
    if not trace:
        # The machine's speed can change within a command of a few
        # seconds, so the kernel also runs every SAMPLE_S seconds during
        # it (its time leaves the command's, as at the ends).
        signal.signal(signal.SIGALRM, lambda signum, frame: probe.measure())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        return todalab.cli.main(sys.argv[5:])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        probe.measure()
        report = {"kernel_times": probe.times["sparse"],
                  "kernel_spent": probe.spent,
                  "trace": tracer.trace(startup) if trace else None}
        with open(report_file, "w") as handle:
            json.dump(report, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
