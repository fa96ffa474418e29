"""Timing, operation accounting and the round loop shared by the workloads.

A workload sets up its inputs several times (each timed into `setup_s`),
then repeats whole rounds of the same operations until `--seconds` have
passed, at least once (each round timed into `total_s`).  Every operation
runs inside `Run.op`: a program error counts it as failed, and a failed
check of its output also marks the run incorrect.  Metrics are medians of
their samples.

Speed scaling: a shared virtual machine can switch between speed states;
on a 2-core shared VM, states about 1.45x apart lasting from seconds to
minutes were measured, and raw wall times of whole runs scattered by tens
of percent.  Each timed
block is therefore bracketed by a short fixed calibration kernel (pure
Python heap and dict work, a sparse LU factor-and-solve, vector arithmetic;
NumPy and SciPy only, no todalab code), and its wall time is reported
scaled to the reference speed:

    seconds = raw seconds x REFERENCE_S[kind] / mean kernel time,

the mean taken over the kernels run just before, inside and just after the
block.  Dense LAPACK work does not slow with that kernel, so a block timed
with `dense=True` (the dense eigen-solve of `stability_check`) is scaled
the same way by a second kernel, a dense symmetric eigen-solve.  Kernel
time is excluded from the raw time of the block around it.
A `toda` child process runs the kernel itself just before and after the
command (see launch.py), since it may run on the other core than the
parent, and is scaled by those kernels.  The raw medians are printed as
well.
"""

import contextlib
import heapq
import resource
import statistics
import sys
import time

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from todalab import TodaError

# Kernel times on the reference machine (2-core shared VM, Python 3.11,
# NumPy 2.4, SciPy 1.17, one BLAS thread), each the faster of two runs.
REFERENCE_S = {"sparse": 0.016, "dense": 0.018}
FRESH_S = 0.25  # a kernel run this recently still brackets a new block


class SpeedProbe:
    """The calibration kernels and the times they took in this run.

    Two kernels, by kind: "sparse" (interpreter work and a sparse LU, for
    every block but dense ones) and "dense" (a dense eigen-solve).  A
    `toda` child process, whose metrics are none of them dense, makes its
    probe with `dense=False` and runs only the first.
    """

    def __init__(self, size=4000, dense=True):
        ones = np.ones(size)
        self.matrix = sp.diags(
            [4.0 * ones, -ones[1:], -ones[1:], -ones[60:], -ones[60:]],
            [0, 1, -1, 60, -60], format="csc")
        rng = np.random.default_rng(0)
        self.rhs = rng.standard_normal(size)
        self.kernels = {"sparse": self._kernel}
        if dense:
            # A generalized problem with a diagonal mass matrix, as in
            # stability_check, at a size that runs in ~20 ms.
            half = rng.standard_normal((400, 400))
            self.symmetric = half + half.T
            self.mass = np.diag(1.0 + rng.random(400))
            self.kernels["dense"] = self._dense_kernel
        self.times = {kind: [] for kind in self.kernels}
        self.last_end = dict.fromkeys(self.kernels, -np.inf)
        self.spent = 0.0

    def _kernel(self):
        heap = []
        for i in range(4000):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
        table = {}
        while heap:
            distance, i = heapq.heappop(heap)
            table[i] = distance
        x = spla.splu(self.matrix).solve(self.rhs)
        return float(np.exp(-np.abs(x)).sum()) + len(table)

    def _dense_kernel(self):
        return float(la.eigh(self.symmetric, self.mass,
                             eigvals_only=True)[0])

    def measure(self, kind=None):
        """Run a kernel (each one, without `kind`) twice; keep the faster."""
        start = time.perf_counter()
        for name in self.kernels if kind is None else (kind,):
            best = np.inf
            for _ in range(2):
                begin = time.perf_counter()
                self.kernels[name]()
                best = min(best, time.perf_counter() - begin)
            self.times[name].append(best)
            self.last_end[name] = time.perf_counter()
        self.spent += time.perf_counter() - start

    def bracket(self, kind):
        """Where the kernel times that open a new block start."""
        if time.perf_counter() - self.last_end[kind] > FRESH_S:
            self.measure(kind)
        return len(self.times[kind]) - 1

    def scale(self, first, kind):
        """Close a block opened at `first`: the factor to reference speed."""
        self.measure(kind)
        return REFERENCE_S[kind] / statistics.mean(self.times[kind][first:])


class CheckFailed(Exception):
    """A program output failed one of the benchmark's checks."""


class OpFailed(Exception):
    """The program refused an operation or did not finish it."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def close(value, expected, tol, what):
    """Check |value - expected| <= tol."""
    check(abs(value - expected) <= tol,
          f"{what}: {value!r} differs from {expected!r} by more than {tol:g}")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Run:
    """The samples, operation counts and trace of one benchmark run."""

    def __init__(self, seconds, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.probe = SpeedProbe()
        self.samples = {}   # metric -> times scaled to reference speed
        self.raw = {}       # metric -> wall times as measured
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.setups = 0
        self.rounds = 0
        self.overhead = 0.0

    @property
    def traced(self):
        return self.tracer is not None and self.tracer.installed

    def _phase(self, name):
        if self.tracer is not None:
            self.tracer.phase = name

    @contextlib.contextmanager
    def timed(self, metric, dense=False):
        """Add the block's scaled time to `metric` if it ends without error."""
        kind = "dense" if dense else "sparse"
        first = self.probe.bracket(kind)
        spent = self.probe.spent
        start = time.perf_counter()
        yield
        raw = time.perf_counter() - start - (self.probe.spent - spent)
        self._add(metric, [raw], self.probe.scale(first, kind))

    def repeat(self, metric, times, action, dense=False, interleave=False,
               batch=1):
        """Time `action()` `times` times into `metric`; return its result.

        For steps of a few milliseconds, whose single timings scatter.  With
        `interleave`, the kernel also runs between repetitions, so that the
        speed of a block of steps of ~0.1 s is estimated from as many kernel
        runs as there are steps, not from the two at its ends.  With `batch`,
        each repetition calls `action` that many times in a row and counts
        as one sample of the mean call.
        """
        kind = "dense" if dense else "sparse"
        first = self.probe.bracket(kind)
        raws = []
        for index in range(times):
            if interleave and index > 0:
                self.probe.measure(kind)
            start = time.perf_counter()
            for _ in range(batch):
                result = action()
            raws.append((time.perf_counter() - start) / batch)
        self._add(metric, raws, self.probe.scale(first, kind))
        return result

    def checkpoint(self):
        """Run the kernel inside a long timed block, between its steps.

        Its time leaves the block's raw time and its speeds join the block's
        estimate, which then follows the machine through the block.
        """
        self.probe.measure("sparse")

    def child(self, metric, raw, kernel_times, kernel_spent):
        """Account for a child process that ran the kernel itself.

        Its kernel times join the enclosing blocks' speed estimate and its
        kernel time leaves their raw time; with a `metric`, the process's
        own time is scaled by the kernels it ran, on its own core.
        """
        self.probe.times["sparse"].extend(kernel_times)
        self.probe.spent += kernel_spent
        if metric is not None:
            self._add(metric, [raw - kernel_spent], REFERENCE_S["sparse"]
                      / statistics.mean(kernel_times))

    def _add(self, metric, raws, factor):
        self.raw.setdefault(metric, []).extend(raws)
        self.samples.setdefault(metric, []).extend(r * factor for r in raws)

    @contextlib.contextmanager
    def op(self, name):
        """One attempted operation; failures are counted, not raised."""
        self.attempted += 1
        try:
            yield
        except CheckFailed as exc:
            self.failed += 1
            self.correct = False
            log(f"{name}: check failed: {exc}")
        except (TodaError, OpFailed) as exc:
            self.failed += 1
            log(f"{name}: failed: {type(exc).__name__}: {exc}")

    def setup(self, build, times):
        """Run `build` `times` times, timing each; return the last result."""
        self._phase("setup")
        for _ in range(times):
            with self.timed("setup_s"):
                state = build()
        self.setups = times
        self._phase(None)
        return state

    def measure(self, one_round):
        """Repeat whole rounds until the run length has passed.

        A traced run then replays round 0 with the wrappers removed; the
        traced round 0 minus that replay, both scaled to reference speed,
        is the tracing overhead.
        """
        self._phase("round")
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < self.seconds:
            with self.timed("total_s"):
                one_round(index)
            index += 1
        self.rounds = index
        self._phase(None)
        if self.traced:
            self.tracer.uninstall()
            with self.timed("untraced_total_s"):
                one_round(0)
            self.tracer.install()
            self.overhead = (self.samples["total_s"][0]
                             - self.samples["untraced_total_s"][0])

    def peak_rss_mb(self, children=False):
        who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0

    def median(self, metric, raw=False):
        values = (self.raw if raw else self.samples).get(metric)
        if not values:
            raise CheckFailed(f"no successful sample of {metric}")
        return statistics.median(values)
