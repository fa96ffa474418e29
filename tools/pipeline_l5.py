"""Wall time of the README pipeline, one fresh `toda` process per step.

Runs the README command sequence on the genus-2 base at refinement
level 5 (or `--refine`) and its cyclic 2-cover (or `--n`-cover; V = 8188
for the 2-cover at level 5):

    mesh, cover, section (base), section (balanced cover),
    solve-coupled, verify --mesh --density --run

and prints per-step medians over several runs as one JSON object: of the
wall time, and of the step's peak resident set size in MB, read from the
child's own rusage (`os.wait4`, `ru_maxrss`), so that the memory of a step
(`solve_coupled` keeps a factor per kind of Newton block) is measured
beside its time.  Each finished step also prints its name, seconds and
peak MB to stderr as it ends.  Several source trees can be timed in one
call; their runs alternate, so a slow spell of a shared machine lands on
all of them alike:

    python3 tools/pipeline_l5.py --tree change=src --runs 5
    python3 tools/pipeline_l5.py --tree parent=../old/src --tree change=src \\
        --runs 5 --refine 6 -o BENCH.json

Each tree's outputs of the first run are hashed, so trees that should give
the same bytes can be compared.  BLAS runs one thread (`TODA_THREADS=1`).
The command line and the output helpers are shared with `solve_l5.py`
(`trees.py`).
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time

from trees import (alternating, child_env, emit, machine_info, parse_args,
                   summary)

DIVISOR = "0:1,1:1,5:1,20:1"
ZERO_VERTEX = "3"


def steps(refine, n):
    """(name, toda arguments) of the pipeline at a refinement level and
    cover degree, in order."""
    return [
        ("mesh", ["mesh", "--genus2", "--refine", str(refine),
                  "-o", "base.json"]),
        ("cover", ["cover", "--mesh", "base.json", "--n", str(n),
                   "-o", "cover.json"]),
        ("section_base", ["section", "--mesh", "base.json", "--divisor",
                          DIVISOR, "-o", "base_dens"]),
        ("section_cover", ["section", "--mesh", "cover.json", "--balanced",
                           "--base-mesh", "base.json", "--base-density",
                           "base_dens", "--zero-vertex", ZERO_VERTEX,
                           "-o", "cover_dens"]),
        ("solve_coupled", ["solve-coupled", "--mesh", "cover.json",
                           "--density", "cover_dens", "--degree", "1",
                           "-o", "run"]),
        ("verify", ["verify", "--mesh", "cover.json", "--density",
                    "cover_dens", "--run", "run"]),
    ]


def run_step(args, work, env):
    """(seconds, peak RSS in MB, exit code, stderr) of one `toda` child.

    The child is reaped by `os.wait4`, whose rusage is the child's own:
    its `ru_maxrss` (KiB on Linux) is the step's peak resident set size.
    Its output goes to unnamed temporary files, not pipes, so the child
    never blocks on a full pipe before it is reaped."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "todalab.cli"] + args,
                                cwd=work, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return (seconds, usage.ru_maxrss / 1024.0, proc.returncode,
                err.read().decode(errors="replace"))


def run_pipeline(src, work, refine, n):
    """({step: seconds}, {step: peak RSS in MB}) of one pipeline run in
    the empty directory work."""
    env = child_env(src)
    times, rss = {}, {}
    for name, args in steps(refine, n):
        times[name], rss[name], code, stderr = run_step(args, work, env)
        if code != 0:
            raise SystemExit(f"{src}: toda {args[0]} exited {code}: "
                             f"{stderr.strip()}")
        # one line per finished step, so a step that stalls shows as the
        # one after the last line
        print(f"  {name}: {times[name]:.2f} s, {rss[name]:.0f} MB",
              file=sys.stderr)
    return times, rss


def output_hashes(work):
    """sha1 of every file the pipeline wrote, by path under work."""
    hashes = {}
    for root, _, files in os.walk(work):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                hashes[os.path.relpath(path, work)] = hashlib.sha1(
                    handle.read()).hexdigest()
    return dict(sorted(hashes.items()))


def main(argv=None):
    args, trees = parse_args(__doc__.split("\n")[0], argv)

    names = [name for name, _ in steps(args.refine, args.n)]
    samples = {label: {name: [] for name in names + ["total"]}
               for label in trees}
    peaks = {label: {name: [] for name in names} for label in trees}
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, label in alternating(trees, args.runs):
            work = os.path.join(tmp, label)
            os.makedirs(work)
            times, rss = run_pipeline(trees[label], work, args.refine, args.n)
            for name, seconds in times.items():
                samples[label][name].append(seconds)
                peaks[label][name].append(rss[name])
            samples[label]["total"].append(sum(times.values()))
            if label not in hashes:
                hashes[label] = output_hashes(work)
            shutil.rmtree(work)
            print(f"run {i + 1}/{args.runs} {label}: "
                  f"{sum(times.values()):.2f} s", file=sys.stderr)

    result = {
        "script": "tools/pipeline_l5.py",
        "pipeline": [" ".join(["toda"] + a)
                     for _, a in steps(args.refine, args.n)],
        "refine": args.refine, "cover_degree": args.n, "runs": args.runs,
        "machine": machine_info(),
        "trees": {label: {
            "steps_s": {name: summary(values)
                        for name, values in samples[label].items()},
            "samples_s": {name: [round(x, 4) for x in values]
                          for name, values in samples[label].items()},
            "peak_rss_mb": {name: summary(values)
                            for name, values in peaks[label].items()},
            "samples_peak_rss_mb": {name: [round(x, 1) for x in values]
                                    for name, values in peaks[label].items()},
            "output_sha1": hashes[label]} for label in trees},
    }
    emit(result, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
