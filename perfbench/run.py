"""Benchmark of the todalab certificate pipeline.

Run from the root of a todalab checkout:

    python3 perfbench/run.py --workload cli-l3c2 --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Earlier lines name the machine, the inputs and each metric with its unit.
`--workload all` runs every workload in turn and prints their results.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOAD_NAMES = ("cli-l3c2", "sweep-l4c2", "solvers-l5c2")
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_info():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {name: os.environ.get(name) for name in (
        "TODA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": threads,
            "machine_tuning": "none (no cache dropping, pinning or cgroups)"}


def run_all(args):
    """Run each workload in its own process and print a summary."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "todalab",
                                       "__init__.py")):
        print("perfbench: run from the root of a todalab checkout "
              "(src/todalab is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # BLAS threads are fixed through the program's own setting, which
    # todalab applies before NumPy first loads.
    os.environ["TODA_THREADS"] = BLAS_THREADS
    sys.path.insert(0, os.path.join(root, "src"))
    import todalab
    if not os.path.abspath(todalab.__file__).startswith(root):
        print(f"perfbench: imported todalab from {todalab.__file__}, not "
              f"from this checkout", file=sys.stderr)
        return 2

    import harness
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    run = harness.Run(args.seconds, tracer)
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-"
                        f"{os.getpid()}")
    os.makedirs(work)
    try:
        inputs, peak_rss_mb = workloads.WORKLOADS[args.workload](
            run, args.seed, work, root)
        if tracer is not None:
            tracer.uninstall()
            trace_dir = os.path.join(root, ".perfbench_trace")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write_all(os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.json"))
            metrics = tracing.summarize([tracer.trace()] + tracer.processes,
                                        run.setups, run.rounds,
                                        run.overhead)
        else:
            metrics = workloads.end_to_end(run, peak_rss_mb)
    except harness.CheckFailed as exc:
        print(f"perfbench: input check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("perfbench: machine " + json.dumps(machine_info()))
    print("perfbench: inputs " + json.dumps(dict(
        inputs, workload=args.workload, seed=args.seed,
        setups=run.setups, rounds=run.rounds)))
    for name, metric in metrics.items():
        raw = (f" (raw wall time {run.median(name, raw=True):.6g} s)"
               if name in run.raw and not args.trace else "")
        print(f"perfbench: {name} = {metric['value']:.6g} {metric['unit']}"
              f"{raw}")
    print(f"perfbench: attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
