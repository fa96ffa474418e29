"""Robustness sweep of `solve_coupled` over fresh zeros, cover degrees and
normal-bundle degrees, for one or more source trees.

For each cyclic cover degree n (`--n`, one or more) of the genus-2 base at
refinement level 3 (or `--refine`), it lifts the README base density
(divisor 0:1,1:1,5:1,20:1) to the n-cover with every `--stride`-th fresh
zero (a cover vertex outside the lifted divisor), and solves each density
at every degree of `--degrees` that the cover's genus allows:

    python3 tools/sweep.py --refine 3 --stride 1 --degrees 1,2
    python3 tools/sweep.py --tree parent=../old/src --tree change=src \\
        --refine 3 --n 1 2 3 4 6 8 12 --degrees 1 -o BENCH.json

Each tree runs in a fresh process per cover degree, and the trees
alternate which goes first.  Per tree it prints, as one JSON object:
- the failures: zero, n, degree, error type and the message's first line;
- per degree, the runs, the number certified, the wall time, the
  number of solves with each factor the cover's bundle keeps
  (`screened_solves` on S + M, `monotone_solves` on S + 2M and, where the
  tree has it, `laplace_solves` on S + eps M; the child wraps each
  factor's `solve` and counts right-hand sides), the sum of the
  certificates' `outer_iters` (coupled Newton steps), and the largest
  Gauss and Ricci residual of the certificates;
- per degree, against the first tree over the runs both certify: the
  number of runs whose `t` differs bitwise, and the largest relative move
  of each certificate value but the residuals.
Under automatic t, degrees 1 and 2 give the same solve: the degree-2
scale choice runs at half the t, so c = t 2 pi d / Vol and every field
are the same bits, and the two degrees' rows differ only in their times
and in the S + M solves of lambda_1, which the first run pays for the
mesh.
BLAS runs one thread (`TODA_THREADS=1`).
"""

import sys

from trees import (alternating, emit, machine_info, relative_moves,
                   run_child, tree_parser, trees_of)

DIVISOR = [(0, 1), (1, 1), (5, 1), (20, 1)]

CHILD = """
base = todalab.build_base_surface(refinement={refine})
base_density = todalab.synth_density(base, todalab.Divisor({divisor!r}))
cover = todalab.build_cover(base, todalab.CoverSpec.cyclic({n}))
taken = {{v for v, _ in todalab.lift_density(base_density, cover)
         .divisor.entries}}
zeros = [z for z in range(cover.num_vertices) if z not in taken]
degrees = [d for d in {degrees!r}
           if todalab.degree_bound_check(d, cover.genus)]
solves = count_solves(cover)
runs = []
for zero in zeros[::{stride}]:
    density, _ = todalab.balanced_lift(base_density, cover, zero)
    for degree in degrees:
        solves.update(dict.fromkeys(solves, 0))
        start = time.perf_counter()
        run = {{"zero": zero, "n": {n}, "degree": degree}}
        try:
            result = todalab.solve_coupled(
                cover, density, todalab.CoupledConfig(degree=degree))
            run["certificate"] = result.certificate.to_dict()
        except todalab.TodaError as exc:
            run["error"] = type(exc).__name__
            run["message"] = str(exc).splitlines()[0]
        run["seconds"] = time.perf_counter() - start
        run.update({{f"{{key}}_solves": n for key, n in solves.items()}})
        runs.append(run)
json.dump(runs, sys.stdout)
"""


def sweep_once(src, refine, n, stride, degrees):
    """The runs of one tree on the n-cover, each a dict of zero, n,
    degree, seconds, the solves per kept factor (`<factor>_solves`) and a
    certificate or an error."""
    return run_child(src, CHILD.format(refine=refine, n=n, divisor=DIVISOR,
                                       stride=stride, degrees=degrees),
                     "sweep")


def compare(runs, reference):
    """Per degree, over the runs certified in both lists: the number whose
    t differs bitwise, and the largest ``relative_moves`` of each
    certificate value."""
    certified = {(r["zero"], r["n"], r["degree"]): r["certificate"]
                 for r in reference if "certificate" in r}
    out = {}
    for run in runs:
        want = certified.get((run["zero"], run["n"], run["degree"]))
        if want is None or "certificate" not in run:
            continue
        row = out.setdefault(str(run["degree"]), {
            "t_differs": 0, "largest_relative_move": {}})
        row["t_differs"] += run["certificate"]["t"] != want["t"]
        worst = row["largest_relative_move"]
        for key, move in relative_moves(run["certificate"], want).items():
            worst[key] = max(worst.get(key, 0.0), move)
    return out


def by_degree(runs):
    """Per degree: runs, certified, seconds, solves per kept factor,
    coupled Newton steps (the certificates' outer_iters) and the largest
    certificate residuals."""
    out = {}
    for run in runs:
        row = out.setdefault(str(run["degree"]), {
            "runs": 0, "certified": 0, "seconds": 0.0,
            **{key: 0 for key in run if key.endswith("_solves")},
            "outer_iters": 0, "max_gauss_residual": 0.0,
            "max_ricci_residual": 0.0})
        row["runs"] += 1
        row["seconds"] += run["seconds"]
        for key in run:
            if key.endswith("_solves"):
                row[key] += run[key]
        cert = run.get("certificate")
        if cert is not None:
            row["certified"] += 1
            row["outer_iters"] += cert["outer_iters"]
            for key in ("gauss_residual", "ricci_residual"):
                row[f"max_{key}"] = max(row[f"max_{key}"], cert[key])
    for row in out.values():
        row["seconds"] = round(row["seconds"], 3)
    return out


def main(argv=None):
    parser = tree_parser(__doc__.split("\n")[0])
    parser.set_defaults(refine=3)
    parser.add_argument("--n", type=int, nargs="+", default=[2],
                        help="degrees of the cyclic covers (default 2)")
    parser.add_argument("--stride", type=int, default=1,
                        help="solve every k-th fresh zero (default 1)")
    parser.add_argument("--degrees", default="1",
                        help="comma-separated normal-bundle degrees "
                             "(default 1)")
    args = parser.parse_args(argv)
    trees = trees_of(parser, args)
    if args.stride < 1 or min(args.n) < 1:
        parser.error("--stride and --n must be at least 1")
    try:
        degrees = [int(d) for d in args.degrees.split(",")]
    except ValueError:
        parser.error(f"--degrees expects comma-separated integers, "
                     f"got {args.degrees!r}")

    runs = {label: [] for label in trees}
    for i, label in alternating(trees, len(args.n)):
        n = args.n[i]
        out = sweep_once(trees[label], args.refine, n, args.stride, degrees)
        runs[label].extend(out)
        failed = sum("error" in r for r in out)
        print(f"n = {n} {label}: {len(out)} runs, {failed} failed, "
              f"{sum(r['seconds'] for r in out):.1f} s", file=sys.stderr)

    first = next(iter(trees))
    result = {
        "script": "tools/sweep.py",
        "refine": args.refine, "n": args.n, "stride": args.stride,
        "degrees": degrees, "divisor": DIVISOR,
        "machine": machine_info(),
        "trees": {label: {
            "failures": [{key: r[key] for key in
                          ("zero", "n", "degree", "error", "message")}
                         for r in tree_runs if "error" in r],
            "certified": sum("certificate" in r for r in tree_runs),
            "by_degree": by_degree(tree_runs),
            **({} if label == first else {
                f"against_{first}": compare(tree_runs, runs[first])})}
            for label, tree_runs in runs.items()},
    }
    emit(result, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
