"""Wall time of in-process `solve_coupled` on the level-5 2-cover.

Builds the README inputs at refinement level 5 (or `--refine`): the
genus-2 base, its cyclic 2-cover (or `--n`-cover; V = 8188 for the 2-cover
at level 5, 32 764 at level 6),
the canonical divisor 0:1,1:1,5:1,20:1 on the base and its balanced lift
with the fresh zero 3.  Right after building the cover it times one write
of the cover's mesh file (`mesh_to_json`) and one read (`mesh_from_json`),
and hashes the text it wrote (`mesh_sha1`, the git blob
sha1), so that trees timed against each other are seen to write the same
bytes.  Once the density is lifted it times the read-back that `toda
verify` pays before its solves (`readback_s`): `mesh_from_json` of that
text, `validate()`, the read mesh's operator assembly and the density's
curvature identity on it.  Set-up pays for the cover's systole and its S + M
factor (`balanced_lift`'s Green solve runs on it), so both are cached when
`solve_coupled(..., degree 1)` is timed; lambda_1 is paid inside the timed
call.  Trees whose Green solves build their own factor pay for the S + M
factor inside the timed call instead, so their timings are not comparable
with these.  Each sample is a fresh process, and several source trees can
be timed in one call; their runs alternate, so a slow spell of a shared
machine lands on all of them alike:

    python3 tools/solve_l5.py --tree change=src --runs 5
    python3 tools/solve_l5.py --tree parent=../old/src --tree change=src \\
        --runs 10 --refine 6 -o BENCH.json

Prints the median and quartiles per tree (of the solve, of the mesh
write and read and of the read-back, with the mesh file's size and sha1)
as one JSON object,
with `mesh_sha1_differs` listing the trees whose mesh bytes differ from
the first tree's (or differ between runs), each tree's certificate, the
relative difference of every certificate value but the residuals
against the first tree, and the number of solves with
each factor the cover's bundle keeps that the timed call made
(`screened_solves` on S + M: `eig_low`'s, and on trees that precondition
Newton with it the MINRES solves too; `monotone_solves` on S + 2M and,
where the tree has it, `laplace_solves` on S + eps M; the child wraps
each factor's `solve` and counts right-hand sides).  A kept factor other
than S + M is made on its first solve, inside the timed call, as without
the counting.  BLAS runs one thread
(`TODA_THREADS=1`).  The command line, the child's prologue and runner
and the output helpers are shared with `pipeline_l5.py` and `sweep.py`
(`trees.py`).
"""

import sys

from trees import (alternating, emit, machine_info, parse_args,
                   relative_moves, run_child, summary)

DIVISOR = [(0, 1), (1, 1), (5, 1), (20, 1)]
ZERO_VERTEX = 3

CHILD = """
import dataclasses, gc
from todalab import fileio, sections
base = todalab.build_base_surface(refinement={refine})
cover = todalab.build_cover(base, todalab.CoverSpec.cyclic({n}))
start = time.perf_counter()
text = todalab.mesh_to_json(cover)
write_s = time.perf_counter() - start
start = time.perf_counter()
todalab.mesh_from_json(text)
read_s = time.perf_counter() - start
mesh_bytes = len(text.encode())
mesh_sha1 = fileio.git_blob_sha1(text)
base_density = todalab.synth_density(base, todalab.Divisor({divisor!r}))
density, _ = todalab.balanced_lift(base_density, cover, {zero})
start = time.perf_counter()
mesh = todalab.mesh_from_json(text)
mesh.validate()
operators.of(mesh)
sections.poincare_lelong_residual(dataclasses.replace(density, mesh=mesh))
readback_s = time.perf_counter() - start
del text, mesh
gc.collect()
solves = count_solves(cover)
start = time.perf_counter()
result = todalab.solve_coupled(cover, density,
                               todalab.CoupledConfig(degree=1))
seconds = time.perf_counter() - start
json.dump({{"seconds": seconds,
           **{{f"{{key}}_solves": n for key, n in solves.items()}},
           "write_s": write_s, "read_s": read_s, "readback_s": readback_s,
           "mesh_bytes": mesh_bytes,
           "mesh_sha1": mesh_sha1,
           "certificate": result.certificate.to_dict()}}, sys.stdout)
"""


def run_once(src, refine, n):
    """The child's output of one timed solve in a fresh process: seconds,
    solves per kept factor, mesh write_s, read_s, readback_s, mesh_bytes
    and mesh_sha1, certificate."""
    return run_child(src, CHILD.format(refine=refine, n=n, divisor=DIVISOR,
                                       zero=ZERO_VERTEX), "solve")


def solve_keys(out):
    """The `<factor>_solves` keys of a child's output."""
    return [key for key in out if key.endswith("_solves")]


def relative_differences(cert, reference):
    """``relative_moves`` of the float certificate values, and each other
    value that differs, as "got != want"."""
    diffs = relative_moves(cert, reference)
    diffs.update({key: f"{cert[key]!r} != {want!r}"
                  for key, want in reference.items()
                  if not isinstance(want, float) and cert[key] != want})
    return diffs


def main(argv=None):
    args, trees = parse_args(__doc__.split("\n")[0], argv)

    outs = {label: [] for label in trees}
    for i, label in alternating(trees, args.runs):
        out = run_once(trees[label], args.refine, args.n)
        outs[label].append(out)
        solves = ", ".join(f"{out[key]} {key}" for key in solve_keys(out))
        print(f"run {i + 1}/{args.runs} {label}: {out['seconds']:.3f} s, "
              f"{solves}, mesh write {out['write_s']:.3f} s, read "
              f"{out['read_s']:.3f} s, read-back {out['readback_s']:.4f} s",
              file=sys.stderr)

    certificates = {label: runs[0]["certificate"]
                    for label, runs in outs.items()}
    first = next(iter(trees))
    mesh_sha1 = {label: sorted({r["mesh_sha1"] for r in runs})
                 for label, runs in outs.items()}
    differs = [label for label, sha1 in mesh_sha1.items()
               if sha1 != mesh_sha1[first] or len(sha1) > 1]
    if differs:
        print(f"mesh bytes differ between runs or from {first}'s: "
              f"{', '.join(differs)}", file=sys.stderr)
    result = {
        "script": "tools/solve_l5.py",
        "refine": args.refine, "cover_degree": args.n, "divisor": DIVISOR,
        "zero_vertex": ZERO_VERTEX, "degree": 1, "runs": args.runs,
        "machine": machine_info(), "mesh_sha1_differs": differs,
        "trees": {label: {
            "solve_coupled_s": summary([r["seconds"] for r in runs]),
            "samples_s": [round(r["seconds"], 4) for r in runs],
            **{key: sorted({r[key] for r in runs})
               for key in solve_keys(runs[0])},
            "mesh_bytes": runs[0]["mesh_bytes"],
            "mesh_sha1": mesh_sha1[label],
            "mesh_write_s": summary([r["write_s"] for r in runs]),
            "mesh_read_s": summary([r["read_s"] for r in runs]),
            "readback_s": summary([r["readback_s"] for r in runs]),
            "readback_samples_s": [round(r["readback_s"], 5) for r in runs],
            "certificate": certificates[label],
            f"relative_difference_to_{first}": relative_differences(
                certificates[label], certificates[first])}
            for label, runs in outs.items()},
    }
    emit(result, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
