"""What the tools share: their command line, the alternating order in
which they run several source trees, the child processes that run a tree,
and their JSON output.

Each tool takes `--tree LABEL=SRC` (repeatable; default `change=src`),
`--refine` (default 5) and `-o`; the timing tools also take `--runs` (at
least 1) and `--n` (the degree of the cyclic cover, default 2).  Runs
alternate which tree goes first, so a slow spell of a shared machine
lands on all trees alike.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# The start of every child's code: the imports, and count_solves(mesh),
# which pays for the mesh's systole and S + M factor and wraps the `solve`
# of every factor the bundle keeps (each `Operators` cached property whose
# name ends in `_lu`: `screened_lu`, `monotone_lu` and, where the tree has
# it, `laplace_lu`) to count right-hand sides (a call on a V x k array
# counts k).  A factor not made yet is made on its first solve, as
# without the wrapper, so its factorization is paid where the tree pays
# it.  It returns the counts as a dict keyed by the factor's name without
# `_lu` (`screened`, `monotone`, `laplace`), which the tools report as
# `<key>_solves`.
PROLOGUE = """
import json, sys, time
from functools import cached_property
import todalab
from todalab import operators


def count_solves(mesh):
    operators.systole(mesh)
    bundle = operators.of(mesh)
    bundle.screened_lu
    solves = {}

    class CountingFactor:
        def __init__(self, key, lu, make):
            self.key, self.lu, self.make = key, lu, make

        def solve(self, b):
            if self.lu is None:
                self.lu = self.make(bundle)
            solves[self.key] += 1 if b.ndim == 1 else b.shape[1]
            return self.lu.solve(b)

    for name, prop in vars(type(bundle)).items():
        if isinstance(prop, cached_property) and name.endswith("_lu"):
            key = name[:-len("_lu")]
            solves[key] = 0
            setattr(bundle, name,
                    CountingFactor(key, vars(bundle).get(name), prop.func))
    return solves
"""


def tree_parser(description):
    """A parser with the flags every tool takes: `--tree`, `--refine` and
    `-o`."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a label and the src/ directory holding "
                             "todalab (repeatable; default change=src)")
    parser.add_argument("--refine", type=int, default=5,
                        help="refinement level of the base (default 5)")
    parser.add_argument("-o", "--output", help="also write the JSON here")
    return parser


def trees_of(parser, args):
    """The {label: src} of the parsed `--tree` flags, in the order given;
    also checks `--refine`."""
    if args.refine < 0:
        parser.error("--refine must be nonnegative")
    return dict(spec.split("=", 1) for spec in args.tree or ["change=src"])


def parse_args(description, argv=None):
    """(args, trees): the parsed command line of a timing tool and the
    {label: src} of its trees, in the order given."""
    parser = tree_parser(description)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--n", type=int, default=2,
                        help="degree of the cyclic cover (default 2)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.n < 1:
        parser.error("--n must be at least 1")
    return args, trees_of(parser, args)


def child_env(src):
    """The environment of a child process that imports todalab from src,
    with BLAS on one thread."""
    return dict(os.environ, PYTHONPATH=os.path.abspath(src),
                TODA_THREADS="1")


def run_child(src, body, what):
    """The JSON a child printed: PROLOGUE + body run in a fresh process on
    the todalab in src.  A failed child ends the tool, naming src and
    what it ran."""
    proc = subprocess.run([sys.executable, "-c", PROLOGUE + body],
                          env=child_env(src), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {what} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def alternating(trees, runs):
    """(run index, label) of every tree in every run; even runs take the
    trees in order, odd runs in reverse."""
    for i in range(runs):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for label in order:
            yield i, label


def relative_moves(cert, reference):
    """|a - b| / max(|b|, 1e-300) of each float value of a certificate
    against the reference's, the residuals left out: two trees that both
    solve to tolerance leave residuals near 0 whose ratio means nothing,
    so they are compared with the tolerances, not with each other."""
    return {key: abs(cert[key] - want) / max(abs(want), 1e-300)
            for key, want in reference.items()
            if isinstance(want, float) and not key.endswith("_residual")}


def summary(samples):
    """Median and quartiles of a list of samples (seconds or MB); one
    sample is its own median and quartiles."""
    q1, q2, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                  if len(samples) > 1 else samples * 3)
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def machine_info():
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "threads": "TODA_THREADS=1"}


def emit(result, output):
    """Print the result as JSON, and also write it to output if given."""
    text = json.dumps(result, indent=1)
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    print(text)
