"""The three workloads: CLI pipeline, in-process sweep, large-mesh solvers.

Inputs: the genus-2 base at a given refinement, its cyclic 2-cover, the
README's canonical divisor on the base (vertices 0, 1, 5, 20), and balanced
lifts to the cover with one fresh zero.  The seed picks the fresh zeros
from a pool per refinement level; see README.md for how the pools were
chosen.  Every end-to-end metric is defined for every workload; README.md
lists what each one times where.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import todalab
from todalab import fileio, operators

import checks
from harness import CheckFailed, OpFailed, check, close

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")

BASE_DIVISOR = [(0, 1), (1, 1), (5, 1), (20, 1)]
BASE_DIVISOR_ARG = ",".join(f"{v}:{m}" for v, m in BASE_DIVISOR)
COVER_N = 2
ETA = 0.5              # CoupledConfig's default
README_ZERO = 3        # the README's fresh zero, solved at degree 2
ZERO_POOLS = {
    3: (297, 214, 11, 79, 393, 487, 407, 167, 220, 6, 238, 210, 414, 75,
        355, 44),
    4: (1211, 1725, 52, 354, 1661, 872, 1683, 736, 2014, 26, 971, 927, 1804,
        317, 1511, 185),
    5: (4866, 3657, 6971, 214, 1454, 6736, 3519, 6784, 3012, 3754, 104,
        3905, 3798, 7366, 1283, 6136),
}
PROCESS_TIMEOUT = 150  # seconds for one `toda` process
SETUPS = 2             # timed set-ups of cli-l3c2 and solvers-l5c2
REPEATS = 8            # timings of steps under ~0.3 s: median of several
SOLVE_REPEATS = 3      # timings of each solvers-l5c2 scalar and bundle solve


def fresh_zeros(seed, level):
    """The seed's order of the level's fresh-zero pool."""
    pool = ZERO_POOLS[level]
    rng = np.random.default_rng(abs(seed))
    return [int(z) for z in rng.permutation(pool)]


def end_to_end(run, peak_rss_mb):
    names = ("setup_s", "total_s", "solve_s", "verify_s", "stability_s",
             "probe_s", "scalar_solve_s", "bundle_solve_s", "io_s")
    metrics = {name: {"value": run.median(name), "unit": "s"}
               for name in names}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return metrics


def _mesh_checks(cover, n=COVER_N):
    checks.topology(cover, n)
    checks.gauss_bonnet(cover)


def _probe(run, cover, base):
    """Low spectra of cover and base; the base's must lie in the cover's."""
    with run.op("probe"):
        cover_values, base_values = run.repeat(
            "probe_s", REPEATS, lambda: (operators.eig_low(cover, k=6)[0],
                                         operators.eig_low(base, k=3)[0]),
            interleave=True)
        checks.spectrum(cover_values, base_values)


# ----------------------------------------------------------------------
# cli-l3c2

class Toda:
    """Runs `toda` commands as fresh processes in the work directory."""

    def __init__(self, run, work, root):
        self.run = run
        self.work = work
        path = [os.path.join(root, "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def path(self, name):
        return os.path.join(self.work, name)

    def __call__(self, *args, metric=None):
        """Run `toda ARGS` through launch.py; time it into `metric`."""
        report_file = self.path("launch.json")
        traced = self.run.traced
        command = [sys.executable, LAUNCHER, report_file, str(int(traced)),
                   str(self.run.tracer.phase if traced else None),
                   repr(time.monotonic())] + list(args)
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=self.work, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise OpFailed(f"toda {args[0]} ran past {PROCESS_TIMEOUT} s")
        elapsed = time.perf_counter() - start
        try:
            with open(report_file) as handle:
                report = json.load(handle)
            os.unlink(report_file)
        except FileNotFoundError:
            raise OpFailed(f"toda {args[0]} died: {proc.stderr[-300:]}")
        if report["trace"] is not None:
            self.run.tracer.processes.append(report["trace"])
        ok = proc.returncode == 0
        self.run.child(metric if ok else None, elapsed,
                       report["kernel_times"], report["kernel_spent"])
        if proc.returncode == 1 and args[0] == "verify":
            raise CheckFailed(f"toda verify: {proc.stderr.strip()}")
        if not ok:
            raise OpFailed(f"toda {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")


def cli_l3c2(run, seed, work, root):
    """The README command sequence at refinement 3 on the 2-cover."""
    zero = fresh_zeros(seed, 3)[0]
    toda = Toda(run, work, root)
    path = toda.path

    def setup():
        toda("mesh", "--genus2", "--refine", "3", "-o", "base.json")
        toda("cover", "--mesh", "base.json", "--n", str(COVER_N),
             "-o", "cover.json")
        toda("section", "--mesh", "base.json", "--divisor", BASE_DIVISOR_ARG,
             "-o", "base_dens")
        toda("section", "--mesh", "cover.json", "--balanced", "--base-mesh",
             "base.json", "--base-density", "base_dens", "--zero-vertex",
             str(zero), "-o", "cover_dens")

    run.setup(setup, SETUPS)

    # The benchmark's own copy of the inputs, for checking outputs.
    with open(path("cover.json")) as handle:
        cover = todalab.mesh_from_json(handle.read())
    _mesh_checks(cover)
    density = fileio.read_density(path("cover_dens"), cover)
    checks.density(density, COVER_N)
    # Also fills this mesh's systole cache before `stability_check` is timed.
    checks.systole(operators.systole(cover))
    volume = operators.volume(cover)

    def short_processes():
        """`export`, `solve-gauss` and `solve-ricci`, one process each.

        Each runs ~0.5 s, mostly start-up, so a single process is a noisy
        sample: a round runs this trio three times, between its long
        processes, so that the samples spread over the round.
        """
        with run.op("export"):
            toda("export", "--mesh", "cover.json", "--run", "run",
                 "-o", "fields.vtk", metric="io_s")
            with open(path("fields.vtk")) as handle:
                text = handle.read()
            V = cover.num_vertices
            check(f"POINTS {V} double" in text
                  and f"POINT_DATA {V}" in text
                  and text.count("SCALARS ") == 4, "VTK export layout")
        with run.op("solve-gauss"):
            toda("solve-gauss", "--mesh", "cover.json", "--constant",
                 "0.1", "-o", "gauss", metric="scalar_solve_s")
            _, u_const = fileio.read_field_csv(path("gauss_u.csv"), "u")
            checks.constant_gauss(u_const, 0.1)
        with run.op("solve-ricci"):
            toda("solve-ricci", "--mesh", "cover.json", "--density",
                 "cover_dens", "--scale", "0.1", "-o", "ricci",
                 metric="bundle_solve_s")
            _, v_alone = fileio.read_field_csv(path("ricci_v.csv"), "v")
            c = 0.1 * 2.0 * math.pi / volume
            checks.ricci_solution(cover, np.zeros(len(v_alone)), v_alone,
                                  density, c)

    def one_round(index):
        shutil.rmtree(path("run"), ignore_errors=True)
        state = {}
        with run.op("solve-coupled"):
            toda("solve-coupled", "--mesh", "cover.json", "--density",
                 "cover_dens", "--degree", "1", "-o", "run",
                 metric="solve_s")
            cert_dict = fileio.read_json(path("run/certificate.json"))
            cert = todalab.AFCertificate(**{
                key: value for key, value in cert_dict.items()
                if key != "almost_fuchsian"})
            _, u = fileio.read_field_csv(path("run/u.csv"), "u")
            _, v = fileio.read_field_csv(path("run/v.csv"), "v")
            checks.coupled_solution(cover, density, u, v, cert, ETA, 1)
            state.update(u=u, v=v, lambda1=cert.lambda1)
        short_processes()
        with run.op("verify"):
            toda("verify", "--mesh", "cover.json", "--density",
                 "cover_dens", "--run", "run", metric="verify_s")
        short_processes()
        with run.op("probe"):
            toda("probe", "--mesh", "cover.json", "-o", "probe.json",
                 metric="probe_s")
            spectral = fileio.read_json(path("probe.json"))["spectral"]
            close(spectral["lambda0"], 0.0, 1e-8, "lambda_0")
            checks.systole(spectral["systole"])
            close(spectral["volume"], volume, 1e-12, "probe volume")
            if "lambda1" in state:
                close(spectral["lambda1"], state["lambda1"], 1e-9,
                      "probe lambda_1 against the certificate's")
        short_processes()
        with run.op("stability"):
            if "u" not in state:
                raise OpFailed("no coupled solution to check")
            weight = np.exp(density.log_density - 2.0 * state["u"])
            report = run.repeat(
                "stability_s", REPEATS,
                lambda: todalab.stability_check(cover, state["v"], weight),
                dense=True, interleave=True)
            checks.stability(report)

    run.measure(one_round)
    return {"zero_vertex": zero}, run.peak_rss_mb(children=True)


# ----------------------------------------------------------------------
# sweep-l4c2

def _density_op(run, work, name, cover, base_density, zero, degree, metric):
    """Solve one balanced density, write it, re-certify it from files,
    cross-check both component solvers and run the stability check."""
    with run.op(name):
        density, _ = todalab.balanced_lift(base_density, cover, zero)
        checks.density(density, COVER_N)
        config = todalab.CoupledConfig(eta=ETA, degree=degree)
        with run.timed(metric("solve_s")):
            result = todalab.solve_coupled(cover, density, config)
        u, v, cert = result
        checks.coupled_solution(cover, density, u, v, cert, ETA, degree)

        prefix = os.path.join(work, name)

        def write():
            fileio.write_field_csv(prefix + "_u.csv", "u", u)
            fileio.write_field_csv(prefix + "_v.csv", "v", v)
            fileio.write_density(prefix + "_dens", density)
            fileio.write_json(prefix + "_cert.json", cert.to_dict())

        def recertify():
            _, u_file = fileio.read_field_csv(prefix + "_u.csv", "u")
            _, v_file = fileio.read_field_csv(prefix + "_v.csv", "v")
            density_file = fileio.read_density(prefix + "_dens", cover)
            with open(prefix + "_cert.json") as handle:
                stored = handle.read()
            again = todalab.certify(cover, u_file, v_file, density_file, ETA,
                                    degree=degree, t=cert.t,
                                    outer_iters=cert.outer_iters,
                                    converged=cert.converged)
            return fileio.dump_json(again.to_dict()) == stored

        # Steps of ~10-50 ms: each timed between kernel runs.  A write of
        # these four files takes ~10 ms and scatters with the file system's
        # own timing, so each of its samples is the mean of three writes.
        run.repeat(metric("io_s"), REPEATS, write, interleave=True, batch=3)
        same = run.repeat(metric("verify_s"), REPEATS, recertify,
                          interleave=True)
        check(same, "certificate bytes not reproduced from files")

        f = np.exp(density.log_density + 2.0 * v)
        gauss = run.repeat(
            metric("scalar_solve_s"), REPEATS,
            lambda: todalab.solve_gauss(todalab.GaussProblem(
                mesh=cover, f=f, eta=ETA, tol=1e-10)), interleave=True)
        checks.agree(gauss.u, u, 1e-8, "cold Gauss solve against coupled u")
        c = cert.t * 2.0 * math.pi * degree / operators.volume(cover)
        bundle = run.repeat(
            metric("bundle_solve_s"), REPEATS,
            lambda: todalab.maximize_J(todalab.RicciProblem(
                mesh=cover, u=u, density=density, c=c, tol=1e-9)),
            interleave=True)
        checks.agree(bundle.v, v, 1e-8, "maximize_J against coupled v")

        weight = np.exp(density.log_density - 2.0 * u)
        with run.timed(metric("stability_s"), dense=True):
            report = todalab.stability_check(cover, v, weight)
        checks.stability(report)


def sweep_l4c2(run, seed, work, root):
    """Balanced degree-9 densities on the level-4 2-cover, in-process."""
    zeros = fresh_zeros(seed, 4)

    def setup():
        base = todalab.build_base_surface(refinement=4)
        cover = todalab.build_cover(base, todalab.CoverSpec.cyclic(COVER_N))
        base_density = todalab.synth_density(
            base, todalab.Divisor(BASE_DIVISOR))
        operators.systole(cover)
        return base, cover, base_density

    base, cover, base_density = run.setup(setup, 1)
    _mesh_checks(cover)
    checks.systole(operators.systole(cover))

    def one_round(index):
        # The spectra probe runs twice, between the densities, so that its
        # samples spread over the round.
        for k in (2 * index, 2 * index + 1):
            _density_op(run, work, "density", cover, base_density,
                        zeros[k % len(zeros)], 1, lambda name: name)
            _probe(run, cover, base)
        # The README density at degree 2: its timings are kept apart so a
        # fix that makes it solve does not redefine the degree-1 medians.
        _density_op(run, work, "degree2", cover, base_density, README_ZERO, 2,
                    lambda name: "degree2." + name)

    run.measure(one_round)
    return {"zero_vertices": zeros}, run.peak_rss_mb()


# ----------------------------------------------------------------------
# solvers-l5c2

def solvers_l5c2(run, seed, work, root):
    """Scalar and bundle solvers, spectrum and file I/O at V = 8188."""
    zeros = fresh_zeros(seed, 5)

    def setup():
        base = todalab.build_base_surface(refinement=5)
        cover = todalab.build_cover(base, todalab.CoverSpec.cyclic(COVER_N))
        cover.validate()
        base_density = todalab.synth_density(
            base, todalab.Divisor(BASE_DIVISOR))
        return base, cover, base_density

    base, cover, base_density = run.setup(setup, SETUPS)
    _mesh_checks(cover)
    V = cover.num_vertices
    volume = operators.volume(cover)
    c = 0.15 * 2.0 * math.pi / volume
    last = {}

    def lift_op(zero):
        with run.op("solvers"):
            density, _ = todalab.balanced_lift(base_density, cover, zero)
            checks.density(density, COVER_N)
            rho = np.exp(density.log_density)
            f = 0.8 * todalab.admissible_bound(ETA) * rho / rho.max()
            problem = todalab.GaussProblem(mesh=cover, f=f, eta=ETA,
                                           tol=1e-10)
            with run.timed("solve_s"):
                gauss = todalab.solve_gauss(problem)
                run.checkpoint()
                monotone = todalab.monotone_solve_gauss(problem)
                run.checkpoint()
                bundle_problem = todalab.RicciProblem(
                    mesh=cover, u=gauss.u, density=density, c=c, tol=1e-9)
                bundle = todalab.maximize_J(bundle_problem)
                run.checkpoint()
                newton = todalab.solve_ricci_newton(todalab.RicciProblem(
                    mesh=cover, u=gauss.u, density=density, c=c, tol=1e-11),
                    v_init=bundle.v)
            # Single solves of ~0.25 s: the median of a few, each between
            # kernel runs, is steadier than the calls timed above.
            again = run.repeat("scalar_solve_s", SOLVE_REPEATS,
                               lambda: todalab.solve_gauss(problem),
                               interleave=True)
            checks.agree(again.u, gauss.u, 1e-12, "repeated solve_gauss")
            again = run.repeat("bundle_solve_s", SOLVE_REPEATS,
                               lambda: todalab.maximize_J(bundle_problem),
                               interleave=True)
            checks.agree(again.v, bundle.v, 1e-12, "repeated maximize_J")
            checks.gauss_solution(cover, gauss.u, f)
            checks.agree(gauss.u, monotone.u, 1e-8,
                         "Newton against monotone Gauss")
            checks.agree(bundle.v, newton.v, 1e-8,
                         "maximize_J against seeded Newton")
            checks.ricci_solution(cover, gauss.u, newton.v, density, c)
            last.update(u=gauss.u, v=newton.v, density=density)

    def closed_forms_op():
        with run.op("closed-forms"):
            f0 = 0.1
            gauss = todalab.solve_gauss(todalab.GaussProblem(
                mesh=cover, f=np.full(V, f0), eta=1.0))
            checks.constant_gauss(gauss.u, f0)
            u0, amplitude = float(gauss.u[0]), math.exp(-1.0)
            flat = todalab.SectionDensity(
                mesh=cover, log_density=np.full(V, math.log(amplitude)),
                divisor=todalab.Divisor([]), curvature_constant=c,
                normalization="unit_mean")
            bundle = todalab.maximize_J(todalab.RicciProblem(
                mesh=cover, u=np.full(V, u0), density=flat, c=c))
            checks.constant_ricci(bundle.v, c, u0, amplitude)

    def stability_op(index):
        with run.op("mt-probe"):
            value = run.repeat(
                "stability_s", REPEATS,
                lambda: todalab.mt_probe(cover, samples=8,
                                         seed=abs(seed) + index),
                interleave=True)
            check(math.isfinite(value) and value > 0.0,
                  f"Moser-Trudinger probe value {value!r}")

    def io_op():
        with run.op("io"):
            if "u" not in last:
                raise OpFailed("no solved fields to write")
            prefix = os.path.join(work, "l5")

            def round_trip():
                fileio.atomic_write_text(prefix + "_mesh.json",
                                         todalab.mesh_to_json(cover))
                fileio.write_density(prefix + "_dens", last["density"])
                fileio.write_field_csv(prefix + "_u.csv", "u", last["u"])
                fileio.write_field_csv(prefix + "_v.csv", "v", last["v"])
                with open(prefix + "_mesh.json") as handle:
                    mesh = todalab.mesh_from_json(handle.read())
                density = fileio.read_density(prefix + "_dens", mesh)
                _, u = fileio.read_field_csv(prefix + "_u.csv", "u")
                _, v = fileio.read_field_csv(prefix + "_v.csv", "v")
                return mesh, density, u, v

            with run.timed("io_s"):
                mesh, density, u, v = round_trip()
            with run.timed("verify_s"):
                mesh.validate()
                checks.density(density, COVER_N)
            for name in ("triangles", "tri_edges", "tri_edge_signs", "edges",
                         "edge_lengths", "positions", "base_vertex"):
                check(np.array_equal(getattr(mesh, name),
                                     getattr(cover, name)),
                      f"mesh {name} changed in the JSON round trip")
            check(mesh.edge_words == cover.edge_words,
                  "mesh edge words changed in the JSON round trip")
            for read, kept in ((density.log_density,
                                last["density"].log_density),
                               (u, last["u"]), (v, last["v"])):
                check(np.array_equal(read, kept),
                      "a field changed in the CSV round trip")
            _mesh_checks(mesh)

    def one_round(index):
        # A round trip and the validation of the mesh it read back are
        # single ~0.6-0.9-s samples, so a round makes three, spread over it.
        first = 2 * index
        lift_op(zeros[first % len(zeros)])
        io_op()
        lift_op(zeros[(first + 1) % len(zeros)])
        closed_forms_op()
        io_op()
        _probe(run, cover, base)
        stability_op(index)
        io_op()

    run.measure(one_round)
    return {"zero_vertices": zeros}, run.peak_rss_mb()


WORKLOADS = {
    "cli-l3c2": cli_l3c2,
    "sweep-l4c2": sweep_l4c2,
    "solvers-l5c2": solvers_l5c2,
}
