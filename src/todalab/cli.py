"""Command-line front end: mesh building, synthesis, solves, verification.

Every subcommand writes outputs atomically and deterministically, so a
repeated invocation with identical inputs (for ``probe``, also the same
--seed) produces byte-identical files.  Exit codes: 0 success, 1 domain
error (infeasible data, lost admissibility, failed verification), 2 usage
error, each reported as one line on stderr.

Flags set the inputs of the mathematics (mesh level, cover degree,
divisor, eta, degree, t, the background u) and the probe's samples and
seed.  Solver tolerances and the density normalization are constants of
the library, not flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fileio
from .errors import MeshError, TodaError
from .mesh import CoverSpec, build_base_surface, build_cover, \
    mesh_from_json, mesh_to_json

# The solver modules (and SciPy with them) are imported inside the
# subcommands that run them, so `mesh`, `cover` and `export` start without
# SciPy.


def _read_mesh(path):
    with open(path) as handle:
        text = handle.read()
    try:
        return mesh_from_json(text)
    except (MeshError, json.JSONDecodeError) as exc:
        # a refused file: its own JSON fault first, if it has one
        fileio.json_object(path, text, {})
        raise MeshError(f"{path}: {exc}") from exc


def _write_mesh(path, mesh):
    fileio.atomic_write_text(path, mesh_to_json(mesh))


def _parse_divisor(text):
    from .sections import Divisor
    entries = []
    for part in text.split(","):
        try:
            v_s, m_s = part.split(":")
            entries.append((int(v_s), int(m_s)))
        except ValueError:
            raise ValueError(f"--divisor expects integer vertex:mult pairs "
                             f"separated by commas, got {text!r}") from None
    return Divisor(entries)


# ----------------------------------------------------------------------
# Subcommand implementations

def cmd_mesh(args):
    mesh = build_base_surface(refinement=args.refine)
    _write_mesh(args.output, mesh)
    print(f"wrote genus-{mesh.genus} mesh at refinement {args.refine}: "
          f"{mesh.num_vertices} vertices -> {args.output}")
    return 0


def cmd_cover(args):
    base = _read_mesh(args.mesh)
    spec = CoverSpec.cyclic(args.n)
    cover = build_cover(base, spec)
    _write_mesh(args.output, cover)
    print(f"wrote degree-{args.n} cyclic cover: genus {cover.genus}, "
          f"{cover.num_vertices} vertices -> {args.output}")
    return 0


def cmd_section(args):
    from .sections import SectionDensity, balanced_lift, synth_density
    mesh = _read_mesh(args.mesh)
    if args.zero:
        density = SectionDensity.zero(mesh)
    elif args.balanced:
        if not (args.base_mesh and args.base_density
                and args.zero_vertex is not None):
            raise ValueError("--balanced needs --base-mesh, --base-density "
                             "and --zero-vertex")
        base_mesh = _read_mesh(args.base_mesh)
        base = fileio.read_density(args.base_density, base_mesh)
        density, report = balanced_lift(base, mesh, args.zero_vertex)
        print(f"balance ratio sup/mean = {report.ratio:.6g}")
    elif args.divisor:
        density = synth_density(mesh, _parse_divisor(args.divisor))
    else:
        raise ValueError("need one of --divisor, --balanced, --zero")
    fileio.write_density(args.output, density)
    print(f"wrote degree-{density.degree} density -> {args.output}.csv/.json")
    return 0


def cmd_solve_gauss(args):
    from .gauss import GaussProblem, solve_gauss
    mesh = _read_mesh(args.mesh)
    if args.data is not None:
        _, f = fileio.read_field_csv(args.data, size=mesh.num_vertices)
    elif args.constant is not None:
        f = np.full(mesh.num_vertices, args.constant)
    else:
        raise ValueError("need --data or --constant")
    problem = GaussProblem(mesh=mesh, f=f, eta=args.eta)
    solution = solve_gauss(problem)
    fileio.write_field_csv(args.output + "_u.csv", "u", solution.u)
    fileio.write_json(args.output + "_gauss.json",
                      solution.to_dict(problem))
    print(f"gauss solve: residual {solution.residual_norm:.3e} in "
          f"{solution.iterations} iterations -> {args.output}_u.csv")
    return 0


def cmd_solve_ricci(args):
    from .operators import curvature_constant
    from .ricci import RicciProblem, maximize_J
    mesh = _read_mesh(args.mesh)
    density = fileio.read_density(args.density, mesh)
    if args.u is not None:
        _, u = fileio.read_field_csv(args.u, size=mesh.num_vertices)
    else:
        u = np.zeros(mesh.num_vertices)
    c = curvature_constant(mesh, args.degree, args.scale)
    problem = RicciProblem(mesh=mesh, u=u, density=density, c=c)
    solution = maximize_J(problem)
    fileio.write_field_csv(args.output + "_v.csv", "v", solution.v)
    fileio.write_field_csv(args.output + "_w.csv", "w", solution.w)
    fileio.write_json(args.output + "_ricci.json",
                      solution.to_dict(problem))
    print(f"ricci solve: grad norm {solution.grad_norm:.3e}, "
          f"J = {solution.J_value:.6f} -> {args.output}_v.csv")
    return 0


def cmd_solve_coupled(args):
    from .coupled import CoupledConfig, solve_coupled
    mesh = _read_mesh(args.mesh)
    density = fileio.read_density(args.density, mesh)
    config = CoupledConfig(eta=args.eta, degree=args.degree, t=args.scale)
    result = solve_coupled(mesh, density, config)
    os.makedirs(args.output, exist_ok=True)
    out = lambda name: os.path.join(args.output, name)

    fileio.write_json(out("manifest.json"),
                      fileio.run_manifest(args.mesh, args.density))
    fileio.write_field_csv(out("u.csv"), "u", result.u)
    fileio.write_field_csv(out("v.csv"), "v", result.v)
    fileio.write_json(out("certificate.json"),
                      result.certificate.to_dict())
    cert = result.certificate
    print(f"coupled solve: converged={cert.converged} in "
          f"{cert.outer_iters} Newton steps, sup_af = {cert.sup_af:.6g}"
          f" (t = {cert.t:.6g}) -> {args.output}/")
    return 0


# The largest curvature-identity residual `verify` accepts.
DENSITY_TOL = 1e-8


def _fail(message):
    print(f"verify: FAIL: {message}", file=sys.stderr)
    return 1


def _read_manifest(run, fields):
    """(path, object) of run/manifest.json; any fault is a TodaError."""
    path = os.path.join(run, "manifest.json")
    try:
        return path, fileio.read_json_object(path, fields)[1]
    except OSError as exc:
        raise TodaError(f"{exc.filename}: {exc.strerror}") from None


def cmd_verify(args):
    """Checks the mesh, the density and the run, each in one place; with
    --run, the manifest names the inputs no flag names, hashed first."""
    from .coupled import certify
    from .operators import spectral_gap
    from .sections import poincare_lelong_residual
    if args.density and not args.mesh:
        raise ValueError("--density needs --mesh")
    mesh_path, density_path = args.mesh, args.density
    if args.run:
        try:
            manifest_path, manifest = _read_manifest(
                args.run, {"mesh": str, "density": str, "hashes": dict})
        except TodaError as exc:
            return _fail(str(exc))
        mesh_path = mesh_path or manifest["mesh"]
        density_path = density_path or manifest["density"]
        for key, path in fileio.run_inputs(mesh_path, density_path):
            try:
                digest = fileio.file_blob_sha1(path)
            except OSError as exc:  # a run input moved or deleted
                return _fail(f"{manifest_path}: {key} file {exc.filename}: "
                             f"{exc.strerror}")
            if digest != manifest["hashes"].get(key):
                return _fail(f"{manifest_path}: {key} file hash changed "
                             "since the run")
    elif not mesh_path:
        raise ValueError("nothing to verify: pass --mesh, --density, --run")

    mesh = _read_mesh(mesh_path)
    mesh.validate()
    report = spectral_gap(mesh)
    if report.lambda0 > 1e-8:
        return _fail(f"lambda0 = {report.lambda0:.3e} is not zero")
    checked = [f"mesh {mesh_path}"]

    if args.run or density_path:  # a run always names its density
        density = fileio.read_density(density_path, mesh)
        if not density.is_zero:
            res = poincare_lelong_residual(density)
            if not (res <= DENSITY_TOL):  # a NaN residual fails too
                return _fail(f"density curvature residual {res:.3e} "
                             f"exceeds {DENSITY_TOL:.1e}")
        checked.append(f"density {density_path}")

    if args.run:
        cert_path = os.path.join(args.run, "certificate.json")
        try:
            V = mesh.num_vertices
            _, u = fileio.read_field_csv(os.path.join(args.run, "u.csv"), "u", V)
            _, v = fileio.read_field_csv(os.path.join(args.run, "v.csv"), "v", V)
            stored_bytes, stored = fileio.read_json_object(cert_path, {
                "eta": (int, float), "degree": int, "t": (int, float),
                "outer_iters": int, "converged": bool})
            # Absurd stored fields overflow exp to inf, which fails the
            # byte comparison below.
            with np.errstate(over="ignore", invalid="ignore"):
                recomputed = certify(
                    mesh, u, v, density, eta=stored["eta"],
                    degree=stored["degree"], t=stored["t"],
                    outer_iters=stored["outer_iters"],
                    converged=stored["converged"])
        except TodaError as exc:
            return _fail(str(exc))
        except OSError as exc:  # a missing or unreadable run file
            return _fail(f"{exc.filename}: {exc.strerror}")
        except (ValueError, OverflowError) as exc:
            # an eta outside (0, 1], or a t or degree beyond the float range
            return _fail(f"{cert_path}: {exc}")
        recomputed_bytes = fileio.dump_json(recomputed.to_dict())
        if recomputed_bytes != stored_bytes:
            return _fail("recomputed certificate differs from the stored one")
        tol = 10 * 1e-8
        # written so that a NaN residual fails too
        if not (stored["converged"] and stored["gauss_residual"] <= tol
                and stored["ricci_residual"] <= tol):
            return _fail("the run is not converged: its certificate needs "
                         f"converged true and residuals at most {tol:.0e}")
        checked.append(f"run {args.run}")

    print("verify: OK (" + "; ".join(checked) + ")")
    return 0


def cmd_export(args):
    mesh = _read_mesh(args.mesh)
    V = mesh.num_vertices
    density_path = args.density or _read_manifest(
        args.run, {"density": str})[1]["density"]
    try:
        _, u = fileio.read_field_csv(os.path.join(args.run, "u.csv"), "u", V)
        _, v = fileio.read_field_csv(os.path.join(args.run, "v.csv"), "v", V)
    except OSError as exc:  # a missing or unreadable run file
        raise TodaError(f"{exc.filename}: {exc.strerror}") from None
    density = fileio.read_density(density_path, mesh)
    ld = density.log_density
    with np.errstate(over="ignore", invalid="ignore"):  # vtk_text clamps
        af = np.exp(ld + 2.0 * v - 4.0 * u)
    fileio.write_vtk(args.output, mesh, [
        ("u", u), ("v", v), ("log_alpha2", ld), ("af_integrand", af)])
    print(f"wrote VTK -> {args.output}")
    return 0


def cmd_probe(args):
    from .operators import spectral_gap
    from .ricci import mt_probe
    mesh = _read_mesh(args.mesh)
    report = spectral_gap(mesh)
    mt = mt_probe(mesh, samples=args.samples, seed=args.seed)
    out = {"spectral": report.to_dict(), "mt_constant": mt,
           "samples": args.samples, "seed": args.seed}
    if args.output:
        fileio.write_json(args.output, out)
        print(f"wrote probe report -> {args.output}")
    else:
        print(fileio.dump_json(out), end="")
    return 0


# ----------------------------------------------------------------------
# Parser

class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one line, like every other usage
    error (``main`` prints it and exits 2)."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="toda",
        description="Curvature-system laboratory on hyperbolic surface "
                    "meshes: build meshes and covers, synthesize section "
                    "densities, run the scalar/bundle/coupled solvers, and "
                    "verify certificates from files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="build the genus-2 base mesh")
    p.add_argument("--genus2", action="store_true",
                   help="regular-octagon genus-2 base (the only base)")
    p.add_argument("--refine", type=int, default=0,
                   help="number of refinement levels")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("cover", help="build a cyclic cover of a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--n", type=int, required=True, help="cover degree")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("section", help="synthesize a section density")
    p.add_argument("--mesh", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--divisor",
                        help='zeros as "vertex:mult,vertex:mult"')
    source.add_argument("--zero", action="store_true",
                        help="the identically-zero section")
    source.add_argument("--balanced", action="store_true",
                        help="lift a base density and add one fresh zero")
    p.add_argument("--base-mesh", help="base mesh for --balanced")
    p.add_argument("--base-density", help="base density prefix for "
                   "--balanced")
    p.add_argument("--zero-vertex", type=int,
                   help="fresh zero vertex for --balanced")
    p.add_argument("-o", "--output", required=True,
                   help="output prefix (.csv and .json are appended)")
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("solve-gauss", help="solve the scalar curvature "
                       "equation")
    p.add_argument("--mesh", required=True)
    p.add_argument("--data", help="field CSV with the data f")
    p.add_argument("--constant", type=float, help="constant data value")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True, help="output prefix")
    p.set_defaults(func=cmd_solve_gauss)

    p = sub.add_parser("solve-ricci", help="solve the bundle curvature "
                       "equation")
    p.add_argument("--mesh", required=True)
    p.add_argument("--density", required=True, help="density file prefix")
    p.add_argument("--u", help="field CSV with the background u (default 0)")
    p.add_argument("--degree", type=int, default=1,
                   help="normal-bundle degree wired as c = 2 pi d / Vol")
    p.add_argument("--scale", type=float, default=1.0,
                   help="curvature rescaling knob t in (0, 1]")
    p.add_argument("-o", "--output", required=True, help="output prefix")
    p.set_defaults(func=cmd_solve_ricci)

    p = sub.add_parser("solve-coupled", help="solve the coupled system and "
                       "certify it")
    p.add_argument("--mesh", required=True)
    p.add_argument("--density", required=True, help="density file prefix")
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--scale", type=float, default=None,
                   help="curvature rescaling knob t (default: automatic)")
    p.add_argument("-o", "--output", required=True, help="run directory")
    p.set_defaults(func=cmd_solve_coupled)

    p = sub.add_parser("verify", help="re-check invariants from files")
    p.add_argument("--mesh")
    p.add_argument("--density", help="density file prefix")
    p.add_argument("--run", help="run directory with a certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="export run fields to VTK")
    p.add_argument("--mesh", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--density", help="density prefix override")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("probe", help="spectral and functional diagnostics")
    p.add_argument("--mesh", required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the Moser-Trudinger samples")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_probe)

    return parser


def _check_args(args):
    """Usage errors for flag values of the right type but out of range.
    ``--scale`` is checked where c is formed
    (``operators.check_curvature_inputs``)."""
    if getattr(args, "samples", 1) < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")


def main(argv=None):
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        _check_args(args)
        return args.func(args)
    except TodaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, OverflowError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
