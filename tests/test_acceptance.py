"""Acceptance suite: twelve end-to-end checks with frozen tolerances.

Each test corresponds to one advertised capability of the package and
asserts both the numerical tolerances and a wall-clock budget.  The
closed-form reference values are derived independently of the solvers
(constant-data quadratics, deck-invariant bump data, literature geometry
of the regular-octagon surface).
"""

import json
import time

import numpy as np
import pytest

from helpers import invariant_bump, schwarz_check
from todalab import coupled as C
from todalab import fileio
from todalab import gauss as G
from todalab import operators as ops
from todalab import ricci as R
from todalab import sections as S
from todalab.errors import (AdmissibilityError, DegreeRangeError,
                            InfeasibleDegree)
from todalab.mesh import CoverSpec, build_base_surface, build_cover


class Stopwatch:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def test_geometry_base_and_cover():
    with Stopwatch() as clock:
        mesh = build_base_surface(refinement=3)
        euler = mesh.num_vertices - mesh.num_edges + mesh.num_faces
        assert euler == -2
        assert abs(ops.volume(mesh) - 4 * np.pi) <= 1e-3 * 4 * np.pi

        report = ops.spectral_gap(mesh)
        assert report.lambda0 <= 1e-10

        cover = build_cover(mesh, CoverSpec.cyclic(3))
        assert cover.genus == 4

        base_vals, _ = ops.eig_low(mesh, k=6)
        cover_vals, _ = ops.eig_low(cover, k=20)
        for lam in base_vals:
            assert np.abs(cover_vals - lam).min() <= 1e-6
    assert clock.elapsed <= 30.0


# Low Laplace spectrum of the smooth Bolza surface (Strohmaier & Uski,
# Comm. Math. Phys. 317 (2013)): lambda_1 with multiplicity 3, then a
# cluster of multiplicity 4.
BOLZA_LAMBDA1 = 3.8388872588
BOLZA_LAMBDA_CLUSTER2 = 5.3536


def assert_bolza_pattern(vals):
    """The smooth Bolza surface's low spectrum in vals[level] (the 9 lowest
    eigenvalues at levels 3, 4 and 5)."""
    def equal(a, b):
        return abs(a - b) <= 1e-9 * abs(a)

    for lam in vals.values():
        # lambda_1 .. lambda_3 split 1 + 2, lambda_4 .. lambda_7 split
        # 2 + 2, and the clusters stand apart
        assert equal(lam[2], lam[3]) and not equal(lam[1], lam[2])
        assert equal(lam[4], lam[5]) and equal(lam[6], lam[7])
        assert not equal(lam[5], lam[6])
        assert lam[4] - lam[3] > 1.0 and lam[8] - lam[7] > 1.0

    # lambda_1 converges from above at O(h^2): its error falls by at
    # least 3 per level, and Richardson extrapolation from levels 4
    # and 5 lands near the smooth value
    error = {level: lam[1] - BOLZA_LAMBDA1 for level, lam in vals.items()}
    assert error[5] > 0
    assert error[3] >= 3 * error[4] and error[4] >= 3 * error[5]

    def richardson(i):
        return (4 * vals[5][i] - vals[4][i]) / 3

    assert abs(richardson(1) - BOLZA_LAMBDA1) <= 5e-4
    for i in (4, 6):
        assert abs(richardson(i) - BOLZA_LAMBDA_CLUSTER2) <= 2e-3


def test_spectrum_converges_to_bolza():
    with Stopwatch() as clock:
        vals = {level: ops.eig_low(build_base_surface(level), k=9)[0]
                for level in (3, 4, 5)}
        assert_bolza_pattern(vals)
    assert clock.elapsed <= 30.0


def test_two_cover_carries_the_bolza_spectrum():
    # A base eigenfunction lifts to the cover with the same eigenvalue, so
    # the 2-cover's 16 lowest eigenvalues hold the base's 9 lowest, each
    # with its multiplicity; that copy has the base's Bolza pattern.
    with Stopwatch() as clock:
        copies = {}
        for level in (3, 4, 5):
            base = build_base_surface(level)
            base_vals = ops.eig_low(base, k=9)[0]
            free = list(ops.eig_low(build_cover(base, CoverSpec.cyclic(2)),
                                    k=16)[0])
            copy = []
            for lam in base_vals:
                j = int(np.argmin(np.abs(np.array(free) - lam)))
                assert abs(free[j] - lam) <= 1e-6
                copy.append(free.pop(j))
            copies[level] = copy
        assert_bolza_pattern(copies)
    assert clock.elapsed <= 30.0


def test_sections_synthesis_and_balance():
    with Stopwatch() as clock:
        mesh = build_base_surface(refinement=2)
        deg1 = S.synth_density(mesh, S.Divisor([(5, 1)]))
        assert S.poincare_lelong_residual(deg1) <= 1e-9

        schwarz = schwarz_check(deg1, radius=1.2)
        assert schwarz["ok"]
        assert schwarz["checked"] > 0
        delta = ops.systole(mesh)
        expected_c = (np.cosh(delta / 2) / np.tanh(delta / 2)) ** 2
        assert schwarz["c_delta"] == pytest.approx(expected_c, rel=1e-12)

        base = S.synth_density(mesh, S.Divisor([(0, 1), (1, 1), (5, 1),
                                                (20, 1)]))
        ratios = []
        for n in (2, 3, 4):
            cover = build_cover(mesh, CoverSpec.cyclic(n))
            dens, rep = S.balanced_lift(base, cover, z_n=3)
            assert dens.degree == 4 * n * (mesh.genus - 1) + 1
            ratios.append(rep.ratio)
        assert max(ratios) / min(ratios) < 2.0
    assert clock.elapsed <= 60.0


def test_gauss_constant_uniqueness_and_mean():
    with Stopwatch() as clock:
        mesh = build_base_surface(refinement=2)
        n = mesh.num_vertices

        # Constant-data instances (f, eta, u*): the closed form solves the
        # quadratic x^2 - x + f = 0 in x = e^{2u}.
        cases = [(0.0, 1.0, 0.0),
                 (2.0 / 9.0, 0.5, -0.5 * np.log(1.5)),
                 (0.25, 1.0, -0.5 * np.log(2.0))]
        for f0, eta, u_star in cases:
            prob = G.GaussProblem(mesh=mesh, f=np.full(n, f0), eta=eta,
                                  tol=1e-12)
            sol = G.solve_gauss(prob)
            assert np.abs(sol.u - u_star).max() <= 1e-8

        rng = np.random.default_rng(0)
        f = 0.2 * rng.random(n)
        prob = G.GaussProblem(mesh=mesh, f=f, tol=1e-12)
        sols = [G.solve_gauss(prob, u0=rng.uniform(prob.box_lower, 0.0, n)).u
                for _ in range(20)]
        stack = np.array(sols)
        assert np.abs(stack - stack[0]).max() <= 1e-8

        newton = G.solve_gauss(prob)
        mono = G.monotone_solve_gauss(prob)
        assert np.abs(newton.u - mono.u).max() <= 1e-8

        m = ops.mass_vector(mesh)
        reaction = (np.exp(2 * newton.u) - 1
                    + np.exp(-2 * newton.u) * f)
        assert abs((m * reaction).sum() / m.sum()) <= 1e-9
    assert clock.elapsed <= 60.0


def _variable_ricci_problem(mesh):
    dens = S.synth_density(mesh, S.Divisor([(5, 1)]))
    scaled = S.SectionDensity(
        mesh=mesh, log_density=dens.log_density + np.log(0.08),
        divisor=dens.divisor, curvature_constant=dens.curvature_constant,
        normalization="scaled")
    f = scaled.density()
    u = G.solve_gauss(G.GaussProblem(mesh=mesh, f=f, tol=1e-12)).u
    return R.RicciProblem(mesh=mesh, u=u, density=scaled)


def test_ricci_gradient_closed_form_and_newton():
    with Stopwatch() as clock:
        mesh = build_base_surface(refinement=2)
        n = mesh.num_vertices
        m = ops.mass_vector(mesh)
        problem = _variable_ricci_problem(mesh)

        rng = np.random.default_rng(7)
        w = rng.standard_normal(n)
        w -= (m @ w) / m.sum()
        w *= 0.1 / np.abs(w).max()
        g = R.grad_J(problem, w)
        h = 1e-5
        for _ in range(10):
            d = rng.standard_normal(n)
            d -= (m @ d) / m.sum()
            d /= np.abs(d).max()
            num = (R.eval_J(problem, w + h * d)
                   - R.eval_J(problem, w - h * d)) / (2 * h)
            assert num == pytest.approx(float((m * g) @ d), rel=1e-6)

        # Constant data: v = (1/2) ln(c e^{2 u0} / A).
        amp, u0, c = 2.0, -0.35, 0.5
        dens = S.SectionDensity(
            mesh=mesh, log_density=np.full(n, np.log(amp)),
            divisor=S.Divisor([]), curvature_constant=0.0,
            normalization="manual")
        prob_const = R.RicciProblem(mesh=mesh,
                                    u=np.full(n, u0), density=dens, c=c)
        sol_const = R.maximize_J(prob_const)
        v_star = 0.5 * np.log(c * np.exp(2 * u0) / amp)
        assert np.abs(sol_const.v - v_star).max() <= 1e-9
        assert sol_const.mean_constraint_residual <= 1e-9
        assert sol_const.J_value >= R.eval_J(prob_const, np.zeros(n))

        var = R.maximize_J(problem)
        assert var.mean_constraint_residual <= 1e-9
        assert var.J_value >= R.eval_J(problem, np.zeros(n))
        newt = R.solve_ricci_newton(problem, v_init=var.v)
        assert newt.iterations <= 3
        assert np.abs(newt.v - var.v).max() <= 1e-8
    assert clock.elapsed <= 120.0


def test_stability_window_and_inverse_bound():
    with Stopwatch() as clock:
        mesh = build_base_surface(refinement=2)
        n = mesh.num_vertices
        instances = []

        problem = _variable_ricci_problem(mesh)
        instances.append((problem, R.maximize_J(problem)))

        for amp, u0, c in [(1.0, -0.2, 0.3), (2.0, -0.35, 0.5)]:
            dens = S.SectionDensity(
                mesh=mesh, log_density=np.full(n, np.log(amp)),
                divisor=S.Divisor([]), curvature_constant=0.0,
                normalization="manual")
            prob = R.RicciProblem(mesh=mesh, u=np.full(n, u0),
                                  density=dens, c=c)
            instances.append((prob, R.maximize_J(prob)))

        for prob, sol in instances:
            assert R.equation_residual(prob, sol.v) <= 1e-8
            f_eff = np.exp(prob.log_weight())
            rep = R.stability_check(prob.mesh, sol.v, f_eff)
            assert rep.hypothesis_ok  # 2 sup e^{2v} f below the gap
            assert not rep.violating  # nothing inside the forbidden window
            assert rep.hinv_norm <= 1.1 * rep.hinv_bound
    assert clock.elapsed <= 60.0


def test_coupled_driver_and_certificate_round_trip(tmp_path):
    with Stopwatch() as clock:
        base = build_base_surface(refinement=2)
        base_dens = S.synth_density(
            base, S.Divisor([(0, 1), (1, 1), (5, 1), (20, 1)]))
        cover = build_cover(base, CoverSpec.cyclic(2))
        dens, _ = S.balanced_lift(base_dens, cover, z_n=3)
        assert dens.degree == 4 * 2 * (base.genus - 1) + 1

        config = C.CoupledConfig(eta=0.5, degree=1)
        result = C.solve_coupled(cover, dens, config)
        cert = result.certificate

        assert cert.converged
        assert cert.outer_iters <= 6
        assert cert.gauss_residual <= C.GAUSS_TOL
        assert cert.ricci_residual <= C.RICCI_TOL
        assert cert.sup_af < 0.5
        assert cert.gauss_residual <= 1e-7
        assert cert.ricci_residual <= 1e-7
        # The automatic rescaling keeps the bundle data admissible:
        # sup e^{2v} |alpha|^2 stays at or below eta/(1+eta)^2 = 2/9.
        f = np.exp(dens.log_density + 2 * result.v)
        assert f.max() <= 2.0 / 9.0 + 1e-12
        assert cert.admissibility_margin > 0

        # Serialize, reload, recompute: the certificate must reproduce
        # bit-for-bit from the files alone.
        from todalab.mesh import mesh_from_json, mesh_to_json
        mesh_path = tmp_path / "cover.json"
        mesh_path.write_text(mesh_to_json(cover))
        fileio.write_density(str(tmp_path / "dens"), dens)
        fileio.write_field_csv(str(tmp_path / "u.csv"), "u", result.u)
        fileio.write_field_csv(str(tmp_path / "v.csv"), "v", result.v)
        cert_bytes = fileio.dump_json(cert.to_dict())
        (tmp_path / "certificate.json").write_text(cert_bytes)

        mesh2 = mesh_from_json(mesh_path.read_text())
        dens2 = fileio.read_density(str(tmp_path / "dens"), mesh2)
        _, u2 = fileio.read_field_csv(str(tmp_path / "u.csv"), "u")
        _, v2 = fileio.read_field_csv(str(tmp_path / "v.csv"), "v")
        stored = json.loads((tmp_path / "certificate.json").read_text())
        cert2 = C.certify(mesh2, u2, v2, dens2, eta=stored["eta"],
                          degree=stored["degree"], t=stored["t"],
                          outer_iters=stored["outer_iters"],
                          converged=stored["converged"])
        assert fileio.dump_json(cert2.to_dict()) == cert_bytes
    assert clock.elapsed <= 600.0


# sup_af of the README run (2-cover, divisor 0:1,1:1,5:1,20:1 on the base,
# fresh zero 3, degree 1) at refinement levels 2-5.
README_SUP_AF = {2: 0.16427953367, 3: 0.15092909128, 4: 0.14725454422,
                 5: 0.14594524039}


def test_coupled_limit_on_the_readme_cover():
    with Stopwatch() as clock:
        sup_af = {}
        for level in README_SUP_AF:
            base = build_base_surface(refinement=level)
            base_dens = S.synth_density(
                base, S.Divisor([(0, 1), (1, 1), (5, 1), (20, 1)]))
            cover = build_cover(base, CoverSpec.cyclic(2))
            dens, _ = S.balanced_lift(base_dens, cover, z_n=3)
            cert = C.solve_coupled(cover, dens,
                                   C.CoupledConfig(degree=1)).certificate
            assert cert.converged
            sup_af[level] = cert.sup_af
        # The whole pipeline converges to a limit under refinement: each
        # difference of successive levels is at most half the one before
        # (measured 3.6 and 2.8).
        diff = [sup_af[level] - sup_af[level + 1] for level in (2, 3, 4)]
        assert all(d > 0 for d in diff)
        assert diff[0] >= 2 * diff[1] and diff[1] >= 2 * diff[2]
        for level, want in README_SUP_AF.items():
            assert sup_af[level] == pytest.approx(want, rel=1e-8)
    assert clock.elapsed <= 30.0


# The covers of the level-3 base sampled by test_scale_choice_certifies_
# a_sample_of_covers, each with its normal-bundle degrees: cyclic covers of
# genus 2-13 and a non-abelian 3-sheet cover (transpositions that do not
# all commute, yet kill the relator).
SAMPLED_COVERS = {
    "cyclic-1": (CoverSpec.cyclic(1), (1,)),
    "cyclic-2": (CoverSpec.cyclic(2), (1, 2)),
    "cyclic-3": (CoverSpec.cyclic(3), (1,)),
    "cyclic-6": (CoverSpec.cyclic(6), (1,)),
    "cyclic-12": (CoverSpec.cyclic(12), (1,)),
    "nonabelian-3": (CoverSpec(degree=3, generator_images={
        1: [0, 2, 1], 2: [0, 2, 1], 3: [1, 0, 2], 4: [1, 0, 2]}), (1, 2, 3)),
}
# Every (SAMPLE_STRIDE n)-th fresh zero of an n-sheeted cover, 5 per cover:
# the README base divisor takes 4 of the 254 base vertices, leaving 250 n
# fresh zeros on the cover.
SAMPLE_STRIDE = 50


def test_scale_choice_certifies_a_sample_of_covers():
    # The automatic scale choice (first trial rho = 4 pi, J ascended by
    # Newton with J's own increase as the line-search test) certifies
    # every sampled run, on genus 2 to 13 and at degrees up to 2g - 2 of
    # the genus-4 covers.  Ascending by the gradient norm instead left 48
    # of every 25th fresh zero of the 12-cover uncertified.
    with Stopwatch() as clock:
        base = build_base_surface(refinement=3)
        base_dens = S.synth_density(
            base, S.Divisor([(0, 1), (1, 1), (5, 1), (20, 1)]))
        runs = 0
        for name, (spec, degrees) in SAMPLED_COVERS.items():
            cover = build_cover(base, spec)
            taken = {v for v, _ in S.lift_density(base_dens, cover)
                     .divisor.entries}
            zeros = [z for z in range(cover.num_vertices) if z not in taken]
            sample = zeros[::SAMPLE_STRIDE * spec.degree]
            assert len(sample) == 5
            for zero in sample:
                dens, _ = S.balanced_lift(base_dens, cover, zero)
                for degree in degrees:
                    cert = C.solve_coupled(
                        cover, dens, C.CoupledConfig(degree=degree)
                    ).certificate
                    assert cert.converged, (name, zero, degree)
                    assert cert.gauss_residual <= C.GAUSS_TOL
                    assert cert.ricci_residual <= C.RICCI_TOL
                    assert cert.almost_fuchsian, (name, zero, degree)
                    runs += 1
        assert runs == 45
    assert clock.elapsed <= 30.0


def test_obstructions_raise_specific_errors():
    mesh = build_base_surface(refinement=1)
    n = mesh.num_vertices

    # Vanishing section with positive degree: the integrated bundle
    # curvature equation has no solution.
    with pytest.raises(InfeasibleDegree):
        C.solve_coupled(mesh, S.SectionDensity.zero(mesh),
                        C.CoupledConfig(degree=1))
    with pytest.raises(InfeasibleDegree):
        R.RicciProblem(mesh=mesh, u=np.zeros(n),
                       density=S.SectionDensity.zero(mesh), c=0.25)

    # Data above eta/(1+eta)^2 leaves the trapping box.
    with pytest.raises(AdmissibilityError):
        G.GaussProblem(mesh=mesh, f=np.full(n, 0.26), eta=1.0)

    # Degree beyond 2g - 2 is refused.
    with pytest.raises(DegreeRangeError):
        C.solve_coupled(mesh,
                        S.synth_density(mesh, S.Divisor([(5, 1)])),
                        C.CoupledConfig(degree=3))


def test_refinement_convergence_order():
    with Stopwatch() as clock:
        solutions = {}
        for level in (2, 3, 4):
            mesh = build_base_surface(refinement=level)
            f = 0.15 + invariant_bump(mesh, radius=1.0, amplitude=0.05)
            assert f.max() <= 2.0 / 9.0 + 1e-12
            prob = G.GaussProblem(mesh=mesh, f=f, eta=0.5, tol=1e-12)
            solutions[level] = G.solve_gauss(prob).u

        # Refinement keeps earlier vertices (ids and positions), so the
        # coarse-level entries are directly comparable.
        n2 = len(solutions[2])
        e23 = np.abs(solutions[2] - solutions[3][:n2]).max()
        e34 = np.abs(solutions[3][:n2] - solutions[4][:n2]).max()
        order = np.log2(e23 / e34)
        assert order >= 1.5
    assert clock.elapsed <= 300.0
