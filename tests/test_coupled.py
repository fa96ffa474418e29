"""Coupled Newton solve, certificates, and obstruction behavior."""

import inspect
import time

import numpy as np
import pytest
import scipy.sparse

from helpers import NONABELIAN_SPEC, first_system
from todalab import coupled as C
from todalab import gauss as G
from todalab import operators as ops
from todalab import ricci as R
from todalab import sections as S
from todalab.errors import (AdmissibilityLost, DegreeRangeError,
                            InfeasibleDegree)
from todalab.mesh import CoverSpec, build_base_surface, build_cover


@pytest.fixture(scope="module")
def mesh():
    return build_base_surface(refinement=2)


@pytest.fixture(scope="module")
def cover_setup(mesh):
    base_dens = S.synth_density(
        mesh, S.Divisor([(0, 1), (1, 1), (5, 1), (20, 1)]))
    cover = build_cover(mesh, CoverSpec.cyclic(2))
    dens, _ = S.balanced_lift(base_dens, cover, z_n=3)
    return cover, dens


def constant_flat_density(mesh):
    n = mesh.num_vertices
    return S.SectionDensity(mesh=mesh, log_density=np.zeros(n),
                            divisor=S.Divisor([]), curvature_constant=0.0,
                            normalization="manual")


def test_degree_bound_check():
    assert C.degree_bound_check(0, 2)
    assert C.degree_bound_check(1, 2)
    assert C.degree_bound_check(2, 2)
    assert not C.degree_bound_check(3, 2)
    assert not C.degree_bound_check(-1, 2)
    assert C.degree_bound_check(8, 5)
    assert not C.degree_bound_check(9, 5)


def test_config_validation():
    with pytest.raises(ValueError):
        C.CoupledConfig(eta=1.0)
    with pytest.raises(ValueError):
        C.CoupledConfig(t=1.5)
    # certify records int(degree): degree 1.5 would be solved at
    # c = 2 pi 1.5 t / Vol and certified as degree 1.
    for degree in (1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="degree must be an integer"):
            C.CoupledConfig(degree=degree)
    cfg = C.CoupledConfig()
    assert cfg.eta == 0.5 and cfg.degree == 1 and cfg.t is None
    assert C.CoupledConfig(degree=np.int64(2)).degree == 2


def test_degree_out_of_range_refused(mesh):
    dens = S.synth_density(mesh, S.Divisor([(5, 1)]))
    with pytest.raises(DegreeRangeError):
        C.solve_coupled(mesh, dens, C.CoupledConfig(degree=3))


def test_zero_section_positive_degree_infeasible(mesh):
    with pytest.raises(InfeasibleDegree):
        C.solve_coupled(mesh, S.SectionDensity.zero(mesh),
                        C.CoupledConfig(degree=1))


def test_zero_section_zero_degree_is_trivial(mesh):
    result = C.solve_coupled(mesh, S.SectionDensity.zero(mesh),
                             C.CoupledConfig(degree=0))
    u, v, cert = result
    assert np.abs(u).max() == 0
    assert np.abs(v).max() == 0
    assert cert.sup_af == 0.0
    assert cert.converged
    assert cert.almost_fuchsian
    assert cert.gauss_residual < 1e-12
    assert cert.ricci_residual < 1e-12


def test_admissibility_lost_with_pinned_scale(cover_setup):
    cover, dens = cover_setup
    cfg = C.CoupledConfig(degree=1, t=1.0, eta=0.5)
    with pytest.raises(AdmissibilityLost):
        C.solve_coupled(cover, dens, cfg)


def test_base_run_converges(mesh):
    dens = S.synth_density(mesh, S.Divisor([(5, 1)]))
    result = C.solve_coupled(mesh, dens, C.CoupledConfig(degree=1))
    cert = result.certificate
    assert cert.converged
    assert cert.outer_iters <= 6
    assert cert.sup_af < 0.5
    assert cert.almost_fuchsian
    assert cert.gauss_residual <= 1e-7
    assert cert.ricci_residual <= 1e-7
    assert cert.mean_residual <= 1e-7
    assert cert.admissibility_margin > 0
    assert 0 < cert.t <= 1
    assert cert.gauss_residual <= C.GAUSS_TOL
    assert cert.ricci_residual <= C.RICCI_TOL
    # Box containment of the converged metric factor.
    assert result.u.min() >= -0.5 * np.log(2.0) - 1e-9
    assert result.u.max() <= 1e-9


def test_cover_run_matches_frozen_profile(cover_setup):
    cover, dens = cover_setup
    result = C.solve_coupled(cover, dens, C.CoupledConfig(degree=1))
    cert = result.certificate
    assert cert.converged
    assert cert.genus == 3
    assert cert.degree == 1
    assert cert.sup_af < 0.5
    assert cert.gauss_residual <= 1e-7
    assert cert.ricci_residual <= 1e-7
    # First bundle solve at the chosen t stays below the eta = 1/2 bound.
    assert np.exp(dens.log_density + 2 * result.v).max() \
        <= G.admissible_bound(0.5) + 1e-12


def test_scale_choice_is_the_only_variational_solve(cover_setup, monkeypatch):
    # The scale choice ascends J once, at t = 1, and starts the cut t from
    # that maximizer scaled; the coupled Newton solve that follows never
    # calls the variational ascent, so it runs exactly once.
    cover, dens = cover_setup
    calls = []
    maximize_J = R.maximize_J

    def counting(problem, *args, **kwargs):
        calls.append(problem.u.copy())
        return maximize_J(problem, *args, **kwargs)

    monkeypatch.setattr(R, "maximize_J", counting)
    result = C.solve_coupled(cover, dens, C.CoupledConfig(degree=1))
    cert = result.certificate
    assert cert.converged
    assert cert.ricci_residual <= 1e-9
    assert len(calls) == 1
    # The call comes from the scale choice, which solves at u = 0.
    assert np.abs(calls[0]).max() == 0


def test_rescaled_degree_two_cover_run_certifies(cover_setup):
    # At degree 2 the scale choice starts at t = 1/2, so every trial is
    # the degree-1 trial at the same c and the chosen t is exactly half
    # the degree-1 one.
    cover, dens = cover_setup
    result = C.solve_coupled(cover, dens, C.CoupledConfig(eta=0.5, degree=2))
    cert = result.certificate
    assert cert.converged and cert.almost_fuchsian
    one = C.solve_coupled(cover, dens, C.CoupledConfig(eta=0.5, degree=1))
    assert cert.t == 0.5 * one.certificate.t
    assert cert.gauss_residual < 1e-8 and cert.ricci_residual < 1e-8


def test_newton_system_is_the_symmetric_jacobian(cover_setup, monkeypatch):
    # The coupled residual map is the gradient of one functional, so the
    # matrix of its Newton system is symmetric (x . A y = y . A x on random
    # probes); it is that map's Jacobian, checked against central
    # differences at the solve's starting point.
    cover, dens = cover_setup
    x, system = first_system(
        monkeypatch, "coupled newton",
        lambda: C.solve_coupled(cover, dens, C.CoupledConfig(degree=1)))
    A, _ = system(x)
    rng = np.random.default_rng(0)
    for _ in range(4):
        p, q = rng.standard_normal((2, x.size))
        Ap, Aq = A(p), A(q)
        assert Ap.shape == (2 * cover.num_vertices,)
        assert abs(q @ Ap - p @ Aq) <= 1e-14 * np.abs(q * Ap).sum()
    h = 1e-5
    for _ in range(4):
        d = rng.standard_normal(x.size)
        # The residual map is -b of the system.
        diff = (system(x - h * d)[1] - system(x + h * d)[1]) / (2 * h)
        assert np.linalg.norm(diff - A(d)) <= 1e-6 * np.linalg.norm(A(d))


def test_newton_steps_assemble_no_sparse_matrix(cover_setup, monkeypatch):
    # Every Newton matrix is passed to MINRES as a function, never formed:
    # once a first solve has built the bundle's factors, a second calls
    # neither sp.bmat nor sp.diags, and the solver modules do not import
    # scipy.sparse.
    cover, dens = cover_setup
    C.solve_coupled(cover, dens, C.CoupledConfig(degree=1))
    calls = []
    for name in ("bmat", "diags"):
        true = getattr(scipy.sparse, name)

        def counted(*args, true=true, name=name, **kwargs):
            calls.append(name)
            return true(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse, name, counted)
    C.solve_coupled(cover, dens, C.CoupledConfig(degree=1))
    assert calls == []
    for module in (G, R, C):
        assert "scipy.sparse" not in inspect.getsource(module)


def test_certificate_is_the_tight_tolerance_solution(monkeypatch):
    # At degree 3 the solve stops at both tolerances; 100x tighter ones
    # move sup_af by less than 1e-9 relative.
    dens = readme_cover_density(3)
    config = C.CoupledConfig(degree=3)
    cert = C.solve_coupled(dens.mesh, dens, config).certificate
    monkeypatch.setattr(C, "GAUSS_TOL", C.GAUSS_TOL / 100)
    monkeypatch.setattr(C, "RICCI_TOL", C.RICCI_TOL / 100)
    tight = C.solve_coupled(dens.mesh, dens, config).certificate
    assert tight.gauss_residual <= 1e-12 and tight.ricci_residual <= 1e-11
    assert cert.sup_af == pytest.approx(tight.sup_af, rel=1e-9)


def test_certify_constant_closed_form(mesh):
    u0 = -0.2
    c = 1.0 - np.exp(2 * u0)
    n = mesh.num_vertices
    dens = constant_flat_density(mesh)
    u = np.full(n, u0)
    v = np.full(n, 0.5 * np.log(c * np.exp(2 * u0)))
    t = c * ops.volume(mesh) / (2 * np.pi)
    cert = C.certify(mesh, u, v, dens, eta=1.0, degree=1, t=t)
    assert cert.gauss_residual < 1e-12
    assert cert.ricci_residual < 1e-12
    assert cert.mean_residual < 1e-12
    assert cert.sup_af == pytest.approx(c * np.exp(-2 * u0), rel=1e-12)
    assert cert.almost_fuchsian
    assert cert.genus == 2
    d = cert.to_dict()
    assert d["almost_fuchsian"] is True
    assert len(d) == 14


@pytest.mark.parametrize("degree", [1.5, True])
def test_certify_refuses_a_degree_that_is_not_an_integer(mesh, degree):
    # certify records int(degree): at degree 1.5 it would recompute c at
    # d = 1.5 and record degree 1, a certificate that verify cannot match.
    dens = S.synth_density(mesh, S.Divisor([(5, 1)]))
    n = mesh.num_vertices
    with pytest.raises(ValueError, match="degree must be an integer"):
        C.certify(mesh, np.full(n, -0.1), np.zeros(n), dens, eta=0.5,
                  degree=degree)


def test_certify_detects_perturbation(mesh):
    u0 = -0.2
    c = 1.0 - np.exp(2 * u0)
    n = mesh.num_vertices
    dens = constant_flat_density(mesh)
    u = np.full(n, u0)
    v = np.full(n, 0.5 * np.log(c * np.exp(2 * u0)))
    t = c * ops.volume(mesh) / (2 * np.pi)
    clean = C.certify(mesh, u, v, dens, eta=1.0, degree=1, t=t)
    bad = C.certify(mesh, u + 0.1, v, dens, eta=1.0, degree=1, t=t)
    assert bad.gauss_residual > 1e-3
    assert bad.gauss_residual > 10 * clean.gauss_residual
    assert bad.ricci_residual > 1e-3





README_DIVISOR = [(0, 1), (1, 1), (5, 1), (20, 1)]


def readme_cover_density(level):
    base = build_base_surface(refinement=level)
    base_dens = S.synth_density(base, S.Divisor(README_DIVISOR))
    cover = build_cover(base, CoverSpec.cyclic(2))
    return S.balanced_lift(base_dens, cover, z_n=3)[0]


@pytest.mark.parametrize("make, degree, sup_af, t", [
    (lambda: S.synth_density(build_base_surface(refinement=3),
                             S.Divisor([(5, 1)])), 1, 0.218968697, 0.25450356),
    (lambda: S.synth_density(build_base_surface(refinement=2),
                             S.Divisor([(7, 1)])), 1, 0.220948648, 0.26058307),
    (lambda: readme_cover_density(3), 2, 0.150929091, 0.0677793149),
    (lambda: readme_cover_density(4), 2, 0.147254544, 0.0649453319),
], ids=["l3-base-5", "l2-base-7", "l3-cover-readme", "l4-cover-readme"])
def test_ascent_below_J_rounding_certifies(make, degree, sup_af, t):
    # Near these maximizers a Newton step gains less in J than J's own
    # rounding, which once stalled an ascent that tested J; the ascent
    # tests only the gradient norm, and the certificates keep these values.
    dens = make()
    cert = C.solve_coupled(dens.mesh, dens,
                           C.CoupledConfig(degree=degree)).certificate
    assert cert.converged and cert.almost_fuchsian
    assert cert.gauss_residual < 1e-8 and cert.ricci_residual < 1e-8
    assert cert.sup_af == pytest.approx(sup_af, rel=1e-6)
    assert cert.t == pytest.approx(t, rel=1e-6)


def test_stalled_ascent_stops_early():
    # Level-3 2-cover, fresh zero 16: at degree 1 the J ascent once stalled
    # at a gradient norm of 1.58e-8 > 1e-9 and ran all 10 000 iterations.
    # It certifies at degrees 1 and 2.
    base = build_base_surface(refinement=3)
    base_dens = S.synth_density(
        base, S.Divisor([(0, 1), (1, 1), (5, 1), (20, 1)]))
    cover = build_cover(base, CoverSpec.cyclic(2))
    dens, _ = S.balanced_lift(base_dens, cover, z_n=16)
    start = time.perf_counter()
    for degree in (1, 2):
        cert = C.solve_coupled(cover, dens,
                               C.CoupledConfig(degree=degree)).certificate
        assert cert.converged and cert.almost_fuchsian
    assert time.perf_counter() - start < 10.0


def test_degree_two_certificate_is_the_degree_one_certificate():
    # c = t 2 pi d / Vol: under automatic t the degree-2 scale choice runs
    # the degree-1 trials at half the t, with the same c bit for bit, so
    # the solve is the same: u and v are bit-identical, and of the
    # certificate only degree and t (halved) differ.
    dens = readme_cover_density(3)
    runs = [C.solve_coupled(dens.mesh, dens, C.CoupledConfig(degree=d))
            for d in (1, 2)]
    for field in ("u", "v"):
        first, second = (getattr(run, field) for run in runs)
        assert np.array_equal(first.view(np.uint64), second.view(np.uint64))
    one, two = (run.certificate for run in runs)
    assert two.t == 0.5 * one.t
    assert two.degree == 2 and one.degree == 1
    differ = {key for key, value in two.to_dict().items()
              if one.to_dict()[key] != value}
    assert differ == {"degree", "t"}


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("degree", [1, 2])
def test_chosen_scale_lands_below_the_target(level, degree):
    # The scale choice cuts t once, from the ascent at t0 alone, on the
    # premise that m1(t)/t, m1 = sup e^{2v} rho at the J maximizer, does not
    # grow as t is cut.  A fresh ascent at the chosen t confirms it: m1
    # stays below 0.95 of the target, the test a second trial would make.
    dens = readme_cover_density(level)
    config = C.CoupledConfig(degree=degree)
    t = C.solve_coupled(dens.mesh, dens, config).certificate.t
    assert t < 1.0 / degree
    sol = R.maximize_J(R.RicciProblem(
        mesh=dens.mesh, u=np.zeros(dens.mesh.num_vertices), density=dens,
        c=ops.curvature_constant(dens.mesh, degree, t), tol=C.RICCI_TOL))
    m1 = np.exp(dens.log_density + 2.0 * sol.v).max()
    target = min(0.5, G.admissible_bound(config.eta))
    assert m1 <= 0.95 * target


def test_degree_two_solve_is_insensitive_to_the_forcing_cap(monkeypatch):
    # Every degree-2 trial is subcritical, so a looser cap on the Newton
    # steps' rtol moves the chosen t and sup_af only within tolerance; on
    # this density a trial at rho = 8 pi let the cap move both by half.
    dens = readme_cover_density(3)
    config = C.CoupledConfig(degree=2)
    default = C.solve_coupled(dens.mesh, dens, config).certificate
    monkeypatch.setattr(ops, "FORCING_CAP", 1e-4)
    loose = C.solve_coupled(dens.mesh, dens, config).certificate
    assert loose.t == pytest.approx(default.t, rel=1e-8)
    assert loose.sup_af == pytest.approx(default.sup_af, rel=1e-8)


@pytest.mark.parametrize("level, spec", [
    (3, CoverSpec.cyclic(2)), (2, NONABELIAN_SPEC)],
    ids=["l3-cyclic2", "l2-nonabelian"])
def test_cover_solve_is_the_lifted_base_solve(level, spec):
    # An oracle at the cost of the base: a density lifted to an n-sheeted
    # cover, solved at degree n (so the same c = t 2 pi d / Vol), has the
    # base's degree-1 solution lifted through the covering map.
    base = build_base_surface(refinement=level)
    cover = build_cover(base, spec)
    base_dens = S.synth_density(base, S.Divisor(README_DIVISOR))
    lifted = S.lift_density(base_dens, cover)
    on_base = C.solve_coupled(base, base_dens,
                              C.CoupledConfig(degree=1, t=0.1))
    on_cover = C.solve_coupled(cover, lifted,
                               C.CoupledConfig(degree=spec.degree, t=0.1))
    for field in ("u", "v"):
        lift = getattr(on_base, field)[cover.base_vertex]
        assert np.abs(getattr(on_cover, field) - lift).max() <= 1e-12, field
    one, many = on_base.certificate, on_cover.certificate
    assert many.outer_iters == one.outer_iters
    assert many.sup_af == pytest.approx(one.sup_af, rel=1e-12, abs=0)
