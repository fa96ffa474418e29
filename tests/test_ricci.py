"""Normal-bundle curvature equation: variational ascent, Newton, stability."""

import numpy as np
import pytest

from helpers import level_mesh, reference_mt_probe
from todalab import fileio
from todalab import gauss as G
from todalab import operators as ops
from todalab import ricci as R
from todalab import sections as S
from todalab.errors import InfeasibleDegree, NonConvergence, UnboundedDetected
from todalab.mesh import CoverSpec, build_base_surface, build_cover


@pytest.fixture(scope="module")
def mesh():
    return build_base_surface(refinement=2)


@pytest.fixture(scope="module")
def problem(mesh):
    """Variable-data instance: degree-1 density scaled well below 2/9."""
    dens = S.synth_density(mesh, S.Divisor([(5, 1)]))
    scaled = S.SectionDensity(
        mesh=mesh, log_density=dens.log_density + np.log(0.08),
        divisor=dens.divisor, curvature_constant=dens.curvature_constant,
        normalization="scaled")
    f = scaled.density()
    u = G.solve_gauss(G.GaussProblem(mesh=mesh, f=f, tol=1e-12)).u
    return R.RicciProblem(mesh=mesh, u=u, density=scaled)


def constant_density(mesh, amplitude):
    n = mesh.num_vertices
    return S.SectionDensity(
        mesh=mesh, log_density=np.full(n, np.log(amplitude)),
        divisor=S.Divisor([]), curvature_constant=0.0,
        normalization="manual")


def zero_mean_direction(mesh, rng):
    m = ops.mass_vector(mesh)
    d = rng.standard_normal(mesh.num_vertices)
    d -= (m @ d) / m.sum()
    return d / np.abs(d).max()


def test_problem_defaults_and_zero_density(mesh):
    dens = S.synth_density(mesh, S.Divisor([(5, 1)]))
    u = np.zeros(mesh.num_vertices)
    prob = R.RicciProblem(mesh=mesh, u=u, density=dens)
    assert prob.c == dens.curvature_constant
    assert np.array_equal(prob.log_weight(), dens.log_density - 2 * u)

    with pytest.raises(InfeasibleDegree):
        R.RicciProblem(mesh=mesh, u=u, density=S.SectionDensity.zero(mesh),
                       c=0.25)


def test_eval_J_rejects_nonzero_mean(problem):
    w = np.ones(problem.mesh.num_vertices)
    with pytest.raises(ValueError):
        R.eval_J(problem, w)


def test_gradient_matches_central_differences(problem):
    rng = np.random.default_rng(7)
    mesh = problem.mesh
    w = 0.1 * zero_mean_direction(mesh, rng)
    g = R.grad_J(problem, w)
    m = ops.mass_vector(mesh)
    h = 1e-5
    for _ in range(10):
        d = zero_mean_direction(mesh, rng)
        num = (R.eval_J(problem, w + h * d)
               - R.eval_J(problem, w - h * d)) / (2 * h)
        ana = float((m * g) @ d)
        assert num == pytest.approx(ana, rel=1e-6)


def test_constant_data_closed_form(mesh):
    for amp, u0, c in [(1.0, -0.2, 0.3), (2.0, -0.35, 0.5)]:
        dens = constant_density(mesh, amp)
        u = np.full(mesh.num_vertices, u0)
        prob = R.RicciProblem(mesh=mesh, u=u, density=dens, c=c)
        sol = R.maximize_J(prob)
        expected = 0.5 * np.log(c * np.exp(2 * u0) / amp)
        assert np.abs(sol.v - expected).max() < 1e-9
        assert sol.mean_constraint_residual < 1e-10
        assert R.equation_residual(prob, sol.v) < 1e-9
        assert sol.J_value >= R.eval_J(prob, np.zeros(mesh.num_vertices))


def test_variational_solution(problem):
    sol = R.maximize_J(problem)
    assert sol.grad_norm < 1e-9
    assert sol.mean_constraint_residual < 1e-10
    assert R.equation_residual(problem, sol.v) < 1e-8
    assert sol.J_value >= R.eval_J(problem,
                                   np.zeros(problem.mesh.num_vertices))
    d = sol.to_dict(problem)
    assert set(d) == {"J_value", "grad_norm", "mean_residual", "c", "degree"}
    assert d["degree"] == 1


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("sheets", [1, 2], ids=["base", "cover2"])
def test_ascent_refuses_rho_at_8_pi(level, sheets):
    # Degree 2 at t = 1 gives rho = 2 c Vol = 8 pi, where J has no
    # maximizer to approximate; c Vol rounds to either side of 4 pi across
    # these meshes, and both sides are refused before any solve.
    mesh = build_base_surface(refinement=level)
    if sheets > 1:
        mesh = build_cover(mesh, CoverSpec.cyclic(sheets))
    dens = S.synth_density(mesh, S.Divisor([(5, 1)]))
    c = 1.0 * (2.0 * np.pi * 2 / ops.volume(mesh))
    problem = R.RicciProblem(mesh=mesh, u=np.zeros(mesh.num_vertices),
                             density=dens, c=c)
    with pytest.raises(UnboundedDetected, match=r"^rho/8pi = 1 "):
        R.maximize_J(problem)


def test_ascent_solves_at_tiny_scale(problem):
    # At c = 1e-100 .. 1e-300 the Newton matrix (2/(c Vol)) S reaches 1e300,
    # and the maximizer is w = (c Vol / 2) y + O(c^2) with y independent of
    # c: every run converges without a floating-point warning and gives
    # the same y.  Below the float range of 2/(c Vol) the ascent refuses.
    mesh = problem.mesh
    vol = ops.volume(mesh)
    ys = []
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for t in (1e-100, 1e-200, 1e-300):
            tiny = R.RicciProblem(mesh=mesh, u=problem.u,
                                  density=problem.density, c=t * problem.c)
            sol = R.maximize_J(tiny)
            assert sol.grad_norm <= tiny.tol
            ys.append(sol.w * (2.0 / (tiny.c * vol)))
    for y in ys[1:]:
        assert np.abs(y - ys[0]).max() <= 1e-12 * np.abs(ys[0]).max()
    below = R.RicciProblem(mesh=mesh, u=problem.u, density=problem.density,
                           c=2 * np.pi * 1e-310 / vol)
    with pytest.raises(ValueError, match=r"^d t = 1e-310 "):
        R.maximize_J(below)


def test_J_increase_matches_J_and_resolves_tiny_steps(problem):
    # J_increase is J(w_new) - J(w) where J itself resolves the difference,
    # and keeps its sign and size where J's rounding swamps it: along a
    # zero-mean direction d at the maximizer the increase is
    # -(h^2 / 2) d^T (-H) d, negative and quadratic in h.
    rng = np.random.default_rng(4)
    mesh = problem.mesh
    w = 0.3 * zero_mean_direction(mesh, rng)
    d = zero_mean_direction(mesh, rng)
    for h in (1.0, 0.1):
        want = R.eval_J(problem, w + h * d) - R.eval_J(problem, w)
        assert R.J_increase(problem, w, w + h * d) == pytest.approx(
            want, rel=1e-9)
    w_max = R.maximize_J(problem).w
    small = [R.J_increase(problem, w_max, w_max + h * d)
             for h in (1e-6, 1e-7)]
    assert small[0] < 0 and small[1] < 0
    assert small[0] / small[1] == pytest.approx(100.0, rel=1e-2)


def test_newton_seeded_at_variational(problem):
    var = R.maximize_J(problem)
    newt = R.solve_ricci_newton(problem, v_init=var.v)
    assert newt.iterations <= 3
    assert np.abs(newt.v - var.v).max() < 1e-8


def test_newton_far_seed_records_shift(problem, monkeypatch):
    var = R.maximize_J(problem)
    seed = var.v + 0.2
    newt = R.solve_ricci_newton(problem, v_init=seed)
    assert np.abs(newt.v - seed).max() > 0.05
    assert R.equation_residual(problem, newt.v) < problem.tol
    monkeypatch.setattr(ops, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(NonConvergence,
                       match="^ricci newton did not reach tol .* in 1 "
                             "iterations"):
        R.solve_ricci_newton(problem, seed)


def test_stability_window_empty(problem):
    sol = R.maximize_J(problem)
    f_eff = np.exp(problem.log_weight())
    rep = R.stability_check(problem.mesh, sol.v, f_eff)
    assert rep.hypothesis_ok
    assert rep.sup_term < rep.lambda1
    assert rep.window_empty or not rep.violating
    assert not rep.violating
    assert rep.c == pytest.approx(problem.c, abs=1e-9)
    assert rep.hinv_norm <= 1.1 * rep.hinv_bound
    d = rep.to_dict()
    assert {"sup_term", "lambda1", "window", "violating", "c",
            "hypothesis_ok", "hinv_norm", "hinv_bound",
            "window_empty"} <= set(d)


def test_stability_constant_exact(mesh):
    # Constant case: weight e^{2v} f is the constant c, spectrum of
    # -Delta + 2c relative to M is {2c, 2c - lambda_k}: window (2c - l1, 2c)
    # is empty exactly.
    c, u0 = 0.3, -0.2
    dens = constant_density(mesh, 1.0)
    u = np.full(mesh.num_vertices, u0)
    prob = R.RicciProblem(mesh=mesh, u=u, density=dens, c=c)
    sol = R.maximize_J(prob)
    f_eff = np.exp(prob.log_weight())
    rep = R.stability_check(mesh, sol.v, f_eff)
    assert rep.sup_term == pytest.approx(2 * c, rel=1e-9)
    assert rep.window_empty
    assert rep.hinv_norm == pytest.approx(1.0 / (2 * c), rel=1e-6)


def test_stability_check_skips_systole():
    fresh = build_base_surface(refinement=2)
    v = np.zeros(fresh.num_vertices)
    f = np.full(fresh.num_vertices, 0.1)
    rep = R.stability_check(fresh, v, f)
    assert "systole" not in fresh._cache
    assert rep.lambda1 == ops.spectral_gap(fresh).lambda1


def test_mt_probe_properties(mesh):
    val = R.mt_probe(mesh, samples=4, seed=0)
    again = R.mt_probe(mesh, samples=4, seed=0)
    assert val == again
    assert val > 0
    other = R.mt_probe(mesh, samples=4, seed=1)
    assert other > 0


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("sheets", [1, 2], ids=["base", "cover2"])
def test_mt_probe_matches_the_sample_by_sample_probe(level, sheets):
    # Blocks of up to 8 samples draw the same stream and smooth it by one
    # solve each; only that solve's rounding differs.
    mesh = level_mesh(level, sheets)
    for samples in (1, 7, 8, 9, 17):
        for seed in range(5):
            want = reference_mt_probe(mesh, samples, seed)
            got = R.mt_probe(mesh, samples, seed)
            assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_mt_probe_solves_each_block_of_8_at_once(monkeypatch):
    mesh = level_mesh(3, 2)
    bundle = ops.of(mesh)
    screened, shapes = bundle.screened_lu, []

    class Spy:
        def solve(self, b):
            shapes.append(b.shape)
            return screened.solve(b)

    monkeypatch.setattr(bundle, "screened_lu", Spy())
    for samples in (1, 7, 8, 9, 17):
        shapes.clear()
        R.mt_probe(mesh, samples)
        assert len(shapes) == -(-samples // 8)
        assert all(len(shape) == 2 and shape[0] == mesh.num_vertices
                   and 1 <= shape[1] <= 8 for shape in shapes)
        assert sum(shape[1] for shape in shapes) == samples


@pytest.mark.parametrize("samples", [0, -1])
def test_mt_probe_refuses_fewer_than_one_sample(mesh, samples):
    with pytest.raises(ValueError, match="at least 1 sample"):
        R.mt_probe(mesh, samples=samples)


def test_field_csv_text(mesh):
    text = fileio.field_csv_text("v", np.zeros(3))
    lines = text.splitlines()
    assert lines[0] == "vertex_index,v"
    assert lines[1] == "0,0.0"


def test_accepted_newton_steps_build_no_preconditioner(problem, monkeypatch):
    # Once the mesh's kept factors exist, accepted Newton steps of the
    # three solvers factor nothing: each is a MINRES solve preconditioned
    # with one of them.
    bundle = ops.of(problem.mesh)
    bundle.monotone_lu, bundle.laplace_lu
    shapes = []
    true_factor = ops.factor

    def counting(A):
        shapes.append(A.shape)
        return true_factor(A)

    monkeypatch.setattr(ops, "factor", counting)
    sol = R.maximize_J(problem)
    assert sol.grad_norm <= problem.tol
    assert sol.iterations > 0
    newton = R.solve_ricci_newton(problem, v_init=sol.v + 0.1)
    assert newton.iterations > 0
    gauss = G.solve_gauss(G.GaussProblem(
        mesh=problem.mesh, f=problem.density.density(), tol=1e-12))
    assert gauss.iterations > 0
    assert shapes == []


def failing_minres(calls):
    def minres(A, b, **kwargs):
        calls.append(b.shape)
        return np.full_like(b, np.nan), 1
    return minres


def test_failed_krylov_solve_stops_each_newton_solver(problem, monkeypatch):
    # MINRES reporting info != 0 (with a NaN iterate) stops the Gauss, J and
    # Ricci Newton solvers at their first step with a NonConvergence that
    # names them; taking the NaN step would instead stall the line search.
    mesh = problem.mesh
    sol = R.maximize_J(problem)
    solvers = [
        ("gauss newton", lambda: G.solve_gauss(
            G.GaussProblem(mesh=mesh, f=problem.density.density()))),
        ("J maximization", lambda: R.maximize_J(problem)),
        ("ricci newton", lambda: R.solve_ricci_newton(
            problem, v_init=sol.v + 0.1)),
    ]
    for name, solve in solvers:
        calls = []
        monkeypatch.setattr(ops.spla, "minres", failing_minres(calls))
        with pytest.raises(NonConvergence) as info:
            solve()
        assert str(info.value).startswith(f"{name}: MINRES")
        assert "info 1" in str(info.value)
        # the message names the rtol asked of the first step
        assert f"rtol {ops.FIRST_FORCING:g} " in str(info.value)
        assert len(calls) == 1
