"""Scalar curvature-type equation: trapping box, Newton, monotone scheme."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from todalab import fileio
from todalab import gauss as G
from todalab import operators as ops
from todalab import sections as S
from todalab.errors import AdmissibilityError
from todalab.mesh import build_base_surface


@pytest.fixture(scope="module")
def mesh():
    return build_base_surface(refinement=2)


@pytest.fixture(scope="module")
def small_mesh():
    return build_base_surface(refinement=1)


def constant_solution(f):
    return 0.5 * np.log(0.5 * (1.0 + np.sqrt(1.0 - 4.0 * f)))


def test_admissible_bound_values():
    assert G.admissible_bound(1.0) == pytest.approx(0.25, abs=1e-15)
    assert G.admissible_bound(0.5) == pytest.approx(2.0 / 9.0, abs=1e-15)
    for bad in (0.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            G.admissible_bound(bad)


def test_problem_validation(small_mesh):
    n = small_mesh.num_vertices
    with pytest.raises(ValueError):
        G.GaussProblem(mesh=small_mesh, f=np.zeros(n - 1))
    with pytest.raises(AdmissibilityError):
        G.GaussProblem(mesh=small_mesh, f=np.full(n, -0.01))
    with pytest.raises(AdmissibilityError):
        G.GaussProblem(mesh=small_mesh, f=np.full(n, 0.3), eta=1.0)
    with pytest.raises(AdmissibilityError):
        # 0.23 is fine for eta = 1 but over the eta = 0.5 bound 2/9.
        G.GaussProblem(mesh=small_mesh, f=np.full(n, 0.23), eta=0.5)
    prob = G.GaussProblem(mesh=small_mesh, f=np.full(n, 0.1), eta=0.5)
    assert prob.box_lower == pytest.approx(-0.5 * np.log(1.5), abs=1e-15)
    assert G.admissible_bound(prob.eta) - prob.f.max() == pytest.approx(
        2 / 9 - 0.1, abs=1e-15)


@pytest.mark.parametrize("f0", [0.05, 0.125, 0.24])
def test_constant_data_closed_form(mesh, f0):
    prob = G.GaussProblem(mesh=mesh, f=np.full(mesh.num_vertices, f0))
    sol = G.solve_gauss(prob)
    expected = constant_solution(f0)
    assert np.abs(sol.u - expected).max() < 1e-12
    assert sol.residual_norm < 1e-10
    assert sol.iterations == 0  # warm start is exact for constant data
    assert sol.box_margin >= -1e-12


def test_double_root_constant(mesh):
    # f = 1/4 puts the solution exactly on the box floor at eta = 1.
    prob = G.GaussProblem(mesh=mesh, f=np.full(mesh.num_vertices, 0.25),
                          eta=1.0)
    sol = G.solve_gauss(prob)
    assert np.abs(sol.u - (-0.5 * np.log(2.0))).max() < 1e-12
    assert abs(sol.box_margin) < 1e-12


def test_warm_start_in_box(mesh):
    rng = np.random.default_rng(3)
    f = 0.24 * rng.random(mesh.num_vertices)
    prob = G.GaussProblem(mesh=mesh, f=f)
    u0 = G.warm_start(prob)
    assert (u0 <= 0).all()
    assert (u0 >= prob.box_lower - 1e-15).all()


def test_variable_data_solution(mesh):
    dens = S.synth_density(mesh, S.Divisor([(5, 1)]))
    f = 0.2 * dens.density() / dens.sup()
    prob = G.GaussProblem(mesh=mesh, f=f, tol=1e-11)
    sol = G.solve_gauss(prob)
    assert sol.residual_norm < 1e-11
    assert sol.box_margin >= -1e-9
    # Integrating the equation over the closed surface kills the Laplacian,
    # so the reaction term has zero mass-weighted mean at the solution.
    m = ops.mass_vector(mesh)
    reaction = np.exp(2 * sol.u) - 1 + np.exp(-2 * sol.u) * f
    assert abs((m * reaction).sum() / m.sum()) < 1e-9


def test_multi_start_uniqueness(small_mesh):
    rng = np.random.default_rng(0)
    f = 0.2 * rng.random(small_mesh.num_vertices)
    prob = G.GaussProblem(mesh=small_mesh, f=f, tol=1e-12)
    lower = prob.box_lower
    sols = []
    for _ in range(20):
        u0 = rng.uniform(lower, 0.0, small_mesh.num_vertices)
        sols.append(G.solve_gauss(prob, u0=u0).u)
    stack = np.array(sols)
    spread = np.abs(stack - stack[0]).max()
    assert spread < 1e-8


def test_monotone_matches_newton(mesh):
    rng = np.random.default_rng(1)
    f = 0.15 * rng.random(mesh.num_vertices)
    prob = G.GaussProblem(mesh=mesh, f=f, tol=1e-11)
    newton = G.solve_gauss(prob)
    mono = G.monotone_solve_gauss(prob)
    assert np.abs(newton.u - mono.u).max() < 1e-8


def test_monotone_iterates_nonincreasing(mesh):
    # With gauss's shift, no sweep from u = 0 to convergence raises u at
    # any vertex, on data reaching the eta = 1 bound f = 1/4, and the
    # solver stops after as many sweeps.
    rng = np.random.default_rng(2)
    bound = G.admissible_bound(1.0)
    f = bound * rng.random(mesh.num_vertices)
    f[np.argmax(f)] = bound
    prob = G.GaussProblem(mesh=mesh, f=f)
    lam = ops.MONOTONE_SHIFT
    St = ops.stiffness(mesh)
    m = ops.mass_vector(mesh)
    lu = spla.splu((St + sp.diags(lam * m)).tocsc())
    u = np.zeros(mesh.num_vertices)
    for sweeps in range(5000):
        if G.gauss_residual(mesh, u, f) <= prob.tol:
            break
        reaction = np.exp(2 * u) - 1 + np.exp(-2 * u) * f
        u_next = lu.solve(lam * m * u - m * reaction)
        assert (u_next <= u + 1e-12).all(), sweeps
        u = u_next
    else:
        pytest.fail("monotone sweeps did not converge")
    assert sweeps == G.monotone_solve_gauss(prob).iterations


def test_monotone_factor_is_made_once_per_mesh(monkeypatch):
    # Two calls on one mesh factor S + 2M once, through operators.factor,
    # never make the S + M factor, and give the bits of a sweep loop on a
    # freshly factored S + 2M.
    mesh = build_base_surface(refinement=2)
    rng = np.random.default_rng(3)
    f = 0.2 * rng.random(mesh.num_vertices)
    prob = G.GaussProblem(mesh=mesh, f=f)
    bundle = ops.of(mesh)
    factored = []
    true_factor = ops.factor

    def counting_factor(A):
        factored.append(A.shape)
        return true_factor(A)

    with monkeypatch.context() as patch:
        patch.setattr(ops, "factor", counting_factor)
        first = G.monotone_solve_gauss(prob)
        second = G.monotone_solve_gauss(prob)
    assert factored == [(mesh.num_vertices, mesh.num_vertices)]
    assert "screened_lu" not in vars(bundle)

    lam, m = 2.0, bundle.m
    lu = true_factor(bundle.S + sp.diags(lam * m))
    u = np.zeros(mesh.num_vertices)
    for sweeps in range(5000):
        if G.gauss_residual(mesh, u, f) <= prob.tol:
            break
        reaction = np.exp(2 * u) - 1 + np.exp(-2 * u) * f
        u = lu.solve(lam * m * u - m * reaction)
    for sol in (first, second):
        assert sol.iterations == sweeps
        assert np.array_equal(sol.u.view(np.uint64), u.view(np.uint64))


def test_stability_probe(mesh):
    f = np.full(mesh.num_vertices, 0.1)
    prob = G.GaussProblem(mesh=mesh, f=f)
    sol = G.solve_gauss(prob)
    # The linearization S + M diag(R'(u)) is minus -S + diag(-m R'), whose
    # eigenvalues all lie at or below -min R', so its smallest eigenvalue
    # is minus the one nearest 1 - min R'.
    slope, m = G._reaction_slope(sol.u, f), ops.mass_vector(mesh)
    min_eig = -ops.eigs_nearest(ops.of(mesh), -m * slope, 1.0 - slope.min(),
                                lambda vals: True)[0]
    assert min_eig > 0
    # Constant-data linearization floor: R'(u*) = 2 e^{2u} - 2 e^{-2u} f
    # equals 2 sqrt(1 - 4f) at the closed-form solution.
    assert min_eig == pytest.approx(2 * np.sqrt(1 - 4 * 0.1), rel=1e-6)


def test_solution_serialization(small_mesh):
    f = np.full(small_mesh.num_vertices, 0.1)
    prob = G.GaussProblem(mesh=small_mesh, f=f)
    sol = G.solve_gauss(prob)
    text = fileio.field_csv_text("u", sol.u)
    assert text.splitlines()[0] == "vertex_index,u"
    assert len(text.splitlines()) == small_mesh.num_vertices + 1
    d = sol.to_dict(prob)
    assert set(d) == {"residual", "iterations", "eta", "box_margin"}
