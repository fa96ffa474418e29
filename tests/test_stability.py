"""Sparse shift-invert stability checks against their dense oracles."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from helpers import (CountingFactor, reference_gauss_min_eig,
                     reference_stability_check)
from todalab import coupled as C
from todalab import gauss as G
from todalab import operators as ops
from todalab import ricci as R
from todalab import sections as S
from todalab.mesh import CoverSpec, build_base_surface, build_cover

# Degree 4 = 4g - 4 on the genus-2 base, as balanced_lift needs; every
# vertex exists from refinement 1 on.
BASE_DIVISOR = [(0, 1), (1, 1), (5, 1), (9, 1)]


def _meshes():
    for level in (1, 2, 3):
        base = build_base_surface(refinement=level)
        yield f"base-{level}", base, None
        yield f"cover-{level}", build_cover(base, CoverSpec.cyclic(2)), base


MESHES = {name: (mesh, base) for name, mesh, base in _meshes()}


# Each input maker returns (v, f) for the Ricci linearization and (u, g)
# for the Gauss one, u solving the scalar equation with data g.

def _gauss_pair(mesh, g):
    return G.solve_gauss(G.GaussProblem(mesh=mesh, f=g)).u, g


def _coupled(mesh, base):
    if base is None:
        density = S.synth_density(mesh, S.Divisor([(0, 1)]))
    else:
        base_density = S.synth_density(base, S.Divisor(BASE_DIVISOR))
        density, _ = S.balanced_lift(base_density, mesh, z_n=3)
    u, v, _ = C.solve_coupled(mesh, density, C.CoupledConfig(degree=1))
    return (v, np.exp(density.log_density - 2.0 * u),
            u, np.exp(density.log_density + 2.0 * v))


def _constant(mesh, base):
    # weight e^{2v} f = c = 0.3: the spectrum relative to M is
    # {0.6 - lambda_k}
    n = mesh.num_vertices
    return (np.zeros(n), np.full(n, 0.3)) + _gauss_pair(mesh, np.full(n, 0.1))


def _random(mesh, base):
    rng = np.random.default_rng(mesh.num_vertices)
    n = mesh.num_vertices
    return ((0.4 * rng.standard_normal(n), 0.2 * rng.random(n))
            + _gauss_pair(mesh, 0.2 * rng.random(n)))


@pytest.mark.parametrize("make", [_coupled, _constant, _random],
                         ids=["coupled", "constant", "random"])
@pytest.mark.parametrize("name", list(MESHES))
def test_sparse_reports_match_dense(name, make):
    mesh, base = MESHES[name]
    v, f, u, g = make(mesh, base)
    rep = R.stability_check(mesh, v, f)
    ref = reference_stability_check(mesh, v, f)
    assert rep.violating == ref.violating == []
    assert rep.hinv_norm == pytest.approx(ref.hinv_norm, rel=1e-9)
    for key in ("sup_term", "lambda1", "window", "c", "hypothesis_ok",
                "hinv_bound"):
        assert getattr(rep, key) == getattr(ref, key), key

    # The Gauss linearization S + M diag(R'(u)) is minus -S + diag(-m R'),
    # whose eigenvalues all lie at or below -min R', so its smallest
    # eigenvalue is minus the one nearest 1 - min R'.
    slope, m = G._reaction_slope(u, g), ops.mass_vector(mesh)
    min_eig = -ops.eigs_nearest(ops.of(mesh), -m * slope, 1.0 - slope.min(),
                                lambda vals: True)[0]
    assert min_eig == pytest.approx(reference_gauss_min_eig(mesh, u, g),
                                    rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(MESHES))
def test_zero_weight_reports_a_singular_operator(name):
    # v = 0, f = 0: A = -S is singular.  ARPACK returns its zero eigenvalue
    # exactly (level-2 cover) or rounded to below 2e-15 (the other meshes);
    # either way the inverse norm is inf, with no division by 0.
    mesh = MESHES[name][0]
    zero = np.zeros(mesh.num_vertices)
    rep = R.stability_check(mesh, zero, zero)
    assert rep.hinv_norm == np.inf
    assert rep.violating == [] and rep.c == 0.0 and rep.hinv_bound == np.inf


def counting_factors(monkeypatch):
    """Every factor ``operators.factor`` makes from now on, solves counted."""
    made, true_factor = [], ops.factor

    def counting(A, ordered=False):
        made.append(CountingFactor(true_factor(A, ordered)))
        return made[-1]

    monkeypatch.setattr(ops, "factor", counting)
    return made


def test_check_factors_once_and_runs_one_lanczos(monkeypatch):
    # The window and the inverse norm come from one shift at the window's
    # midpoint: one factor of A - mid M, on the S + M factor's ordering and
    # with its fill, and one eigsh run of at most 12 shift-invert solves
    # (ARPACK's default Krylov space of 20 vectors takes 21).
    mesh, base = MESHES["cover-3"]
    v, f, _, _ = _coupled(mesh, base)
    bundle = ops.of(mesh)
    bundle.low_eigenvalues  # lambda_1 is not part of the check
    bundle.kept_ordering  # nor is the mesh's ordering
    calls = {"eigsh": 0}
    true_eigsh = scipy.sparse.linalg.eigsh

    def counting_eigsh(*args, **kwargs):
        calls["eigsh"] += 1
        return true_eigsh(*args, **kwargs)

    made = counting_factors(monkeypatch)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
    rep = R.stability_check(mesh, v, f)
    assert len(made) == 1 and calls == {"eigsh": 1}
    screened = bundle.screened_lu
    lu = made[0].lu
    assert lu.L.nnz + lu.U.nnz == screened.L.nnz + screened.U.nnz
    assert made[0].solves <= 12
    assert rep.window_empty and rep.hypothesis_ok


def test_k_grows_until_the_eigenvalue_nearest_zero_is_returned(monkeypatch):
    # Constant weight 0.3 with one vertex raised to 0.4: the window stays
    # empty, its midpoint lies nearest the eigenvalue just above 2c, but the
    # eigenvalue nearest 0 is the one just below -lambda_1 + 2 sup e^{2v} f.
    # k = 1 settles the window; only the inverse norm needs k = 2.  Krylov
    # spaces sized to k take at most 30 solves for both runs (42 with
    # ARPACK's default 20 vectors at k = 1 and 2).
    mesh = MESHES["cover-2"][0]
    n = mesh.num_vertices
    v, f = np.zeros(n), np.full(n, 0.3)
    f[0] = 0.4
    ops.of(mesh).kept_ordering  # the mesh's ordering is not part of it
    true_nearest = ops.eigs_nearest
    seen = []

    def spying(bundle, d, sigma, enough):
        def spy(vals):
            seen.append((vals.copy(), enough(vals)))
            return seen[-1][1]
        return true_nearest(bundle, d, sigma, spy)

    monkeypatch.setattr(ops, "eigs_nearest", spying)
    made = counting_factors(monkeypatch)
    rep = R.stability_check(mesh, v, f)
    ref = reference_stability_check(mesh, v, f)
    lo, hi = rep.window
    (first, first_enough), (second, second_enough) = seen
    assert len(first) == 1 and not lo < first[0] < hi and not first_enough
    assert len(second) == 2 and second_enough
    assert abs(second[1]) < abs(first[0])
    assert rep.violating == ref.violating == []
    assert rep.hinv_norm == pytest.approx(ref.hinv_norm, rel=1e-9)
    assert len(made) == 1 and made[0].solves <= 30


def test_nearest_eigenvalues_grow_k_until_enough():
    mesh = MESHES["cover-2"][0]
    m = ops.mass_vector(mesh)
    A = (-ops.stiffness(mesh) + sp.diags(0.5 * m)).tocsr()
    dense = scipy.linalg.eigh(A.toarray(), np.diag(m), eigvals_only=True)
    sigma = -2.0
    expected = dense[np.argsort(np.abs(dense - sigma))]
    seen = []

    def enough(vals):
        seen.append(len(vals))
        return len(vals) >= 5

    vals = ops.eigs_nearest(ops.of(mesh), 0.5 * m, sigma, enough)
    assert seen == [1, 2, 4, 8]
    assert np.abs(vals - expected[:8]).max() < 1e-10


def test_nearest_eigenvalues_go_dense_only_at_full_spectrum():
    # V = 2: k = 1 already reaches V - 1, so the whole spectrum is dense;
    # a predicate that is never satisfied does the same on V = 14.
    for level in (0, 1):
        mesh = build_base_surface(refinement=level)
        m = ops.mass_vector(mesh)
        A = (-ops.stiffness(mesh) + sp.diags(0.5 * m)).tocsr()
        dense = scipy.linalg.eigh(A.toarray(), np.diag(m), eigvals_only=True)
        vals = ops.eigs_nearest(ops.of(mesh), 0.5 * m, 0.3,
                                lambda vals: False)
        assert len(vals) == mesh.num_vertices
        assert np.abs(np.sort(vals) - dense).max() < 1e-10
        assert list(np.argsort(np.abs(vals - 0.3))) == list(range(len(vals)))


def test_level4_cover_check_is_sparse(monkeypatch):
    base = build_base_surface(refinement=4)
    cover = build_cover(base, CoverSpec.cyclic(2))
    V = cover.num_vertices
    assert V == 2044
    rng = np.random.default_rng(0)
    v = 0.1 * rng.standard_normal(V)
    f = np.full(V, 0.1)
    u = np.full(V, -0.05)
    ops.stiffness(cover)  # assembly is not part of the check

    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigen-solve called")

    monkeypatch.setattr(scipy.linalg, "eigh", no_dense)
    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    tracemalloc.start()
    try:
        rep = R.stability_check(cover, v, f)
        slope = G._reaction_slope(u, f)
        ops.eigs_nearest(ops.of(cover), -ops.mass_vector(cover) * slope,
                         1.0 - slope.min(), lambda vals: True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.window_empty and rep.hypothesis_ok
    assert rep.hinv_norm <= 1.1 * rep.hinv_bound
    # one V x V float64 array would be 33 MB
    assert peak < V * V * 8 / 4


def test_violating_eigenvalues_are_all_found(monkeypatch):
    # With lambda_1 overstated, the window (-lambda_1 + 2 sup e^{2v} f, 2c)
    # reaches into the spectrum; the sparse search must then return the
    # same eigenvalues inside it as the dense solve.
    mesh = dataclasses.replace(MESHES["cover-2"][0])
    true_eig_low = ops.eig_low

    def overstated(mesh, k=2, **kwargs):
        vals, vecs = true_eig_low(mesh, k=k, **kwargs)
        return vals + np.array([0.0, 6.0]), vecs

    monkeypatch.setattr(ops, "eig_low", overstated)
    v, f, _, _ = _random(mesh, None)
    rep = R.stability_check(mesh, v, f)
    ref = reference_stability_check(mesh, v, f)
    assert len(ref.violating) >= 3
    assert len(rep.violating) == len(ref.violating)
    assert np.allclose(rep.violating, ref.violating, rtol=1e-9, atol=0)
    assert not rep.window_empty


def test_singular_factor_lists_sigma_and_claims_no_inverse_bound(
        monkeypatch):
    # SuperLU refuses an exactly singular A - sigma M: sigma is then an
    # eigenvalue, listed when it lies inside the window, and the inverse
    # norm is reported as inf.  One vertex of weight 10 empties the window
    # (sigma = 0); constant weight 0.3 leaves it open (sigma = its midpoint).
    mesh = MESHES["cover-1"][0]
    n = mesh.num_vertices
    ops.of(mesh).kept_ordering  # factors S + M before factor is replaced

    def singular(A, ordered=False):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(ops, "factor", singular)
    peaked = np.full(n, 0.3)
    peaked[0] = 10.0
    empty = R.stability_check(mesh, np.zeros(n), peaked)
    lo, hi = empty.window
    assert lo > hi and empty.violating == [] and empty.hinv_norm == np.inf
    open_ = R.stability_check(mesh, np.zeros(n), np.full(n, 0.3))
    lo, hi = open_.window
    assert lo < hi and open_.violating == [0.5 * (lo + hi)]
    assert open_.hinv_norm == np.inf
