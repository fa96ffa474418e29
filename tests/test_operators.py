"""Laplacian assembly, spectra, and shortest noncontractible loops."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helpers import (NONABELIAN_SPEC, CountingFactor, first_system,
                     graph_distances, identity_meshes, level_mesh,
                     reference_dijkstra, reference_newton_solve,
                     reference_newton_step, reference_operators,
                     reference_systole)
from todalab import coupled, gauss, group, ricci
from todalab import sections as S
from todalab import hyperbolic as H
from todalab import operators as ops
from todalab.errors import NonConvergence
from todalab.mesh import CoverSpec, build_base_surface, build_cover
from todalab.sections import SectionDensity

# First nonzero Laplace eigenvalue of the underlying smooth surface,
# computed independently by spectral methods in the literature; the
# discrete values converge to it from above as the mesh refines.
SMOOTH_LAMBDA1 = 3.838887258


@pytest.fixture(scope="module")
def mesh2():
    return build_base_surface(refinement=2)


@pytest.fixture(scope="module")
def mesh3():
    return build_base_surface(refinement=3)


def same_bits(got, want):
    """Equal dtypes, shapes and bits."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("name", list(identity_meshes()))
def test_bundle_matches_reference_assembly_bit_for_bit(name):
    mesh = identity_meshes()[name]
    angles, S, m, vol = reference_operators(mesh)
    got = np.stack(H.triangle_angles(*mesh.slot_lengths().T), axis=1)
    assert same_bits(got, angles)
    bundle = ops.Operators(mesh)
    for key in ("data", "indices", "indptr"):
        assert same_bits(getattr(bundle.S, key), getattr(S, key)), key
    assert same_bits(bundle.m, m)
    assert same_bits(bundle.vol, vol)
    # each kept factor's matrix S + s M, filled on S's pattern, is SciPy's
    # sum of the reference S and s diag(m) bit for bit
    for shift in KEPT_SHIFTS.values():
        assert same_csr(bundle.shifted(1.0, shift * bundle.m),
                        S + shift * sp.diags(m).tocsr()), shift


def test_laplacian_structure(mesh2):
    L, M = ops.laplacian(mesh2)
    V = mesh2.num_vertices
    ones = np.ones(V)
    # Constants are harmonic and the operator is symmetric.
    assert np.abs(L @ ones).max() < 1e-12
    assert np.abs((L - L.T).toarray()).max() < 1e-13
    # Mass is the lumped triangle-area measure.
    m = ops.mass_vector(mesh2)
    assert np.allclose(M.diagonal(), m)
    assert m.sum() == pytest.approx(4 * np.pi, abs=1e-10)
    assert (m > 0).all()


def test_stiffness_positive_semidefinite(mesh2):
    S = ops.stiffness(mesh2).toarray()
    eigs = sla.eigvalsh(S)
    assert eigs[0] > -1e-10
    assert eigs[1] > 1e-6  # only constants are in the kernel


def test_mass_level0_closed_forms():
    m0 = build_base_surface(refinement=0)
    mass = ops.mass_vector(m0)
    # Center sits in 8 triangles of area pi/2; the corner vertex holds the
    # two remaining corners of each.
    assert mass[0] == pytest.approx(8 * (np.pi / 2) / 3, abs=1e-12)
    assert mass[1] == pytest.approx(16 * (np.pi / 2) / 3, abs=1e-12)


def test_spectral_gap_report(mesh2):
    rep = ops.spectral_gap(mesh2)
    assert abs(rep.lambda0) <= 1e-10
    assert rep.lambda1 > 0
    assert rep.volume == pytest.approx(4 * np.pi, rel=1e-10)
    assert rep.systole == pytest.approx(3.0571418389619964, abs=1e-12)
    d = rep.to_dict()
    assert set(d) == {"lambda0", "lambda1", "systole", "volume", "tol"}


def test_lambda1_converges_to_smooth_value(mesh3):
    rep = ops.spectral_gap(mesh3)
    # Discrete convergence from above: level 3 is within 0.08.
    assert rep.lambda1 > SMOOTH_LAMBDA1 - 1e-6
    assert rep.lambda1 == pytest.approx(SMOOTH_LAMBDA1, abs=0.08)


def test_constant_eigenvector(mesh2):
    vals, vecs = ops.eig_low(mesh2, k=2)
    v0 = vecs[:, 0]
    assert np.abs(v0 - v0.mean()).max() < 1e-8 * max(1.0, abs(v0.mean()))


# The level-2 covers lie below eig_low's dense cutoff and have repeated
# eigenvalues: ARPACK from its fixed start vector returns one copy too few
# there (up to 0.66 off at k = 8 on the 2-cover, 1.0 at k = 5 on the
# 3-cover), so these cases pin the dense path for small meshes.
@pytest.mark.parametrize("level, sheets, k, V",
                         [(3, 2, 4, 508), (2, 2, 8, 124), (2, 3, 5, 186)],
                         ids=["l3c2-k4", "l2c2-k8", "l2c3-k5"])
def test_sparse_matches_dense_on_cover(level, sheets, k, V):
    cover = build_cover(build_base_surface(refinement=level),
                        CoverSpec.cyclic(sheets))
    assert cover.num_vertices == V
    vals_sparse, _ = ops.eig_low(cover, k=k)
    S = ops.stiffness(cover).toarray()
    m = ops.mass_vector(cover)
    vals_dense = sla.eigh(S, np.diag(m), eigvals_only=True,
                          subset_by_index=[0, k - 1])
    assert np.abs(vals_sparse - vals_dense).max() < 1e-8


def _no_convergence(*args, **kwargs):
    raise ops.spla.ArpackNoConvergence("No convergence", [], [])


def _no_dense(*args, **kwargs):
    raise AssertionError("dense eigen-solve called")


def test_eig_low_falls_back_only_on_runtime_errors(mesh3, monkeypatch):
    # ARPACK's failure (a RuntimeError) is the one error eig_low handles:
    # it becomes NonConvergence naming sigma, k and V, with no dense
    # re-solve; any other error from eigsh propagates as it is.
    cover = build_cover(mesh3, CoverSpec.cyclic(2))
    assert cover.num_vertices == 508 > 300  # above the dense cutoff

    monkeypatch.setattr(ops.spla, "eigsh", _no_convergence)
    monkeypatch.setattr(sla, "eigh", _no_dense)
    with pytest.raises(NonConvergence, match=r"sigma = -1 \(k = 2, V = 508\)"
                       r" failed: ARPACK error -1: No convergence"):
        ops.eig_low(cover, k=2)

    def bad_argument(*args, **kwargs):
        raise ValueError("bad eigsh argument")

    monkeypatch.setattr(ops.spla, "eigsh", bad_argument)
    with pytest.raises(ValueError, match="bad eigsh argument"):
        ops.eig_low(cover, k=2)


def test_eig_low_raises_above_dense_fallback_bound(monkeypatch):
    # The size bound on a dense re-solve is gone: on the level-4 2-cover,
    # as on every mesh above the dense cutoff, an ARPACK failure raises.
    cover = build_cover(build_base_surface(refinement=4), CoverSpec.cyclic(2))
    assert cover.num_vertices == 2044 > 300

    monkeypatch.setattr(ops.spla, "eigsh", _no_convergence)
    monkeypatch.setattr(sla, "eigh", _no_dense)
    with pytest.raises(NonConvergence, match=r"sigma = -1 \(k = 2, V = 2044\)"
                       r" failed: ARPACK error -1: No convergence"):
        ops.eig_low(cover, k=2)


def test_cover_spectrum_contains_base(mesh2):
    cover = build_cover(mesh2, CoverSpec.cyclic(3))
    base_vals, _ = ops.eig_low(mesh2, k=2)
    cover_vals, _ = ops.eig_low(cover, k=10)
    for bv in base_vals:
        assert np.abs(cover_vals - bv).min() < 1e-6


def test_eig_low_vectors_are_m_orthonormal_eigenvectors(mesh3):
    # The standard-form Lanczos returns x = M^{-1/2} y for orthonormal y:
    # X^T M X = I, and each x solves S x = lambda M x.
    cover = build_cover(mesh3, CoverSpec.cyclic(2))
    assert cover.num_vertices == 508 > ops.DENSE_MAX_V  # the sparse path
    vals, X = ops.eig_low(cover, k=6)
    S, m = ops.stiffness(cover), ops.mass_vector(cover)
    assert np.all(np.diff(vals) >= 0)
    assert np.abs(X.T @ (m[:, None] * X) - np.eye(6)).max() < 1e-10
    SX = S @ X
    assert (np.linalg.norm(SX - m[:, None] * X * vals)
            <= 1e-8 * np.linalg.norm(SX))


# eig_low's lists at k = 3-20 above the dense cutoff on five meshes, checked
# against a dense eigh.  From its fixed start vector at EIG_TOL, ARPACK
# skips copies of repeated eigenvalues on these symmetric meshes and
# returns a larger value instead; these lists are wrong today (by up to
# 5.3).  Every other list is right, and must stay right.
SURVEY_MESHES = {"l3c2": (3, 2), "l3c3": (3, 3), "l3c4": (3, 4),
                 "l4b": (4, 1), "l4c2": (4, 2)}
KNOWN_WRONG = {
    "l3c2-k7", "l3c2-k8", "l3c2-k9", "l3c2-k10", "l3c2-k11",
    "l3c4-k3", "l3c4-k7", "l3c4-k8",
    "l4b-k12", "l4b-k13", "l4b-k14", "l4b-k15", "l4b-k16", "l4b-k18",
    "l4b-k19",
    "l4c2-k7", "l4c2-k8", "l4c2-k12",
}


def test_eig_low_survey_lists_are_right_but_the_known_wrong():
    wrong = set()
    for name, (level, sheets) in SURVEY_MESHES.items():
        mesh = level_mesh(level, sheets)
        S, m = ops.stiffness(mesh), ops.mass_vector(mesh)
        dense = sla.eigh(S.toarray(), np.diag(m), eigvals_only=True,
                         subset_by_index=[0, 19])
        for k in range(3, 21):
            assert mesh.num_vertices > max(4 * k + 20, ops.DENSE_MAX_V)
            if np.abs(ops.eig_low(mesh, k=k)[0] - dense[:k]).max() > 1e-9:
                wrong.add(f"{name}-k{k}")
    assert wrong <= KNOWN_WRONG


def test_systole_frozen_value():
    # Every base level and cyclic cover keeps the octagon side loops,
    # which realize the shortest noncontractible length.
    expected = 2 * np.arccosh(1 + np.sqrt(2.0))
    for r in range(3):
        m = build_base_surface(refinement=r)
        assert ops.systole(m) == pytest.approx(expected, abs=1e-12)
    cover = build_cover(build_base_surface(refinement=1),
                        CoverSpec.cyclic(2))
    assert ops.systole(cover) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("level", range(4))
def test_systole_matches_reference_on_base_levels(level):
    m = build_base_surface(refinement=level)
    assert ops.systole(m) == reference_systole(m)


@pytest.mark.parametrize("level,n", [(r, n) for r in range(3) for n in (2, 3)])
def test_systole_matches_reference_on_cyclic_covers(level, n):
    cover = build_cover(build_base_surface(refinement=level),
                        CoverSpec.cyclic(n))
    assert ops.systole(cover) == reference_systole(cover)


@pytest.mark.parametrize("level", range(3))
def test_systole_matches_reference_on_nonabelian_cover(level):
    cover = build_cover(build_base_surface(refinement=level), NONABELIAN_SPEC)
    cover.validate()
    assert ops.systole(cover) == reference_systole(cover)


def relabel_vertices(mesh, seed=0):
    """Copy of a mesh with its vertex ids permuted."""
    perm = np.random.default_rng(seed).permutation(mesh.num_vertices)
    positions = np.empty_like(mesh.positions)
    positions[perm] = mesh.positions
    base_vertex = np.empty_like(mesh.base_vertex)
    base_vertex[perm] = mesh.base_vertex
    return dataclasses.replace(mesh, edges=perm[mesh.edges],
                               positions=positions, base_vertex=base_vertex)


def test_systole_matches_reference_without_sheet_shift():
    cover = build_cover(build_base_surface(refinement=2), CoverSpec.cyclic(2))
    relabelled = relabel_vertices(cover)
    relabelled.validate()
    assert ops.systole(relabelled) == reference_systole(relabelled)


def _counting_dijkstra(monkeypatch):
    sources = []
    dijkstra = ops.csgraph.dijkstra

    def counting(*args, **kwargs):
        sources.append(kwargs["indices"])
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(ops.csgraph, "dijkstra", counting)
    return sources


@pytest.mark.parametrize("level,n", [(r, n) for r in (2, 3) for n in (1, 2, 3)])
def test_systole_stops_at_bolza_bound(level, n, monkeypatch):
    mesh = build_base_surface(refinement=level)
    if n > 1:
        mesh = build_cover(mesh, CoverSpec.cyclic(n))
    sources = _counting_dijkstra(monkeypatch)
    assert ops.systole(mesh) == H.SYSTOLE
    assert len(sources) == 1


def test_systole_runs_on_above_bolza_bound(monkeypatch):
    # The relabelled cover's first source finds a loop far above the
    # constant, so the search runs on; its second finds one 5 ulp above,
    # within the rounding bound of the Bolza stop, so the search stops
    # there and reports the constant, which the exhaustive search finds.
    relabelled = relabel_vertices(
        build_cover(build_base_surface(refinement=2), CoverSpec.cyclic(2)))
    sources = _counting_dijkstra(monkeypatch)
    assert ops.systole(relabelled) == H.SYSTOLE
    assert len(sources) == 2


def test_trace_filter_passes_only_nontrivial_loops(monkeypatch):
    # Dehn reduction sees only candidates whose numeric holonomy is not the
    # identity, so it should never find one that is.
    verdicts = []
    is_identity = group.is_identity

    def recording(word):
        verdicts.append(is_identity(word))
        return verdicts[-1]

    monkeypatch.setattr(group, "is_identity", recording)
    for mesh in (build_base_surface(refinement=3),
                 build_cover(build_base_surface(refinement=2),
                             CoverSpec.cyclic(3))):
        ops.systole(mesh)
    assert verdicts and not any(verdicts)


def test_graph_distances_match_reference():
    cover = build_cover(build_base_surface(refinement=1), CoverSpec.cyclic(3))
    for src in (0, 7, cover.num_vertices - 1):
        expected, _ = reference_dijkstra(cover, src)
        assert np.array_equal(graph_distances(cover, src), expected)


def test_graph_distances(mesh2):
    d = graph_distances(mesh2, 0)
    assert d[0] == 0
    assert (d > 0).sum() == mesh2.num_vertices - 1
    # One-edge neighbors are at exactly the edge length.
    e = 0
    t, h = mesh2.edges[e]
    assert d[h] <= d[t] + mesh2.edge_lengths[e] + 1e-12
    d5 = graph_distances(mesh2, 5)
    assert d5[0] == pytest.approx(d[5], abs=1e-12)


def test_determinism(mesh2):
    r1 = ops.spectral_gap(mesh2)
    r2 = ops.spectral_gap(mesh2)
    assert r1.lambda1 == r2.lambda1
    assert r1.to_dict() == r2.to_dict()


def test_low_eigenvalues_computed_once_per_mesh(monkeypatch):
    # certify and stability_check share the bundle's lambda0/lambda1, so
    # one unchanged mesh pays for a single eigen-solve.
    calls = []
    true_eig_low = ops.eig_low

    def counting(mesh, **kwargs):
        calls.append(kwargs)
        return true_eig_low(mesh, **kwargs)

    monkeypatch.setattr(ops, "eig_low", counting)
    fresh = build_base_surface(refinement=2)
    zero = np.zeros(fresh.num_vertices)
    density = SectionDensity.zero(fresh)
    first = coupled.certify(fresh, zero, zero, density, eta=0.5, degree=0)
    second = coupled.certify(fresh, zero, zero, density, eta=0.5, degree=0)
    report = ricci.stability_check(fresh, zero,
                                   np.full(fresh.num_vertices, 0.1))
    assert len(calls) == 1
    assert first.to_dict() == second.to_dict()
    assert report.lambda1 == first.lambda1


KEPT_SHIFTS = {"screened_lu": 1.0, "monotone_lu": ops.MONOTONE_SHIFT,
               "laplace_lu": ops.LAPLACE_SHIFT}


def kept_factor_of(A, bundle):
    """The name of the bundle's kept factor whose matrix S + shift M,
    filled by ``shifted``, is A bit for bit, or None."""
    for name, shift in KEPT_SHIFTS.items():
        if same_csr(A, bundle.shifted(1.0, shift * bundle.m)):
            return name
    return None


def test_each_mesh_is_factored_once(monkeypatch):
    # Each kept matrix is factored at most once per mesh, on first use: the
    # README pipeline (base density, balanced 2-cover density, coupled
    # solve, certificate) factors the base once (S + M, its Green solve)
    # and the cover three times (S + M for its Green solve and eig_low,
    # S + 2M and S + eps M for the Newton solves), and a second coupled
    # solve factors nothing.  The cover (V = 508) is above eig_low's dense
    # cutoff.
    factored = []
    true_factor = ops.factor

    def counting(A):
        factored.append(A)
        return true_factor(A)

    monkeypatch.setattr(ops, "factor", counting)
    base = build_base_surface(refinement=3)
    cover = build_cover(base, CoverSpec.cyclic(2))
    base_density = S.synth_density(base, S.Divisor([(0, 1), (1, 1), (5, 1),
                                                    (20, 1)]))
    density, _ = S.balanced_lift(base_density, cover, z_n=3)
    u, v, cert = coupled.solve_coupled(cover, density)
    again = coupled.certify(cover, u, v, density, eta=0.5, t=cert.t,
                            outer_iters=cert.outer_iters)
    assert again.to_dict() == cert.to_dict()
    coupled.solve_coupled(cover, density)
    made = [(A.shape[0], kept_factor_of(A, ops.of(mesh)))
            for A in factored
            for mesh in (base, cover) if A.shape[0] == mesh.num_vertices]
    assert sorted(made) == sorted(
        [(base.num_vertices, "screened_lu")]
        + [(cover.num_vertices, name) for name in KEPT_SHIFTS])


def test_replaced_mesh_gets_its_own_bundle(mesh2):
    m = ops.mass_vector(mesh2)
    scaled = dataclasses.replace(mesh2, edge_lengths=1.01 * mesh2.edge_lengths)
    assert not np.allclose(ops.mass_vector(scaled), m)
    assert ops.of(scaled) is not ops.of(mesh2)
    assert ops.mass_vector(scaled).sum() == pytest.approx(ops.volume(scaled),
                                                          rel=1e-12)


def test_factor_orders_symmetric_patterns_by_minimum_degree(mesh3):
    # Against SuperLU's default COLAMD, which ignores the symmetry, the
    # minimum-degree factors of S + M and of the indefinite -S + M are
    # smaller, and both solve to rounding.
    bundle = ops.of(mesh3)
    b = np.ones(mesh3.num_vertices)
    for A in (bundle.shifted(1.0, bundle.m), bundle.shifted(-1.0, bundle.m)):
        lu = ops.factor(A)
        colamd = spla.splu(sp.csc_matrix(A))
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
        assert np.abs(A @ lu.solve(b) - b).max() < 1e-10


def same_csr(got, want):
    """True iff two CSR matrices have equal shape, indptr, indices and
    data bits."""
    return (got.shape == want.shape
            and np.array_equal(got.indptr, want.indptr)
            and np.array_equal(got.indices, want.indices)
            and np.array_equal(got.data.view(np.uint64),
                               want.data.view(np.uint64)))


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("sheets", [1, 2], ids=["base", "cover2"])
def test_newton_operators_equal_scipy_assembly(level, sheets, monkeypatch):
    # Each solver passes its Newton matrix to MINRES as a function; on
    # random vectors it multiplies as the matrix that sparse arithmetic and
    # sp.bmat assemble from the Jacobian's formula, to rounding.  shifted,
    # which fills the two factored matrices a * S + diag(d) (monotone_lu's
    # and eigs_nearest's), is that sum bit for bit.
    mesh = level_mesh(level, sheets)
    bundle = ops.of(mesh)
    S, m, V = bundle.S, bundle.m, mesh.num_vertices
    rng = np.random.default_rng(level)
    d = rng.normal(size=V)
    for a in (1.0, -1.0, 0.37):
        assert same_csr(bundle.shifted(a, d), a * S + sp.diags(d))

    density = divisor_density(mesh)
    rho = np.exp(density.log_density)
    f = 0.8 * gauss.admissible_bound(0.5) * rho / rho.max()
    start = gauss.GaussProblem(mesh=mesh, f=f, eta=0.5)
    problem = ricci.RicciProblem(mesh=mesh, u=gauss.warm_start(start),
                                 density=density,
                                 c=0.15 * 2.0 * np.pi / bundle.vol)
    # 2/(c Vol) < 4, so maximize_J's system is -H itself, not -H / 4^k
    scale = 2.0 / (problem.c * bundle.vol)
    assert scale < 4.0

    def gauss_matrix(u):
        return S + sp.diags(m * gauss._reaction_slope(u, f))

    def J_matrix(y):
        return scale * S - sp.diags(4.0 * ricci._softmax_weights(problem, y))

    def ricci_matrix(v):
        return -S + sp.diags(2.0 * m * np.exp(problem.log_weight() + 2.0 * v))

    def coupled_matrix(x):
        u, v = x[:V], x[V:]
        Q = sp.diags(2.0 * m * np.exp(density.log_density + 2.0 * v - 2.0 * u))
        return sp.bmat([[S + sp.diags(2.0 * m * np.exp(2.0 * u)) - Q, Q],
                        [Q, S - Q]])

    cases = [
        ("gauss newton", lambda: gauss.solve_gauss(start), gauss_matrix),
        ("J maximization", lambda: ricci.maximize_J(problem), J_matrix),
        ("ricci newton",
         lambda: ricci.solve_ricci_newton(problem, np.zeros(V)),
         ricci_matrix),
        ("coupled newton", lambda: coupled.solve_coupled(
            mesh, density, coupled.CoupledConfig(degree=1)), coupled_matrix),
    ]
    for name, solve, matrix in cases:
        x, system = first_system(monkeypatch, name, solve)
        for point in (x, x + 0.1 * rng.standard_normal(x.size)):
            A = system(point)[0]
            want = matrix(point)
            for _ in range(3):
                y = rng.standard_normal(x.size)
                bound = 1e-14 * (abs(want) @ np.abs(y)).max()
                assert np.abs(A(y) - want @ y).max() <= bound, name


def test_each_block_is_solved_by_its_own_factor():
    # The block-diagonal preconditioner solves block i with factors[i]:
    # a coupled Newton step has the bits of MINRES preconditioned by
    # diag(S + 2M, S + eps M) written out here, each factor sees only
    # vectors of one block, once per MINRES iteration, and the swapped
    # factors give other bits.
    mesh = level_mesh(3, 2)
    bundle = ops.of(mesh)
    V = mesh.num_vertices
    rng = np.random.default_rng(0)
    d1 = bundle.m * rng.uniform(1.0, 2.0, size=V)
    c = bundle.m * rng.uniform(0.0, 0.5, size=V)
    S = bundle.S

    def A(x):
        du, dv = x[:V], x[V:]
        return np.concatenate([S @ du + d1 * du + c * dv,
                               S @ dv + c * (du - dv)])

    b = rng.normal(size=2 * V)
    gauss_lu, laplace_lu = bundle.monotone_lu, bundle.laplace_lu
    calls = []

    class Spy:
        def __init__(self, lu, block):
            self.lu, self.block = lu, block

        def solve(self, rhs):
            calls.append((self.block, rhs.shape))
            return self.lu.solve(rhs)

    x = ops.newton_solve(bundle, A, b, "coupled",
                         factors=[Spy(gauss_lu, "u"), Spy(laplace_lu, "v")])
    iterations = len(calls) // 2
    assert iterations > 0
    assert calls == [("u", (V,)), ("v", (V,))] * iterations

    def by_hand(x):
        return np.concatenate([gauss_lu.solve(x[:V]),
                               laplace_lu.solve(x[V:])])

    op = spla.LinearOperator((2 * V, 2 * V), matvec=A, dtype=float)
    precond = spla.LinearOperator((2 * V, 2 * V), matvec=by_hand,
                                  dtype=float)
    want, info = spla.minres(op, b, rtol=ops.NEWTON_RTOL,
                             maxiter=ops.NEWTON_MAXITER, M=precond)
    assert info == 0
    assert np.array_equal(x.view(np.uint64), want.view(np.uint64))
    swapped = ops.newton_solve(bundle, A, b, "coupled",
                               factors=[laplace_lu, gauss_lu])
    assert not np.array_equal(swapped, x)


def test_copy_free_preconditioner_matches_split_reference(monkeypatch):
    # newton_solve passes a single factor's own solve to MINRES and solves
    # two blocks by slices into one output.  Every solve of the Green
    # solves (one factor) and of the coupled Newton steps (two) on a
    # level-3 cover has the bits of the split/concatenate application in
    # reference_newton_solve, and a CountingFactor counts the same solves
    # on each factor in both.
    mesh = level_mesh(3, 2)
    true_solve = ops.newton_solve
    seen = set()

    def checked(bundle, A, b, name, factors, **kwargs):
        counted = [CountingFactor(lu) for lu in factors]
        x = true_solve(bundle, A, b, name, factors=counted, **kwargs)
        split = [CountingFactor(lu) for lu in factors]
        want = reference_newton_solve(bundle, A, b, name, factors=split,
                                      **kwargs)
        assert np.array_equal(x.view(np.uint64), want.view(np.uint64)), name
        assert [lu.solves for lu in counted] == [lu.solves for lu in split]
        assert min(lu.solves for lu in counted) > 0
        seen.add((name, len(factors)))
        return x

    monkeypatch.setattr(ops, "newton_solve", checked)
    density = divisor_density(mesh)
    coupled.solve_coupled(mesh, density, coupled.CoupledConfig(degree=1))
    assert {("green solve", 1), ("coupled newton", 2)} <= seen


SOLVER_NAMES = {"splu", "spsolve", "spilu", "factorized"}


def test_every_sparse_factorization_goes_through_factor():
    # One factorization path: SuperLU is reached only inside
    # operators.factor, and no shift-invert eigsh factors on its own.
    # One eigen-solve path: the package's only eigsh call is the one in
    # operators._lanczos, in standard form: it passes no M, sigma or OPinv
    # (ARPACK's generalized shift-invert mode), by keyword or position.
    # One dense rule: the package's only dense eigen-solve is the eigh call
    # in operators._eig_dense, and DENSE_MAX_V, its size cutoff, is read
    # only by its two callers, eig_low and eigs_nearest.  One mass form:
    # the bundle keeps the vector m, and nothing reads a mass matrix .M.
    offenders, eigsh_calls, eigh_calls, cutoff_reads = [], [], [], []
    for path in sorted(pathlib.Path(ops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = lanczos = dense = cutoff = set()
        if path.name == "operators.py":
            allowed = nodes_of(tree, "factor")
            lanczos = nodes_of(tree, "_lanczos")
            dense = nodes_of(tree, "_eig_dense")
            cutoff = nodes_of(tree, "eig_low") | nodes_of(tree, "eigs_nearest")
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else None)
            if name == "M" and isinstance(node, ast.Attribute):
                offenders.append(f"{path.name}:{node.lineno} .M")
            if name == "DENSE_MAX_V" and isinstance(node.ctx, ast.Load):
                cutoff_reads.append((path.name, id(node) in cutoff))
            if isinstance(node, ast.Call) and {"eigh", "eigvalsh"} & {
                    getattr(node.func, "attr", None),
                    getattr(node.func, "id", None)}:
                eigh_calls.append((path.name, id(node) in dense))
            if isinstance(node, ast.ImportFrom):
                name = next((a.name for a in node.names
                             if a.name in SOLVER_NAMES), None)
            if name in SOLVER_NAMES and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno} {name}")
            if isinstance(node, ast.Call) and "eigsh" in (
                    getattr(node.func, "attr", None),
                    getattr(node.func, "id", None)):
                keywords = {k.arg for k in node.keywords}
                if {"M", "sigma", "OPinv"} & keywords or len(node.args) > 2:
                    offenders.append(f"{path.name}:{node.lineno} eigsh")
                eigsh_calls.append((path.name, id(node) in lanczos))
    assert offenders == []
    assert eigsh_calls == [("operators.py", True)]
    assert eigh_calls == [("operators.py", True)]
    assert set(cutoff_reads) == {("operators.py", True)}
    assert not hasattr(ops.Operators, "M")


def _mentions(node, names):
    return any((isinstance(n, ast.Attribute) and n.attr in names)
               or (isinstance(n, ast.Name) and n.id in names)
               for n in ast.walk(node))


def test_only_curvature_constant_computes_it():
    # One formula for c = 2 pi d t / Vol: no module divides a multiple of
    # pi by the volume outside operators.curvature_constant.
    offenders = []
    for path in sorted(pathlib.Path(ops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "operators.py":
            allowed = nodes_of(tree, "curvature_constant")
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and _mentions(node.left, {"pi"})
                    and _mentions(node.right, {"vol", "volume"})
                    and id(node) not in allowed):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_curvature_constant_and_its_input_rules(mesh2):
    vol = ops.volume(mesh2)
    # Bit for bit 2 pi d / Vol, times t.
    assert ops.curvature_constant(mesh2, 3) == 2.0 * np.pi * 3 / vol
    assert (ops.curvature_constant(mesh2, 2, 0.3)
            == 0.3 * (2.0 * np.pi * 2 / vol))
    assert ops.curvature_constant(mesh2, 0) == 0.0
    for degree in (1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="degree must be an integer"):
            ops.curvature_constant(mesh2, degree)
    for t in (0.0, -0.5, 1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"t must lie in \(0, 1\]"):
            ops.curvature_constant(mesh2, 1, t)
    # Vol is about 8 pi on the 2-cover: c, about t / 4, rounds to 0 at the
    # smallest t.
    cover = build_cover(mesh2, CoverSpec.cyclic(2))
    with pytest.raises(ValueError, match="d t = 4.94066e-324 with c = 2 pi "
                       "d t / Vol is too small: c rounds to 0; raise t"):
        ops.curvature_constant(cover, 1, 5e-324)


def nodes_of(tree, function):
    """ids of the AST nodes of a top-level function of tree."""
    return {id(node) for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name == function
            for node in ast.walk(top)}


def divisor_density(mesh):
    """The density of the divisor 0:1,1:1,5:1,20:1 on a base mesh, or its
    balanced lift with the fresh zero 3 on a cover."""
    base_divisor = S.Divisor([(0, 1), (1, 1), (5, 1), (20, 1)])
    if mesh.base_vertex is None:
        return S.synth_density(mesh, base_divisor)
    base = build_base_surface(refinement=mesh.level)
    return S.balanced_lift(S.synth_density(base, base_divisor), mesh,
                           z_n=3)[0]


def newton_solutions(mesh):
    """(u, v_J, v_Newton) of the Gauss, J and Ricci solvers on one mesh."""
    density = divisor_density(mesh)
    rho = np.exp(density.log_density)
    f = 0.8 * gauss.admissible_bound(0.5) * rho / rho.max()
    u = gauss.solve_gauss(gauss.GaussProblem(mesh=mesh, f=f, eta=0.5,
                                             tol=1e-12)).u
    c = 0.15 * 2.0 * np.pi / ops.volume(mesh)
    problem = ricci.RicciProblem(mesh=mesh, u=u, density=density, c=c,
                                 tol=1e-10)
    v_J = ricci.maximize_J(problem).v
    v_newton = ricci.solve_ricci_newton(problem, v_init=v_J + 0.1).v
    return u, v_J, v_newton


def exact_forcing(monkeypatch):
    """Solve every Newton step to NEWTON_RTOL, as before inexact Newton."""
    monkeypatch.setattr(ops, "forcing", lambda *args: ops.NEWTON_RTOL)


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("sheets", [1, 2], ids=["base", "cover2"])
def test_krylov_newton_steps_match_direct_factor(level, sheets, monkeypatch):
    # Each MINRES Newton step agrees with the old per-step direct solve
    # (for J the bordered KKT system with a Sherman-Morrison update) to
    # 1e-10 of its size, and the three solutions agree to 1e-12.  Every
    # step is solved exactly here: the inexact steps of ``forcing`` are
    # checked against this path in test_inexact_newton_matches_exact.
    exact_forcing(monkeypatch)
    mesh = level_mesh(level, sheets)
    krylov_solve = ops.newton_solve
    names = set()

    def checked(bundle, A, b, name, **kwargs):
        x = krylov_solve(bundle, A, b, name, **kwargs)
        want = reference_newton_step(bundle, A, b, name, **kwargs)
        assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
        names.add(name)
        return x

    monkeypatch.setattr(ops, "newton_solve", checked)
    krylov = newton_solutions(mesh)
    assert names == {"gauss newton", "J maximization", "ricci newton",
                     "green solve"}
    monkeypatch.setattr(ops, "newton_solve", reference_newton_step)
    direct = newton_solutions(mesh)
    for got, want in zip(krylov, direct):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("sheets", [1, 2], ids=["base", "cover2"])
def test_inexact_newton_matches_exact(level, sheets, monkeypatch):
    # The Newton solvers with forcing on land within 1e-9 of the same
    # solvers with every step solved to NEWTON_RTOL.
    inexact = newton_solutions(level_mesh(level, sheets))
    exact_forcing(monkeypatch)
    exact = newton_solutions(level_mesh(level, sheets))
    for got, want in zip(inexact, exact):
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def solves_by_factor(run, mesh, monkeypatch):
    """{solver name: {kept factor name: solves}} of run(), counted on
    every kept factor of mesh's bundle."""
    bundle = ops.of(mesh)
    counting = {name: CountingFactor(getattr(bundle, name))
                for name in KEPT_SHIFTS}
    solves = {}
    true_solve = ops.newton_solve

    def counted(bundle, A, b, name, **kwargs):
        before = {key: lu.solves for key, lu in counting.items()}
        x = true_solve(bundle, A, b, name, **kwargs)
        row = solves.setdefault(name, dict.fromkeys(counting, 0))
        for key, lu in counting.items():
            row[key] += lu.solves - before[key]
        return x

    with monkeypatch.context() as patch:
        for name, lu in counting.items():
            patch.setattr(bundle, name, lu)
        patch.setattr(ops, "newton_solve", counted)
        run()
    return solves


def preconditioner_solves(mesh, monkeypatch):
    """Solves on every kept factor of ``newton_solutions(mesh)``, by
    solver name."""
    solves = solves_by_factor(lambda: newton_solutions(mesh), mesh,
                              monkeypatch)
    return {name: sum(row.values()) for name, row in solves.items()}


@pytest.mark.parametrize("level", [3, 4])
def test_forcing_saves_preconditioner_solves(level, monkeypatch):
    # solve_gauss, maximize_J and solve_ricci_newton make fewer
    # preconditioner solves, counted on every kept factor, with forcing on
    # than with every Newton step solved to NEWTON_RTOL; the Green solves
    # stay exact, so theirs do not change.
    inexact = preconditioner_solves(level_mesh(level, 2), monkeypatch)
    exact_forcing(monkeypatch)
    exact = preconditioner_solves(level_mesh(level, 2), monkeypatch)
    assert inexact["green solve"] == exact["green solve"] > 0
    for name in ("gauss newton", "J maximization", "ricci newton"):
        assert 0 < inexact[name] < exact[name], (inexact, exact)


def test_each_solver_names_the_factor_that_matches_its_blocks(monkeypatch):
    # Spies on the three kept factors: the Green solves use S + M alone,
    # the Gauss Newton solver and the coupled u-block S + 2M, and the J
    # ascent, the Ricci Newton solver and the coupled v-block S + eps M.
    mesh = level_mesh(3, 2)
    density = divisor_density(mesh)
    named = {}
    true_solve = ops.newton_solve

    def spy(bundle, A, b, name, factors, **kwargs):
        names = tuple(next(key for key in KEPT_SHIFTS
                           if lu is getattr(bundle, key)) for lu in factors)
        named.setdefault(name, set()).add(names)
        return true_solve(bundle, A, b, name, factors=factors, **kwargs)

    def run():
        newton_solutions(mesh)
        coupled.solve_coupled(mesh, density, coupled.CoupledConfig(degree=1))

    monkeypatch.setattr(ops, "newton_solve", spy)
    solves = solves_by_factor(run, mesh, monkeypatch)
    expected = {"green solve": ("screened_lu",),
                "gauss newton": ("monotone_lu",),
                "J maximization": ("laplace_lu",),
                "ricci newton": ("laplace_lu",),
                "coupled newton": ("monotone_lu", "laplace_lu")}
    assert named == {name: {used} for name, used in expected.items()}
    for name, used in expected.items():
        assert {key for key, n in solves[name].items() if n} == set(used)
    coupled_solves = solves["coupled newton"]
    assert coupled_solves["monotone_lu"] == coupled_solves["laplace_lu"]


def test_stored_bits_depend_on_the_screened_factor_alone():
    # Density files and lambda0/lambda1 are stored or re-derived from the
    # mesh, so their solves use S + M alone: after the Green solves,
    # eig_low (V = 508, above its dense cutoff), mt_probe and kept_ordering
    # the bundles hold no other kept factor.
    mesh = level_mesh(3, 2)
    density = divisor_density(mesh)
    bundle = ops.of(mesh)
    bundle.low_eigenvalues
    ricci.mt_probe(mesh)
    bundle.kept_ordering
    for kept in (bundle, ops.of(density.mesh)):
        assert {name for name in vars(kept) if name.endswith("_lu")} == {
            "screened_lu"}


def test_forcing_cap_floor_and_first_step():
    cap = ops.FORCING_CAP
    assert cap == 1e-6
    # the first step, whatever the residual, gets FIRST_FORCING
    assert ops.FIRST_FORCING == 1e-4
    for res in (1e-12, 1e-3, 1.0, 1e6):
        assert ops.forcing(res, None, 1e-10) == ops.FIRST_FORCING
    # a slow decrease asks no more than the cap
    assert ops.forcing(0.5, 1.0, 1e-10) == cap
    # fast convergence: 0.9 (res/prev)^2, between floor and cap
    assert ops.forcing(1e-3, 1.0, 1e-10) == pytest.approx(9e-7, rel=1e-12)
    assert ops.forcing(1e-4, 1.0, 1e-10) == pytest.approx(9e-9, rel=1e-12)
    # the floor 1e-3 tol/res wins when the ratio is tiny
    assert ops.forcing(1e-6, 1.0, 1e-10) == pytest.approx(1e-7, rel=1e-12)
    assert ops.forcing(1e-5, 1e-1, 1e-10) == pytest.approx(1e-8, rel=1e-12)
    # near tol the floor exceeds the cap, and the cap wins
    assert ops.forcing(2e-10, 1.0, 1e-10) == cap


@pytest.mark.parametrize("start", [np.nan, np.inf])
def test_damped_newton_refuses_a_residual_that_is_not_finite(mesh2, start):
    # NaN > tol is false, so a loop on "residual above tol" would return a
    # NaN start as converged; it raises naming the solver, before any step.
    def system(x):
        raise AssertionError("a step was taken")

    with pytest.raises(NonConvergence, match="probe newton: the residual"):
        bundle = ops.of(mesh2)
        ops.damped_newton(bundle, np.zeros(mesh2.num_vertices),
                          lambda x: start, system, "probe newton", 1e-9,
                          factors=[bundle.screened_lu])


LOGSUMEXP_CASES = ["random", "ties", "neg-inf", "all-neg-inf", "wide"]
ZERO_WEIGHT_CASES = ["zero-weights", "zero-weight-at-max", "all-zero-weights"]


@pytest.mark.parametrize("case, weighted", [
    *((case, False) for case in LOGSUMEXP_CASES),
    *((case, True) for case in LOGSUMEXP_CASES + ZERO_WEIGHT_CASES)])
def test_logsumexp_matches_scipy_bit_for_bit(case, weighted):
    from scipy.special import logsumexp
    rng = np.random.default_rng(list(case.encode()))
    for V in (1, 2, 7, 100, 8188):
        a = rng.normal(size=V)
        b = rng.uniform(0.0, 2.0, size=V) if weighted else None
        if case == "ties":
            a[rng.integers(0, V, size=max(1, V // 4))] = a.max()
        elif case == "neg-inf":
            a[rng.integers(0, V, size=V // 3)] = -np.inf
        elif case == "all-neg-inf":
            a[:] = -np.inf
        elif case == "wide":
            a *= 700.0
        elif case == "zero-weights":
            b[rng.integers(0, V, size=V // 2)] = 0.0
        elif case == "zero-weight-at-max":
            b[np.argmax(a)] = 0.0
        elif case == "all-zero-weights":
            b[:] = 0.0
        expected = logsumexp(a, b=b)
        got = ops.logsumexp(a, b=b)
        assert type(got) is type(expected)
        assert np.array_equal(got, expected, equal_nan=True), (V, got,
                                                               expected)
