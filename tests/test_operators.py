"""Laplacian assembly, spectra, and shortest noncontractible loops."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helpers import (CountingFactor, reference_dijkstra,
                     reference_newton_step, reference_systole)
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
    # transpositions that do not all commute, yet kill the relator
    spec = CoverSpec(degree=3, generator_images={
        1: [0, 2, 1], 2: [0, 2, 1], 3: [1, 0, 2], 4: [1, 0, 2]})
    cover = build_cover(build_base_surface(refinement=level), spec)
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
    # The relabelled cover's first loop is a few ulp above the constant,
    # so the search goes on to later sources and still finds the bound.
    relabelled = relabel_vertices(
        build_cover(build_base_surface(refinement=2), CoverSpec.cyclic(2)))
    sources = _counting_dijkstra(monkeypatch)
    assert ops.systole(relabelled) == H.SYSTOLE
    assert len(sources) > 1


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
        assert np.array_equal(ops.graph_distances(cover, src), expected)


def test_graph_distances(mesh2):
    d = ops.graph_distances(mesh2, 0)
    assert d[0] == 0
    assert (d > 0).sum() == mesh2.num_vertices - 1
    # One-edge neighbors are at exactly the edge length.
    e = 0
    t, h = mesh2.edges[e]
    assert d[h] <= d[t] + mesh2.edge_lengths[e] + 1e-12
    d5 = ops.graph_distances(mesh2, 5)
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


def test_each_mesh_is_factored_once(monkeypatch):
    # Green solves, Newton steps and eig_low's shift-invert all use the
    # bundle's S + M factor: the README pipeline (base density, balanced
    # 2-cover density, coupled solve, certificate) factors each of its two
    # meshes once.  The cover (V = 508) is above eig_low's dense cutoff.
    factored = []
    true_factor = ops.factor

    def counting(A):
        factored.append(A.shape[0])
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
    assert factored == [base.num_vertices, cover.num_vertices]


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
    for A in (bundle.S + bundle.M, -bundle.S + bundle.M):
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
def test_newton_matrices_equal_scipy_assembly_bit_for_bit(level, sheets):
    # shifted and coupled_jacobian fill the bundle's cached patterns; the
    # result is the matrix sparse arithmetic and sp.bmat assemble, to the
    # bit, so the Newton solves on it are unchanged.
    bundle = ops.of(level_mesh(level, sheets))
    S, V = bundle.S, bundle.m.size
    rng = np.random.default_rng(level)
    d1, d2 = rng.normal(size=(2, V))
    c = rng.uniform(0.1, 1.0, size=V)
    for a in (1.0, -1.0, 0.37):
        assert same_csr(bundle.shifted(a, d1), a * S + sp.diags(d1))
    want = sp.bmat([[S + sp.diags(d1), sp.diags(c)],
                    [sp.diags(c), S + sp.diags(d2)]], format="csr")
    assert same_csr(bundle.coupled_jacobian(d1, c, d2), want)


def test_block_preconditioner_one_call_equals_single_solves_bit_for_bit():
    # The block preconditioner's one solve of the (V, 2) array of blocks
    # gives the bits of two single solves: a coupled Newton step solved
    # with a factor that solves column by column is the same step.
    mesh = level_mesh(3, 2)
    bundle = ops.of(mesh)
    lu = bundle.screened_lu
    V = mesh.num_vertices
    rng = np.random.default_rng(0)
    d1 = bundle.m * rng.uniform(1.0, 2.0, size=V)
    c = bundle.m * rng.uniform(0.0, 0.5, size=V)
    A = bundle.coupled_jacobian(d1, c, -c)
    b = rng.normal(size=2 * V)
    calls = []

    class ColumnByColumn:
        def solve(self, rhs):
            calls.append(rhs.shape)
            return np.column_stack([lu.solve(col) for col in rhs.T])

    x = ops.newton_solve(bundle, A, b, "coupled")
    bundle.screened_lu = ColumnByColumn()
    try:
        y = ops.newton_solve(bundle, A, b, "coupled")
    finally:
        bundle.screened_lu = lu
    assert calls and set(calls) == {(V, 2)}
    assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


SOLVER_NAMES = {"splu", "spsolve", "spilu", "factorized"}


def test_every_sparse_factorization_goes_through_factor():
    # One factorization path: SuperLU is reached only inside
    # operators.factor, and no shift-invert eigsh factors on its own.
    # One eigen-solve path: the package's only eigsh call is the one in
    # operators._lanczos.
    offenders, eigsh_calls = [], []
    for path in sorted(pathlib.Path(ops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = lanczos = set()
        if path.name == "operators.py":
            allowed = nodes_of(tree, "factor")
            lanczos = nodes_of(tree, "_lanczos")
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else None)
            if isinstance(node, ast.ImportFrom):
                name = next((a.name for a in node.names
                             if a.name in SOLVER_NAMES), None)
            if name in SOLVER_NAMES and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno} {name}")
            if isinstance(node, ast.Call) and "eigsh" in (
                    getattr(node.func, "attr", None),
                    getattr(node.func, "id", None)):
                keywords = {k.arg for k in node.keywords}
                if "sigma" in keywords and "OPinv" not in keywords:
                    offenders.append(f"{path.name}:{node.lineno} eigsh")
                eigsh_calls.append((path.name, id(node) in lanczos))
    assert offenders == []
    assert eigsh_calls == [("operators.py", True)]


def nodes_of(tree, function):
    """ids of the AST nodes of a top-level function of tree."""
    return {id(node) for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name == function
            for node in ast.walk(top)}


def newton_solutions(mesh):
    """(u, v_J, v_Newton) of the Gauss, J and Ricci solvers on one mesh."""
    base_divisor = S.Divisor([(0, 1), (1, 1), (5, 1), (20, 1)])
    if mesh.base_vertex is None:
        density = S.synth_density(mesh, base_divisor)
    else:
        base = build_base_surface(refinement=mesh.level)
        density, _ = S.balanced_lift(S.synth_density(base, base_divisor),
                                     mesh, z_n=3)
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


def level_mesh(level, sheets):
    mesh = build_base_surface(refinement=level)
    return build_cover(mesh, CoverSpec.cyclic(sheets)) if sheets > 1 else mesh


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


def screened_solves(mesh, monkeypatch):
    """S + M solves of ``newton_solutions(mesh)``, by solver name."""
    bundle = ops.of(mesh)
    counting = CountingFactor(bundle.screened_lu)
    solves = dict.fromkeys(["green solve", "gauss newton", "J maximization",
                            "ricci newton"], 0)
    true_solve = ops.newton_solve

    def counted(bundle, A, b, name, **kwargs):
        before = counting.solves
        x = true_solve(bundle, A, b, name, **kwargs)
        solves[name] += counting.solves - before
        return x

    with monkeypatch.context() as patch:
        patch.setattr(bundle, "screened_lu", counting)
        patch.setattr(ops, "newton_solve", counted)
        newton_solutions(mesh)
    return solves


@pytest.mark.parametrize("level", [3, 4])
def test_forcing_saves_preconditioner_solves(level, monkeypatch):
    # solve_gauss, maximize_J and solve_ricci_newton make fewer S + M
    # solves with forcing on than with every Newton step solved to
    # NEWTON_RTOL; the Green solves stay exact, so theirs do not change.
    inexact = screened_solves(level_mesh(level, 2), monkeypatch)
    exact_forcing(monkeypatch)
    exact = screened_solves(level_mesh(level, 2), monkeypatch)
    assert inexact["green solve"] == exact["green solve"] > 0
    for name in ("gauss newton", "J maximization", "ricci newton"):
        assert 0 < inexact[name] < exact[name], (inexact, exact)


def test_forcing_cap_floor_and_first_step():
    cap = ops.FORCING_CAP
    assert cap == 1e-6
    # the first step, whatever the residual, gets the cap
    for res in (1e-12, 1e-3, 1.0, 1e6):
        assert ops.forcing(res, None, 1e-10) == cap
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
        ops.damped_newton(ops.of(mesh2), np.zeros(mesh2.num_vertices),
                          lambda x: start, system, "probe newton", 1e-9)


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
