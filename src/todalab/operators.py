"""Discrete operators on hyperbolic meshes: Laplacian, spectrum, systole.

The stiffness matrix uses cotangent weights computed from hyperbolic
corner angles (law of cosines on the stored edge lengths); the mass matrix
is lumped, one third of each triangle's hyperbolic area per corner.  The
Laplacian is returned negative semidefinite (L = -S), so the eigenproblem
of interest is S x = lambda M x with lambda >= 0; lambda1 is the spectral
gap in the usual convention (some formulas elsewhere use its reciprocal;
conversions happen at the point of use and are recorded there).

Every solver reads these from one ``Operators`` bundle per mesh, which
``of(mesh)`` assembles once and keeps on the mesh (the systole is kept
beside it); ``laplacian``, ``mass_vector``, ``stiffness`` and ``volume``
are views of it.  Every sparse factorization in the package goes through
``factor``.  The bundle holds the factor of the SPD matrix S + M, and
every solve with S or a shifted S on the mesh uses it: the Newton systems
of the Gauss, J, Ricci and coupled solvers and the Green solves of the
section densities by MINRES preconditioned with it (``newton_solve``; the
coupled system's two V-blocks are solved in one call on the V x 2 array
of blocks), and ``eig_low`` as its shift-invert operator at sigma = -1.
Beside it the bundle keeps the factor of S + MONOTONE_SHIFT M, the
monotone Gauss scheme's own matrix, which no other solver uses, so that
the scheme stays a cross-check sharing no solve with the Newton solvers.
So a mesh is ordered once and factored at most twice however many solves
its solvers make, and a solve's cost is its number of preconditioner
solves; only ``eigs_nearest``, the stability check's one search,
factors on every call, because its matrix changes with the data, and
that factor reuses the S + M factor's fill-reducing ordering on the
bundle's kept pattern (``kept_ordering``): it neither adds sparse
matrices nor orders anything.  No Newton step assembles a sparse matrix
either: each Newton matrix is a * S + diag(d), or the coupled 2 x 2
block of such matrices with diagonal coupling, and ``Operators.shifted``
and ``Operators.coupled_jacobian`` fill its values into index structures
the bundle caches.  The Green solves run MINRES to NEWTON_RTOL.  The
Newton steps are inexact (Eisenstat & Walker, SIAM J. Sci. Comput. 17,
1996): ``forcing`` sets each step's rtol from the outer residuals, so no
inner system is solved more accurately than the outer test can use.  The
Gauss, J, Ricci and coupled solvers share one damped-Newton loop,
``damped_newton``: its residual test, line search, step cap
NEWTON_MAX_STEPS, forcing and failure messages.

The systole is approximated on the edge graph: the shortest closed edge
loop whose accumulated holonomy word is not the identity.  Every such loop
is at least as long as the translation length of its word, hence at least
the true systole; the octagon side loops realize the true systole exactly
at every refinement level, so for this family the bound is sharp.

The search rests on four facts.  The first three keep the exact minimum;
the fourth, the Bolza stop, keeps it up to rounding and ``validate``'s
position tolerance.

* Sources.  A loop's word is the product of its edge words, so a loop
  whose edges all carry the empty word is trivial: every non-trivial loop
  passes through an endpoint of an edge with a non-empty word, and only
  those endpoints are used as sources.
* Half-length cap.  Let C = (s = v_0, e_1, v_1, ..., e_k, v_k = s) be a
  non-trivial closed walk of length L and T_v the shortest-path-tree path
  from s to v.  Its class is the product of the loops
  beta_i = T_{v_(i-1)} e_i T_(v_i)^-1 (the tree paths cancel in pairs), so
  some beta_i is non-trivial.  With a_i the length of C up to v_i,
  d(v_(i-1)) <= a_(i-1) and d(v_i) <= L - a_i, so |beta_i| <= L and both
  endpoints of e_i lie within L/2 of s (Erickson & Har-Peled, DCG 2004:
  the shortest non-trivial loop through s is two shortest paths plus one
  edge).  A Dijkstra run capped at best/2 therefore still sees a loop
  shorter than the best so far whenever one passes through s; the cap
  used, best/2 plus the longest edge, leaves a margin for rounding.
* Trace gap.  A candidate's holonomy is evaluated numerically in SU(1,1),
  where the identity has |trace| 2.  The surface group is torsion free and
  cocompact, so every other element is hyperbolic with translation length
  at least the systole and |trace| = 2 cosh(length/2) >=
  2 cosh(systole/2) = 2 (1 + sqrt 2) ~ 4.83 (covers use subgroups of the
  same group).  Candidates with |trace| < 3 are dropped; the rest are
  accepted only when Dehn reduction (``group.is_identity``) says their
  word is not the identity.
* Bolza stop.  On a mesh that passes ``HyperbolicMesh.validate``, no
  non-trivial edge loop is shorter than ``hyperbolic.SYSTOLE`` =
  2 arccosh(1 + sqrt 2), the systole of the Bolza surface.  Every edge
  word lies in the octagon group G (a cover's loops have holonomy in a
  finite-index subgroup of G).  Developed in the disk from the lift p of
  its first vertex, a loop with holonomy gamma != 1 becomes a chain of
  geodesic segments from p to gamma p, and ``validate`` checks that each
  segment's drawn length is its stored length (to its position
  tolerance).  So the loop is at least d(p, gamma p) long, which is at
  least the translation length of gamma, hence at least sys(G).  Once the
  best loop reaches the constant the search stops.  In exact arithmetic no
  later source could lower it; in floats a later loop could still sum to
  a few ulp below the constant, or up to k times the position tolerance
  for a k-edge loop of a mesh read from JSON, so on such a mesh the
  result may exceed the exhaustive one by that much.  The comparison has
  no margin: on every mesh checked (levels 0-5 and their cyclic 2- and
  3-covers) the search reaches exactly this float at its first source
  (its second at level 0), while a mesh whose first loop found is a few
  ulp longer (a relabelled cover) runs on to the sources that give the
  float.  The result equals the exhaustive search (``reference_systole``
  in the tests) on base levels 0-3, cyclic 2- and 3-covers of levels
  0-2, a relabelled 2-cover of level 2 and a non-abelian 3-sheet cover of
  levels 0-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from . import group, hyperbolic
from .errors import MeshError, NonConvergence


# ----------------------------------------------------------------------
# Assembly

def logsumexp(a, b=None):
    """ln sum(b e^a) over a nonempty array a, without overflow; weights
    b >= 0, of a's shape (default 1).

    Follows ``scipy.special.logsumexp`` (SciPy 1.17) step for step, so the
    results agree bit for bit: zero weights mask their terms to -inf, m is
    the summed weight of every entry tied at the max, those entries leave
    the sum s of the shifted terms, and the result is
    log1p(s/m) + log(m) + a_max (Blanchard, Higham & Higham, IMA J. Numer.
    Anal. 41, 2021).  A non-finite result is recomputed as ln sum(b e^a).
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        masked = a if b is None else np.where(b == 0, -np.inf, a)
        a_max = masked.max()
        at_max = masked == a_max
        m = at_max.sum(dtype=float) if b is None else (b * at_max).sum()
        shifted = np.exp(np.where(at_max, -np.inf, masked) - a_max)
        s = (shifted if b is None else b * shifted).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log((np.exp(a) if b is None else b * np.exp(a)).sum())
    return out


def _diagonal_slots(A):
    """Positions of the diagonal entries of a canonical CSR matrix A in
    A.data, row by row; asserts that A stores each of them."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    slots = np.flatnonzero(A.indices == rows)
    assert slots.size == A.shape[0], "a diagonal entry is not stored"
    return slots


class Operators:
    """Per-mesh operators: S (CSR), lumped masses m, M = diag(m), the
    total area vol = m.sum(), lap and log_mean.  The path graph, the
    factors of S + M and S + MONOTONE_SHIFT M and lambda0/lambda1 are
    built on first use, and so are the index
    structures on which ``shifted`` and ``coupled_jacobian`` fill every
    Newton matrix without assembling one: the slots of S's diagonal in
    S.data (``diagonal_slots``; the cotangent S stores its whole diagonal)
    and the CSR pattern of [[S, I], [I, S]] with its diagonal slots and
    the gather index of its entries (``block_pattern``); and the one on
    which ``eigs_nearest`` fills its shift-invert matrix, S's pattern
    permuted by the S + M factor's ordering (``kept_ordering``).
    """

    def __init__(self, mesh):
        self.mesh = mesh
        sl = mesh.slot_lengths()
        a0, a1, a2 = hyperbolic.triangle_angles(sl[:, 0], sl[:, 1], sl[:, 2])
        angles = np.stack([a0, a1, a2], axis=1)
        if not np.isfinite(angles).all() or (angles <= 0).any():
            raise MeshError("degenerate triangle (bad corner angle)")
        areas = np.pi - angles.sum(axis=1)
        if (areas <= 0).any():
            raise MeshError("degenerate triangle (nonpositive area)")

        V, tri = mesh.num_vertices, mesh.triangles
        self.m = m = np.zeros(V)
        for k in range(3):
            np.add.at(m, tri[:, k], areas / 3.0)
        self.vol = float(m.sum())
        self.M = sp.diags(m).tocsr()

        rows, cols, data = [], [], []
        for k in range(3):
            w = 0.5 / np.tan(angles[:, (k + 2) % 3])
            i, j = tri[:, k], tri[:, (k + 1) % 3]
            rows.extend([i, j, i, j])
            cols.extend([i, j, j, i])
            data.extend([w, w, -w, -w])
        self.S = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(V, V)).tocsr()

    def lap(self, x):
        """M^{-1} L x = -M^{-1} S x, the pointwise discrete Laplacian of a
        vertex field."""
        return -(self.S @ x) / self.m

    def log_mean(self, x):
        """ln of the M-average of e^x, without overflow."""
        return logsumexp(x, b=self.m) - np.log(self.vol)

    @cached_property
    def diagonal_slots(self):
        """Positions of S's diagonal entries in S.data, row by row."""
        return _diagonal_slots(self.S)

    def shifted(self, a, d):
        """a * S + diag(d) as CSR on S's pattern: S's values scaled by a,
        d added at the diagonal slots.  Entries are a S_ii + d_i and a S_ij,
        formed in the order of ``a * S + sp.diags(d)``, so the two agree
        bit for bit (that sum also drops entries that come out exactly 0;
        this one keeps them)."""
        S = self.S
        data = a * S.data
        data[self.diagonal_slots] += d
        return sp.csr_matrix((data, S.indices, S.indptr), shape=S.shape)

    @cached_property
    def block_pattern(self):
        """(indptr, indices, gather, diagonal) of the CSR matrix
        [[S, I], [I, S]] in ``sp.bmat``'s entry order: entry k holds
        np.concatenate((S.data, c))[gather[k]] for a coupling vector c, and
        ``diagonal`` lists its diagonal slots, row by row."""
        S, V = self.S, self.m.size
        code = sp.csr_matrix((np.arange(1.0, S.nnz + 1), S.indices, S.indptr),
                             shape=S.shape)
        link = sp.diags(np.arange(S.nnz + 1.0, S.nnz + V + 1))
        B = sp.bmat([[code, link], [link, code]], format="csr")
        gather = B.data.astype(np.intp) - 1
        return B.indptr, B.indices, gather, _diagonal_slots(B)

    def coupled_jacobian(self, d1, c, d2):
        """[[S + diag d1, diag c], [diag c, S + diag d2]] as CSR on
        ``block_pattern``: one gather of S's values and c, then d1 and d2
        added on the diagonal.  Entries equal those of ``sp.bmat`` of the
        blocks bit for bit (entries c_i = 0 are kept, which bmat drops)."""
        indptr, indices, gather, diagonal = self.block_pattern
        data = np.concatenate((self.S.data, c))[gather]
        data[diagonal] += np.concatenate((d1, d2))
        n = 2 * self.m.size
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    @cached_property
    def kept_ordering(self):
        """(order, indptr, indices, gather): the fill-reducing ordering of
        the S + M factor, vertex order[j] eliminated j-th, and the CSC
        pattern of S permuted symmetrically by it, S[order][:, order],
        whose entry k holds S.data[gather[k]].  Every a * S + diag(d)
        shares this pattern, so its factor on this ordering has the fill
        of the S + M factor wherever SuperLU keeps the diagonal pivots."""
        S = self.S
        order = np.argsort(self.screened_lu.perm_c)
        code = sp.csr_matrix((np.arange(1.0, S.nnz + 1), S.indices, S.indptr),
                             shape=S.shape)
        P = code[order][:, order].tocsc()
        return order, P.indptr, P.indices, P.data.astype(np.intp) - 1

    @cached_property
    def low_eigenvalues(self):
        """(lambda0, lambda1) from ``eig_low(k=2)``."""
        vals = eig_low(self.mesh, k=2)[0]
        if not np.isfinite(vals).all():
            raise NonConvergence("eigensolver returned non-finite eigenvalues")
        return float(vals[0]), float(vals[1])

    @cached_property
    def screened_lu(self):
        """Factor of the SPD screened matrix S + M, the preconditioner of
        every Newton and Green solve and ``eig_low``'s inverse."""
        return factor(self.S + self.M)

    @cached_property
    def monotone_lu(self):
        """Factor of the SPD matrix S + MONOTONE_SHIFT M, the monotone
        Gauss scheme's alone (``gauss.monotone_solve_gauss``)."""
        return factor(self.shifted(1.0, MONOTONE_SHIFT * self.m))

    @cached_property
    def path_graph(self):
        """(graph, pair_keys, pair_edges): the symmetric CSR shortest-path
        graph (the shortest edge of each vertex pair, first id on ties,
        self-loops dropped), the sorted keys lo * V + hi of its vertex
        pairs, and the edge id kept for each key."""
        mesh = self.mesh
        V = mesh.num_vertices
        lo, hi = mesh.edges.min(axis=1), mesh.edges.max(axis=1)
        pair = lo * V + hi
        ids = np.flatnonzero(lo != hi)
        ids = ids[np.lexsort((mesh.edge_lengths[ids], pair[ids]))]
        pair_keys, first = np.unique(pair[ids], return_index=True)
        kept = ids[first]
        w = mesh.edge_lengths[kept]
        graph = sp.csr_matrix(
            (np.concatenate([w, w]),
             (np.concatenate([lo[kept], hi[kept]]),
              np.concatenate([hi[kept], lo[kept]]))), shape=(V, V))
        return graph, pair_keys, kept


# Shift lam of the monotone Gauss scheme's matrix S + lam M: sup R' over
# u <= 0, the smallest value that keeps its update order-preserving (see
# ``gauss.monotone_solve_gauss``).
MONOTONE_SHIFT = 2.0


def of(mesh):
    """The operator bundle of mesh, assembled on first use and kept."""
    if "operators" not in mesh._cache:
        mesh._cache["operators"] = Operators(mesh)
    return mesh._cache["operators"]


def factor(A, ordered=False):
    """SuperLU factors of a sparse matrix with a symmetric pattern.

    Every matrix factored here (the bundle's S + M and S + MONOTONE_SHIFT M
    and the shift-invert operators of ``eigs_nearest``) is structurally
    symmetric,
    so SuperLU runs in symmetric mode, preferring diagonal pivots, and the
    columns are ordered by minimum degree on the pattern of A + A^T
    (George & Liu 1989).  A matrix already permuted into that order
    (``ordered``: ``eigs_nearest``'s, on ``Operators.kept_ordering``) keeps
    its natural order instead, so a mesh's pattern is ordered once.
    SuperLU's default pivot threshold is kept because the shifted matrices
    are indefinite.  Raises RuntimeError when A is exactly singular.
    """
    return spla.splu(sp.csc_matrix(A),
                     permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                     options=dict(SymmetricMode=True))


# Relative residual of an exact MINRES solve (the Green solves) and the
# iteration cap of every MINRES solve.  With the S + M preconditioner an
# exact solve takes 10-14 iterations on levels 2-5, a Newton step at the
# rtol of ``forcing`` 5-8.
NEWTON_RTOL = 1e-13
NEWTON_MAXITER = 300
# Step cap of ``damped_newton``, in the Gauss, J, Ricci and coupled solvers.
NEWTON_MAX_STEPS = 200
# Largest rtol ``forcing`` asks of a ``damped_newton`` step, in the Gauss,
# J, Ricci and coupled solvers alike.  A cap of 1e-2 stalls the Ricci line
# search, which tests the max-norm of the residual, at 1.3e-7.
FORCING_CAP = 1e-6


def forcing(res, prev, tol):
    """rtol of the next inexact step of ``damped_newton``: Eisenstat &
    Walker's choice 2,
    min(FORCING_CAP, max(0.9 (res/prev)^2, 1e-3 tol/res)).

    res and prev are the outer residuals now and before the last step
    (prev is None before the first step, which gets the cap); tol is the
    outer tolerance.  0.9 (res/prev)^2 tightens the solve as Newton
    converges; the floor keeps rtol * res, about the linear residual the
    step leaves, from going below 1e-3 tol, which the outer test cannot
    see.
    """
    if prev is None:
        return FORCING_CAP
    return min(FORCING_CAP, max(0.9 * (res / prev) ** 2, 1e-3 * tol / res))


def newton_solve(ops, A, b, name, rank_one=None, zero_mean=False,
                 rtol=NEWTON_RTOL):
    """Solve the symmetric Newton system (A + q q^T) x = b by MINRES.

    The Green solves S x = b on zero-mean fields go through it too.  A is
    sparse symmetric, possibly indefinite, and q = rank_one (if given).
    A is V x V, or a system of k x k blocks of size V x V (the coupled
    solve's k = 2).
    With zero_mean the system is posed on zero-M-mean fields: x has zero
    M-mean and the residual may have any component along m, as
    in the KKT system with the constraint m^T x = 0.  It is applied
    matrix-free as P^T (A + q q^T) P with P x = x - (m^T x / Vol) 1, a
    singular but consistent system whose solution is projected by P.

    MINRES (Paige & Saunders 1975) handles indefinite systems with an SPD
    preconditioner; here that is the bundle's factor of S + M, block
    diagonal for a block system (Benzi, Golub & Liesen, Acta Numer. 14,
    2005, section 10), applied by one ``solve`` call on the V x k array of
    the blocks, so no Newton step or Green solve factors anything.  MINRES
    stops at relative residual rtol (NEWTON_RTOL by default; the Newton
    loops pass ``forcing``).  Raises NonConvergence naming the solver when
    MINRES stops without reaching rtol or returns a non-finite x.
    """
    n = A.shape[0]
    m, vol = ops.m, ops.vol

    def project(x):
        return x - (m @ x) / vol

    def matvec(x):
        if zero_mean:
            x = project(x)
        y = A @ x
        if rank_one is not None:
            y = y + rank_one * (rank_one @ x)
        if zero_mean:
            y = y - m * (y.sum() / vol)
        return y

    if zero_mean:
        b = b - m * (b.sum() / vol)
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    lu = ops.screened_lu
    blocks = n // m.size

    def precondition(x):
        return lu.solve(np.reshape(x, (blocks, -1)).T).T.reshape(-1)

    precond = spla.LinearOperator((n, n), matvec=precondition, dtype=float)
    x, info = spla.minres(op, b, rtol=rtol, maxiter=NEWTON_MAXITER,
                          M=precond)
    if info != 0 or not np.isfinite(x).all():
        raise NonConvergence(
            f"{name}: MINRES on the Newton system stopped without reaching "
            f"rtol {rtol:g} (info {info}, V = {m.size})")
    return project(x) if zero_mean else x


def damped_newton(ops, x, residual, system, name, tol, inside=None,
                  gain=None, zero_mean=False):
    """Damped Newton from x until residual(x) <= tol; returns
    (x, residual(x), steps).

    The loop of the Gauss, J, Ricci and coupled solvers.  Each step solves
    system(x) = (A, b) or (A, b, q) by ``newton_solve`` (with rank_one q
    and zero_mean) to the rtol of ``forcing`` and halves its length, at
    most 60 times, until the candidate is ``inside`` (when given) and its
    residual is no larger than the current one.  An ascent (the J
    maximization) passes gain(x, candidate), the increase of the function
    it maximizes, whose gradient b is: its steps are accepted when the
    gain is >= 0 instead, and a step that descends (b . step < 0, which an
    indefinite A allows) is reversed first.  The residual is checked
    before the first step, so an exact start returns in zero steps.
    Raises NonConvergence naming the solver when the residual is not
    finite, the line search stalls or NEWTON_MAX_STEPS steps leave the
    residual above tol.
    """
    res, prev = residual(x), None
    steps = 0
    while not res <= tol:
        if not np.isfinite(res):
            raise NonConvergence(f"{name}: the residual is {res}, not finite")
        if steps == NEWTON_MAX_STEPS:
            raise NonConvergence(
                f"{name} did not reach tol {tol} in {NEWTON_MAX_STEPS} "
                f"iterations (last residual {res:.3e})")
        A, b, *q = system(x)
        step = newton_solve(ops, A, b, name, rank_one=q[0] if q else None,
                            zero_mean=zero_mean, rtol=forcing(res, prev, tol))
        if gain is not None and b @ step < 0:
            step = -step
        t = 1.0
        for _ in range(60):
            cand = x + t * step
            if inside is None or inside(cand):
                cand_res = residual(cand)
                if (cand_res <= res if gain is None
                        else gain(x, cand) >= 0):
                    break
            t *= 0.5
        else:
            raise NonConvergence(f"{name} line search stalled")
        x, res, prev = cand, cand_res, res
        steps += 1
    return x, res, steps


def volume(mesh):
    """Total hyperbolic area: the sum of the lumped vertex masses, which
    equals the sum of triangle angle defects up to rounding."""
    return of(mesh).vol


def mass_vector(mesh):
    """Lumped vertex areas: one third of each incident triangle's area."""
    return of(mesh).m


def laplacian(mesh):
    """(L, M): the cotangent Laplacian L = -S (rows sum to 0) and the lumped
    mass matrix; g^T L f = -(discrete Dirichlet pairing of f and g)."""
    ops = of(mesh)
    return -ops.S, ops.M


def stiffness(mesh):
    """PSD stiffness matrix S = -L."""
    return of(mesh).S


# ----------------------------------------------------------------------
# Spectrum

EIG_TOL = 1e-9  # relative accuracy asked of ARPACK in eig_low


def _lanczos(A, M, sigma, solve, k, **options):
    """``spla.eigsh`` in shift-invert mode at sigma, the package's one
    eigen-solve call: solve applies (A - sigma M)^{-1}, ARPACK starts from
    ones plus a small fixed perturbation and options pass through
    (Ericsson & Ruhe 1980; Lehoucq, Sorensen & Yang, ARPACK Users' Guide,
    SIAM 1998).  An ARPACK failure raises NonConvergence naming sigma, k
    and V at every size.
    """
    V = A.shape[0]
    inverse = spla.LinearOperator((V, V), matvec=solve, dtype=float)
    v0 = np.ones(V) + 0.01 * np.random.default_rng(0).standard_normal(V)
    try:
        return spla.eigsh(A, k=k, M=M, sigma=sigma, OPinv=inverse, v0=v0,
                          **options)
    except spla.ArpackError as exc:
        raise NonConvergence(
            f"shift-invert eigen-solve at sigma = {sigma:.6g} "
            f"(k = {k}, V = {V}) failed: {exc}") from exc


def eig_low(mesh, k=2):
    """Smallest k generalized eigenpairs of S x = lambda M x, ascending.

    Shift-invert Lanczos (``_lanczos``) at sigma = -1, where S - sigma M
    is the bundle's S + M, so its factor serves as the inverse.  Small
    problems (V <= max(4k + 20, 300)) are solved densely; an ARPACK
    failure raises NonConvergence at every size.
    """
    ops = of(mesh)
    S, M = ops.S, ops.M
    V = S.shape[0]
    if V <= max(4 * k + 20, 300):
        return _eig_dense(S, M, k)
    vals, vecs = _lanczos(S, M, -1.0, ops.screened_lu.solve, k, which="LM",
                          tol=EIG_TOL)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def eigs_nearest(ops, d, sigma, enough):
    """Eigenvalues of A x = mu M x nearest sigma, nearest first, for
    A = L + diag(d) = -S + diag(d) on the bundle ops: the linearized
    operator of ``ricci.stability_check``, its one caller.

    Shift-invert Lanczos (``_lanczos``): ARPACK finds the largest
    eigenvalues theta = 1/(mu - sigma) of (A - sigma M)^{-1} M, i.e. the
    mu nearest sigma.  One ``factor`` of A - sigma M serves
    every k: its values are filled into ``Operators.kept_ordering``'s
    permuted pattern of S and factored in that order, so nothing is
    assembled or ordered here.  k starts at 1 and doubles until
    ``enough(vals)`` holds; each run's Krylov space has max(2k + 1, 10)
    vectors, at most V, which at k = 1 takes about half the solves of
    ARPACK's default 20 (Lehoucq & Sorensen, SIAM J. Matrix Anal. Appl.
    17, 1996).  Only when k would reach V - 1 is the full spectrum
    computed densely instead (tiny meshes).

    Raises RuntimeError when A - sigma M is exactly singular (SuperLU) and
    NonConvergence when ARPACK fails.
    """
    A, M = ops.shifted(-1.0, d), ops.M
    V = A.shape[0]
    order, indptr, indices, gather = ops.kept_ordering
    data = A.data.copy()
    data[ops.diagonal_slots] -= sigma * ops.m
    lu = factor(sp.csc_matrix((data[gather], indices, indptr), shape=(V, V)),
                ordered=True)

    def solve(b):
        x = np.empty_like(b)
        x[order] = lu.solve(b[order])
        return x

    k = 1
    while k < V - 1:
        vals = _lanczos(A, M, sigma, solve, k, ncv=min(V, max(2 * k + 1, 10)),
                        return_eigenvectors=False)
        vals = vals[np.argsort(np.abs(vals - sigma), kind="stable")]
        if enough(vals):
            return vals
        k *= 2
    vals, _ = _eig_dense(A, M, V)
    return vals[np.argsort(np.abs(vals - sigma), kind="stable")]


def _eig_dense(A, M, k):
    """Smallest k eigenpairs of A x = lambda M x by a dense solve."""
    from scipy.linalg import eigh
    vals, vecs = eigh(A.toarray(), M.toarray())
    return vals[:k], vecs[:, :k]


@dataclass
class SpectralReport:
    lambda0: float
    lambda1: float
    systole: float
    volume: float

    def to_dict(self):
        return {"lambda0": self.lambda0, "lambda1": self.lambda1,
                "systole": self.systole, "volume": self.volume,
                "tol": EIG_TOL}


def spectral_gap(mesh):
    """Smallest two Laplace eigenvalues plus systole and volume."""
    lam0, lam1 = of(mesh).low_eigenvalues
    return SpectralReport(lambda0=lam0, lambda1=lam1, systole=systole(mesh),
                          volume=volume(mesh))


# ----------------------------------------------------------------------
# Systole on the edge graph

def _compose(a1, b1, a2, b2):
    """Product of SU(1,1) matrices given as (alpha, beta) pairs."""
    return a1 * a2 + b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _tree_word(mesh, pred, parent_edge, src, v):
    """Holonomy word of the shortest-path tree path from src to v."""
    steps = []
    while v != src:
        e = parent_edge[v]
        w = mesh.edge_words[e]
        steps.append(w if mesh.edges[e, 1] == v else group.inverse_word(w))
        v = pred[v]
    return group.concat(*reversed(steps))


def systole(mesh):
    """Length of the shortest edge loop with non-identity holonomy.

    Exact search over closed edge walks; see the module docstring for why
    each pruning keeps the minimum.  For each source s a Dijkstra run,
    capped at best/2 + the longest edge, gives distances d and a
    shortest-path tree; every edge e = (x, y) (tree, non-tree, parallel or
    self-loop) proposes the loop T_x e T_y^-1 of length d(x) + d(y) + l(e).
    Tree-path holonomies H_v are built by pointer doubling on SU(1,1)
    matrices; a candidate below the current best is dropped when
    |tr(H_x W_e H_y^-1)| < 3 (identity: 2, any other group element: at
    least 2 cosh(systole/2) > 4.8), and the survivors, shortest first, are
    accepted only by Dehn reduction of their word.  The search stops once
    the best loop reaches the Bolza bound, which no loop beats in exact
    arithmetic (in floats, only by rounding and ``validate``'s position
    tolerance).
    """
    key = "systole"
    if key in mesh._cache:
        return mesh._cache[key]
    V = mesh.num_vertices
    graph, pair_keys, pair_edges = of(mesh).path_graph
    tail, head = mesh.edges[:, 0], mesh.edges[:, 1]
    lengths = mesh.edge_lengths
    # SU(1,1) matrix [[alpha, beta], [conj beta, conj alpha]] of each edge
    table = mesh.word_table()
    alpha = table.matrices[table.ids, 0, 0]
    beta = table.matrices[table.ids, 0, 1]
    nontrivial = np.array([len(w) > 0 for w in table.words], dtype=bool)
    sources = np.unique(mesh.edges[nontrivial[table.ids]])
    slack = float(lengths.max())

    best = np.inf
    for src in sources:
        src = int(src)
        dist, pred = csgraph.dijkstra(graph, indices=src,
                                      limit=best / 2 + slack,
                                      return_predecessors=True)
        total = dist[tail] + dist[head] + lengths
        cand = np.flatnonzero(total < best)

        # tree-path isometries (ha, hb) over the reached vertices, in local
        # numbering; each starts as its oriented parent-edge isometry
        reached = np.flatnonzero(dist < np.inf)
        local = np.empty(V, dtype=np.intp)
        local[reached] = np.arange(reached.size)
        child = reached[reached != src]
        p = pred[child]
        pe = pair_edges[np.searchsorted(
            pair_keys, np.minimum(p, child) * V + np.maximum(p, child))]
        parent_edge = np.empty(V, dtype=np.intp)
        parent_edge[child] = pe
        root, at = local[src], local[child]
        up = np.full(reached.size, root)
        up[at] = local[p]
        ha = np.ones(reached.size, dtype=complex)
        hb = np.zeros(reached.size, dtype=complex)
        forward = tail[pe] == p
        ha[at] = np.where(forward, alpha[pe], np.conj(alpha[pe]))
        hb[at] = np.where(forward, beta[pe], -beta[pe])
        # pointer doubling: (ha, hb)[v] is the product from up[v] to v
        while (up != root).any():
            ha, hb = _compose(ha[up], hb[up], ha, hb)
            up = up[up]

        x, y = local[tail[cand]], local[head[cand]]
        ga, gb = _compose(ha[x], hb[x], alpha[cand], beta[cand])
        trace = 2.0 * (ga * np.conj(ha[y]) - gb * np.conj(hb[y])).real
        survivors = cand[np.abs(trace) >= 3.0]
        for e in survivors[np.argsort(total[survivors], kind="stable")]:
            word = group.concat(
                _tree_word(mesh, pred, parent_edge, src, tail[e]),
                mesh.edge_words[e],
                group.inverse_word(
                    _tree_word(mesh, pred, parent_edge, src, head[e])))
            if not group.is_identity(word):
                best = float(total[e])
                break
        if best <= hyperbolic.SYSTOLE:
            break
    mesh._cache[key] = float(best)
    return float(best)


def graph_distances(mesh, src):
    """Single-source graph distances along edge lengths."""
    graph, _, _ = of(mesh).path_graph
    return csgraph.dijkstra(graph, indices=src)
