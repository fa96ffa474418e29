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
``factor``.  The bundle keeps the mass only as the vector m, and three
SPD factors of S + s M, filled by ``shifted`` and made on first use;
every solve with S or a shifted S on the mesh uses one of them:

* ``screened_lu``, S + M, serves every solve whose bits are stored or
  re-derived from the mesh: the Green solves of the section densities,
  ``eig_low``'s shift-invert Lanczos at sigma = -1 (so lambda0 and
  lambda1), posed in standard form on M^{1/2} (S + M)^{-1} M^{1/2} (see
  ``_lanczos``), ``ricci.mt_probe`` (one multi-column solve per block of
  up to 8 samples) and the ordering ``kept_ordering``;
* ``monotone_lu``, S + MONOTONE_SHIFT M, is the monotone Gauss scheme's
  matrix and preconditions the Gauss-like Newton blocks, S + M diag(R')
  with R' up to 2: ``gauss.solve_gauss`` and the coupled system's u-block;
* ``laplace_lu``, S + LAPLACE_SHIFT M, preconditions the blocks that are
  a * S plus a small diagonal, nearly the Laplacian: ``ricci.maximize_J``,
  ``ricci.solve_ricci_newton`` and the coupled system's v-block.

The Newton systems and the Green solves are solved by MINRES
(``newton_solve``) with a block-diagonal preconditioner whose block i is
the factor the solver names for its i-th V-block (Benzi, Golub & Liesen,
Acta Numer. 14, 2005, section 10).  A Newton solve's result is fixed by
its residual test on S, not by its preconditioner: a wrong factor would
only slow it down.  So a mesh is factored at most three times however
many solves its solvers make, and a solve's cost is its
number of preconditioner solves; only ``eigs_nearest``, the stability
check's one search, factors on every call, because its matrix changes
with the data, and that factor reuses the S + M factor's fill-reducing
ordering on the bundle's kept pattern (``kept_ordering``): it neither
adds sparse matrices nor orders anything.  No Newton step or Green solve
builds a sparse matrix either: MINRES only multiplies by its matrix,
a * S + diag(d) or the coupled 2 x 2 block of such matrices with diagonal
coupling, so each solver passes it as the function y -> a S y + d y
(Jacobian-free Newton-Krylov; Knoll & Keyes, J. Comput. Phys. 193,
2004).  MINRES's rtol bounds its estimate of the normwise backward
error, not the relative residual (``newton_solve``).  The Green solves
run it to NEWTON_RTOL.  The Newton steps are inexact (Eisenstat &
Walker, SIAM J. Sci. Comput. 17, 1996): ``forcing`` asks FIRST_FORCING
of the first step of each loop, which starts farthest from the solution,
and of each later step an rtol set from the outer residuals, so no
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
the fourth, the Bolza stop, keeps it up to a stated rounding bound.

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
  non-trivial edge loop is shorter than sys = 2 arccosh(1 + sqrt 2), the
  systole of the Bolza surface.  Every edge word lies in the octagon group
  G (a cover's loops have holonomy in a finite-index subgroup of G).
  Developed in the disk from the lift p of its first vertex, a loop with
  holonomy gamma != 1 becomes a chain of geodesic segments from p to
  gamma p, and ``validate`` checks that each segment's drawn length is its
  stored length.  So the loop is at least d(p, gamma p) long, which is at
  least the translation length of gamma, hence at least sys(G).  In
  floats, a candidate's length is a sum of its k stored edge lengths,
  k - 1 additions of positive terms, so its relative error is below k u,
  u = 2^-53 (Higham, *Accuracy and Stability of Numerical Algorithms*,
  2nd ed., 2002, section 4.2), and ``hyperbolic.SYSTOLE`` is sys
  correctly rounded (0.31 u above it).  With k = best / the shortest
  edge, the most edges of any loop not longer than best, (a) a loop of
  exact length sys sums to at most SYSTOLE (1 + k 2^-52), so the search
  stops once best is within that bound, as it is once a shortest loop is
  found, and (b) a loop that a later source could find sums to at least
  SYSTOLE (1 - (k + 1) u).  So the result, min(best, SYSTOLE), is within
  SYSTOLE k 2^-52 (about 1.4 k ulp) of the exhaustive search's; a loop
  not above the constant keeps its bits, as on every mesh whose first
  loop sums to it exactly (levels 0-5 with their cyclic 2- and 3-covers,
  levels 6-7 with their 2-covers).  The argument takes each stored
  length as the drawn one, which ``validate`` checks to POSITION_TOL per
  edge; that slack, at most k POSITION_TOL, the stop does not cover.
  The result equals the exhaustive search (``reference_systole`` in the
  tests) on base levels 0-3, cyclic 2- and 3-covers of levels 0-2, a
  relabelled 2-cover of level 2 and a non-abelian 3-sheet cover of
  levels 0-2.
"""

from __future__ import annotations

import numbers
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


class Operators:
    """Per-mesh operators: S (CSR), lumped masses m (the mass matrix is
    M = diag(m), kept only as this vector), the total area vol = m.sum(),
    lap and log_mean.  The path graph, the three kept factors
    (``screened_lu``, S + M; ``monotone_lu``, S + MONOTONE_SHIFT M;
    ``laplace_lu``, S + LAPLACE_SHIFT M; the module docstring says which
    solve uses which) and lambda0/lambda1 are built on first use, and so
    are the index structures on which the factored matrices are filled
    without assembling them: the slots of S's diagonal in S.data
    (``diagonal_slots``; the cotangent S stores its whole diagonal), on
    which ``shifted`` fills a * S + diag(d) for the three kept factors and
    ``eigs_nearest``, and S's pattern permuted by the S + M factor's
    ordering (``kept_ordering``), on which ``eigs_nearest`` fills its
    shift-invert matrix.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        sl = mesh.slot_lengths()
        angles = np.stack(
            hyperbolic.triangle_angles(sl[:, 0], sl[:, 1], sl[:, 2]), axis=1)
        if not np.isfinite(angles).all() or (angles <= 0).any():
            raise MeshError("degenerate triangle (bad corner angle)")
        areas = np.pi - angles.sum(axis=1)
        if (areas <= 0).any():
            raise MeshError("degenerate triangle (nonpositive area)")

        V, tri = mesh.num_vertices, mesh.triangles
        # each vertex sums its corners' thirds k-major: the corners 0 of
        # all triangles, then the corners 1, then the corners 2
        self.m = m = np.bincount(tri.T.ravel(), np.tile(areas / 3.0, 3),
                                 minlength=V)
        self.vol = float(m.sum())

        # entries (i, i, w), (j, j, w), (i, j, -w), (j, i, -w) of each slot
        # k joining corners i = k and j = k + 1, k-major, on index arrays of
        # the dtype SciPy keeps; SciPy sums the duplicates in this order
        i = tri.T.astype(sp.get_index_dtype(maxval=max(V, tri.size * 4)))
        j = i[[1, 2, 0]]
        w = (0.5 / np.tan(angles[:, [2, 0, 1]])).T
        self.S = sp.coo_matrix(
            (np.stack([w, w, -w, -w], axis=1).ravel(),
             (np.stack([i, j, i, j], axis=1).ravel(),
              np.stack([i, j, j, i], axis=1).ravel())),
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
        """Positions of S's diagonal entries in S.data, row by row; asserts
        that S stores each of them."""
        S = self.S
        rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
        slots = np.flatnonzero(S.indices == rows)
        assert slots.size == S.shape[0], "a diagonal entry is not stored"
        return slots

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
        """Factor of the SPD screened matrix S + M: ``eig_low``'s inverse,
        the Green solves' preconditioner, ``ricci.mt_probe``'s smoother and
        the source of ``kept_ordering``."""
        return factor(self.shifted(1.0, self.m))

    @cached_property
    def monotone_lu(self):
        """Factor of the SPD matrix S + MONOTONE_SHIFT M: the monotone
        Gauss scheme's matrix (``gauss.monotone_solve_gauss``) and the
        preconditioner of ``gauss.solve_gauss`` and the coupled u-block."""
        return factor(self.shifted(1.0, MONOTONE_SHIFT * self.m))

    @cached_property
    def laplace_lu(self):
        """Factor of the SPD matrix S + LAPLACE_SHIFT M, the preconditioner
        of ``ricci.maximize_J``, ``ricci.solve_ricci_newton`` and the
        coupled v-block."""
        return factor(self.shifted(1.0, LAPLACE_SHIFT * self.m))

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
# Shift eps of the preconditioner S + eps M of the near-Laplacian Newton
# blocks (``Operators.laplace_lu``).  It keeps the factor SPD and must stay
# well below lambda1 of the meshes solved (0.032 on the level-3 12-cover).
# On the README coupled solve of the level-4 and -5 2-covers, the level-3
# and -4 6-covers and the level-3 12-cover, 0.005 and 0.01 need at most
# 11 % more Newton preconditioner solves than the fewest over
# 0.002-1, 0.02 up to 26 % more (on the 12-cover) and 1, the S + M
# factor, 1.5-3.4 times as many.
LAPLACE_SHIFT = 0.01


def of(mesh):
    """The operator bundle of mesh, assembled on first use and kept."""
    if "operators" not in mesh._cache:
        mesh._cache["operators"] = Operators(mesh)
    return mesh._cache["operators"]


def factor(A, ordered=False):
    """SuperLU factors of a sparse matrix with a symmetric pattern.

    Every matrix factored here (the bundle's three kept factors and the
    shift-invert operators of ``eigs_nearest``) is structurally symmetric,
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


# rtol of an exact MINRES solve (the Green solves), a bound on MINRES's
# backward-error estimate (``newton_solve``), and the iteration cap of
# every MINRES solve.  With the S + M preconditioner an exact Green solve
# takes 10-14 iterations on levels 2-5, a Newton step at the rtol of
# ``forcing`` 5-8.  The Green solves of the README base density and of
# four of its balanced lifts to the 2-cover leave a true relative residual
# ||S x - b|| / ||b|| of 2.1e-14 to 3.6e-13 on levels 2-5.
NEWTON_RTOL = 1e-13
NEWTON_MAXITER = 300
# Step cap of ``damped_newton``, in the Gauss, J, Ricci and coupled solvers.
NEWTON_MAX_STEPS = 200
# Largest rtol ``forcing`` asks of a ``damped_newton`` step after the
# first, in the Gauss, J, Ricci and coupled solvers alike.  A cap of 1e-2
# stalls the Ricci line search, which tests the max-norm of the residual,
# at 1.3e-7.
FORCING_CAP = 1e-6
# rtol of the first step of every ``damped_newton`` loop.  On the 16 pool
# zeros of the level-5 2-cover at degree 1, 1e-3 takes the coupled Newton
# 64 steps where 1e-4 takes 49 (576 preconditioner solves against 458),
# and 1e-5 saves fewer solves than 1e-4 on levels 3-5.
FIRST_FORCING = 1e-4


def forcing(res, prev, tol):
    """rtol of the next inexact step of ``damped_newton``: FIRST_FORCING
    for the first step (prev is None), then Eisenstat & Walker's choice 2,
    min(FORCING_CAP, max(0.9 (res/prev)^2, 1e-3 tol/res)).

    res and prev are the outer residuals now and before the last step; tol
    is the outer tolerance.  The first step starts farthest from the
    solution, so solving it as tightly as the later ones would oversolve
    it.  0.9 (res/prev)^2 tightens the solve as Newton converges.  The
    floor keeps rtol from going below 1e-3 tol/res, a thousandth of the
    relative decrease the outer test still asks for.  Both are heuristics
    on relative decreases, not bounds on the residual a step leaves: rtol
    bounds MINRES's backward-error estimate (``newton_solve``), and on
    the 2-covers of levels 2-5 a step's true ||A s - b|| / ||b|| came out
    0.1 to 150 times its rtol.
    """
    if prev is None:
        return FIRST_FORCING
    return min(FORCING_CAP, max(0.9 * (res / prev) ** 2, 1e-3 * tol / res))


def newton_solve(ops, A, b, name, factors, rank_one=None, zero_mean=False,
                 rtol=NEWTON_RTOL):
    """Solve the symmetric Newton system (A + q q^T) x = b by MINRES.

    The Green solves S x = b on zero-mean fields go through it too.  A is
    the function x -> A x of a symmetric, possibly indefinite matrix, and
    q = rank_one (if given).  The system has k x k blocks of size V x V,
    one per entry of factors (k = 1, or the coupled solve's 2), so b has
    kV entries.
    With zero_mean the system is posed on zero-M-mean fields: x has zero
    M-mean and the residual may have any component along m, as
    in the KKT system with the constraint m^T x = 0.  It is applied
    matrix-free as P^T (A + q q^T) P with P x = x - (m^T x / Vol) 1, a
    singular but consistent system whose solution is projected by P.

    MINRES (Paige & Saunders 1975) handles indefinite systems with an SPD
    preconditioner; here that is block diagonal, factors[i] applied to
    block i (Benzi, Golub & Liesen, Acta Numer. 14, 2005, section 10):
    each solver names the bundle's kept factor whose shift matches its
    block's diagonal, so no Newton step or Green solve factors anything.
    With one factor, that factor's own ``solve`` is the preconditioner;
    with two, each block is solved from a slice into one output vector.

    MINRES stops when its estimate of ||r|| / (||A|| ||x||) or of
    ||A r|| / (||A|| ||r||) falls below rtol (NEWTON_RTOL by default; the
    Newton loops pass ``forcing``), with r the preconditioned residual and
    ||A|| estimated from the Lanczos tridiagonal (SciPy 1.17's
    ``minres``): a test on the normwise backward error, not on
    ||A x - b|| / ||b||, which can be larger (the NEWTON_RTOL comment
    gives the Green solves').  Raises NonConvergence naming the solver
    when MINRES stops without reaching rtol in NEWTON_MAXITER iterations
    or returns a non-finite x.
    """
    n = b.size
    m, vol = ops.m, ops.vol
    assert n == len(factors) * m.size, "one factor per V-block"

    def project(x):
        return x - (m @ x) / vol

    def matvec(x):
        if zero_mean:
            x = project(x)
        y = A(x)
        if rank_one is not None:
            y = y + rank_one * (rank_one @ x)
        if zero_mean:
            y = y - m * (y.sum() / vol)
        return y

    if zero_mean:
        b = b - m * (b.sum() / vol)
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)

    if len(factors) == 1:
        precondition = factors[0].solve
    else:
        V = m.size

        def precondition(x):
            y = np.empty_like(x)
            for i, lu in enumerate(factors):
                y[i * V:(i + 1) * V] = lu.solve(x[i * V:(i + 1) * V])
            return y

    precond = spla.LinearOperator((n, n), matvec=precondition, dtype=float)
    x, info = spla.minres(op, b, rtol=rtol, maxiter=NEWTON_MAXITER,
                          M=precond)
    if info != 0 or not np.isfinite(x).all():
        raise NonConvergence(
            f"{name}: MINRES on the Newton system stopped without reaching "
            f"rtol {rtol:g} (info {info}, V = {m.size})")
    return project(x) if zero_mean else x


def damped_newton(ops, x, residual, system, name, tol, factors, inside=None,
                  gain=None, zero_mean=False):
    """Damped Newton from x until residual(x) <= tol; returns
    (x, residual(x), steps).

    The loop of the Gauss, J, Ricci and coupled solvers.  Each step solves
    system(x) = (A, b) or (A, b, q), A the function y -> A y of the Newton
    matrix, by ``newton_solve`` (with factors, one kept factor per V-block,
    rank_one q and zero_mean) to the rtol of ``forcing`` and halves its
    length, at most 60 times, until
    the candidate is ``inside`` (when given) and its residual is no larger
    than the current one.  An ascent (the J maximization) passes
    gain(x, candidate), the increase of the function it maximizes, whose
    gradient b is: its steps are accepted when the gain is >= 0 instead,
    and a step that descends (b . step < 0, which an indefinite A allows)
    is reversed first.  The residual is checked
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
        step = newton_solve(ops, A, b, name, factors=factors,
                            rank_one=q[0] if q else None,
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


def check_curvature_inputs(degree, t):
    """ValueError unless degree is an integer, not a bool (``certify``
    records int(degree)), and the rescaling knob t lies in (0, 1]."""
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral):
        raise ValueError(f"degree must be an integer, got {degree!r}")
    if not 0 < float(t) <= 1:
        raise ValueError("rescaling knob t must lie in (0, 1]")


def curvature_constant(mesh, degree, t=1.0):
    """c = t 2 pi d / Vol, the package's one formula for the curvature
    constant, after ``check_curvature_inputs``.  A c that rounds to 0 while
    d t > 0 (a t below the float range) is a ValueError naming d t, not
    the InfeasibleDegree of c = 0 at d = 0."""
    check_curvature_inputs(degree, t)
    c = float(t * (2.0 * np.pi * degree / of(mesh).vol))
    if c == 0 and degree * t > 0:
        raise ValueError(
            f"d t = {degree * t:.6g} with c = 2 pi d t / Vol is too small: c "
            "rounds to 0; raise t")
    return c


def mass_vector(mesh):
    """Lumped vertex areas: one third of each incident triangle's area."""
    return of(mesh).m


def laplacian(mesh):
    """(L, M): the cotangent Laplacian L = -S (rows sum to 0) and the lumped
    mass matrix; g^T L f = -(discrete Dirichlet pairing of f and g)."""
    ops = of(mesh)
    return -ops.S, sp.diags(ops.m, format="csr")


def stiffness(mesh):
    """PSD stiffness matrix S = -L."""
    return of(mesh).S


# ----------------------------------------------------------------------
# Spectrum

EIG_TOL = 1e-9  # relative accuracy asked of ARPACK in eig_low
DENSE_MAX_V = 300  # largest V that eig_low and eigs_nearest solve densely


def _lanczos(solve, m, sigma, k, **options):
    """The k eigenvalues nearest sigma of A x = lambda M x, M = diag(m),
    by shift-invert Lanczos: ``spla.eigsh``, the package's one eigen-solve
    call, with solve applying (A - sigma M)^{-1}.

    M is diagonal, so the spectral transformation is posed in standard
    form (Ericsson & Ruhe, Math. Comp. 35, 1980; Lehoucq, Sorensen & Yang,
    ARPACK Users' Guide, SIAM 1998, section 4): with D = M^{1/2}, ARPACK's
    mode 1 finds the k eigenvalues theta of largest magnitude of the
    symmetric operator y -> D (A - sigma M)^{-1} D y, one solve and no
    M-product per step, and lambda = sigma + 1/theta.  The start vector
    is ones plus a small fixed perturbation, scaled by D; options pass
    through.  Returns the lambdas ascending and, unless
    return_eigenvectors is False, their vectors x = D^{-1} y, which are
    M-orthonormal.  An ARPACK failure raises NonConvergence naming sigma,
    k and V at every size.
    """
    V = m.size
    scale = np.sqrt(m)
    inverse = spla.LinearOperator(
        (V, V), matvec=lambda y: scale * solve(scale * y), dtype=float)
    v0 = np.ones(V) + 0.01 * np.random.default_rng(0).standard_normal(V)
    try:
        found = spla.eigsh(inverse, k=k, which="LM", v0=scale * v0,
                           **options)
    except spla.ArpackError as exc:
        raise NonConvergence(
            f"shift-invert eigen-solve at sigma = {sigma:.6g} "
            f"(k = {k}, V = {V}) failed: {exc}") from exc
    theta, y = found if isinstance(found, tuple) else (found, None)
    vals = sigma + 1.0 / theta
    order = np.argsort(vals)
    if y is None:
        return vals[order]
    return vals[order], y[:, order] / scale[:, None]


def eig_low(mesh, k=2):
    """Smallest k generalized eigenpairs of S x = lambda M x, ascending,
    the vectors M-orthonormal.

    Shift-invert Lanczos (``_lanczos``) at sigma = -1, where S - sigma M
    is the bundle's S + M, so its factor serves as the inverse: ARPACK
    runs in standard form on M^{1/2} (S + M)^{-1} M^{1/2} from the
    M^{1/2}-scaled start vector, and lambda = 1/theta - 1.  Small
    problems (V <= max(4k + 20, DENSE_MAX_V), where ARPACK can skip
    copies of repeated eigenvalues) are solved densely; an ARPACK
    failure raises NonConvergence at every size.
    """
    ops = of(mesh)
    V = ops.m.size
    if V <= max(4 * k + 20, DENSE_MAX_V):
        return _eig_dense(ops.S, ops.m, k)
    return _lanczos(ops.screened_lu.solve, ops.m, -1.0, k, tol=EIG_TOL)


def eigs_nearest(ops, d, sigma, enough):
    """Eigenvalues of A x = mu M x nearest sigma, nearest first, for
    A = L + diag(d) = -S + diag(d) on the bundle ops: the linearized
    operator of ``ricci.stability_check``, its one caller.

    Shift-invert Lanczos (``_lanczos``): ARPACK finds the largest
    eigenvalues theta = 1/(mu - sigma) of M^{1/2} (A - sigma M)^{-1}
    M^{1/2} in standard form, i.e. the mu = sigma + 1/theta nearest sigma.
    One ``factor`` of A - sigma M serves
    every k: its values are filled into ``Operators.kept_ordering``'s
    permuted pattern of S and factored in that order, so nothing is
    assembled or ordered here.  k starts at 1 and doubles until
    ``enough(vals)`` holds; each run's Krylov space has max(2k + 1, 10)
    vectors, at most V, which at k = 1 takes about half the solves of
    ARPACK's default 20 (Lehoucq & Sorensen, SIAM J. Matrix Anal. Appl.
    17, 1996).  When k would reach V - 1, the full spectrum is computed
    densely if V <= DENSE_MAX_V (v = 0, f = 10 on the level-1 meshes
    needs it); above it that O(V^3) solve is refused.

    Raises RuntimeError when A - sigma M is exactly singular (SuperLU), and
    NonConvergence when ARPACK fails or, above DENSE_MAX_V, when k reaches
    V - 1 without ``enough``.
    """
    V = ops.m.size
    order, indptr, indices, gather = ops.kept_ordering
    data = ops.shifted(-1.0, d).data
    data[ops.diagonal_slots] -= sigma * ops.m
    lu = factor(sp.csc_matrix((data[gather], indices, indptr), shape=(V, V)),
                ordered=True)

    def solve(b):
        x = np.empty_like(b)
        x[order] = lu.solve(b[order])
        return x

    k = 1
    while k < V - 1:
        vals = _lanczos(solve, ops.m, sigma, k,
                        ncv=min(V, max(2 * k + 1, 10)),
                        return_eigenvectors=False)
        vals = vals[np.argsort(np.abs(vals - sigma), kind="stable")]
        if enough(vals):
            return vals
        k *= 2
    if V > DENSE_MAX_V:
        raise NonConvergence(
            f"no k up to {k // 2} gave enough eigenvalues nearest sigma = "
            f"{sigma:.6g} (V = {V}), and V > DENSE_MAX_V = {DENSE_MAX_V}")
    vals, _ = _eig_dense(ops.shifted(-1.0, d), ops.m, V)
    return vals[np.argsort(np.abs(vals - sigma), kind="stable")]


def _eig_dense(A, m, k):
    """Smallest k eigenpairs of A x = lambda M x, M = diag(m), by the
    package's one dense eigen-solve."""
    from scipy.linalg import eigh
    vals, vecs = eigh(A.toarray(), np.diag(m))
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
    the best loop is within SYSTOLE (1 + k 2^-52) of the Bolza bound, k
    the most edges of a loop that long, and returns min(best, SYSTOLE):
    no loop beats the bound in exact arithmetic, so a later source could
    lower it by at most that rounding (module docstring).
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
    # solves best <= SYSTOLE (1 + k 2^-52), k = best / shortest edge, for best
    stop = hyperbolic.SYSTOLE / (
        1.0 - hyperbolic.SYSTOLE / float(lengths.min()) * 2.0**-52)

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
        if best <= stop:
            best = min(best, hyperbolic.SYSTOLE)
            break
    mesh._cache[key] = float(best)
    return float(best)
