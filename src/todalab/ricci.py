"""Prescribed-curvature equation for the bundle metric factor v.

Given a background factor u and a section density rho = |alpha|^2 with
curvature constant c, the unknown v solves

    Delta v = c - e^{-2u} e^{2v} rho.

Integrating against the area form forces the mean identity
avg(e^{-2u} e^{2v} rho) = c, which is impossible when rho vanishes
identically but c > 0 (the integral obstruction) and, when it does not
vanish, unless c > 0.  ``RicciProblem`` refuses both cases and also the
zero section at c = 0, where J is undefined, so no solver below checks
the density again.

Two routes are provided and cross-checked:

* a variational route: with w = v - const chosen to have zero M-mean,
  maximize
      J(w) = ln avg(F e^{2w}) - (1/(c Vol)) w^T S w,   F = e^{log rho - 2u},
  whose critical points translate back to solutions of the equation with
  the mean identity holding exactly by construction.  J is a log-sum-exp
  (convex) minus a quadratic, so it is not concave in general: with v the
  translate of w (``translate_v``), its Hessian is negative definite on
  zero-mean fields when 2 sup e^{2v} F < lambda_1 (the stability
  hypothesis below) and may be indefinite otherwise.  ``maximize_J``
  runs Newton on grad J = 0 from w = 0, each step accepted by the
  increase of J and reversed when it does not ascend, and refuses
  rho = 2 c Vol >= 8 pi, where J is critical or unbounded (Moser,
  Indiana Univ. Math. J. 20, 1971; Fontana, Comment. Math. Helv. 68,
  1993);
* a direct damped Newton iteration on the equation residual from a given
  seed, which confirms a maximizer.

Both loops are ``operators.damped_newton``, shared with the Gauss and
coupled solvers.

Both Newton systems are symmetric and may be indefinite, so both are
solved by MINRES (``operators.newton_solve``) preconditioned with the
mesh's kept factor of S + LAPLACE_SHIFT M (``Operators.laplace_lu``): each
matrix is a * S plus a small diagonal, nearly the Laplacian.  No Newton
step factors or forms a matrix: each passes its matrix, a * S + diag(d),
as the function y -> a S y + d y.  ``mt_probe`` smooths its samples with the
S + M factor (``Operators.screened_lu``), one multi-column solve per
block of 8.

The stability check locates the spectrum of the linearized operator
L + 2 M diag(e^{2v} f) relative to M, with c = avg(e^{2v} f): it lies in
(-inf, -lambda_1 + 2 sup e^{2v} f] union [2c, 2 sup e^{2v} f], leaving the
window (-lambda_1 + 2 sup e^{2v} f, 2c) free of eigenvalues.  This is
min-max (Courant-Fischer): L relative to M has eigenvalues
0 > -lambda_1 >= -lambda_2 >= ..., and adding the diagonal term, which
lies in [0, 2 sup e^{2v} f], raises no eigenvalue by more than
2 sup e^{2v} f, so the largest is at most 2 sup e^{2v} f and every other
at most -lambda_1 + 2 sup e^{2v} f; the constant vector has Rayleigh
quotient 2c, so the largest is at least 2c.  When 2 sup e^{2v} f < lambda_1
the window contains 0 and the inverse of the linearization is bounded by
max(1/(lambda_1 - 2 sup e^{2v} f), 1/c).  The check confirms both
numerically by sparse shift-invert Lanczos at the window's midpoint (see
``stability_check``), on one sparse ``operators.factor`` instead of a
dense V x V solve: SuperLU factors in the S + M factor's minimum-degree
ordering, which the operator bundle keeps for the mesh.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import operators
from .errors import InfeasibleDegree, UnboundedDetected


@dataclass
class RicciProblem:
    mesh: object
    u: np.ndarray
    density: object
    c: float = None
    tol: float = 1e-9

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (self.mesh.num_vertices,):
            raise ValueError("u must be a per-vertex array")
        bad = np.flatnonzero(~np.isfinite(self.u))
        if bad.size:
            raise ValueError(f"u must be finite: u = {self.u[bad[0]]} at "
                             f"vertex {bad[0]}")
        if self.c is None:
            self.c = self.density.curvature_constant
        self.c = float(self.c)
        if not np.isfinite(self.c):
            raise ValueError("curvature constant c must be finite")
        if self.density.is_zero:
            raise InfeasibleDegree(
                "the section density vanishes identically: integrating the "
                "curvature equation over the closed surface forces "
                "avg(e^{-2u} e^{2v} rho) = c, so c > 0 fails for rho = 0, "
                "and at c = 0 the variational functional is undefined")
        if self.c <= 0:
            raise InfeasibleDegree(
                f"c = {self.c:.6g} is not positive while the section density "
                "does not vanish: integrating the curvature equation over "
                "the closed surface forces avg(e^{-2u} e^{2v} rho) = c, "
                "which is positive for rho >= 0 not identically 0")

    def log_weight(self):
        """log F = log rho - 2u, the weight in front of e^{2v}."""
        return self.density.log_density - 2.0 * self.u


@dataclass
class RicciSolution:
    v: np.ndarray
    w: np.ndarray
    J_value: float
    grad_norm: float
    mean_constraint_residual: float
    iterations: int = 0

    def to_dict(self, problem):
        return {"J_value": self.J_value,
                "grad_norm": self.grad_norm,
                "mean_residual": self.mean_constraint_residual,
                "c": problem.c,
                "degree": problem.density.degree}


@dataclass
class StabilityReport:
    sup_term: float
    lambda1: float
    window: tuple
    violating: list
    c: float
    hypothesis_ok: bool
    hinv_norm: float
    hinv_bound: float

    @property
    def window_empty(self):
        return len(self.violating) == 0

    def to_dict(self):
        return {**asdict(self), "window_empty": self.window_empty}


def _check_zero_mean(problem, w):
    ops = operators.of(problem.mesh)
    mean = float(ops.m @ w) / ops.vol
    if abs(mean) > 1e-8 * max(1.0, float(np.abs(w).max())):
        raise ValueError("w must have zero M-mean")


def eval_J(problem, w):
    """J(w) = ln avg(F e^{2w}) - (1/(c Vol)) w^T S w on zero-M-mean w."""
    _check_zero_mean(problem, w)
    ops = operators.of(problem.mesh)
    log_avg = ops.log_mean(problem.log_weight() + 2.0 * w)
    dirichlet = float(w @ (ops.S @ w))
    return float(log_avg - dirichlet / (problem.c * ops.vol))


def grad_J(problem, w):
    """Zero-M-mean projection of the M-gradient of J at w."""
    ops = operators.of(problem.mesh)
    loga = problem.log_weight() + 2.0 * w
    log_total = operators.logsumexp(loga, b=ops.m)
    g = (2.0 * np.exp(loga - log_total)
         - (2.0 / (problem.c * ops.vol)) * (ops.S @ w) / ops.m)
    # The M-mean of g is exactly 2/Vol (the first term integrates to 2,
    # the stiffness term to 0), so project by that constant.
    return g - 2.0 / ops.vol


def J_increase(problem, w, w_new):
    """J(w_new) - J(w) on zero-M-mean fields, accurate where J's own
    rounding, about eps max(1, |J|), would swamp it.

    With d the zero-M-mean part of w_new - w (J grows by 2 kappa along a
    constant kappa, so the rounding of w_new off zero mean is dropped) and
    p the softmax weights at w (sum 1), it is
    ln(sum p e^{2d}) - (2 w^T S d + d^T S d) / (c Vol), the first term as
    log1p(sum p expm1(2d)); a step so long that the sum overflows gives
    -inf or nan, never an increase.
    """
    ops = operators.of(problem.mesh)
    d = w_new - w
    d -= (ops.m @ d) / ops.vol
    p = _softmax_weights(problem, w)
    Sd = ops.S @ d
    with np.errstate(over="ignore", invalid="ignore"):
        log_ratio = np.log1p(p @ np.expm1(2.0 * d))
        return float(log_ratio
                     - (2.0 * (w @ Sd) + d @ Sd) / (problem.c * ops.vol))


def _softmax_weights(problem, w):
    loga = (problem.log_weight() + 2.0 * w
            + np.log(operators.of(problem.mesh).m))
    return np.exp(loga - operators.logsumexp(loga))


def translate_v(problem, w):
    """Recover v from a critical w: v = w + (ln c - ln avg(F e^{2w})) / 2."""
    ops = operators.of(problem.mesh)
    log_avg = ops.log_mean(problem.log_weight() + 2.0 * w)
    return w + 0.5 * (np.log(problem.c) - log_avg)


def mean_constraint_residual(problem, v):
    """|avg(e^{-2u} e^{2v} rho) - c|."""
    ops = operators.of(problem.mesh)
    log_avg = ops.log_mean(problem.log_weight() + 2.0 * v)
    return float(abs(np.exp(log_avg) - problem.c))


def equation_residual(problem, v):
    """Max-abs defect of L v = M (c - e^{-2u} e^{2v} rho) against M."""
    forcing = problem.c - np.exp(problem.log_weight() + 2.0 * v)
    return float(np.abs(operators.of(problem.mesh).lap(v) - forcing).max())


def maximize_J(problem):
    """Maximize J from w = 0 by damped Newton on grad J = 0.

    With U = 2w, maximizing J is minimizing the mean-field functional
    (1/2) int |grad U|^2 - rho ln int F e^U with rho = 2 c Vol.  On a
    closed surface it is bounded below only for rho <= 8 pi (Moser,
    Indiana Univ. Math. J. 20, 1971; Fontana, Comment. Math. Helv. 68,
    1993), and at rho >= 8 pi the discrete maximizer is a mesh-scale
    bubble, not an approximate solution.  So rho >= 8 pi, up to the
    rounding of c Vol, raises UnboundedDetected.  At the other end, a c so
    small that 2/(c Vol) overflows (d t below about 1.8e-309) raises
    ValueError.

    For rho < 8 pi the loop is ``operators.damped_newton`` with residual
    max |grad J|.  Its system -H = (2/(c Vol)) S - 4 diag(p) + 4 p p^T,
    sparse plus a rank-1 term, divided by a power of 4 near 2/(c Vol)
    when that exceeds 4, is solved on zero-M-mean fields by MINRES
    (``operators.newton_solve``) preconditioned with the S + LAPLACE_SHIFT M
    factor.  The line search keeps J from falling
    (``J_increase``), not the gradient's max-norm from growing: where -H
    is indefinite the Newton step can be long, and a gradient-norm test
    shortens it until the ascent stalls.  A step that is not an ascent
    direction is reversed; along it J is convex wherever -H curves down.
    """
    ops = operators.of(problem.mesh)
    ratio = problem.c * ops.vol / (4.0 * np.pi)
    if ratio > 1.0 - 1e-12:
        raise UnboundedDetected(
            f"rho/8pi = {ratio:.6g} with rho = 2 c Vol: at rho >= 8 pi J is "
            "critical or unbounded above (Moser-Trudinger) and its discrete "
            "maximizer is a mesh-scale bubble; lower c = 2 pi d t / Vol "
            "to d t < 2")
    scale = 2.0 / (problem.c * ops.vol)
    if not math.isfinite(scale):
        raise ValueError(
            f"d t = {2.0 * ratio:.6g} with c = 2 pi d t / Vol is too small: "
            "J's Newton matrix (2/(c Vol)) S overflows; raise t")
    # Newton runs on y = s w, s = 4^k the largest power of 4 not above
    # max(1, scale), so its system is -H / s, of order 1 at every c: at a
    # tiny c the MINRES inner products of -H overflow.  Dividing by a power
    # of 4 is exact (q q^T / s = (q / 2^k)(q / 2^k)^T), and s = 1, the
    # system -H itself, when scale < 4, i.e. d t > 1/(4 pi).
    s = 4.0 ** max(0, (math.frexp(scale)[1] - 1) // 2)

    def system(y):
        w = y / s
        p = _softmax_weights(problem, w)
        a, d = scale / s, -(4.0 * p) / s
        return (lambda x: a * (ops.S @ x) + d * x,
                ops.m * grad_J(problem, w), 2.0 * p / math.sqrt(s))

    y, gnorm, steps = operators.damped_newton(
        ops, np.zeros(problem.mesh.num_vertices),
        lambda y: float(np.abs(grad_J(problem, y / s)).max()), system,
        "J maximization", problem.tol, factors=[ops.laplace_lu],
        gain=lambda y, cand: J_increase(problem, y / s, cand / s),
        zero_mean=True)
    w = y / s
    v = translate_v(problem, w)
    return RicciSolution(
        v=v, w=w, J_value=eval_J(problem, w), grad_norm=gnorm,
        mean_constraint_residual=mean_constraint_residual(problem, v),
        iterations=steps)


def solve_ricci_newton(problem, v_init):
    """Damped Newton on G(v) = -S v - M c + M F e^{2v} from a given seed.

    The Jacobian -S + 2 M diag(F e^{2v}) is indefinite; each step solves it
    by MINRES preconditioned with the mesh's S + LAPLACE_SHIFT M factor
    (``Operators.laplace_lu``), and the loop is
    ``operators.damped_newton``, whose backtracking controls the residual.
    Converges in a couple of steps when seeded near a solution (e.g. at the
    variational maximizer) but, unlike the variational route, carries no
    global selection principle.
    """
    ops = operators.of(problem.mesh)
    m, S, c = ops.m, ops.S, problem.c
    logF = problem.log_weight()

    def system(v):
        Fe = np.exp(logF + 2.0 * v)
        d = 2.0 * m * Fe
        return lambda y: d * y - S @ y, S @ v + m * c - m * Fe

    v, _, steps = operators.damped_newton(
        ops, np.array(v_init, dtype=float),
        lambda v: equation_residual(problem, v), system, "ricci newton",
        problem.tol, factors=[ops.laplace_lu])
    w = v - (m @ v) / ops.vol
    return RicciSolution(
        v=v, w=w, J_value=eval_J(problem, w),
        grad_norm=float(np.abs(grad_J(problem, w)).max()),
        mean_constraint_residual=mean_constraint_residual(problem, v),
        iterations=steps)


# ----------------------------------------------------------------------
# Stability of the linearized operator

def stability_check(mesh, v, f):
    """Locate the spectrum of L + 2 M diag(e^{2v} f) relative to M.

    f is the effective weight e^{-2u} rho.  With c recovered from the mean
    identity c = avg(e^{2v} f), every eigenvalue lies in
    (-inf, -lambda_1 + 2 sup e^{2v} f] union [2c, 2 sup e^{2v} f] (see the
    module docstring); the report lists any eigenvalue violating the open
    window in between and the resulting bound on the inverse of the
    linearization.

    Both spectral questions are answered by one ``operators.eigs_nearest``
    call on A = -S + 2 diag(m e^{2v} f) relative to M = diag(m): sparse
    shift-invert Lanczos at sigma, the window's midpoint (0 when the
    window is empty as an interval), on one factor of A - sigma M, never a
    dense solve.  It returns the k eigenvalues nearest sigma, k doubling
    until the farthest of them, x, satisfies both:

    * x lies outside the window.  The eigenvalues inside are a prefix of
      the eigenvalues ordered by distance from sigma, so all are returned;
    * |x - sigma| >= |sigma| + min |vals|.  An eigenvalue nearer 0 than
      every returned one would lie nearer sigma than x and so be returned,
      hence 1/min |vals| is the inverse norm.

    k = 1 suffices when the eigenvalue nearest sigma lies outside the
    window on the other side of 0 from sigma, and always at sigma = 0.
    An exactly singular factor makes sigma an eigenvalue, listed if inside
    the window, and the inverse norm inf; so does an eigenvalue within
    the window test's pad of 0, a rounded 0 (at v = 0, f = 0, A = -S is
    singular).  lambda_1 is the operator bundle's, computed once per mesh.
    """
    ops = operators.of(mesh)
    m = ops.m
    weight = np.exp(2.0 * v) * f
    sup_term = 2.0 * float(weight.max())
    c = float((m * weight).sum() / ops.vol)
    lam1 = ops.low_eigenvalues[1]

    lo = -lam1 + sup_term
    hi = 2.0 * c
    window = (lo, hi)
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))

    def inside(x):
        return lo + pad < x < hi - pad

    sigma = 0.5 * (lo + hi) if lo + pad < hi - pad else 0.0

    def enough(vals):
        return (not inside(vals[-1]) and abs(vals[-1] - sigma)
                >= abs(sigma) + np.abs(vals).min())

    try:
        nearest = operators.eigs_nearest(ops, 2 * m * weight, sigma, enough)
        smallest = float(np.abs(nearest).min())
        hinv = np.inf if smallest <= pad else 1.0 / smallest
    except RuntimeError:  # SuperLU: A - sigma M is exactly singular
        nearest, hinv = [sigma], np.inf
    violating = sorted(float(x) for x in nearest if inside(x))

    hypothesis_ok = sup_term < lam1
    if hypothesis_ok and c > 0:
        bound = max(1.0 / (lam1 - sup_term), 1.0 / c)
    else:
        bound = np.inf
    return StabilityReport(sup_term=sup_term, lambda1=lam1, window=window,
                           violating=violating, c=c,
                           hypothesis_ok=hypothesis_ok, hinv_norm=hinv,
                           hinv_bound=float(bound))


def mt_probe(mesh, samples=8, seed=0):
    """Sample the Moser-Trudinger-type integral on smoothed random fields.

    Draws z ~ N(0, I), smooths by one screened solve (S + M) y = M z with
    the bundle's S + M factor, removes the M-mean, normalizes to unit
    Dirichlet energy, and reports the largest value of
    sum(M (e^{4 pi y^2} - 1)) over the samples.

    The samples are drawn and smoothed in blocks of at most 8: each block
    is one ``(b, V)`` draw from the same generator, so the stream is that
    of b single draws, and one solve on the V x b right-hand side M Z.
    SuperLU solves the columns of a block together (BLAS-3 in each
    supernode).  At V = 8188 (2 cores, one BLAS thread) a column costs
    1.4 ms alone, 0.86 ms in a block of 2, 0.67 ms in 4, 0.58 ms in 8 and
    0.55 ms in 16, so blocks wider than 8 gain little.  A block solve
    rounds differently from single solves, so the value moves in its last
    bits against a sample-by-sample probe.
    """
    if samples < 1:
        raise ValueError(f"mt_probe needs at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    ops = operators.of(mesh)
    m, S, vol = ops.m, ops.S, ops.vol
    worst = 0.0
    for start in range(0, samples, 8):
        z = rng.standard_normal((min(8, samples - start), mesh.num_vertices))
        y = ops.screened_lu.solve(m[:, None] * z.T)
        y -= (m @ y) / vol
        energy = np.einsum("ij,ij->j", y, S @ y)
        positive = energy > 0
        y = y[:, positive] / np.sqrt(energy[positive])
        vals = (m[:, None] * np.expm1(4.0 * np.pi * y ** 2)).sum(axis=0)
        worst = max(worst, float(vals.max(initial=0.0)))
    return worst
