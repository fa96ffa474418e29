"""Coupled Gauss-Ricci solve and the almost-Fuchsian certificate.

The conformal factor u and the bundle factor v solve

    S u + M (e^{2u} - 1 + q) = 0,    S v + M (c - q) = 0,
    q = e^{-2u} e^{2v} rho,

the Gauss equation with data f = e^{2v} rho and the prescribed-curvature
equation with weight e^{-2u} rho.  The pair of residuals is the gradient
of one functional,

    E(u, v) = u^T S u / 2 + v^T S v / 2
              + sum m (e^{2u} / 2 - u + c v - e^{-2u} e^{2v} rho / 2),

so its Newton system is symmetric; with Q = 2 M diag q it reads

    [ S + M diag(2 e^{2u}) - Q     Q     ] [du]     [G]
    [            Q               S - Q   ] [dv] = - [K],

indefinite, and ``operators.damped_newton`` solves it by MINRES with the
block-diagonal preconditioner diag(S + 2 M, S + eps M) on two of the
mesh's kept factors (Paige & Saunders 1975; Benzi, Golub & Liesen 2005,
section 10): the u-block is the Gauss Jacobian, whose diagonal
2 e^{2u} - 2q is at most about 2 on the box (``Operators.monotone_lu``),
and the v-block S - Q is nearly the Laplacian (``Operators.laplace_lu``,
eps = LAPLACE_SHIFT).  MINRES only multiplies by the matrix, so
each step passes it as the function
(du, dv) -> (S du + D du + Q dv, S dv + Q (du - dv)) with the diagonal
D = M diag(2 e^{2u}) - Q, and no step forms a sparse matrix.  It starts
at v0 from the scale choice (one J ascent at t0 = 1/max(1, d); when t
is cut below t0, its maximizer scaled by t/t0 and translated to
c) and u0 = ``gauss.warm_start`` of f = e^{2 v0} rho, keeps u in the
Gauss solver's line-search box, and stops once both residuals are at
most GAUSS_TOL and RICCI_TOL.  The data must stay admissible,
sup f <= eta/(1+eta)^2, at the start and at the result, and u must end
in the box (-(1/2) ln 2 <= u <= 0, -1 <= M^{-1} L u <= 1); a violation
aborts, it is never clamped.  The curvature constant is
c = t 2 pi d / Vol (``operators.curvature_constant``, which checks d and
t) for a normal-bundle degree d in [0, 2g-2] and a rescaling knob t in
(0, 1] for the genus-growth regime (recorded in the certificate, chosen
automatically unless pinned).  CoupledConfig holds eta, degree and t.

The terminal artifact is the certificate: residuals of both equations,
the mean identity defect, and sup e^{-4u} e^{2v} rho, all recomputed from
(u, v, density) alone so that serialized runs can be re-verified
independently of solver internals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import gauss as gauss_mod
from . import operators
from . import ricci as ricci_mod
from .errors import AdmissibilityLost, DegreeRangeError


# Tolerances of the Gauss and Ricci residuals that end the coupled solve;
# the scale choice's J ascent stops at RICCI_TOL too.
GAUSS_TOL = 1e-10
RICCI_TOL = 1e-9


def degree_bound_check(d, g):
    """True iff the normal-bundle degree satisfies 0 <= d <= 2g - 2."""
    return 0 <= int(d) <= 2 * int(g) - 2


@dataclass
class CoupledConfig:
    eta: float = 0.5
    degree: int = 1
    t: float = None

    def __post_init__(self):
        operators.check_curvature_inputs(
            self.degree, 1.0 if self.t is None else self.t)
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")


@dataclass
class AFCertificate:
    sup_af: float
    gauss_residual: float
    ricci_residual: float
    mean_residual: float
    converged: bool
    outer_iters: int
    admissibility_margin: float
    t: float
    eta: float
    degree: int
    genus: int
    lambda1: float
    systole: float

    @property
    def almost_fuchsian(self):
        return self.sup_af < 1.0

    def to_dict(self):
        return {**asdict(self), "almost_fuchsian": self.almost_fuchsian}


@dataclass
class CoupledResult:
    u: np.ndarray
    v: np.ndarray
    certificate: AFCertificate

    def __iter__(self):
        return iter((self.u, self.v, self.certificate))


def _residuals(mesh, u, v, log_density, c_eff):
    """(Gauss, Ricci) max-norm residuals of the pair (u, v), and the
    fields f = e^{2v} rho and e^{-2u} e^{2v} rho they are built from."""
    f = np.exp(log_density + 2.0 * v)
    weighted = np.exp(log_density + 2.0 * v - 2.0 * u)
    ricci = float(np.abs(operators.of(mesh).lap(v) - (c_eff - weighted)).max())
    return gauss_mod.gauss_residual(mesh, u, f), ricci, f, weighted


def certify(mesh, u, v, density, eta, degree=1, t=1.0,
            outer_iters=0, converged=True):
    """Recompute every certificate quantity from the fields alone."""
    ops = operators.of(mesh)
    m = ops.m
    ld = density.log_density
    c_eff = operators.curvature_constant(mesh, degree, t)

    # The zero section (ld = -inf) needs no branch: exp(-inf) = 0.
    gauss_res, ricci_res, f, weighted = _residuals(mesh, u, v, ld, c_eff)
    sup_af = float(np.exp(ld + 2.0 * v - 4.0 * u).max())
    mean_residual = abs(float((m * weighted).sum() / ops.vol) - c_eff)
    margin = gauss_mod.admissible_bound(eta) - float(f.max())
    spectral = operators.spectral_gap(mesh)
    return AFCertificate(
        sup_af=sup_af, gauss_residual=gauss_res, ricci_residual=ricci_res,
        mean_residual=float(mean_residual), converged=bool(converged),
        outer_iters=int(outer_iters), admissibility_margin=float(margin),
        t=float(t), eta=float(eta), degree=int(degree),
        genus=int(mesh.genus), lambda1=spectral.lambda1,
        systole=spectral.systole)


def _box_check(mesh, u):
    lo, hi = -0.5 * np.log(2.0), 0.0
    tol = 1e-9
    if u.min() < lo - tol or u.max() > hi + tol:
        raise AdmissibilityLost(
            f"iterate escaped the box [{lo:.6f}, 0]: "
            f"range [{u.min():.6f}, {u.max():.6f}]")
    lap = operators.of(mesh).lap(u)
    if np.abs(lap).max() > 1.0 + 1e-7:
        raise AdmissibilityLost(
            f"iterate curvature defect escaped [-1, 1]: "
            f"max |M^-1 L u| = {np.abs(lap).max():.6f}")


def _choose_scale(mesh, density, config):
    """Pick t so the first bundle solve lands below the admissibility
    target, and return it with the coupled Newton's starting v.

    The target min(1/2, eta/(1+eta)^2) bounds m1 = sup e^{2v} rho.  One
    maximize_J ascent from w = 0 at t0 = 1 / max(1, d) (rho = 2 c Vol = 4 pi
    at every degree d, below the 8 pi that maximize_J refuses) decides t:
    t0 and its v are kept when m1(t0) <= 0.95 target or t is pinned, and
    otherwise t is cut once, to t1 = 0.9 t0 target / m1(t0).  That lands
    below the target while m1(t)/t does not grow as t is cut (on the README
    density t0 m1(t1) / (t1 m1(t0)) is 0.66-0.69, levels 3-5).  The start
    at t1 is a predictor step (Allgower & Georg, Numerical Continuation
    Methods, 1990): grad J = 0 reads S w = c (Vol p - m), p the softmax
    weights, so w1 = (t1/t0) w(t0), translated to v at c(t1), needs no
    second solve; solve_coupled's admissibility checks guard it.
    """
    target = min(0.5, gauss_mod.admissible_bound(config.eta))
    t = 1.0 / max(1, config.degree) if config.t is None else config.t
    problem = ricci_mod.RicciProblem(
        mesh=mesh, u=np.zeros(mesh.num_vertices), density=density,
        c=operators.curvature_constant(mesh, config.degree, t),
        tol=RICCI_TOL)
    sol = ricci_mod.maximize_J(problem)
    m1 = float(np.exp(density.log_density + 2.0 * sol.v).max())
    if config.t is not None or m1 <= 0.95 * target:
        return t, sol.v
    cut = t * 0.9 * target / m1
    c_cut = operators.curvature_constant(mesh, config.degree, cut)
    return cut, ricci_mod.translate_v(replace(problem, c=c_cut),
                                      (cut / t) * sol.w)


def _check_admissible(f, eta):
    bound = gauss_mod.admissible_bound(eta)
    if f.max() > bound:
        raise AdmissibilityLost(
            f"sup e^{{2v}} rho = {float(f.max())!r} exceeds the "
            f"admissible bound {float(bound)!r} for eta = {eta}")


def solve_coupled(mesh, density, config=None):
    """Solve the coupled system by damped Newton on (u, v) and certify it.

    Returns a result unpacking as (u, v, certificate); the certificate's
    outer_iters counts the Newton steps.  Degrees outside [0, 2g-2] are
    refused; a zero density with positive degree is infeasible by the
    integral identity (``RicciProblem`` raises InfeasibleDegree); data
    exceeding the admissibility bound at the start or at the solution,
    and a solution outside the box, raise AdmissibilityLost.
    """
    if config is None:
        config = CoupledConfig()
    if not degree_bound_check(config.degree, mesh.genus):
        raise DegreeRangeError(
            f"degree {config.degree} is outside the stable range "
            f"[0, {2 * mesh.genus - 2}] for genus {mesh.genus}")

    V = mesh.num_vertices
    if density.is_zero and config.degree == 0:
        u = np.zeros(V)
        v = np.zeros(V)
        cert = certify(mesh, u, v, density, config.eta, degree=0)
        return CoupledResult(u=u, v=v, certificate=cert)

    t, v = _choose_scale(mesh, density, config)
    c_eff = operators.curvature_constant(mesh, config.degree, t)
    ld = density.log_density
    f = np.exp(ld + 2.0 * v)
    _check_admissible(f, config.eta)
    start = gauss_mod.GaussProblem(mesh=mesh, f=f, eta=config.eta)

    ops = operators.of(mesh)
    S, m = ops.S, ops.m

    def residual(x):
        gauss, ricci, _, _ = _residuals(mesh, x[:V], x[V:], ld, c_eff)
        return max(gauss / GAUSS_TOL, ricci / RICCI_TOL)

    def system(x):
        u, v = x[:V], x[V:]
        e2u = np.exp(2.0 * u)
        q = np.exp(ld + 2.0 * v - 2.0 * u)
        d = m * (2.0 * e2u - 2.0 * q)
        coupling = 2.0 * m * q

        def jacobian(y):
            du, dv = y[:V], y[V:]
            return np.concatenate([S @ du + d * du + coupling * dv,
                                   S @ dv + coupling * (du - dv)])

        b = -np.concatenate([S @ u + m * (e2u - 1.0 + q),
                             S @ v + m * (c_eff - q)])
        return jacobian, b

    x, _, steps = operators.damped_newton(
        ops, np.concatenate([gauss_mod.warm_start(start), v]), residual,
        system, "coupled newton", 1.0,
        factors=[ops.monotone_lu, ops.laplace_lu],
        inside=lambda x: start.in_search_box(x[:V]))
    u, v = x[:V], x[V:]
    _check_admissible(np.exp(ld + 2.0 * v), config.eta)
    _box_check(mesh, u)

    cert = certify(mesh, u, v, density, config.eta, degree=config.degree,
                   t=t, outer_iters=steps, converged=True)
    return CoupledResult(u=u, v=v, certificate=cert)
