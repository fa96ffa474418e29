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
block-diagonal preconditioner diag(S + M, S + M) on the mesh's one factor
(Paige & Saunders 1975; Benzi, Golub & Liesen 2005, section 10), both
blocks in one solve call.  Each step fills the matrix by
``Operators.coupled_jacobian`` on the pattern of [[S, I], [I, S]] that the
mesh's operator bundle caches, so no step assembles a sparse matrix.  It
starts at v0 from the scale choice and u0 = ``gauss.warm_start`` of
f = e^{2 v0} rho, keeps u in the Gauss solver's line-search box, and stops
once both residuals are at most GAUSS_TOL and RICCI_TOL.  The data must
stay admissible, sup f <= eta/(1+eta)^2, at the start and at the result,
and u must end in the box (-(1/2) ln 2 <= u <= 0, -1 <= M^{-1} L u <= 1);
a violation aborts, it is never clamped.  The curvature constant is
c = 2 pi d / Vol for a normal-bundle degree d in [0, 2g-2], times a
rescaling knob t in (0, 1] standing in for the genus-growth regime
(recorded in the certificate, chosen automatically unless pinned).
CoupledConfig holds only the inputs eta, degree and t.

The terminal artifact is the certificate: residuals of both equations,
the mean identity defect, and sup e^{-4u} e^{2v} rho, all recomputed from
(u, v, density) alone so that serialized runs can be re-verified
independently of solver internals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")
        if self.t is not None and not 0 < self.t <= 1:
            raise ValueError("rescaling knob t must lie in (0, 1]")


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


def _curvature_constant(mesh, degree):
    return 2.0 * np.pi * degree / operators.of(mesh).vol


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
    c_eff = t * _curvature_constant(mesh, degree)

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


def _choose_scale(mesh, density, config, c_full):
    """Pick t so the first bundle solve lands below the admissibility target.

    The target min(1/2, eta/(1+eta)^2) bounds m1 = sup e^{2v} rho.  Each
    trial t is solved by maximize_J from w = 0, and t is cut in proportion
    to the excess, at most three times.  The first trial is
    t0 = 1 / max(1, d), so rho = 2 c Vol = 4 pi d t0 = 4 pi at every degree
    d, below the 8 pi that maximize_J refuses, and every cut lowers t.  m1
    is not linear in t: with t1 = 0.9 t0 target / m1(t0) the first cut,
    t0 m1(t1) / (t1 m1(t0)) on the README density is 0.66-0.69 at degree 1
    (levels 3-5), so the solve at one t cannot be scaled to another.  The
    t0 solve is what decides t: it is kept when it lands below the
    target, and otherwise its m1 sets the first cut.
    """
    target = min(0.5, gauss_mod.admissible_bound(config.eta))
    t = 1.0 / max(1, config.degree) if config.t is None else config.t
    u0 = np.zeros(mesh.num_vertices)
    for attempt in range(4):
        ricci_mod.check_scale(t * c_full, config.degree, t)
        sol = ricci_mod.maximize_J(ricci_mod.RicciProblem(
            mesh=mesh, u=u0, density=density, c=t * c_full, tol=RICCI_TOL))
        m1 = float(np.exp(density.log_density + 2.0 * sol.v).max())
        if config.t is not None or attempt == 3 or m1 <= 0.95 * target:
            return t, sol.v
        t = min(1.0, t * 0.9 * target / m1)


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
        cert = certify(mesh, u, v, density, config.eta, degree=0, t=1.0,
                       outer_iters=0, converged=True)
        return CoupledResult(u=u, v=v, certificate=cert)

    c_full = _curvature_constant(mesh, config.degree)
    t, v = _choose_scale(mesh, density, config, c_full)
    c_eff = t * c_full
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
        coupling = 2.0 * m * q
        A = ops.coupled_jacobian(m * (2.0 * e2u - 2.0 * q), coupling,
                                 -coupling)
        b = -np.concatenate([S @ u + m * (e2u - 1.0 + q),
                             S @ v + m * (c_eff - q)])
        return A, b

    x, _, steps = operators.damped_newton(
        ops, np.concatenate([gauss_mod.warm_start(start), v]), residual,
        system, "coupled newton", 1.0,
        inside=lambda x: start.in_search_box(x[:V]))
    u, v = x[:V], x[V:]
    _check_admissible(np.exp(ld + 2.0 * v), config.eta)
    _box_check(mesh, u)

    cert = certify(mesh, u, v, density, config.eta, degree=config.degree,
                   t=t, outer_iters=steps, converged=True)
    return CoupledResult(u=u, v=v, certificate=cert)
