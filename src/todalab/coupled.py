"""Coupled fixed-point driver and the almost-Fuchsian certificate.

The two curvature equations are solved alternately: given u, the bundle
factor v = Psi(u) solves the prescribed-curvature equation with weight
e^{-2u} rho; given v, the data f = e^{2v} rho feeds the scalar curvature
solve Phi.  The damped composition

    u_{k+1} = (1 - theta) u_k + theta Phi(e^{2 Psi(u_k)} rho),  u_0 = 0,

stays in the compact box (-(1/2) ln 2 <= u <= 0, -1 <= M^{-1} L u <= 1)
as long as the data remain admissible; an escape aborts, it is never
clamped.  The curvature constant is wired as c = 2 pi d / Vol for a
normal-bundle degree d in [0, 2g-2], times an explicit rescaling knob
t in (0, 1] standing in for the genus-growth regime (recorded in the
certificate, chosen automatically unless pinned).

Inside the loop the inner solves are inexact, as in inexact Newton
(Dembo, Eisenstat & Steihaug 1982; Eisenstat & Walker 1996) one level up:
each Gauss and seeded Ricci solve asks for its tolerance times
max(1, KAPPA * step / GAUSS_TOL), step the last outer step, so solves stop
early while the outer step is still large and are full once it reaches
GAUSS_TOL / KAPPA.  The first step, the scale choice and the polish run at
full tolerance, and the loop stops only on a step of at most TOL_OUTER
whose inner solves ran at full tolerance: a loosened Gauss solve
warm-started at u can return u unchanged, a zero step that says nothing
about convergence.  The tolerances and the cap MAX_OUTER_ITERS are module
constants; CoupledConfig holds only the inputs eta, damping, degree and t.

The terminal artifact is the certificate: residuals of both equations,
the mean identity defect, and sup e^{-4u} e^{2v} rho, all recomputed from
(u, v, density) alone so that serialized runs can be re-verified
independently of solver internals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import gauss as gauss_mod
from . import operators
from . import ricci as ricci_mod
from .errors import AdmissibilityLost, DegreeRangeError, NonConvergence


# Tolerances of the Gauss and Ricci solves, and the smallest damping the
# admissibility retry halves theta down to.  Inside the outer loop both
# tolerances are multiplied by max(1, KAPPA * step / GAUSS_TOL), step the
# last outer step; the first step, the scale choice, the step that stops
# the loop and the polish use them as they are.  On the README 2-cover
# (levels 2-6) KAPPA = 1e-2 cuts the S + M solves of solve_coupled by
# 26-30 % and moves certificate values by at most 1.2e-9 relative.
GAUSS_TOL = 1e-10
RICCI_TOL = 1e-9
KAPPA = 1e-2
MIN_DAMPING = 1.0 / 64.0
# The outer loop stops on a full-tolerance step of at most TOL_OUTER, and
# fails with NonConvergence after MAX_OUTER_ITERS steps.
MAX_OUTER_ITERS = 100
TOL_OUTER = 1e-8


def degree_bound_check(d, g):
    """True iff the normal-bundle degree satisfies 0 <= d <= 2g - 2."""
    return 0 <= int(d) <= 2 * int(g) - 2


@dataclass
class CoupledConfig:
    eta: float = 0.5
    damping: float = 1.0
    degree: int = 1
    t: float = None

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
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
    residual_history: list = field(default_factory=list)

    def __iter__(self):
        return iter((self.u, self.v, self.certificate))


def _curvature_constant(mesh, degree):
    return 2.0 * np.pi * degree / operators.of(mesh).vol


def certify(mesh, u, v, density, eta, degree=1, t=1.0,
            outer_iters=0, converged=True):
    """Recompute every certificate quantity from the fields alone."""
    ops = operators.of(mesh)
    m = ops.m
    ld = density.log_density
    c_eff = t * _curvature_constant(mesh, degree)

    # The zero section (ld = -inf) needs no branch: exp(-inf) = 0.
    f = np.exp(ld + 2.0 * v)
    sup_af = float(np.exp(ld + 2.0 * v - 4.0 * u).max())
    weighted = np.exp(ld + 2.0 * v - 2.0 * u)
    ricci_forcing = c_eff - weighted
    mean_residual = abs(float((m * weighted).sum() / ops.vol) - c_eff)

    gauss_res = gauss_mod.gauss_residual(mesh, u, f)
    ricci_res = float(np.abs(ops.lap(v) - ricci_forcing).max())
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
    to the excess, at most three times.  m1 is not linear in t: with
    t1 = 0.9 target / m1(1) the first cut, m1(t1) / (t1 m1(1)) on the
    README density is 0.66-0.69 at degree 1 (levels 3-5) and 0.002 at
    degree 2 (level 4), so the solve at one t cannot be scaled to another.
    The t = 1 solve is what decides t: it is kept when it lands below the
    target, and otherwise its m1 sets the first cut.
    """
    target = min(0.5, gauss_mod.admissible_bound(config.eta))
    t = 1.0 if config.t is None else config.t
    u0 = np.zeros(mesh.num_vertices)
    for attempt in range(4):
        sol = ricci_mod.maximize_J(ricci_mod.RicciProblem(
            mesh=mesh, u=u0, density=density, c=t * c_full, tol=RICCI_TOL))
        m1 = float(np.exp(density.log_density + 2.0 * sol.v).max())
        if config.t is not None or attempt == 3 or m1 <= 0.95 * target:
            return t, sol.v
        t = min(1.0, t * 0.9 * target / m1)


def solve_coupled(mesh, density, config=None):
    """Run the damped fixed-point iteration and certify the outcome.

    Returns a result unpacking as (u, v, certificate); the result object
    additionally carries the outer residual history.  Degrees outside
    [0, 2g-2] are refused; a zero density with positive degree is
    infeasible by the integral identity (``RicciProblem`` raises
    InfeasibleDegree); data exceeding the admissibility bound at any
    iterate aborts (after automatic damping reduction).
    After the scale choice every bundle solve is a Newton solve seeded at
    the previous v.

    The inner solves of an outer step ask for GAUSS_TOL and RICCI_TOL times
    max(1, KAPPA * step / GAUSS_TOL), step the previous outer step (the
    first step has none and is full).  A step at most TOL_OUTER ends the
    loop only if its solves ran at full tolerance; after a loosened one the
    loop takes one more step at full tolerance.
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
    bound = gauss_mod.admissible_bound(config.eta)
    t, v = _choose_scale(mesh, density, config, c_full)
    c_eff = t * c_full

    bundle_problem = partial(ricci_mod.RicciProblem, mesh=mesh,
                             density=density, c=c_eff, tol=RICCI_TOL)
    gauss_problem = partial(gauss_mod.GaussProblem, mesh=mesh,
                            eta=config.eta, tol=GAUSS_TOL)

    u = np.zeros(V)
    theta = config.damping
    history = []
    u_prev = None
    phi_prev = None
    converged = False
    outer = 0
    loosen = 1.0

    for outer in range(1, MAX_OUTER_ITERS + 1):
        if outer > 1:
            v = ricci_mod.solve_ricci_newton(
                bundle_problem(u=u, tol=RICCI_TOL * loosen), v).v
        f = np.exp(density.log_density + 2.0 * v)
        if f.max() > bound:
            # Retry the last update with smaller damping before giving up.
            if u_prev is None or theta <= MIN_DAMPING:
                raise AdmissibilityLost(
                    f"sup e^{{2v}} rho = {f.max():.6g} exceeds the "
                    f"admissible bound {bound:.6g} for eta = {config.eta}")
            theta *= 0.5
            u = (1.0 - theta) * u_prev + theta * phi_prev
            continue
        phi = gauss_mod.solve_gauss(
            gauss_problem(f=f, tol=GAUSS_TOL * loosen),
            u0=u if outer > 1 else None).u
        u_next = (1.0 - theta) * u + theta * phi
        _box_check(mesh, u_next)
        step = float(np.abs(u_next - u).max())
        history.append(step)
        u_prev, phi_prev = u, phi
        u = u_next
        if step > TOL_OUTER:
            loosen = max(1.0, KAPPA * step / GAUSS_TOL)
        elif loosen == 1.0:
            converged = True
            break
        else:
            # A loosened Gauss solve can return its warm start u unchanged,
            # a zero step that proves nothing: repeat at full tolerance.
            loosen = 1.0

    if not converged:
        raise NonConvergence(
            f"outer iteration did not contract below {TOL_OUTER} in "
            f"{MAX_OUTER_ITERS} steps (last step {history[-1]:.3e})")

    # Polish: re-solve both equations at the final iterate so the
    # certificate residuals reflect a consistent pair.  The last Ricci solve
    # takes zero Newton iterations on undamped runs; on damped ones (README
    # 2-cover, theta = 0.5 and 0.3, levels 2-4) leaving it out raises
    # ricci_residual to 1.7e-9 - 6.5e-9, above RICCI_TOL, and moves sup_af
    # by up to 2.8e-8 relative.
    v = ricci_mod.solve_ricci_newton(bundle_problem(u=u), v).v
    f = np.exp(density.log_density + 2.0 * v)
    u = gauss_mod.solve_gauss(gauss_problem(f=f), u0=u).u
    v = ricci_mod.solve_ricci_newton(bundle_problem(u=u), v).v
    _box_check(mesh, u)

    cert = certify(mesh, u, v, density, config.eta, degree=config.degree,
                   t=t, outer_iters=outer, converged=True)
    return CoupledResult(u=u, v=v, certificate=cert,
                         residual_history=history)
