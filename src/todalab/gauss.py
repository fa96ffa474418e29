"""Scalar curvature equation solver: Delta u = e^{2u} - 1 + e^{-2u} f.

The conformal factor u of the induced metric on a surface with constant
curvature -1 background satisfies this semilinear equation, with data
f >= 0 coming from the second fundamental form.  When the data obey the
smallness bound

    sup f <= eta / (1 + eta)^2,          eta in (0, 1],

the solution is trapped in the box [-(1/2) ln(1+eta), 0]: the constants
u = -(1/2) ln(1+eta) and u = 0 are sub/supersolutions there, and on the
box the nonlinearity R(u) = e^{2u} - 1 + e^{-2u} f has derivative
2 e^{2u} - 2 e^{-2u} f >= 0, so the discrete problem S u + M R(u) = 0 has
a monotone structure with a unique solution in the box.

Two solvers are provided: a damped Newton iteration (fast, used by
default; its loop is ``operators.damped_newton``, shared with the Ricci
solver) and a monotone fixed-point scheme (S + lam M) u+ = lam M u - M R(u)
whose iterates decrease from the supersolution u = 0, useful as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators
from .errors import AdmissibilityError, NonConvergence


def admissible_bound(eta):
    """Largest sup f compatible with the trapping box, eta/(1+eta)^2."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    return eta / (1.0 + eta) ** 2


@dataclass
class GaussProblem:
    mesh: object
    f: np.ndarray
    eta: float = 1.0
    tol: float = 1e-10

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        if self.f.shape != (self.mesh.num_vertices,):
            raise ValueError("data f must be a per-vertex array")
        if not np.isfinite(self.f).all():
            raise ValueError("data f must be finite")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if (self.f < 0).any():
            raise AdmissibilityError("data f must be nonnegative")
        bound = admissible_bound(self.eta)
        if self.f.max() > bound:
            raise AdmissibilityError(
                f"sup f = {float(self.f.max())!r} exceeds the admissible "
                f"bound {float(bound)!r} for eta = {self.eta}")

    @property
    def box_lower(self):
        return -0.5 * np.log1p(self.eta)

    def in_search_box(self, u):
        """True iff u lies in the trapping box padded by 0.1, where the
        Newton line searches (``solve_gauss``'s and the coupled solve's)
        keep their iterates."""
        pad = 0.1
        return u.min() >= self.box_lower - pad and u.max() <= pad

    def admissibility_margin(self):
        return float(admissible_bound(self.eta) - self.f.max())


@dataclass
class GaussSolution:
    u: np.ndarray
    residual_norm: float
    iterations: int
    box_margin: float
    method: str = "newton"

    def to_dict(self, problem):
        return {"residual": self.residual_norm,
                "iterations": self.iterations,
                "eta": problem.eta,
                "box_margin": self.box_margin}


def gauss_residual(mesh, u, f):
    """Pointwise defect |M^{-1} L u - (e^{2u} - 1 + e^{-2u} f)|_inf."""
    lap = operators.of(mesh).lap(u)
    return float(np.abs(lap - _reaction(u, f)).max())


def _reaction(u, f):
    return np.exp(2.0 * u) - 1.0 + np.exp(-2.0 * u) * f


def _reaction_slope(u, f):
    return 2.0 * np.exp(2.0 * u) - 2.0 * np.exp(-2.0 * u) * f


def warm_start(problem):
    """Constant-data solution of e^{2u} - 1 + e^{-2u} f = 0 applied pointwise.

    Solving the quadratic in x = e^{2u} gives x = (1 + sqrt(1 - 4f)) / 2,
    which stays in the admissible box for any admissible f (the bound
    sup f <= eta/(1+eta)^2 forces 1 - 4f >= ((1-eta)/(1+eta))^2, hence
    x >= 1/(1+eta)).  Exact when f is constant, including the double root
    f = 1/4 at eta = 1.
    """
    disc = np.clip(1.0 - 4.0 * problem.f, 0.0, None)
    x = 0.5 * (1.0 + np.sqrt(disc))
    return 0.5 * np.log(x)


def _box_margin(u, lower):
    return float(min((u - lower).min(), (0.0 - u).min()))


def solve_gauss(problem, u0=None):
    """Damped Newton for S u + M R(u) = 0 inside the trapping box.

    The Jacobian S + M diag(R'(u)) is positive definite on the box because
    R' >= 0 there, so the Newton direction exists; it is solved by MINRES
    preconditioned with the mesh's S + M factor, so no step factors the
    Jacobian, which ``Operators.shifted`` fills on S's pattern.  The loop
    is ``operators.damped_newton``, whose backtracking keeps the iterates
    in ``GaussProblem.in_search_box``.  Residuals are
    checked before the first step, so exact warm starts return in zero
    iterations.
    """
    mesh = problem.mesh
    ops = operators.of(mesh)
    S, m, f = ops.S, ops.m, problem.f

    def system(u):
        return (ops.shifted(1.0, m * _reaction_slope(u, f)),
                -(S @ u + m * _reaction(u, f)))

    u0 = warm_start(problem) if u0 is None else np.asarray(u0, dtype=float)
    u, res, steps = operators.damped_newton(
        ops, u0, lambda u: gauss_residual(mesh, u, f), system,
        "gauss newton", problem.tol, inside=problem.in_search_box)
    return GaussSolution(u=u, residual_norm=res, iterations=steps,
                         box_margin=_box_margin(u, problem.box_lower))


def monotone_solve_gauss(problem):
    """Monotone scheme from the supersolution u = 0: iterates nonincreasing.

    Solves (S + lam M) u+ = lam M u - M R(u) repeatedly, lam =
    ``operators.MONOTONE_SHIFT``.  The SPD matrix S + lam M is factored
    once per mesh, on first use, and kept in the operator bundle
    (``Operators.monotone_lu``): every sweep of every call reuses it.  The
    update is order-preserving when
    lam u - R(u) is nondecreasing, i.e. lam >= R'(u), on the values the
    iterates take: S + lam M is an M-matrix, so its inverse is nonnegative.
    The iterates start at u = 0 and decrease, so u <= 0, where
    R'(u) = 2 e^{2u} - 2 e^{-2u} f <= 2 e^{2u} <= 2 for f >= 0; hence
    lam = 2 suffices, and the sequence decreases pointwise to the box
    solution.  A smaller lam contracts faster.  Linear convergence degrades
    to sublinear when the data touch the double root f = 1/4.  The factor
    is its own, not the S + M preconditioner of the Newton solvers: the
    scheme is the independent cross-check of the Newton solver, so it
    shares none of its solves.
    """
    mesh = problem.mesh
    ops = operators.of(mesh)
    m = ops.m
    lam, sweeps = operators.MONOTONE_SHIFT, 5000
    lu = ops.monotone_lu
    u = np.zeros(mesh.num_vertices)
    for it in range(sweeps):
        res = gauss_residual(mesh, u, problem.f)
        if res <= problem.tol:
            return GaussSolution(u=u, residual_norm=res, iterations=it,
                                 box_margin=_box_margin(u, problem.box_lower),
                                 method="monotone")
        rhs = lam * m * u - m * _reaction(u, problem.f)
        u = lu.solve(rhs)
    raise NonConvergence(
        f"monotone gauss scheme did not reach tol {problem.tol} in "
        f"{sweeps} sweeps (last residual {res:.3e})")

