"""Checks of program outputs against oracles and identities of the method.

Nothing here compares against stored output: each check is a closed form,
a topological count the benchmark computes itself, or an identity the
discrete equations imply.
"""

import math

import numpy as np

from todalab import operators
from todalab.gauss import admissible_bound
from todalab.sections import poincare_lelong_residual

from harness import check, close

BASE_GENUS = 2
BOLZA_SYSTOLE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))


def cover_genus(n):
    """Riemann-Hurwitz for an unbranched degree-n cover of the genus-2 base."""
    return n * (BASE_GENUS - 1) + 1


def balanced_degree(n):
    """Degree of a balanced lift: n copies of the canonical-square divisor
    of the base (degree 4g - 4) plus one fresh simple zero."""
    return n * (4 * BASE_GENUS - 4) + 1


def topology(mesh, n):
    """Euler characteristic V - E + F and genus of a degree-n cover."""
    chi = len(mesh.positions) - len(mesh.edges) + len(mesh.triangles)
    genus = cover_genus(n)
    check(chi == 2 - 2 * genus, f"Euler characteristic {chi} != "
          f"{2 - 2 * genus} for a degree-{n} cover")
    check(mesh.genus == genus, f"mesh genus {mesh.genus} != {genus}")


def gauss_bonnet(mesh):
    """Total area 4 pi (g - 1) of a closed surface of curvature -1."""
    expected = 4.0 * math.pi * (mesh.genus - 1)
    close(operators.volume(mesh), expected, 1e-9 * expected, "area")


def systole(value):
    close(value, BOLZA_SYSTOLE, 1e-9, "systole")


def density(dens, n):
    """Degree of a balanced lift and its curvature identity."""
    check(dens.degree == balanced_degree(n),
          f"density degree {dens.degree} != {balanced_degree(n)}")
    residual = poincare_lelong_residual(dens)
    check(residual <= 1e-9, f"curvature identity residual {residual:.3e}")


def spectrum(cover_values, base_values):
    """lambda_0 = 0 on both, and each base eigenvalue is a cover eigenvalue
    (a base eigenfunction lifts to the cover with the same eigenvalue)."""
    for values in (cover_values, base_values):
        close(values[0], 0.0, 1e-8, "lambda_0")
    for lam in base_values:
        gap = np.abs(np.asarray(cover_values) - lam).min()
        check(gap <= 1e-6 * max(1.0, lam),
              f"base eigenvalue {lam!r} is missing from the cover spectrum")


def _lap(mesh, x):
    L, _ = operators.laplacian(mesh)
    return (L @ x) / operators.mass_vector(mesh)


def gauss_solution(mesh, u, f, tol=1e-10):
    """Residual of Delta u = R(u) and the identity sum m R(u) = 0."""
    m = operators.mass_vector(mesh)
    reaction = np.exp(2.0 * u) - 1.0 + np.exp(-2.0 * u) * f
    residual = float(np.abs(_lap(mesh, u) - reaction).max())
    check(residual <= tol, f"gauss residual {residual:.3e} > {tol:g}")
    close(float(m @ reaction), 0.0, 1e-8 * m.sum(), "sum m R(u)")


def ricci_solution(mesh, u, v, dens, c, tol=1e-7):
    """Residual of Delta v = c - e^{-2u} e^{2v} rho and its mean identity."""
    m = operators.mass_vector(mesh)
    weight = np.exp(dens.log_density - 2.0 * u + 2.0 * v)
    residual = float(np.abs(_lap(mesh, v) - (c - weight)).max())
    check(residual <= tol, f"ricci residual {residual:.3e} > {tol:g}")
    close(float(m @ weight) / m.sum(), c, 1e-8, "mean of e^{-2u} e^{2v} rho")


def coupled_solution(mesh, dens, u, v, cert, eta, degree):
    """Certificate bounds plus both equations at the returned pair."""
    c = cert.t * 2.0 * math.pi * degree / operators.volume(mesh)
    check(cert.converged, "coupled solve did not converge")
    check(cert.sup_af < 1.0, f"sup_af = {cert.sup_af!r} is not below 1")
    for name in ("gauss_residual", "ricci_residual"):
        value = getattr(cert, name)
        check(value <= 1e-7, f"certificate {name} {value:.3e} > 1e-7")
    f = np.exp(dens.log_density + 2.0 * v)
    check(f.max() <= admissible_bound(eta),
          f"sup e^(2v) rho = {f.max()!r} exceeds eta/(1+eta)^2")
    check(cert.genus == mesh.genus, "certificate genus")
    systole(cert.systole)
    gauss_solution(mesh, u, f, tol=1e-7)
    ricci_solution(mesh, u, v, dens, c)


def constant_gauss(u, f0):
    """Constant data: e^{2u} = (1 + sqrt(1 - 4 f)) / 2 at every vertex."""
    expected = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * f0))
    close(float(np.abs(np.exp(2.0 * u) - expected).max()), 0.0, 1e-9,
          "e^(2u) against the constant-data closed form")


def constant_ricci(v, c, u0, amplitude):
    """Constant u0 and density A: v = (1/2) ln(c e^{2 u0} / A) everywhere."""
    expected = 0.5 * math.log(c * math.exp(2.0 * u0) / amplitude)
    close(float(np.abs(v - expected).max()), 0.0, 1e-9,
          "v against the constant-data closed form")


def stability(report):
    """Empty window and an inverse norm within 1.1 times its bound."""
    check(report.window_empty,
          f"{len(report.violating)} eigenvalues inside the stability window")
    check(report.hinv_norm <= 1.1 * report.hinv_bound,
          f"inverse norm {report.hinv_norm!r} exceeds 1.1 x bound "
          f"{report.hinv_bound!r}")


def agree(a, b, tol, what):
    close(float(np.abs(np.asarray(a) - np.asarray(b)).max()), 0.0, tol, what)
