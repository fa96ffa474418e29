"""Section densities: discrete |alpha|^2 fields with prescribed zeros.

A density models the pointwise squared norm of a holomorphic section of a
degree-d line bundle whose metric has curvature (2 pi d / Vol) * area form.
It is synthesized from discrete Green functions so that the distributional
curvature identity

    L log|alpha|^2 = 4 pi sum_j m_j delta_{z_j} - 2 c_L M 1,
    c_L = 2 pi deg / Vol  (``operators.curvature_constant`` at t = 1)

holds up to the tolerance of the Green solve, a MINRES solve to relative
residual ``operators.NEWTON_RTOL`` = 1e-13 (both sides have zero total
mass because c_L uses the discrete volume).  Zeros are regularized at mesh
scale: the discrete delta keeps log|alpha|^2 finite at divisor vertices,
and pointwise checks exclude a one-ring around them.

Balanced families arise by pulling a base density back through a cover and
multiplying by a degree-1 factor with a single fresh zero; the balance
ratio sup/mean of the family stays bounded in the cover degree.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import TodaError

# ``operators`` (and SciPy with it) is imported inside the functions that
# use it, so reading a density file, as ``toda export`` does, needs no
# SciPy.


@dataclass
class Divisor:
    """Formal nonnegative vertex combination: entries (vertex, multiplicity)."""

    entries: list

    def __post_init__(self):
        vs = [v for v, _ in self.entries]
        if len(set(vs)) != len(vs):
            raise ValueError("divisor vertices must be distinct")
        if any(m < 1 for _, m in self.entries):
            raise ValueError("divisor multiplicities must be >= 1")

    @property
    def degree(self):
        return int(sum(m for _, m in self.entries))

    def check_range(self, num_vertices):
        """TodaError unless every vertex lies in 0 <= v < num_vertices."""
        for v, _ in self.entries:
            if not 0 <= v < num_vertices:
                raise TodaError(f"divisor vertex {v} is outside the mesh "
                                f"(0 <= v < V = {num_vertices})")

    def indicator(self, num_vertices):
        ind = np.zeros(num_vertices)
        for v, m in self.entries:
            ind[v] += m
        return ind


@dataclass
class SectionDensity:
    """Per-vertex log density log|alpha|^2 with its divisor bookkeeping."""

    mesh: object
    log_density: np.ndarray
    divisor: Divisor
    curvature_constant: float
    normalization: str

    @classmethod
    def zero(cls, mesh):
        """The identically-zero section (log density -inf everywhere)."""
        ld = np.full(mesh.num_vertices, -np.inf)
        return cls(mesh=mesh, log_density=ld, divisor=Divisor([]),
                   curvature_constant=0.0, normalization="unit_mean")

    @property
    def degree(self):
        return self.divisor.degree

    @property
    def is_zero(self):
        return bool(np.all(np.isneginf(self.log_density)))

    def density(self):
        return np.exp(self.log_density)

    def mean(self):
        from . import operators
        return float(np.exp(operators.of(self.mesh).log_mean(self.log_density)))

    def sup(self):
        return float(np.exp(self.log_density.max()))


@dataclass
class BalanceReport:
    sup_density: float
    mean_density: float
    ratio: float
    genus: int
    degree: int

    def to_dict(self):
        return asdict(self)


def balance_report(density):
    sup = density.sup()
    mean = density.mean()
    return BalanceReport(sup_density=sup, mean_density=mean,
                         ratio=sup / mean, genus=density.mesh.genus,
                         degree=density.degree)


# ----------------------------------------------------------------------
# Green functions

def poisson_zero_mean(mesh, rhs_measure):
    """Solve L u = rhs (a measure with zero total mass) with M-mean-zero u.

    One MINRES solve on zero-mean fields preconditioned with the bundle's
    S + M factor (``Operators.screened_lu``), the one whose solves keep the
    density files' bits.
    """
    from . import operators
    ops = operators.of(mesh)
    # L = -S, so S u = -rhs
    return operators.newton_solve(ops, lambda y: ops.S @ y,
                                  -np.asarray(rhs_measure, float),
                                  "green solve", factors=[ops.screened_lu],
                                  zero_mean=True)


# ----------------------------------------------------------------------
# Synthesis

def synth_density(mesh, divisor):
    """Density with the given zeros: log|alpha|^2 = 4 pi sum m_j G_zj + kappa.

    G, the zero-mean Green function with L G_z = delta_z - M 1 / Vol, is
    linear in its source, so sum m_j G_zj is one Poisson solve with the
    whole divisor, sum m_j delta_zj - deg M 1 / Vol, as its source.  kappa
    scales the density to unit mean; any other constant is a gauge that
    the bundle factor v absorbs.
    """
    from . import operators
    divisor.check_range(mesh.num_vertices)
    ops = operators.of(mesh)
    ld = np.zeros(mesh.num_vertices)
    if divisor.entries:
        rhs = (divisor.indicator(mesh.num_vertices)
               - divisor.degree * ops.m / ops.vol)
        ld = 4.0 * np.pi * poisson_zero_mean(mesh, rhs)
    ld -= ops.log_mean(ld)
    c_L = operators.curvature_constant(mesh, divisor.degree)
    return SectionDensity(mesh=mesh, log_density=ld, divisor=divisor,
                          curvature_constant=c_L, normalization="unit_mean")


def poincare_lelong_residual(density):
    """Max-abs defect of L log|alpha|^2 = 4 pi (divisor) - 2 c_L M 1."""
    from . import operators
    mesh = density.mesh
    ops = operators.of(mesh)
    lhs = -(ops.S @ density.log_density)
    rhs = (4.0 * np.pi * density.divisor.indicator(mesh.num_vertices)
           - 2.0 * density.curvature_constant * ops.m)
    return float(np.abs(lhs - rhs).max())


# ----------------------------------------------------------------------
# Lifts and balanced families

def lift_density(base, cover_mesh):
    """Pull a base density back through the cover's covering map."""
    from . import operators
    cover_map = cover_mesh.base_vertex
    if cover_map is None:
        raise TodaError("cover mesh carries no covering map")
    if cover_map.shape != (cover_mesh.num_vertices,):
        raise TodaError("covering map has the wrong size for the cover mesh")
    V = base.mesh.num_vertices
    if len(cover_map) % V or not 0 <= cover_map.min() <= cover_map.max() < V:
        raise TodaError(f"the cover mesh ({len(cover_map)} vertices) does "
                        f"not cover the base mesh ({V} vertices)")

    ld = base.log_density[cover_map]
    base_div = dict(base.divisor.entries)
    lifted = np.flatnonzero(np.isin(cover_map, list(base_div)))
    divisor = Divisor([(i, base_div[b]) for i, b in
                       zip(lifted.tolist(), cover_map[lifted].tolist())])
    c_L = operators.curvature_constant(cover_mesh, divisor.degree)
    return SectionDensity(mesh=cover_mesh, log_density=ld, divisor=divisor,
                          curvature_constant=c_L,
                          normalization=base.normalization)


def balanced_lift(base, cover_mesh, z_n):
    """Lift o multiply: lift the base density and add one fresh simple zero.

    The base degree must be 4*g_base - 4 (the canonical-square degree), so
    the result has degree n*(4g-4) + 1 on the degree-n cover, scaled to unit
    mean.  Returns the density together with its balance report.
    """
    from . import operators
    expected = 4 * base.mesh.genus - 4
    if base.degree != expected:
        raise ValueError(
            f"balanced lift needs base degree {expected}, got {base.degree}")
    lifted = lift_density(base, cover_mesh)
    extra = synth_density(cover_mesh, Divisor([(int(z_n), 1)]))
    ld = lifted.log_density + extra.log_density
    ops = operators.of(cover_mesh)
    ld -= ops.log_mean(ld)
    entries = {v: mult for v, mult in lifted.divisor.entries}
    entries[int(z_n)] = entries.get(int(z_n), 0) + 1
    divisor = Divisor(sorted(entries.items()))
    c_L = operators.curvature_constant(cover_mesh, divisor.degree)
    density = SectionDensity(mesh=cover_mesh, log_density=ld, divisor=divisor,
                             curvature_constant=c_L, normalization="unit_mean")
    return density, balance_report(density)

