"""Green functions, density synthesis, lifts, and pointwise diagnostics."""

import numpy as np
import pytest

from helpers import (graph_distances, one_ring, schwarz_check,
                     schwarz_constant)
from todalab import operators as ops
from todalab import sections as S
from todalab.mesh import CoverSpec, build_base_surface, build_cover


@pytest.fixture(scope="module")
def mesh():
    return build_base_surface(refinement=2)


@pytest.fixture(scope="module")
def deg1(mesh):
    return S.synth_density(mesh, S.Divisor([(5, 1)]))


def test_divisor_validation():
    assert S.Divisor([(0, 1), (3, 2)]).degree == 3
    with pytest.raises(ValueError):
        S.Divisor([(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        S.Divisor([(0, 0)])


def green_function(mesh, z):
    """Zero-mean G with L G = delta_z - M 1 / Vol (as measures)."""
    m = ops.mass_vector(mesh)
    rhs = -(m / m.sum())
    rhs[z] += 1.0
    return S.poisson_zero_mean(mesh, rhs)


def test_green_function_identity(mesh):
    m = ops.mass_vector(mesh)
    L, _ = ops.laplacian(mesh)
    vol = m.sum()
    for z in (0, 7, 31):
        g = green_function(mesh, z)
        rhs = -(m / vol)
        rhs[z] += 1.0
        assert np.abs(L @ g - rhs).max() < 1e-10
        assert abs((m * g).sum()) < 1e-10


def test_green_function_symmetry(mesh):
    g5 = green_function(mesh, 5)
    g7 = green_function(mesh, 7)
    assert g5[7] == pytest.approx(g7[5], abs=1e-12)


def test_synth_density_normalizations(deg1):
    assert deg1.mean() == pytest.approx(1.0, abs=1e-12)
    assert deg1.normalization == "unit_mean"


def test_curvature_identity(mesh, deg1):
    assert S.poincare_lelong_residual(deg1) < 1e-9
    d3 = S.synth_density(mesh, S.Divisor([(0, 2), (9, 1)]))
    assert d3.degree == 3
    expected_c = 2 * np.pi * 3 / ops.volume(mesh)
    assert d3.curvature_constant == pytest.approx(expected_c, rel=1e-12)
    assert S.poincare_lelong_residual(d3) < 1e-9


def test_degree_zero_is_flat(mesh):
    d0 = S.synth_density(mesh, S.Divisor([]))
    assert np.abs(d0.log_density).max() < 1e-14
    assert d0.curvature_constant == 0.0
    assert not d0.is_zero


def test_zero_density(mesh):
    z = S.SectionDensity.zero(mesh)
    assert z.is_zero
    assert z.degree == 0
    assert np.isneginf(z.log_density).all()


def test_lift_density_preserves_profile(mesh, deg1):
    cover = build_cover(mesh, CoverSpec.cyclic(2))
    lifted = S.lift_density(deg1, cover)
    assert lifted.degree == 2 * deg1.degree
    assert lifted.sup() == pytest.approx(deg1.sup(), rel=1e-12)
    assert lifted.mean() == pytest.approx(deg1.mean(), rel=1e-10)
    assert S.poincare_lelong_residual(lifted) < 1e-9


def test_balanced_lift(mesh):
    base = S.synth_density(mesh, S.Divisor([(0, 1), (1, 1), (5, 1),
                                            (20, 1)]))
    ratios = {}
    for n in (2, 3):
        cover = build_cover(mesh, CoverSpec.cyclic(n))
        dens, rep = S.balanced_lift(base, cover, z_n=3)
        assert dens.degree == 4 * n * (mesh.genus - 1) + 1
        assert rep.degree == dens.degree
        assert rep.genus == n * (mesh.genus - 1) + 1
        assert dens.mean() == pytest.approx(1.0, abs=1e-10)
        assert S.poincare_lelong_residual(dens) < 1e-9
        ratios[n] = rep.ratio
    assert max(ratios.values()) / min(ratios.values()) < 2.0


def test_balanced_lift_requires_canonical_degree(mesh, deg1):
    cover = build_cover(mesh, CoverSpec.cyclic(2))
    with pytest.raises(ValueError):
        S.balanced_lift(deg1, cover, z_n=3)


def test_one_ring_matches_edge_neighbours():
    mesh1 = build_base_surface(refinement=1)
    zeros = [2, 13]
    density = S.synth_density(mesh1, S.Divisor([(v, 1) for v in zeros]))
    expected = set(zeros)
    for t, h in mesh1.edges:
        if t in zeros:
            expected.add(int(h))
        if h in zeros:
            expected.add(int(t))
    assert set(np.flatnonzero(one_ring(density))) == expected
    assert len(expected) < mesh1.num_vertices


def test_schwarz_check(mesh, deg1):
    report = schwarz_check(deg1, radius=1.2)
    assert report["ok"]
    assert report["checked"] > 0
    assert report["worst_margin"] >= 0
    assert report["c_delta"] == pytest.approx(
        schwarz_constant(ops.systole(mesh)), rel=1e-12)


def test_schwarz_constant_value():
    delta = 2 * np.arccosh(1 + np.sqrt(2.0))
    expected = (np.cosh(delta / 2) / np.tanh(delta / 2)) ** 2
    assert schwarz_constant(delta) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(7.0355339059327378, abs=1e-10)


def radial_barrier(r, a, B):
    """h(r) = -2a ln cosh(r/2) + B + ln tanh(r/2), r > 0."""
    return -2.0 * a * np.log(np.cosh(r / 2.0)) + B + np.log(np.tanh(r / 2.0))


def radial_barrier_derivative(r, a):
    """h'(r) = -a tanh(r/2) + 1/sinh(r)."""
    return -a * np.tanh(r / 2.0) + 1.0 / np.sinh(r)


def test_radial_barrier_ode():
    # h'' + coth(r) h' = -a for all r > 0.
    a, B = 0.17, 0.5
    r = np.linspace(0.3, 2.5, 40)
    h = 1e-5
    d1 = (radial_barrier(r + h, a, B) - radial_barrier(r - h, a, B)) / (2 * h)
    assert np.abs(d1 - radial_barrier_derivative(r, a)).max() < 1e-8
    d2 = (radial_barrier(r + h, a, B) - 2 * radial_barrier(r, a, B)
          + radial_barrier(r - h, a, B)) / h ** 2
    ode = d2 + (np.cosh(r) / np.sinh(r)) * d1
    assert np.abs(ode + a).max() < 1e-5


def test_radial_barrier_critical_at_systole():
    # h'(delta) = 0 at a = 1/(2 sinh^2(delta/2)) = 2 pi / Vol(D(delta)).
    delta = 2 * np.arccosh(1 + np.sqrt(2.0))
    a = 1.0 / (2 * np.sinh(delta / 2) ** 2)
    assert abs(radial_barrier_derivative(delta, a)) < 1e-14
    # a equals 2 pi over the hyperbolic disk volume of radius delta.
    vol_disk = 4 * np.pi * np.sinh(delta / 2) ** 2
    assert a == pytest.approx(2 * np.pi / vol_disk, rel=1e-14)


def test_schwarz_boundary_is_inside_ends_of_crossing_edges(mesh, deg1):
    inside = graph_distances(mesh, 5) <= 1.2
    boundary = set()
    for t, h in mesh.edges:
        if inside[t] and not inside[h]:
            boundary.add(int(t))
        if inside[h] and not inside[t]:
            boundary.add(int(h))
    rho = deg1.density()
    lam = 1.0 / np.sqrt(rho[~inside].max() * rho[~inside].min())
    report = schwarz_check(deg1, radius=1.2)
    assert report["sup_boundary"] == (lam * rho[sorted(boundary)]).max()


def test_density_serialization_round_trip(mesh, deg1, tmp_path):
    from todalab import fileio
    prefix = str(tmp_path / "dens")
    fileio.write_density(prefix, deg1)
    back = fileio.read_density(prefix, mesh)
    assert np.array_equal(back.log_density, deg1.log_density)
    assert back.divisor.entries == deg1.divisor.entries
    assert back.curvature_constant == deg1.curvature_constant
    assert back.normalization == deg1.normalization

    # The zero section (-inf everywhere) round-trips too.
    zero = S.SectionDensity.zero(mesh)
    fileio.write_density(str(tmp_path / "zero"), zero)
    zero_back = fileio.read_density(str(tmp_path / "zero"), mesh)
    assert zero_back.is_zero
    assert zero_back.divisor.entries == []

    # write -> read -> write reproduces both files byte for byte.
    for name, density in (("dens", back), ("zero", zero_back)):
        fileio.write_density(str(tmp_path / (name + "2")), density)
        for ext in (".csv", ".json"):
            first = (tmp_path / (name + ext)).read_bytes()
            assert (tmp_path / (name + "2" + ext)).read_bytes() == first
