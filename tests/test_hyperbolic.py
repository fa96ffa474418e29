"""Disk-model primitives, octagon constants, and side-pairing matrices.

The regular octagon with vertex angle pi/4 has closed-form data:
circumradius arccosh(1 + sqrt 2 + ...) below, apothem arccosh(1 + sqrt 2),
side 2 arccosh(1 + sqrt 2); these numbers are frozen from the closed forms
and double-checked against the matrix representation.
"""

import numpy as np
import pytest

from todalab import group as G
from todalab import hyperbolic as H

SQRT2 = np.sqrt(2.0)
# The eight octagon vertices P_j at angles pi j/4, |P_j| = 2^(-1/4).
OCTAGON_VERTICES = H.VERTEX_RADIUS * np.exp(1j * np.pi * np.arange(8) / 4)


def translation_length(m):
    """Translation length 2 arccosh(|Re tr| / 2) of a hyperbolic element."""
    return 2.0 * np.arccosh(abs((m[0, 0] + m[1, 1]).real) / 2.0)


def identity_defect(m):
    """Max-abs deviation of an SU(1,1) matrix from +/- identity."""
    return min(np.abs(m - np.eye(2)).max(), np.abs(m + np.eye(2)).max())


def test_octagon_constants_closed_forms():
    assert H.SPOKE_LENGTH == pytest.approx(np.arccosh(3 + 2 * SQRT2),
                                           abs=1e-15)
    assert H.SPOKE_LENGTH == pytest.approx(2.4484524476780756, abs=1e-14)
    assert H.APOTHEM == pytest.approx(np.arccosh(1 + SQRT2), abs=1e-15)
    assert H.APOTHEM == pytest.approx(1.5285709194809982, abs=1e-14)
    assert H.SIDE_LENGTH == pytest.approx(2 * H.APOTHEM, abs=1e-15)
    assert H.SIDE_LENGTH == pytest.approx(3.0571418389619964, abs=1e-14)
    # cosh(side) = 5 + 4 sqrt 2 by the double-angle identity.
    assert np.cosh(H.SIDE_LENGTH) == pytest.approx(5 + 4 * SQRT2, rel=1e-14)
    assert H.VERTEX_RADIUS == pytest.approx(2.0 ** -0.25, abs=1e-15)
    assert H.VERTEX_RADIUS == pytest.approx(np.tanh(H.SPOKE_LENGTH / 2),
                                            abs=1e-14)
    assert H.SURFACE_AREA == pytest.approx(4 * np.pi, abs=1e-15)
    assert H.SYSTOLE == H.SIDE_LENGTH


def test_octagon_vertices():
    P = OCTAGON_VERTICES
    for z in P:
        assert H.disk_distance(0.0, z) == pytest.approx(H.SPOKE_LENGTH,
                                                        abs=1e-13)
    # Consecutive vertices are one octagon side apart.
    for j in range(8):
        d = H.disk_distance(P[j], P[(j + 1) % 8])
        assert d == pytest.approx(H.SIDE_LENGTH, abs=1e-12)


def test_generator_matrices_are_unit_determinant_translations():
    for letter in range(1, 5):
        M = H.GENERATOR_MATRICES[letter]
        Minv = H.GENERATOR_MATRICES[-letter]
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(M @ Minv, np.eye(2), atol=1e-12)
        # All four side pairings translate by the side length.
        assert translation_length(M) == pytest.approx(H.SIDE_LENGTH,
                                                      abs=1e-12)


def test_side_pairing_corner_images():
    # Pairing j+1 carries vertex P_{j+4} to P_{j+1} and P_{j+5} to P_j:
    # opposite sides are glued with a half-turn of labeling.
    P = OCTAGON_VERTICES
    for j in range(4):
        M = H.GENERATOR_MATRICES[j + 1]
        assert abs(H.mobius(M, P[(j + 4) % 8]) - P[(j + 1) % 8]) < 1e-12
        assert abs(H.mobius(M, P[(j + 5) % 8]) - P[j]) < 1e-12


def test_relator_is_projectively_trivial():
    assert identity_defect(H.word_matrix(G.RELATOR)) < 1e-12
    # The naive cyclic word a b c d a^-1 b^-1 c^-1 d^-1 is NOT a relation
    # for this pairing: its matrix is far from +-identity.
    naive = (1, 2, 3, 4, -1, -2, -3, -4)
    assert identity_defect(H.word_matrix(naive)) > 1.0


def test_vertex_lift_words_map_basepoint_to_corners():
    P = OCTAGON_VERTICES
    words = H.vertex_lift_words()
    assert len(words) == 8
    assert words[0] == ()
    for j, w in enumerate(words):
        image = H.mobius(H.word_matrix(w), P[0])
        assert abs(image - P[j]) < 1e-11


def test_mobius_preserves_distance():
    rng = np.random.default_rng(0)
    z = 0.3 + 0.2j
    w = -0.5 + 0.1j
    d0 = H.disk_distance(z, w)
    for letter in range(1, 5):
        M = H.GENERATOR_MATRICES[letter]
        d1 = H.disk_distance(H.mobius(M, z), H.mobius(M, w))
        assert d1 == pytest.approx(d0, abs=1e-13)


def test_disk_distance_basics():
    assert H.disk_distance(0.0, 0.0) == 0.0
    r = 0.5
    assert H.disk_distance(0.0, r) == pytest.approx(2 * np.arctanh(r),
                                                    abs=1e-14)
    z, w = 0.1 + 0.4j, -0.3 - 0.2j
    assert H.disk_distance(z, w) == pytest.approx(H.disk_distance(w, z),
                                                  abs=1e-14)


def test_disk_midpoint():
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = 0.8 * (rng.random() + 1j * rng.random() - 0.5 - 0.5j)
        w = 0.8 * (rng.random() + 1j * rng.random() - 0.5 - 0.5j)
        mid = H.disk_midpoint(z, w)
        d = H.disk_distance(z, w)
        assert H.disk_distance(z, mid) == pytest.approx(d / 2, abs=1e-12)
        assert H.disk_distance(mid, w) == pytest.approx(d / 2, abs=1e-12)


def test_translation_matrix_length():
    for ell in (0.5, 1.0, 2.7):
        for phi in (0.0, 0.3, np.pi / 2):
            M = H.translation_matrix(phi, ell)
            assert translation_length(M) == pytest.approx(ell, abs=1e-12)
            assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)


def test_spoke_triangle_angles_and_area():
    # Central triangle of the octagon fan: two spokes and one side.
    a0, a1, a2 = H.triangle_angles(H.SPOKE_LENGTH, H.SIDE_LENGTH,
                                   H.SPOKE_LENGTH)
    angles = sorted([a0, a1, a2])
    assert angles[0] == pytest.approx(np.pi / 8, abs=1e-12)
    assert angles[1] == pytest.approx(np.pi / 8, abs=1e-12)
    assert angles[2] == pytest.approx(np.pi / 4, abs=1e-12)
    area = np.pi - (a0 + a1 + a2)
    assert area == pytest.approx(np.pi / 2, abs=1e-12)
    # The apex angle (between the two spokes) sits at vertex 0, which is
    # opposite the side of length l12 = SIDE_LENGTH.
    assert a0 == pytest.approx(np.pi / 4, abs=1e-12)


def test_medial_lengths_flat_limit():
    # For tiny triangles the medial segment approaches half the third side.
    m0, m1, m2 = H.medial_lengths(1e-3, 1e-3, 1e-3)
    for m in (m0, m1, m2):
        assert m == pytest.approx(0.5e-3, rel=1e-5)


def test_medial_lengths_match_drawn_midpoints():
    # Place a triangle concretely in the disk and compare the intrinsic
    # medial lengths with distances between drawn midpoints.
    z0, z1, z2 = 0.0, 0.45 + 0.1j, 0.1 + 0.5j
    l01 = H.disk_distance(z0, z1)
    l12 = H.disk_distance(z1, z2)
    l20 = H.disk_distance(z2, z0)
    m01 = H.disk_midpoint(z0, z1)
    m12 = H.disk_midpoint(z1, z2)
    m20 = H.disk_midpoint(z2, z0)
    m0, m1, m2 = H.medial_lengths(l01, l12, l20)
    assert m0 == pytest.approx(H.disk_distance(m01, m12), abs=1e-12)
    assert m1 == pytest.approx(H.disk_distance(m12, m20), abs=1e-12)
    assert m2 == pytest.approx(H.disk_distance(m20, m01), abs=1e-12)


def test_triangle_angle_sum_below_pi():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.uniform(0.2, 2.0, size=2)
        c = rng.uniform(abs(a - b) + 1e-3, a + b - 1e-3)
        angles = H.triangle_angles(a, b, c)
        assert sum(angles) < np.pi
        assert all(t > 0 for t in angles)
