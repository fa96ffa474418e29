"""Poincare-disk and hyperboloid primitives for the octagon surface.

Disk model: points are complex numbers |z| < 1; isometries are SU(1,1)
matrices [[alpha, beta], [conj(beta), conj(alpha)]] acting by Moebius
transformations z -> (alpha z + beta) / (conj(beta) z + conj(alpha)).
Matrices represent isometries up to sign (projective equality).

The regular octagon with all vertex angles pi/4 has closed forms:

    cosh(spoke)  = (1+sqrt2)^2 = 3 + 2 sqrt2   (center to vertex)
    cosh(apothem) = 1 + sqrt2                  (center to side midpoint)
    side = 2 * apothem                          (half-side = apothem)
    vertex Euclidean radius = tanh(spoke/2) = 2^(-1/4)

Each spoke triangle (center, two adjacent vertices) has angles
(pi/4, pi/8, pi/8) and area pi/2; the eight of them tile the octagon, total
area 4pi.  The four side pairings are pure translations along the axes
through the center and the side midpoints (directions pi/8 + j pi/4) by
twice the apothem; their translation length 2*arccosh(1+sqrt2) is the
systole of the surface.

Intrinsic triangle computations (angles, medial midpoint distances) run in
the hyperboloid model x^2 + y^2 - z^2 = -1 in Minkowski space, which is
numerically robust for the edge lengths that occur here.
"""

from __future__ import annotations

import numpy as np

SQRT2 = np.sqrt(2.0)

#: center-to-vertex distance of the octagon (spoke length)
SPOKE_LENGTH = float(np.arccosh(3.0 + 2.0 * SQRT2))
#: center-to-side distance; also half the side length
APOTHEM = float(np.arccosh(1.0 + SQRT2))
#: octagon side length; equals the systole of the surface
SIDE_LENGTH = 2.0 * APOTHEM
#: Euclidean radius of the octagon vertices in the disk (= 2^(-1/4))
VERTEX_RADIUS = float(np.tanh(SPOKE_LENGTH / 2.0))
#: hyperbolic area of the surface (Gauss-Bonnet, genus 2)
SURFACE_AREA = 4.0 * np.pi
#: systole: length of the shortest noncontractible geodesic
SYSTOLE = SIDE_LENGTH


def translation_matrix(phi, ell):
    """SU(1,1) translation along the direction e^{i phi} through 0 by ell."""
    a = np.cosh(ell / 2.0)
    b = np.exp(1j * phi) * np.sinh(ell / 2.0)
    return np.array([[a, b], [np.conj(b), np.conj(a)]], dtype=complex)


def _pairing_matrices():
    """Matrices of the four side pairings a,b,c,d and their inverses.

    Pairing j (letter j+1) translates along direction pi/8 + j pi/4 by twice
    the apothem; it carries the opposite side onto side j, sending vertex
    P_{j+4} to P_{j+1} and P_{j+5} to P_j.
    """
    mats = {}
    for j in range(4):
        m = translation_matrix(np.pi / 8.0 + j * np.pi / 4.0, 2.0 * APOTHEM)
        mats[j + 1] = m
        mats[-(j + 1)] = np.linalg.inv(m)
    return mats


GENERATOR_MATRICES = _pairing_matrices()


def word_matrix(word):
    """SU(1,1) matrix of a word (letters applied left to right to points)."""
    m = np.eye(2, dtype=complex)
    for l in word:
        m = m @ GENERATOR_MATRICES[l]
    return m


def mobius(m, z):
    """Apply an SU(1,1) matrix to one or more disk points."""
    z = np.asarray(z, dtype=complex)
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def disk_distance(z, w):
    """Hyperbolic distance between disk points (vectorized)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    num = 2.0 * np.abs(z - w) ** 2
    den = (1.0 - np.abs(z) ** 2) * (1.0 - np.abs(w) ** 2)
    return np.arccosh(1.0 + num / den)


def disk_midpoint(z, w):
    """Geodesic midpoint of two disk points (vectorized)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    # move z to the origin, take the point at half the distance toward the
    # image of w, move back
    t = (w - z) / (1.0 - np.conj(z) * w)
    d = disk_distance(z, w)
    abst = np.abs(t)
    scale = np.where(abst > 0, np.tanh(d / 4.0) / np.where(abst > 0, abst, 1.0), 0.0)
    mloc = t * scale
    return (mloc + z) / (1.0 + np.conj(z) * mloc)


# ----------------------------------------------------------------------
# Intrinsic triangle computations from edge lengths

def _corner_angle(ch_adj1, sh_adj1, ch_adj2, sh_adj2, ch_opp):
    """Angle between two sides from the cosh and sinh of both and the cosh
    of the opposite side (law of cosines)."""
    x = (ch_adj1 * ch_adj2 - ch_opp) / (sh_adj1 * sh_adj2)
    return np.arccos(np.clip(x, -1.0, 1.0))


def triangle_angles(l01, l12, l20):
    """Interior angles (at corners 0, 1, 2) of hyperbolic triangles.

    Side l01 joins corners 0,1 etc.; inputs broadcast.  Law of cosines:
    cos A = (cosh b cosh c - cosh a) / (sinh b sinh c) with a opposite A,
    on one cosh and one sinh per side.
    """
    l01, l12, l20 = np.broadcast_arrays(np.asarray(l01, float),
                                        np.asarray(l12, float),
                                        np.asarray(l20, float))
    c01, c12, c20 = np.cosh(l01), np.cosh(l12), np.cosh(l20)
    s01, s12, s20 = np.sinh(l01), np.sinh(l12), np.sinh(l20)
    a0 = _corner_angle(c01, s01, c20, s20, c12)
    a1 = _corner_angle(c01, s01, c12, s12, c20)
    a2 = _corner_angle(c12, s12, c20, s20, c01)
    return a0, a1, a2


def _mink_dot(x, y):
    return x[0] * y[0] + x[1] * y[1] - x[2] * y[2]


def _mink_midpoint(x, y):
    s = x + y
    norm = np.sqrt(-_mink_dot(s, s))
    return s / norm


def medial_lengths(l01, l12, l20):
    """Distances between edge midpoints of hyperbolic triangles.

    Returns (m0, m1, m2): m_k is the distance between the midpoints of the
    sides joining corners (k, k+1) and (k+1, k+2).  Computed by embedding
    each triangle isometrically in the hyperboloid model and taking
    Minkowski midpoints; exact up to rounding, no model-boundary loss.
    """
    l01 = np.atleast_1d(np.asarray(l01, float))
    l12 = np.atleast_1d(np.asarray(l12, float))
    l20 = np.atleast_1d(np.asarray(l20, float))
    c01, c20 = np.cosh(l01), np.cosh(l20)
    s01, s20 = np.sinh(l01), np.sinh(l20)
    a0 = _corner_angle(c01, s01, c20, s20, np.cosh(l12))

    zeros = np.zeros_like(l01)
    p0 = np.stack([zeros, zeros, np.ones_like(l01)])
    p1 = np.stack([s01, zeros, c01])
    p2 = np.stack([s20 * np.cos(a0), s20 * np.sin(a0), c20])

    m01 = _mink_midpoint(p0, p1)
    m12 = _mink_midpoint(p1, p2)
    m20 = _mink_midpoint(p2, p0)

    def dist(x, y):
        return np.arccosh(np.maximum(-_mink_dot(x, y), 1.0))

    return dist(m01, m12), dist(m12, m20), dist(m20, m01)


def vertex_lift_words():
    """Words g_j moving the canonical vertex lift P_0 to P_j, j = 0..7.

    Derived from the corner-image relations of the pairings (pairing j+1
    maps P_{j+4} to P_{j+1} and P_{j+5} to P_j).
    """
    return (
        (),               # P0
        (2, -3, 4),       # P1 = b c^-1 d . P0
        (2, -1),          # P2 = b a^-1 . P0
        (4,),             # P3 = d . P0
        (4, -3, 2, -1),   # P4 = d c^-1 b a^-1 . P0
        (-1,),            # P5 = a^-1 . P0
        (-3, 4),          # P6 = c^-1 d . P0
        (-3, 2, -1),      # P7 = c^-1 b a^-1 . P0
    )
