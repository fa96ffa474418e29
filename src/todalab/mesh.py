"""Triangulated closed hyperbolic surfaces with holonomy bookkeeping.

A mesh is a Delta-complex: triangles may share both endpoints of an edge
and edges may be loops (the coned octagon at level 0 has both).  Each edge
therefore carries an explicit id, a stored direction (tail, head), a
hyperbolic length, and a holonomy word.

Holonomy convention: every vertex has a canonical lift (its ``position`` in
the Poincare disk); the word of an edge is the deck transformation gamma
such that the drawn representative of the edge runs from position(tail) to
gamma . position(head).  Words are lift-independent and multiply along
paths; the product of a triangle's three slot words (with signs) is the
identity in the surface group, which :meth:`HyperbolicMesh.validate`
checks by Dehn reduction.

The base surface is the genus-2 regular-octagon quotient, coned to its
center: 2 vertices, 12 edges (8 spokes + 4 boundary loops), 8 triangles.
Refinement splits every triangle 1->4 at geodesic edge midpoints, with new
lengths computed intrinsically (hyperboloid model) and new holonomy words
derived from the corner words of each triangle.  Covers are voltage-graph
lifts along a permutation action on sheets, with holonomy conjugated by a
Schreier transversal so it stays in the base group.

A mesh carries few distinct holonomy words (20 among the 12 288 edges at
level 5), so the word work is done once per distinct word:
:meth:`HyperbolicMesh.word_table` numbers them in order of first use and
keeps one SU(1,1) matrix each (built from the edge words on first use,
or by :func:`mesh_from_json` as it reads the file's word strings),
:func:`build_cover` takes one sheet permutation per word and
fills the cell tables sheet by sheet with array operations, and
:meth:`HyperbolicMesh.slot_triples` numbers the distinct triples of slot
words and signs (86 among the 8192 triangles at level 5): ``validate``
Dehn-reduces one triangle product per triple and :func:`refine` builds
one set of medial words per triple, its other tables being index
arithmetic on the slot arrays.

Serialization (format 2): a mesh file is one compact JSON object that
stores each fact once.  Its keys are ``format`` (the integer 2), ``genus``,
``level``, ``edge_words`` (one word string such as ``"aB"`` per edge) and
the tables of :data:`TABLES` under their field names: ``edges``,
``edge_lengths``, ``tri_edges``, ``tri_edge_signs``, ``positions`` (re and
im interleaved) and, for covers, ``base_vertex``, each one flat row-major
list.  Triangles are not stored: they follow from the slots (see
:attr:`HyperbolicMesh.triangles`).  The text is defined as ``json.dumps(doc,
separators=(",", ":"), sort_keys=True)`` of that object, and run manifests
hash it, so its bytes are fixed: a mesh read back serializes to the same
bytes.  :func:`mesh_to_json` produces those bytes without that call on the
tables: it formats each distinct number once (a level-5 2-cover has 628
distinct edge lengths among 24 576) and each distinct word of the word
table once (34 among its 24 576 edges), joins the texts by index, then
assembles the object's ``"key":text`` parts in the sorted key order of
``_KEYS``.  :func:`mesh_from_json` reads a text in exactly that layout in
bulk, with no Python list of numbers: one ``np.fromstring`` call per
table behind whole-span checks (the bytes allowed, one entry per comma,
whole rows, finite floats, integers within int64).  Every other text, and
one that fails a check, goes to ``json.loads`` and :func:`mesh_from_dict`,
the one document checker, which rejects any other format (meshes written
before format 2 must be rebuilt), malformed tables and out-of-range
indices with a MeshError; so the number spellings that NumPy reads and
JSON does not (``+1``, ``01``, ``.5``, ``1.``) read as the numbers they
spell only in the writer's layout.  Both paths number the distinct word
strings in order of first use, parse each once, and hand the mesh the
word table those give, the one ``word_table`` would build from the edge
words, so a mesh read back does not derive it again.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import group, hyperbolic
from .errors import DisconnectedCoverError, MeshError, RelatorError

# Largest accepted gap between an edge's stored length and the disk
# distance of its drawn representative.
POSITION_TOL = 1e-8


@dataclass
class HyperbolicMesh:
    """Triangulated hyperbolic surface with edge holonomy.

    tri_edges[t, k]   -- edge id of the slot joining corners k and k+1 (mod 3)
    tri_edge_signs[t, k] -- +1 if corner k sits at the stored tail of that
                         edge, -1 if the slot traverses the edge backwards
    edges[e]          -- (tail, head) vertex ids of edge e
    edge_lengths[e]   -- hyperbolic length
    edge_words[e]     -- holonomy word of the stored direction
    positions[v]      -- canonical disk lift of vertex v (complex)
    base_vertex[i]    -- for covers: base vertex under the covering map

    The corners of each triangle are derived, not stored: see
    :attr:`triangles`.
    """

    genus: int
    level: int
    tri_edges: np.ndarray
    tri_edge_signs: np.ndarray
    edges: np.ndarray
    edge_lengths: np.ndarray
    edge_words: list
    positions: np.ndarray
    base_vertex: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    # -------------------------------------------------- basic counts
    @property
    def num_vertices(self):
        return len(self.positions)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_faces(self):
        return len(self.tri_edges)

    @property
    def triangles(self):
        """(F, 3) corner vertex ids: corner k is where slot k starts, the
        stored tail of its edge for sign +1 and the head for sign -1.
        Computed on each read, so bind it once where it is used often."""
        return np.take(self.edges.ravel(),
                       2 * self.tri_edges + (self.tri_edge_signs < 0))

    @property
    def euler_characteristic(self):
        return self.num_vertices - self.num_edges + self.num_faces

    # -------------------------------------------------- derived data
    def slot_lengths(self):
        """(F, 3) lengths of each triangle's slot edges."""
        return self.edge_lengths[self.tri_edges]

    def _slot_word(self, t, k):
        """Word of slot k of triangle t, in the slot's direction."""
        w = self.edge_words[self.tri_edges[t, k]]
        return group.inverse_word(w) if self.tri_edge_signs[t, k] < 0 else w

    def corner_words(self, t):
        """Corner words (h0, h1, h2) of triangle t: h0 is the identity and
        h_{k+1} = h_k * word(slot k)^sign, so the drawn corner k sits at
        h_k . position(corner k)."""
        words = [()]
        for k in range(2):
            words.append(group.concat(words[-1], self._slot_word(t, k)))
        return words

    def triangle_word(self, t):
        """Product of the three slot words around triangle t (freely
        reduced); the identity in the surface group for any valid mesh."""
        return group.concat(*(self._slot_word(t, k) for k in range(3)))

    def word_table(self):
        """The edges' distinct holonomy words, built once per mesh: here
        from ``edge_words``, or by :func:`mesh_from_json` from the
        distinct word strings of the file it reads."""
        if "words" not in self._cache:
            index = {}
            ids = [index.setdefault(w, len(index)) for w in self.edge_words]
            self._cache["words"] = WordTable.of(list(index), ids)
        return self._cache["words"]

    def slot_triples(self):
        """(first, triple): the distinct triples of slot words and signs,
        the only data a triangle's holonomy words depend on.  first[i] is
        the first triangle with triple i, triple[t] the triple of t."""
        table = self.word_table()
        code = 2 * table.ids[self.tri_edges] + (self.tri_edge_signs < 0)
        # one int64 key per row, ordered as the rows are lexicographically
        n = 2 * len(table.words)
        key = (code[:, 0] * n + code[:, 1]) * n + code[:, 2]
        _, first, triple = np.unique(key, return_index=True,
                                     return_inverse=True)
        return first.tolist(), triple

    # -------------------------------------------------- validation
    def validate(self):
        """Check all structural invariants; raise MeshError on failure."""
        self._check_tables()
        if self.euler_characteristic != 2 - 2 * self.genus:
            raise MeshError(
                f"Euler characteristic {self.euler_characteristic} != "
                f"{2 - 2 * self.genus} for genus {self.genus}")
        if not (self.edge_lengths > 0).all():
            raise MeshError("nonpositive edge length")

        # each slot runs along its edge, from the stored tail (sign +1) or
        # from the stored head (sign -1), and ends where the next one starts
        slot_edges = self.tri_edges
        ends = np.take(self.edges.ravel(),
                       2 * slot_edges + (self.tri_edge_signs > 0))
        ok = ends == self.triangles[:, [1, 2, 0]]
        if not ok.all():
            t, k = divmod(int(np.flatnonzero(~ok)[0]), 3)
            raise MeshError(
                f"slot ({t},{k}) inconsistent with edge {slot_edges[t, k]}")

        # each edge is used by exactly two triangle slots (closed surface)
        uses = np.bincount(slot_edges.ravel(), minlength=self.num_edges)
        if (uses != 2).any():
            e = int(np.flatnonzero(uses != 2)[0])
            raise MeshError(
                f"edge {e} is used by {uses[e]} triangle slots, not two")

        # strict triangle inequalities (nondegeneracy)
        sl = self.slot_lengths()
        strict = sl < sl[:, [1, 2, 0]] + sl[:, [2, 0, 1]]
        if not strict.all():
            t = int(np.flatnonzero(~strict.all(axis=1))[0])
            raise MeshError(f"triangle {t} violates the triangle inequality")

        # holonomy: triangle products are the identity, Dehn-reduced once
        # per distinct triple of slot words and signs
        first, triple = self.slot_triples()
        trivial = np.array([group.is_identity(self.triangle_word(t))
                            for t in first])
        bad = ~trivial[triple]
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            raise MeshError(f"triangle {t} has non-identity holonomy product")

        # drawn geometry consistent with stored lengths
        defect = self._length_defects()
        bad = ~(defect <= POSITION_TOL)
        if bad.any():
            e = int(np.flatnonzero(bad)[0])
            raise MeshError(
                f"drawn length of edge {e} deviates from its stored "
                f"length by {defect[e]:.3e}")
        return True

    def _check_tables(self):
        """Raise MeshError, naming the table and its first bad entry, unless
        every table has one row per edge, triangle or vertex, edge
        endpoints are vertex ids, slot edges are edge ids, slot signs are
        +1 or -1 and base vertices are vertex ids (a base has no more
        vertices than its cover): the rule that makes every index into the
        mesh's arrays valid and bounds every integer ``mesh_to_json``
        writes."""
        V, E, F = self.num_vertices, self.num_edges, self.num_faces
        for name, rows in (("edge_lengths", E), ("edge_words", E),
                           ("tri_edge_signs", F), ("base_vertex", V)):
            table = getattr(self, name)
            if table is not None and len(table) != rows:
                raise MeshError(f"mesh table {name!r} has {len(table)} "
                                f"rows, not {rows}")
        edges, slots, signs = self.edges, self.tri_edges, self.tri_edge_signs
        checks = [("edges", edges, (edges >= 0) & (edges < V),
                   f"a vertex id in [0, {V})"),
                  ("tri_edges", slots, (slots >= 0) & (slots < E),
                   f"an edge id in [0, {E})"),
                  ("tri_edge_signs", signs, abs(signs) == 1, "+1 or -1")]
        if self.base_vertex is not None:
            base = self.base_vertex
            checks.append(("base_vertex", base, (base >= 0) & (base < V),
                           f"a vertex id in [0, {V})"))
        for name, table, ok, rule in checks:
            if not ok.all():
                i = int(np.flatnonzero(~ok)[0])
                raise MeshError(f"mesh table {name!r} entry {i} is "
                                f"{table.flat[i]}, not {rule}")

    def drawn_heads(self):
        """Head of each edge's drawn representative: word . position(head)."""
        table = self.word_table()
        # gathered entry by entry: freeing larger temporaries raises the
        # allocator's mmap threshold and with it the later peak memory
        m = table.matrices
        a, b, c, d = (m[:, i, j][table.ids] for i in (0, 1) for j in (0, 1))
        z = self.positions[self.edges[:, 1]]
        return (a * z + b) / (c * z + d)

    def _length_defects(self):
        """|stored length - disk distance of the drawn representative| per
        edge (NaN where the drawn distance is undefined)."""
        d = hyperbolic.disk_distance(self.positions[self.edges[:, 0]],
                                     self.drawn_heads())
        return np.abs(d - self.edge_lengths)


class WordTable(NamedTuple):
    """Distinct holonomy words of a mesh's edges.

    words     -- the distinct words, in order of first use
    ids[e]    -- index in ``words`` of edge e's word
    matrices  -- (len(words), 2, 2) SU(1,1) matrix of each word
    """

    words: list
    ids: np.ndarray
    matrices: np.ndarray

    @classmethod
    def of(cls, words, ids):
        """The table of the distinct words and each edge's index among
        them, with the words' matrices."""
        matrices = [hyperbolic.word_matrix(w) for w in words]
        return cls(words=words, ids=np.asarray(ids, dtype=np.intp),
                   matrices=np.array(matrices, complex).reshape(-1, 2, 2))


# ----------------------------------------------------------------------
# Base surface

def build_base_surface(refinement=0):
    """Genus-2 octagon surface, coned to its center, refined ``refinement``
    times by geodesic midpoint subdivision."""
    if refinement < 0:
        raise ValueError("refinement must be >= 0")

    g = hyperbolic.vertex_lift_words()
    spoke = hyperbolic.SPOKE_LENGTH
    side = hyperbolic.SIDE_LENGTH

    # vertices: 0 = cone point at the origin, 1 = octagon vertex class
    positions = np.array([0.0 + 0.0j, hyperbolic.VERTEX_RADIUS + 0.0j])

    # edges 0..7: spokes center->vertex with word g_j
    # edges 8..11: boundary sides as vertex loops, word g_j^-1 g_{j+1}
    edges = []
    edge_lengths = []
    edge_words = []
    for j in range(8):
        edges.append((0, 1))
        edge_lengths.append(spoke)
        edge_words.append(g[j])
    for j in range(4):
        edges.append((1, 1))
        edge_lengths.append(side)
        edge_words.append(group.concat(group.inverse_word(g[j]), g[j + 1]))

    # triangle t_j has corners (center, P_j, P_{j+1}); its boundary slot uses
    # side class j mod 4, traversed backwards for j >= 4
    tri_edges = []
    tri_signs = []
    for j in range(8):
        if j < 4:
            tri_edges.append((j, 8 + j, (j + 1) % 8))
            tri_signs.append((1, 1, -1))
        else:
            tri_edges.append((j, 8 + j - 4, (j + 1) % 8))
            tri_signs.append((1, -1, -1))

    mesh = HyperbolicMesh(
        genus=2,
        level=0,
        tri_edges=np.array(tri_edges, dtype=np.int64),
        tri_edge_signs=np.array(tri_signs, dtype=np.int64),
        edges=np.array(edges, dtype=np.int64),
        edge_lengths=np.array(edge_lengths, dtype=float),
        edge_words=edge_words,
        positions=positions,
    )
    for _ in range(refinement):
        mesh = refine(mesh)
    return mesh


# ----------------------------------------------------------------------
# Refinement

def refine(mesh):
    """Split every triangle 1->4 at geodesic edge midpoints.

    Child numbering, for a parent with V vertices, E edges and F triangles:
    vertex v keeps its id and the midpoint of edge e is V + e; the halves of
    edge e are e (tail -> midpoint, identity word) and E + e (midpoint ->
    head, the word of e); the medial edge of triangle t joining the
    midpoints of slots k and k+1 is 2E + 3t + k; triangle t becomes the
    corner triangles 4t + k = (v_k, mid_k, mid_{k-1}) and the central
    triangle 4t + 3 = (mid_0, mid_1, mid_2).  Midpoint positions are disk
    midpoints of the drawn representatives; medial lengths are intrinsic
    (hyperboloid model).  Medial words depend only on a triangle's slot
    words and signs, so they are built once per distinct triple.
    """
    V, E, F = mesh.num_vertices, mesh.num_edges, mesh.num_faces
    mid_pos = hyperbolic.disk_midpoint(mesh.positions[mesh.edges[:, 0]],
                                       mesh.drawn_heads())
    med_len = np.stack(hyperbolic.medial_lengths(*mesh.slot_lengths().T),
                       axis=1)
    if not np.isfinite(med_len).all() or not (med_len > 0).all():
        raise MeshError("degenerate triangle produced by refinement")

    # per slot k: its midpoint, its halves at corners k and k+1, its sign
    # and the medial edge from its midpoint
    slots, forward = mesh.tri_edges, mesh.tri_edge_signs > 0
    mid = V + slots
    near = slots + np.where(forward, 0, E)
    far = slots + np.where(forward, E, 0)
    sign = np.where(forward, 1, -1)
    medial = 2 * E + np.arange(3 * F).reshape(F, 3)

    def prev(a):
        """Entry k-1 at slot k."""
        return np.roll(a, 1, axis=1)

    def children(corner, central):
        """(4F, 3) rows: corner triangles 4t + k, then central 4t + 3."""
        return np.concatenate([np.stack(corner, axis=2), central[:, None]],
                              axis=1).reshape(4 * F, 3)

    # the midpoint of slot k is drawn at mu_k . position(mid_k), with mu_k
    # the corner word h_k of a forward slot and h_{k+1} of a backward one
    first, triple = mesh.slot_triples()

    def medial_words(t):
        h = mesh.corner_words(t)
        mu = [h[k] if forward[t, k] else h[(k + 1) % 3] for k in range(3)]
        return [group.concat(group.inverse_word(mu[k]), mu[(k + 1) % 3])
                for k in range(3)]

    words = np.fromiter(
        itertools.chain.from_iterable(medial_words(t) for t in first),
        dtype=object, count=3 * len(first)).reshape(-1, 3)
    midpoints = np.arange(V, V + E)
    half_len = mesh.edge_lengths / 2.0

    return HyperbolicMesh(
        genus=mesh.genus,
        level=mesh.level + 1,
        # corner k runs v_k -> mid_k -> mid_{k-1} -> v_k: along the near
        # half of slot k, back along medial edge k-1, along the far half
        # of slot k-1
        tri_edges=children([near, prev(medial), prev(far)], medial),
        tri_edge_signs=children([sign, -np.ones_like(sign), prev(sign)],
                                np.ones_like(sign)),
        edges=np.concatenate([
            np.column_stack([mesh.edges[:, 0], midpoints]),
            np.column_stack([midpoints, mesh.edges[:, 1]]),
            np.stack([mid, np.roll(mid, -1, axis=1)], axis=2).reshape(-1, 2)]),
        edge_lengths=np.concatenate([half_len, half_len, med_len.ravel()]),
        edge_words=([()] * E + list(mesh.edge_words)
                    + words[triple].ravel().tolist()),
        positions=np.concatenate([mesh.positions, mid_pos]),
    )


# ----------------------------------------------------------------------
# Covers

@dataclass
class CoverSpec:
    """Finite cover described by permutation images of the four generators.

    ``generator_images`` maps letters 1..4 (the pairings a,b,c,d) to
    permutations of {0..degree-1}, acting on sheets on the right.  The
    images must kill the octagon relator (so the glued complex is a genuine
    cover) and act transitively (so it is connected).
    """

    degree: int
    generator_images: dict

    @classmethod
    def cyclic(cls, n):
        """Default cover: Z/n with a -> +1 shift, b, c, d -> 0."""
        shift = (np.arange(n, dtype=np.int64) + 1) % n
        ident = group.identity_perm(n)
        return cls(degree=n, generator_images={
            1: shift, 2: ident.copy(), 3: ident.copy(), 4: ident.copy()})

    def validate(self):
        n = self.degree
        if n < 1:
            raise ValueError("cover degree must be >= 1")
        group.check_permutations(self.generator_images, n)
        rel = group.perm_of_word(self.generator_images, group.RELATOR, n)
        if not np.array_equal(rel, group.identity_perm(n)):
            raise RelatorError(
                "generator images do not kill the octagon relator "
                f"{group.word_str(group.RELATOR)}")
        _schreier_transversal(self.generator_images, n)
        return True


def _schreier_transversal(images, n):
    """BFS transversal: word T_s carrying sheet 0 to sheet s.  Raises
    DisconnectedCoverError unless the action is transitive."""
    full = group.letter_perms(images)
    T = [None] * n
    T[0] = ()
    queue = [0]
    while queue:
        s = queue.pop(0)
        for l in sorted(full.keys(), key=abs):
            s2 = int(full[l][s])
            if T[s2] is None:
                T[s2] = T[s] + (l,)
                queue.append(s2)
    if any(t is None for t in T):
        raise DisconnectedCoverError(
            "permutation action is not transitive; cover is disconnected")
    return T


def build_cover(mesh, spec):
    """Voltage-graph lift of the mesh along a permutation cover spec.

    Cover cells are (cell, sheet) pairs indexed sheet-major: vertex (v, s)
    gets id s*V + v, and similarly for edges and triangles.  The edge copy
    (e, s) runs from (tail, s) to (head, s . pi(word_e)); holonomy words are
    conjugated by the Schreier transversal, T_s word T_{s'}^-1, so they stay
    in the base group where Dehn reduction still decides contractibility
    (covers inject on fundamental groups).
    """
    spec.validate()
    n = spec.degree
    images = spec.generator_images
    V, E, F = mesh.num_vertices, mesh.num_edges, mesh.num_faces
    T = _schreier_transversal(images, n)

    # right action on sheets of each distinct edge word and of its inverse
    table = mesh.word_table()
    perm = np.array([group.perm_of_word(images, w, n) for w in table.words],
                    dtype=np.int64).reshape(-1, n)
    perm_inv = np.argsort(perm, axis=1)
    ids = table.ids.tolist()
    slot_ids = table.ids[mesh.tri_edges]
    signs = mesh.tri_edge_signs

    def across(k, sheets):
        """Sheets reached over slot k of each triangle from the given
        sheets: by the slot's word, or its inverse for a backward slot."""
        w = slot_ids[:, k]
        return np.where(signs[:, k] < 0, perm_inv[w, sheets], perm[w, sheets])

    # one sheet at a time, vectorized over the cells
    edges = np.empty((n, E, 2), dtype=np.int64)
    tri_edges = np.empty((n, F, 3), dtype=np.int64)
    words = []
    for s in range(n):
        # edge copy (e, s) runs from (tail, s) to (head, s . word_e)
        edges[s, :, 0] = s * V + mesh.edges[:, 0]
        edges[s, :, 1] = perm[table.ids, s] * V + mesh.edges[:, 1]
        conjugated = [
            group.concat(T[s], w, group.inverse_word(T[int(perm[i, s])]))
            for i, w in enumerate(table.words)]
        words.extend(conjugated[i] for i in ids)

        # triangle copy (t, s) has corner 0 on sheet s
        c0 = np.full(F, s, dtype=np.int64)
        c1 = across(0, c0)
        corner = np.stack([c0, c1, across(1, c1)], axis=1)
        # the edge copy whose stored tail matches the slot's tail
        anchor = np.where(signs > 0, corner, np.roll(corner, -1, axis=1))
        tri_edges[s] = anchor * E + mesh.tri_edges

    positions = np.concatenate([
        hyperbolic.mobius(hyperbolic.word_matrix(t), mesh.positions)
        for t in T])

    return HyperbolicMesh(
        genus=n * (mesh.genus - 1) + 1,
        level=mesh.level,
        tri_edges=tri_edges.reshape(n * F, 3),
        tri_edge_signs=np.tile(signs, (n, 1)),
        edges=edges.reshape(n * E, 2),
        edge_lengths=np.tile(mesh.edge_lengths, n),
        edge_words=words,
        positions=positions,
        base_vertex=np.tile(np.arange(V, dtype=np.int64), n),
    )


# ----------------------------------------------------------------------
# Serialization

# The format this module writes and the only one it reads.
FORMAT = 2

# (key, width, dtype) of each table of a mesh file: a flat row-major list
# of width numbers per row, read into an array of dtype (a complex
# position is a row of two floats, re and im).  The key is the
# HyperbolicMesh field.
TABLES = (("edges", 2, np.int64), ("edge_lengths", 1, float),
          ("tri_edges", 3, np.int64), ("tri_edge_signs", 3, np.int64),
          ("positions", 2, complex), ("base_vertex", 1, np.int64))

# The keys of a mesh file in the order mesh_to_json writes them (sorted,
# as json.dumps(sort_keys=True) orders them), the one layout the bulk
# parse reads.
_KEYS = sorted([key for key, _, _ in TABLES]
               + ["edge_words", "format", "genus", "level"])


def _joined(text, index):
    """The JSON list whose entries have the texts text[index]."""
    return "[" + ",".join(np.array(text, dtype=object)[index].tolist()) + "]"


def _list_text(values):
    """The compact JSON text of the flat integer or finite float array
    values, as ``json.dumps(values.tolist())`` gives it, with each distinct
    number formatted once: floats by their bit patterns (so -0.0 and 0.0
    stay apart) and integers from one table over their range."""
    if values.dtype.kind == "f":
        bits, index = np.unique(values.view(np.int64), return_inverse=True)
        text = list(map(float.__repr__, bits.view(float).tolist()))
    else:
        low = int(values.min(initial=0))
        index = values - low
        text = list(map(str, range(low, int(values.max(initial=0)) + 1)))
    return _joined(text, index)


def mesh_to_json(mesh):
    """The mesh as format-2 JSON text (see "Serialization" in the module
    docstring).  Raises MeshError for a non-finite position or edge
    length, which JSON cannot hold."""
    if not (np.isfinite(mesh.positions).all()
            and np.isfinite(mesh.edge_lengths).all()):
        raise MeshError("a vertex position or edge length is not finite")
    # The JSON text of each value under its key: the scalars by json.dumps,
    # the edge words from the word table's strings, the number tables by
    # _list_text.
    doc = {"format": FORMAT, "genus": int(mesh.genus),
           "level": int(mesh.level)}
    parts = {key: json.dumps(value) for key, value in doc.items()}
    table = mesh.word_table()
    parts["edge_words"] = _joined(
        [json.dumps(group.word_str(w)) for w in table.words], table.ids)
    for key, _, dtype in TABLES:
        value = getattr(mesh, key)
        if value is not None:
            value = np.ascontiguousarray(value, dtype)
            if dtype is complex:
                value = value.view(float)
            parts[key] = _list_text(value.ravel())
    return "{" + ",".join(f'"{key}":{parts[key]}'
                          for key in _KEYS if key in parts) + "}"


def _table(doc, key, width, dtype):
    """doc[key], a nonempty flat list of width numbers per row, as an
    array of dtype: rows of width entries, a vector for width 1, one
    complex entry per row for positions.  MeshError if it is anything
    else (a float, bool or string in an integer table; a bool or string
    in a float table) or if a float table holds a non-finite number (or
    a null)."""
    values = doc.get(key)
    number = float if dtype is complex else dtype
    if number is np.int64:
        allowed, kind = {int}, "an integer"
    else:
        allowed, kind = {int, float, type(None)}, "a number"
    try:
        if not isinstance(values, list) or not values:
            raise ValueError("not a nonempty list")
        if len(values) % width:
            raise ValueError(f"its length {len(values)} is not a multiple "
                             f"of {width}")
        if not set(map(type, values)) <= allowed:
            bad = next(v for v in values if type(v) not in allowed)
            raise ValueError(f"entry {bad!r} is not {kind}")
        table = np.fromiter(values, number, len(values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeshError(f"mesh table {key!r} is malformed: {exc}") from exc
    if number is float and not np.isfinite(table).all():
        raise MeshError(f"mesh table {key!r} holds a non-finite number")
    if dtype is complex:
        return table.view(complex)
    return table.reshape(-1, width) if width > 1 else table


def mesh_from_dict(doc):
    """Inverse of :func:`mesh_to_json` on the parsed document, with the
    mesh's word table built from the distinct word strings; MeshError for
    another format, for tables of the wrong shape or type, for an index
    out of range and for bad holonomy words."""
    version = doc.get("format") if isinstance(doc, dict) else None
    if version != FORMAT:
        raise MeshError(f"mesh format {version!r} is not {FORMAT}: rebuild "
                        f"the mesh (toda mesh, toda cover)")
    return _mesh(doc, {key: _table(doc, key, width, dtype)
                       for key, width, dtype in TABLES
                       if key != "base_vertex" or doc.get(key) is not None})


def _mesh(doc, tables):
    """The mesh of the format-2 document doc whose number tables are the
    arrays tables, after the checks on its edge words, genus, level and
    table sizes and indices."""
    strings = doc.get("edge_words")
    if not isinstance(strings, list) or set(map(type, strings)) != {str}:
        raise MeshError("mesh table 'edge_words' is malformed: not a list "
                        "of strings")
    # the word table: each edge's id, numbered in order of first use by one
    # lookup call (a new string takes the next id; with a key in front, the
    # getter returns a tuple however few the edges), and each distinct
    # string parsed once (distinct strings are distinct words)
    index = defaultdict(itertools.count().__next__)
    ids = np.fromiter(operator.itemgetter(strings[0], *strings)(index),
                      np.intp, len(strings) + 1)[1:]
    try:
        words = [group.parse_word(s) for s in index]
    except ValueError as exc:
        raise MeshError(str(exc)) from exc
    for key in ("genus", "level"):
        if type(doc.get(key)) is not int:
            raise MeshError(f"mesh genus or level is missing or malformed: "
                            f"{key!r} is {doc.get(key)!r}, not an integer")
    mesh = HyperbolicMesh(genus=doc["genus"], level=doc["level"],
                          edge_words=np.fromiter(words, object)[ids].tolist(),
                          **tables)
    mesh._check_tables()
    mesh._cache["words"] = WordTable.of(words, ids)
    return mesh


_SHAPES = {key: (width, dtype) for key, width, dtype in TABLES}
# The bytes a number table's text may hold in the bulk parse: digits,
# commas and a minus sign, and in a float table also a plus sign, a point
# and an exponent.
_BYTES = {np.int64: b"0123456789,-", float: b"0123456789,-+.eE"}
_INT64_MAX = np.iinfo(np.int64).max
_DECODER = json.JSONDecoder()


def _bulk_table(span, width, dtype):
    """The array of dtype that span, the text between a table's brackets,
    holds, parsed by NumPy with no Python number made; None unless the
    span passes every check of the bulk parse (see mesh_from_json)."""
    number = float if dtype is complex else dtype
    data = span.encode()
    if data.translate(None, _BYTES[number]):
        return None
    # in an integer table np.fromstring reads a minus with no digit after
    # it as 0; the one-byte search keeps the two-byte one off most tables
    if (number is np.int64 and b"-" in data
            and (data.endswith(b"-") or b"-," in data)):
        return None
    # NumPy raises at an entry it cannot read (older NumPy warns and returns
    # the entries before it, which the count check refuses)
    try:
        values = np.fromstring(data, number, sep=",")
    except ValueError:
        return None
    if len(values) != data.count(b",") + 1 or len(values) % width:
        return None
    # an integer past int64 is read as its largest value
    if not (np.isfinite(values).all() if number is float
            else values.max() < _INT64_MAX):
        return None
    if dtype is complex:
        return values.view(complex)
    return values.reshape(-1, width) if width > 1 else values


def _bulk_document(text):
    """(doc, tables) of a format-2 mesh text in mesh_to_json's layout: doc
    the format, genus, level and edge words, tables the number tables as
    arrays; None if the text is in any other layout or a check fails (see
    mesh_from_json)."""
    doc, tables, at, sep = {}, {}, 0, "{"
    for key in _KEYS:
        head = f'{sep}"{key}":'
        if not text.startswith(head, at):
            if key == "base_vertex":
                continue
            return None
        at, sep = at + len(head), ","
        if key in _SHAPES:
            end = text.find("]", at)
            if not text.startswith("[", at) or end < 0:
                return None
            tables[key] = _bulk_table(text[at + 1:end], *_SHAPES[key])
            if tables[key] is None:
                return None
            at = end + 1
        else:
            # raw_decode skips no whitespace before the value
            try:
                doc[key], at = _DECODER.raw_decode(text, at)
            except ValueError:
                return None
    if text[at:] != "}" or doc["format"] != FORMAT:
        return None
    return doc, tables


def mesh_from_json(text):
    """Inverse of :func:`mesh_to_json`: the mesh that the JSON text holds.
    A text in the layout mesh_to_json writes is read in bulk, each number
    table by one ``np.fromstring`` call behind the checks of _bulk_table
    (only digits, commas, minus signs and, in float tables, plus signs,
    points and exponents; one nonempty entry per comma; whole rows; finite
    floats; integers within int64) and the other values by
    ``json.JSONDecoder.raw_decode``.  Any other text, and one that fails a
    check, is read as ``mesh_from_dict(json.loads(text))``, with that
    function's MeshError or json.loads's JSONDecodeError: messages are
    built only there.  So the number spellings that NumPy reads and JSON
    does not (``+1``, ``.5`` and ``1.`` in a float table, ``01`` in any
    table) read as the numbers they spell only in the writer's layout."""
    parsed = _bulk_document(text)
    if parsed is None:
        return mesh_from_dict(json.loads(text))
    doc, tables = parsed
    return _mesh(doc, tables)
