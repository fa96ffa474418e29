"""Shared fixtures: deck-invariant smooth bump fields built from positions,
the reference systole search, cover construction, refinement, operator
assembly, mesh JSON encoder and direct Newton step, the meshes of the
bit-identity tests, a mesh document of the retired layout, mutated mesh
texts, the dense stability oracles, a factor that counts its solves and
the row-by-row field CSV writer and reader."""

import functools
import heapq
import json
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from todalab import gauss
from todalab import group as G
from todalab import hyperbolic as H
from todalab import mesh as mesh_module
from todalab import operators
from todalab import ricci
from todalab.errors import MeshError, NonConvergence, TodaError


def enumerate_translates(cutoff, max_len=3):
    """Disk positions of gamma . 0 for all short words within the cutoff."""
    words = [()]
    seen = [np.eye(2, dtype=complex)]
    frontier = [()]
    for _ in range(max_len):
        newfrontier = []
        for w in frontier:
            for letter in range(-G.N_GENERATORS, G.N_GENERATORS + 1):
                if letter == 0:
                    continue
                w2 = G.free_reduce(w + (letter,))
                if len(w2) != len(w) + 1:
                    continue
                m2 = H.word_matrix(w2)
                # equal up to sign: the same isometry
                if any(min(np.abs(m2 - s).max(), np.abs(m2 + s).max())
                       <= 1e-8 for s in seen):
                    continue
                seen.append(m2)
                words.append(w2)
                newfrontier.append(w2)
        frontier = newfrontier
    centers = []
    for w in words:
        z = H.mobius(H.word_matrix(w), 0.0)
        if H.disk_distance(0.0, z) <= cutoff:
            centers.append(z)
    return np.array(centers)


def bump_value(z, centers, radius, amplitude):
    d = H.disk_distance(np.full(len(centers), z), centers)
    mask = d < radius
    if not mask.any():
        return 0.0
    x = (d[mask] / radius) ** 2
    return float((amplitude * np.exp(1.0 - 1.0 / (1.0 - x))).sum())


def invariant_bump(mesh, radius=1.0, amplitude=0.05):
    """Smooth compactly-supported bump around the octagon center, summed
    over nearby deck translates so the vertex values are independent of
    the choice of lifts."""
    centers = enumerate_translates(2.4485 + radius + 0.1)
    return np.array([bump_value(z, centers, radius, amplitude)
                     for z in mesh.positions])


# ----------------------------------------------------------------------
# Reference systole: a plain Dijkstra from every vertex with the cap set
# to the best loop so far, and Dehn reduction of every candidate word.
# Slow (O(V^2 log V) in Python) but free of pruning; the production search
# in ``operators.systole`` must return exactly the same float.

def _reference_adjacency(mesh):
    adj = [[] for _ in range(mesh.num_vertices)]
    for e in range(mesh.num_edges):
        tail, head = mesh.edges[e]
        length = mesh.edge_lengths[e]
        adj[tail].append((int(head), float(length), e, 1))
        adj[head].append((int(tail), float(length), e, -1))
    return adj


def reference_dijkstra(mesh, src, cap=np.inf, adj=None):
    """Distances and parent (edge, direction, vertex) from src, capped."""
    adj = _reference_adjacency(mesh) if adj is None else adj
    dist = np.full(mesh.num_vertices, np.inf)
    parent = [None] * mesh.num_vertices
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v] or d > cap:
            continue
        for (w, length, e, direction) in adj[v]:
            nd = d + length
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = (e, direction, v)
                heapq.heappush(heap, (nd, w))
    return dist, parent


def graph_distances(mesh, src):
    """Single-source graph distances along edge lengths, by SciPy's
    Dijkstra on the bundle's path graph."""
    graph, _, _ = operators.of(mesh).path_graph
    return csgraph.dijkstra(graph, indices=src)


def schwarz_constant(delta):
    """C(delta) = (cosh(delta/2) / tanh(delta/2))^2."""
    return float((np.cosh(delta / 2.0) / np.tanh(delta / 2.0)) ** 2)


def one_ring(density):
    """Mask of the divisor vertices together with their edge-graph
    neighbours."""
    zeros = np.zeros(density.mesh.num_vertices, dtype=bool)
    zeros[[v for v, _ in density.divisor.entries]] = True
    tail, head = density.mesh.edges.T
    mask = zeros.copy()
    mask[head[zeros[tail]]] = True
    mask[tail[zeros[head]]] = True
    return mask


def schwarz_check(density, radius):
    """Vertexwise decay bound near the zero of a degree-1 density.

    Inside the graph ball D = B(z0, radius), excluding the one-ring of z0,
    checks  lam rho(z) <= C(delta) tanh^2(r(z)/2) sup_{boundary of D} lam rho
    with delta the systole and lam the oscillation normalization,
    (sup lam rho)(inf lam rho) = 1 outside D.  The multiplicative margin
    uses graph distances (which overestimate hyperbolic ones, loosening the
    bound only in the safe direction).  Returns a report dict; "ok" is True
    when every checked vertex passes.
    """
    mesh = density.mesh
    dist = graph_distances(mesh, density.divisor.entries[0][0])
    inside = dist <= radius
    if inside.all():
        raise ValueError("ball covers the whole mesh")
    rho = density.density()
    sup_out = float(rho[~inside].max())
    inf_out = float(rho[~inside].min())
    lam = 1.0 / np.sqrt(sup_out * inf_out)

    tail, head = mesh.edges.T
    crossing = inside[tail] != inside[head]
    boundary = np.zeros(mesh.num_vertices, dtype=bool)
    boundary[tail[crossing]] = True
    boundary[head[crossing]] = True
    boundary &= inside
    if not boundary.any():
        raise ValueError("ball boundary is empty at this radius")

    delta = operators.systole(mesh)
    c_delta = schwarz_constant(delta)
    sup_boundary = float((lam * rho[boundary]).max())

    checked = inside & ~one_ring(density)
    lhs = lam * rho[checked]
    rhs = c_delta * np.tanh(dist[checked] / 2.0) ** 2 * sup_boundary
    margin = rhs - lhs
    return {
        "ok": bool((margin >= 0).all()) if checked.any() else True,
        "checked": int(checked.sum()),
        "worst_margin": float(margin.min()) if checked.any() else np.inf,
        "c_delta": c_delta,
        "sup_boundary": sup_boundary,
        "systole": delta,
    }


def _reference_tree_word(mesh, src, parent, v, memo):
    if v == src:
        return ()
    if v in memo:
        return memo[v]
    e, direction, prev = parent[v]
    w = mesh.edge_words[e]
    if direction < 0:
        w = G.inverse_word(w)
    out = G.concat(_reference_tree_word(mesh, src, parent, prev, memo), w)
    memo[v] = out
    return out


def reference_systole(mesh):
    """Length of the shortest edge loop with non-identity holonomy."""
    adj = _reference_adjacency(mesh)
    best = np.inf
    lengths = mesh.edge_lengths
    for src in range(mesh.num_vertices):
        dist, parent = reference_dijkstra(mesh, src, best, adj)
        memo = {}
        # candidate loops: tree path + one non-tree edge + reverse tree path
        order = []
        for e in range(mesh.num_edges):
            x, y = mesh.edges[e]
            if parent[x] is not None and parent[x][0] == e:
                continue
            if parent[y] is not None and parent[y][0] == e:
                continue
            total = dist[x] + dist[y] + lengths[e]
            if total < best:
                order.append((total, e))
        order.sort()
        for total, e in order:
            if total >= best:
                break
            x, y = mesh.edges[e]
            word = G.concat(
                _reference_tree_word(mesh, src, parent, int(x), memo),
                mesh.edge_words[e],
                G.inverse_word(_reference_tree_word(mesh, src, parent, int(y), memo)))
            if not G.is_identity(word):
                best = total
                break
    return float(best)


# ----------------------------------------------------------------------
# Reference cover: the per-edge, per-triangle and per-sheet loops that
# ``mesh.build_cover`` replaces by one permutation per distinct word and
# array broadcasting.  It must give equal arrays and words, and the corners
# it lifts row by row must equal the cover's derived triangles.

def reference_build_cover(mesh, spec):
    """(cover, triangles): the voltage-graph lift of the mesh along a
    permutation cover spec, and the lifted corners of each triangle."""
    spec.validate()
    n = spec.degree
    images = spec.generator_images
    V, E, F = mesh.num_vertices, mesh.num_edges, mesh.num_faces

    T = mesh_module._schreier_transversal(images, n)
    T_mat = [H.word_matrix(t) for t in T]

    edge_perm = [G.perm_of_word(images, w, n) for w in mesh.edge_words]

    edges = np.empty((n * E, 2), dtype=np.int64)
    lengths = np.empty(n * E, dtype=float)
    words = [None] * (n * E)
    for e in range(E):
        tail, head = mesh.edges[e]
        for s in range(n):
            s_head = int(edge_perm[e][s])
            idx = s * E + e
            edges[idx] = (s * V + tail, s_head * V + head)
            lengths[idx] = mesh.edge_lengths[e]
            words[idx] = G.concat(
                T[s], mesh.edge_words[e], G.inverse_word(T[s_head]))

    triangles = np.empty((n * F, 3), dtype=np.int64)
    tri_edges = np.empty((n * F, 3), dtype=np.int64)
    tri_signs = np.empty((n * F, 3), dtype=np.int64)
    for t in range(F):
        h = mesh.corner_words(t)
        corner_perm = [G.perm_of_word(images, w, n) for w in h]
        for s in range(n):
            row = s * F + t
            sheets = [int(corner_perm[k][s]) for k in range(3)]
            for k in range(3):
                triangles[row, k] = sheets[k] * V + mesh.triangles[t, k]
                sgn = mesh.tri_edge_signs[t, k]
                tri_signs[row, k] = sgn
                anchor = sheets[k] if sgn > 0 else sheets[(k + 1) % 3]
                tri_edges[row, k] = anchor * E + mesh.tri_edges[t, k]

    positions = np.empty(n * V, dtype=complex)
    base_vertex = np.empty(n * V, dtype=np.int64)
    for s in range(n):
        positions[s * V:(s + 1) * V] = H.mobius(T_mat[s], mesh.positions)
        base_vertex[s * V:(s + 1) * V] = np.arange(V)

    return mesh_module.HyperbolicMesh(
        genus=n * (mesh.genus - 1) + 1, level=mesh.level,
        tri_edges=tri_edges, tri_edge_signs=tri_signs, edges=edges,
        edge_lengths=lengths, edge_words=words, positions=positions,
        base_vertex=base_vertex), triangles


# ----------------------------------------------------------------------
# Reference refinement: the per-edge and per-triangle loop, with word
# concatenations for every triangle, that ``mesh.refine`` replaces by index
# arithmetic on the slot arrays and one medial-word pass per distinct slot
# triple.  It must give equal arrays and words, and the corners it builds
# row by row must equal the refined mesh's derived triangles.

def reference_refine(mesh):
    """(fine, triangles): ``mesh.refine`` one triangle at a time, and the
    corners of each child triangle."""
    V, E, F = mesh.num_vertices, mesh.num_edges, mesh.num_faces

    # midpoint positions from drawn representatives
    mid_pos = H.disk_midpoint(mesh.positions[mesh.edges[:, 0]],
                              mesh.drawn_heads())
    positions = np.concatenate([mesh.positions, mid_pos])

    # half edges: tail half keeps the identity word, head half carries the
    # original word (canonical representative runs tail -> gamma.head)
    half_len = mesh.edge_lengths / 2.0
    edges = [None] * (2 * E + 3 * F)
    lengths = np.empty(2 * E + 3 * F, dtype=float)
    words = [None] * (2 * E + 3 * F)
    for e in range(E):
        tail, head = mesh.edges[e]
        edges[e] = (tail, V + e)
        lengths[e] = half_len[e]
        words[e] = ()
        edges[E + e] = (V + e, head)
        lengths[E + e] = half_len[e]
        words[E + e] = mesh.edge_words[e]

    # medial lengths, intrinsically per triangle
    sl = mesh.slot_lengths()
    m0, m1, m2 = H.medial_lengths(sl[:, 0], sl[:, 1], sl[:, 2])
    med_len = np.stack([m0, m1, m2], axis=1)
    if not np.isfinite(med_len).all() or not (med_len > 0).all():
        raise MeshError("degenerate triangle produced by refinement")

    triangles = np.empty((4 * F, 3), dtype=np.int64)
    tri_edges = np.empty((4 * F, 3), dtype=np.int64)
    tri_signs = np.empty((4 * F, 3), dtype=np.int64)

    for t in range(F):
        e_slot = mesh.tri_edges[t]
        s_slot = mesh.tri_edge_signs[t]
        v = mesh.triangles[t]
        mid = V + e_slot  # midpoint vertex id of each slot

        # corner words h_k and midpoint frame words mu_k: the midpoint of
        # slot k is drawn at mu_k . position(mid_k) with mu_k = h_k for a
        # forward slot and h_{k+1} for a backward slot
        h = mesh.corner_words(t)
        mu = [h[k] if s_slot[k] > 0 else h[(k + 1) % 3] for k in range(3)]

        for k in range(3):
            med = 2 * E + 3 * t + k
            edges[med] = (mid[k], mid[(k + 1) % 3])
            lengths[med] = med_len[t, k]
            words[med] = G.concat(G.inverse_word(mu[k]), mu[(k + 1) % 3])

        for k in range(3):
            # corner triangle at corner k: (v_k, mid_k, mid_{k-1})
            km1 = (k + 2) % 3
            row = 4 * t + k
            triangles[row] = (v[k], mid[k], mid[km1])
            # slot 0: v_k -> mid_k along edge e_slot[k]
            if s_slot[k] > 0:
                tri_edges[row, 0] = e_slot[k]          # tail half, forward
                tri_signs[row, 0] = 1
            else:
                tri_edges[row, 0] = E + e_slot[k]      # head half, backward
                tri_signs[row, 0] = -1
            # slot 1: mid_k -> mid_{k-1} = medial edge km1 reversed
            tri_edges[row, 1] = 2 * E + 3 * t + km1
            tri_signs[row, 1] = -1
            # slot 2: mid_{k-1} -> v_k along edge e_slot[k-1]
            if s_slot[km1] > 0:
                tri_edges[row, 2] = E + e_slot[km1]    # head half, forward
                tri_signs[row, 2] = 1
            else:
                tri_edges[row, 2] = e_slot[km1]        # tail half, backward
                tri_signs[row, 2] = -1
        # central triangle (mid_0, mid_1, mid_2)
        row = 4 * t + 3
        triangles[row] = (mid[0], mid[1], mid[2])
        for k in range(3):
            tri_edges[row, k] = 2 * E + 3 * t + k
            tri_signs[row, k] = 1

    return mesh_module.HyperbolicMesh(
        genus=mesh.genus,
        level=mesh.level + 1,
        tri_edges=tri_edges,
        tri_edge_signs=tri_signs,
        edges=np.array(edges, dtype=np.int64),
        edge_lengths=lengths,
        edge_words=words,
        positions=positions,
        base_vertex=None,
    ), triangles


# ----------------------------------------------------------------------
# Reference mesh JSON: the format-2 document built entry by entry with
# Python loops, independently of the ``mesh.TABLES`` layout table that
# ``mesh.mesh_to_json`` flattens whole arrays by.  It must give the same
# text, byte for byte.

def reference_mesh_json(mesh):
    """Format-2 JSON text of the mesh from per-entry Python lists."""
    doc = {
        "format": 2,
        "genus": int(mesh.genus),
        "level": int(mesh.level),
        "edges": [int(v) for row in mesh.edges for v in row],
        "edge_lengths": [float(x) for x in mesh.edge_lengths],
        "edge_words": [G.word_str(w) for w in mesh.edge_words],
        "tri_edges": [int(v) for row in mesh.tri_edges for v in row],
        "tri_edge_signs": [int(v) for row in mesh.tri_edge_signs
                           for v in row],
        "positions": [x for z in mesh.positions
                      for x in (float(z.real), float(z.imag))],
    }
    if mesh.base_vertex is not None:
        doc["base_vertex"] = [int(v) for v in mesh.base_vertex]
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def v1_mesh_document(mesh):
    """The mesh as a document of the layout before format 2, which is no
    longer read: no format key, rows of numbers, the triangles stored and
    (tail, head) repeated in the length and holonomy rows."""
    doc = {
        "genus": int(mesh.genus), "level": int(mesh.level),
        "vertices": int(mesh.num_vertices),
        "triangles": mesh.triangles.tolist(),
        "tri_edges": mesh.tri_edges.tolist(),
        "tri_edge_signs": mesh.tri_edge_signs.tolist(),
        "edge_lengths": [[int(a), int(b), float(x)] for (a, b), x
                         in zip(mesh.edges, mesh.edge_lengths)],
        "holonomy": [[int(a), int(b), G.word_str(w)] for (a, b), w
                     in zip(mesh.edges, mesh.edge_words)],
        "positions": [[float(z.real), float(z.imag)] for z in mesh.positions],
    }
    if mesh.base_vertex is not None:
        doc["base_vertex"] = mesh.base_vertex.tolist()
    return doc


# The characters a mutation inserts: those of numbers and of JSON's
# structure, blanks, and letters of JSON's literals and of words.
_MUTATION_CHARS = '0123456789,-+.eE[]{}":\\ \t\nnultrfasNIBy'
# A number spelling that NumPy reads and JSON does not: a plus sign
# outside an exponent, a leading zero, a point without a digit before or
# after it.
NONJSON_SPELLING = re.compile(
    r"(?<![eE])\+|(?<![0-9.eE+-])-?0[0-9]|(?<![0-9])\.|\.(?![0-9])")


def mutated_texts(text, count, seed):
    """count texts, each text with one seeded edit: a character deleted,
    replaced or inserted, or a slice of up to 8 characters repeated.  The
    edit is anywhere, at or just after a bracket, brace or colon, at or
    just after a minus sign, at or just after a comma or newline, or at
    the end, evenly among the kinds of spot the text has: the readers'
    layout checks lie at those places."""
    rng = np.random.default_rng(seed)
    data = np.frombuffer(text.encode(), np.uint8)
    spots = [np.arange(len(text) + 1), [len(text) - 1, len(text)]]
    for marks in (b"[]{}:", b"-", b",\n"):
        marks = np.flatnonzero(np.isin(data, list(marks)))
        if marks.size:
            spots.append(np.concatenate([marks, marks + 1]))
    for _ in range(count):
        at = int(rng.choice(spots[rng.integers(len(spots))]))
        char = _MUTATION_CHARS[rng.integers(len(_MUTATION_CHARS))]
        kind = rng.integers(4)
        if kind == 0:
            yield text[:at] + text[at + 1:]
        elif kind == 1:
            yield text[:at] + char + text[at + 1:]
        elif kind == 2:
            yield text[:at] + char + text[at:]
        else:
            yield text[:at + int(rng.integers(1, 9))] + text[at:]


# ----------------------------------------------------------------------
# Dense stability oracles: the full generalized eigen-solves that the
# sparse shift-invert ``operators.eigs_nearest`` replaces, in
# ``ricci.stability_check`` and in the tests' Gauss linearization checks.
# O(V^3) time and O(V^2) memory, so for small meshes only.

def reference_stability_check(mesh, v, f):
    """``ricci.stability_check`` from the whole dense spectrum."""
    m = operators.mass_vector(mesh)
    S = operators.stiffness(mesh)
    vol = m.sum()
    weight = np.exp(2.0 * v) * f
    sup_term = 2.0 * float(weight.max())
    c = float((m * weight).sum() / vol)

    A = -S.toarray() + 2.0 * np.diag(m * weight)
    eigs = sla.eigh(A, np.diag(m), eigvals_only=True)
    lam1 = float(operators.eig_low(mesh, k=2)[0][1])

    lo = -lam1 + sup_term
    hi = 2.0 * c
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    violating = [float(x) for x in eigs if lo + pad < x < hi - pad]

    hypothesis_ok = sup_term < lam1
    hinv = float(1.0 / np.abs(eigs).min()) if np.abs(eigs).min() > 0 else np.inf
    if hypothesis_ok and c > 0:
        bound = max(1.0 / (lam1 - sup_term), 1.0 / c)
    else:
        bound = np.inf
    return ricci.StabilityReport(
        sup_term=sup_term, lambda1=lam1, window=(lo, hi), violating=violating,
        c=c, hypothesis_ok=hypothesis_ok, hinv_norm=hinv,
        hinv_bound=float(bound))


def reference_gauss_min_eig(mesh, u, f):
    """Smallest eigenvalue of S + M diag(R'(u)) relative to M, densely."""
    S = operators.stiffness(mesh)
    m = operators.mass_vector(mesh)
    A = (S + sp.diags(m * gauss._reaction_slope(u, f))).toarray()
    return float(sla.eigh(A, np.diag(m), eigvals_only=True,
                          subset_by_index=[0, 0])[0])


def level_mesh(level, sheets):
    """The base surface at refinement level, or its cyclic cover."""
    mesh = mesh_module.build_base_surface(refinement=level)
    if sheets == 1:
        return mesh
    return mesh_module.build_cover(mesh, mesh_module.CoverSpec.cyclic(sheets))


# Transpositions that do not all commute, yet kill the relator.
NONABELIAN_SPEC = mesh_module.CoverSpec(degree=3, generator_images={
    1: [0, 2, 1], 2: [0, 2, 1], 3: [1, 0, 2], 4: [1, 0, 2]})


@functools.lru_cache(maxsize=1)
def identity_meshes():
    """{name: mesh}, the meshes of the bit-identity tests: the base surface
    at levels 0-5, its cyclic 2- and 3-covers at levels 2-4 and its
    non-abelian 3-sheet cover at level 2."""
    meshes = {f"l{level}": level_mesh(level, 1) for level in range(6)}
    meshes.update({f"l{level}c{n}": level_mesh(level, n)
                   for level in (2, 3, 4) for n in (2, 3)})
    meshes["l2-nonabelian"] = mesh_module.build_cover(meshes["l2"],
                                                      NONABELIAN_SPEC)
    return meshes


def reference_operators(mesh):
    """(angles, S, m, vol) as the bundle was assembled before it shared
    each side's cosh and sinh and summed the masses by one ``bincount``:
    three cosh and two sinh per corner angle, the masses by one
    ``np.add.at`` per corner, S from int64 COO index lists."""
    sl = mesh.slot_lengths()

    def angle(adj1, adj2, opp):
        x = (np.cosh(adj1) * np.cosh(adj2) - np.cosh(opp)) / (
            np.sinh(adj1) * np.sinh(adj2))
        return np.arccos(np.clip(x, -1.0, 1.0))

    l01, l12, l20 = sl.T
    angles = np.stack([angle(l01, l20, l12), angle(l01, l12, l20),
                       angle(l12, l20, l01)], axis=1)
    areas = np.pi - angles.sum(axis=1)
    V, tri = mesh.num_vertices, mesh.triangles
    m = np.zeros(V)
    for k in range(3):
        np.add.at(m, tri[:, k], areas / 3.0)
    rows, cols, data = [], [], []
    for k in range(3):
        w = 0.5 / np.tan(angles[:, (k + 2) % 3])
        i, j = tri[:, k], tri[:, (k + 1) % 3]
        rows.extend([i, j, i, j])
        cols.extend([i, j, j, i])
        data.extend([w, w, -w, -w])
    S = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(V, V)).tocsr()
    return angles, S, m, float(m.sum())


def reference_mt_probe(mesh, samples=8, seed=0):
    """``ricci.mt_probe`` one sample at a time: one draw and one
    single-column S + M solve per sample."""
    rng = np.random.default_rng(seed)
    ops = operators.of(mesh)
    m, S, vol = ops.m, ops.S, ops.vol
    worst = 0.0
    for _ in range(samples):
        z = rng.standard_normal(mesh.num_vertices)
        y = ops.screened_lu.solve(m * z)
        y -= (m @ y) / vol
        en = float(y @ (S @ y))
        if en <= 0:
            continue
        y /= np.sqrt(en)
        val = float((m * np.expm1(4.0 * np.pi * y ** 2)).sum())
        worst = max(worst, val)
    return worst


def reference_field_csv_text(name, values):
    """``fileio.field_csv_text`` one row at a time: float() of each
    value, rows joined by newlines."""
    lines = [f"vertex_index,{name}"]
    for i, val in enumerate(values):
        lines.append(f"{i},{float(val)!r}")
    return "\n".join(lines) + "\n"


def reference_vtk_text(mesh, scalars):
    """``fileio.vtk_text`` one row at a time: float() of each position
    and scalar, the NumPy integers of each triangle row."""
    pos = mesh.positions
    lines = ["# vtk DataFile Version 3.0",
             "hyperbolic surface fields",
             "ASCII",
             "DATASET POLYDATA",
             f"POINTS {mesh.num_vertices} double"]
    for z in pos:
        lines.append(f"{float(z.real)!r} {float(z.imag)!r} 0.0")
    F = mesh.num_faces
    lines.append(f"POLYGONS {F} {4 * F}")
    for tri in mesh.triangles:
        lines.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    lines.append(f"POINT_DATA {mesh.num_vertices}")
    for name, values in scalars:
        clean = np.where(np.isfinite(values), values, -1e300)
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        for val in clean:
            lines.append(repr(float(val)))
    return "\n".join(lines) + "\n"


def reference_read_field_csv(path, expected_name=None, size=None):
    """``fileio.read_field_csv`` one row at a time: int() and float() of
    each row's two fields, each stored at its index."""
    with open(path) as handle:
        rows = handle.read().strip().splitlines()
    if not rows:
        raise TodaError(f"field CSV {path} is empty")
    header = rows[0].split(",")
    if len(header) != 2 or header[0] != "vertex_index":
        raise TodaError(f"bad field CSV header in {path}: {rows[0]!r}")
    name = header[1]
    if expected_name is not None and name != expected_name:
        raise TodaError(
            f"field CSV {path} holds {name!r}, expected {expected_name!r}")
    n = len(rows) - 1
    values = np.empty(n)
    seen = np.zeros(n, dtype=bool)
    for line, row in enumerate(rows[1:], start=2):
        try:
            idx_s, val_s = row.split(",")
            idx, val = int(idx_s), float(val_s)
        except ValueError:
            raise TodaError(f"field CSV {path} line {line} is not an "
                            f"'index,value' row: {row!r}") from None
        if not 0 <= idx < n or seen[idx]:
            raise TodaError(f"field CSV {path} has bad vertex indexing")
        values[idx] = val
        seen[idx] = True
    if size is not None and len(values) != size:
        raise TodaError(f"field CSV {path} holds {len(values)} values for a "
                        f"mesh with {size} vertices")
    nan = np.flatnonzero(np.isnan(values))
    if nan.size:
        raise TodaError(f"field CSV {path} holds NaN at vertex {nan[0]}")
    return name, values


class CountingFactor:
    """A factor whose solves are counted, one per right-hand-side
    column."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1 if b.ndim == 1 else b.shape[1]
        return self.lu.solve(b)


# ----------------------------------------------------------------------
# The Newton system of a solver, captured where it enters damped_newton.

class Captured(Exception):
    """Raised in place of a Newton loop, carrying its (x, system)."""


def first_system(monkeypatch, name, solve):
    """(x, system) of the first ``damped_newton`` loop named name that
    solve() starts; that loop is not run, the loops before it are."""
    damped_newton = operators.damped_newton

    def capture(bundle, x, residual, system, loop, *args, **kwargs):
        if loop == name:
            raise Captured(x.copy(), system)
        return damped_newton(bundle, x, residual, system, loop, *args,
                             **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(operators, "damped_newton", capture)
        with pytest.raises(Captured) as info:
            solve()
    return info.value.args


# ----------------------------------------------------------------------
# Reference Newton step: the direct solve every Newton step made before
# the Krylov path, one factorization per step.  The J system is the
# bordered KKT matrix [[A, m], [m^T, 0]] with the rank-1 term added by a
# Sherman-Morrison update.  Same signature as ``operators.newton_solve``,
# so a test can substitute it and compare the solutions; a direct solve is
# exact, so it ignores rtol and the preconditioner's factors.  The solvers
# pass A as the function x -> A x, so its matrix is read off by probing
# (``probed_matrix``).

@functools.lru_cache(maxsize=1)
def distance2_colouring(ops):
    """Greedy colouring of the graph of the bundle's S in which two
    vertices at most two edges apart get different colours: no row of S
    has entries in two columns of one colour.  Kept for the last bundle,
    whose Newton steps come in a row."""
    S = ops.S
    B = S.copy()
    B.data[:] = 1.0
    near = (B @ B).tocsr()
    indptr, indices = near.indptr.tolist(), near.indices.tolist()
    colour = [-1] * S.shape[0]
    for j in range(S.shape[0]):
        taken = {colour[i] for i in indices[indptr[j]:indptr[j + 1]]}
        c = 0
        while c in taken:
            c += 1
        colour[j] = c
    return np.array(colour)


def probed_matrix(ops, A, n):
    """The CSR matrix of the function A on n = k V unknowns.

    Each of its k x k blocks of size V x V lies on S's pattern (S stores
    its diagonal), so one call of A on the indicator of the columns of one
    block and one colour of ``distance2_colouring`` returns each of
    those columns on its own rows (Curtis, Powell & Reid, IMA J. Appl.
    Math. 13, 1974).
    """
    S = ops.S
    V = S.shape[0]
    k = n // V
    colour = distance2_colouring(ops)
    colours = int(colour.max()) + 1
    group = np.tile(colour, k) + colours * np.repeat(np.arange(k), V)
    probes = np.zeros((n, k * colours))
    probes[np.arange(n), group] = 1.0
    Y = np.column_stack([A(probe) for probe in probes.T])
    B = S.copy()
    B.data[:] = 1.0
    pattern = sp.kron(np.ones((k, k)), B, format="coo")
    rows, cols = pattern.row, pattern.col
    return sp.csr_matrix((Y[rows, group[cols]], (rows, cols)), shape=(n, n))


def reference_newton_step(ops, A, b, name, factors, rank_one=None,
                          zero_mean=False, rtol=None):
    V = b.size
    A = probed_matrix(ops, A, V)
    K, pad = A, []
    if zero_mean:
        m_col = sp.csr_matrix(ops.m.reshape(V, 1))
        K, pad = sp.bmat([[A, m_col], [m_col.T, None]]), [0.0]
    try:
        lu = operators.factor(K)
    except RuntimeError as exc:
        raise NonConvergence(f"{name}: singular Newton matrix: {exc}")
    x = lu.solve(np.concatenate([b, pad]))
    if rank_one is not None:
        y = lu.solve(np.concatenate([rank_one, pad]))
        denom = 1.0 + rank_one @ y[:V]
        if abs(denom) <= 1e-14:
            raise NonConvergence(f"{name}: singular rank-1 update")
        x = x - y * ((rank_one @ x[:V]) / denom)
    x = x[:V]
    return x - (ops.m @ x) / ops.vol if zero_mean else x


def reference_newton_solve(ops, A, b, name, factors, rank_one=None,
                           zero_mean=False, rtol=operators.NEWTON_RTOL):
    """The MINRES solve of ``operators.newton_solve`` with its block
    preconditioner applied by copies: the vector split into its V-blocks
    by ``np.split``, each block solved by its factor and the results
    joined by ``np.concatenate``, one factor or two alike."""
    n = b.size
    m, vol = ops.m, ops.vol

    def project(x):
        return x - (m @ x) / vol

    def matvec(x):
        if zero_mean:
            x = project(x)
        y = A(x)
        if rank_one is not None:
            y = y + rank_one * (rank_one @ x)
        if zero_mean:
            y = y - m * (y.sum() / vol)
        return y

    if zero_mean:
        b = b - m * (b.sum() / vol)

    def precondition(x):
        blocks = np.split(np.ravel(x), len(factors))
        return np.concatenate([lu.solve(block)
                               for lu, block in zip(factors, blocks)])

    x, info = spla.minres(
        spla.LinearOperator((n, n), matvec=matvec, dtype=float), b,
        rtol=rtol, maxiter=operators.NEWTON_MAXITER,
        M=spla.LinearOperator((n, n), matvec=precondition, dtype=float))
    assert info == 0 and np.isfinite(x).all(), name
    return project(x) if zero_mean else x
