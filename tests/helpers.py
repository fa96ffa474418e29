"""Shared fixtures: deck-invariant smooth bump fields built from positions,
and the reference systole search."""

import heapq

import numpy as np

from todalab import group as G
from todalab import hyperbolic as H


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
                if any(H.projective_close(m2, s, tol=1e-8) for s in seen):
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
