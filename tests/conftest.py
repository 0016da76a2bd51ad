"""Shared builders, small-graph enumeration, and independent brute-force oracles."""

import itertools

import numpy as np
import pytest

from choosability.graphs import Graph


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def theta_graph(a, b, c):
    edges = []
    nxt = 2
    for length in (a, b, c):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def spider_graph(k):
    """k four-cycles, each joined by one edge to the centre vertex 4k."""
    edges = []
    for i in range(k):
        b = 4 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b), (b, 4 * k)]
    return Graph(4 * k + 1, edges)


def dumbbell_graph(a, b, length):
    """Cycles C_a on 0..a-1 and C_b on a..a+b-1 joined by a 0-a path of ``length`` edges."""
    edges = [(i, (i + 1) % a) for i in range(a)]
    edges += [(a + i, a + (i + 1) % b) for i in range(b)]
    path = [0] + list(range(a + b, a + b + length - 1)) + [a]
    edges += list(zip(path, path[1:]))
    return Graph(a + b + length - 1, edges)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def disjoint_union(g, h):
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph(g.n + h.n, edges)


def vertex_pairs(n):
    return list(itertools.combinations(range(n), 2))


def mask_to_graph(n, mask, pairs=None):
    if pairs is None:
        pairs = vertex_pairs(n)
    return Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def canonical_mask_table(n):
    """Array mapping every edge mask on n labelled vertices to its class canon."""
    pairs = vertex_pairs(n)
    pidx = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    canon = masks.copy()
    for perm in itertools.permutations(range(n)):
        table = [pidx[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        out = np.zeros_like(masks)
        for i, t in enumerate(table):
            out |= ((masks >> i) & 1) << t
        np.minimum(canon, out, out=canon)
    return canon


def graph_classes(n):
    """One representative Graph per isomorphism class on n vertices."""
    if n == 0:
        return [Graph(0, [])]
    pairs = vertex_pairs(n)
    canon = canonical_mask_table(n)
    return [mask_to_graph(n, mask, pairs) for mask in sorted(set(canon.tolist()))]


@pytest.fixture(scope="session")
def classes_upto_6():
    return {n: graph_classes(n) for n in range(0, 7)}


def connected_graph_classes(n):
    from choosability.graphs import connected_components

    return [g for g in graph_classes(n) if len(connected_components(g)) <= 1]


# ---------------------------------------------------------------------------
# independent brute-force oracles
# ---------------------------------------------------------------------------

def brute_girth(g):
    """Minimum cycle length by exhaustive simple-path search."""
    best = [None]
    adj = g.adj

    def dfs(start, u, visited, length):
        for w in adj[u]:
            if w == start and length >= 3:
                if best[0] is None or length < best[0]:
                    best[0] = length
            elif w > start and w not in visited:
                if best[0] is not None and length + 1 >= best[0]:
                    continue
                visited.add(w)
                dfs(start, w, visited, length + 1)
                visited.discard(w)

    for s in range(g.n):
        dfs(s, s, {s}, 1)
    return best[0]


def brute_list_colorable(g, lists):
    """Try every selection from the lists."""
    domains = [sorted(lists[v]) for v in range(g.n)]
    for choice in itertools.product(*domains):
        if all(choice[u] != choice[v] for u, v in g.edges):
            return True
    return g.n == 0


def brute_min_vertex_cover(g):
    for t in range(g.n + 1):
        for cand in itertools.combinations(range(g.n), t):
            chosen = set(cand)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return t
    return g.n


def brute_min_near_3(g):
    """Lexicographically first minimum independent A with G - A 2-choosable, or None."""
    from choosability.graphs import delete_vertices
    from choosability.recognition import is_2_choosable

    for t in range(g.n + 1):
        for cand in itertools.combinations(range(g.n), t):
            if is_independent(g, cand) and is_2_choosable(delete_vertices(g, cand)[0])[0]:
                return t, cand
    return None


def is_independent(g, vertices):
    inside = set(vertices)
    return not any(u in inside and v in inside for u, v in g.edges)
