"""Reference answers computed without the package's own code paths.

The benchmark checks the package's answers against these.  They are
written for clarity, not speed, and run outside the timed region.
"""

from itertools import combinations, product


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def core_vertices(n, edges):
    """Sorted vertices of the 2-core; optimal deletion sets never need the others."""
    return sorted(v for comp in core_components(n, edges) for v in comp[2])


def core_components(n, edges):
    """Components of the 2-core (degree-1 peeling) with their classification.

    Returns sorted ``(kind, m, vertices)`` triples using the package's kind
    names: a single vertex, an even cycle C_{2m+2}, a theta_{2,2,2m}, or
    "outside".
    """
    adj = adjacency(n, edges)
    alive = [True] * n
    leaves = [v for v in range(n) if len(adj[v]) == 1]
    while leaves:
        v = leaves.pop()
        if not alive[v] or len(adj[v]) != 1:
            continue
        alive[v] = False
        (u,) = adj[v]
        adj[u].discard(v)
        adj[v].clear()
        if len(adj[u]) == 1:
            leaves.append(u)
    seen = [False] * n
    out = []
    for s in range(n):
        if not alive[s] or seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(_classify(sorted(comp), adj))
    return sorted(out, key=lambda c: c[2])


def _classify(comp, adj):
    comp = tuple(comp)
    if len(comp) == 1:
        return ("K1", None, comp)
    degrees = [len(adj[v]) for v in comp]
    edge_count = sum(degrees) // 2
    if all(d == 2 for d in degrees):
        if len(comp) % 2 == 0:
            return ("even-cycle", (len(comp) - 2) // 2, comp)
        return ("outside", None, comp)
    hubs = [v for v in comp if len(adj[v]) == 3]
    if len(hubs) == 2 and degrees.count(2) == len(comp) - 2 and edge_count == len(comp) + 1:
        lengths = sorted(_walk(hubs[0], first, adj) for first in adj[hubs[0]])
        if lengths[:2] == [2, 2] and lengths[2] % 2 == 0:
            return ("theta-2-2-even", lengths[2] // 2, comp)
    return ("outside", None, comp)


def _walk(hub, first, adj):
    """Length of the hub-to-hub path that leaves ``hub`` through ``first``."""
    length, prev, cur = 1, hub, first
    while len(adj[cur]) == 2:
        prev, cur = cur, next(w for w in adj[cur] if w != prev)
        length += 1
    return length


def two_choosable(n, edges):
    return all(kind != "outside" for kind, _, _ in core_components(n, edges))


def remainder_edges(n, edges, removed):
    """Edges of G minus ``removed``, relabelled densely; returns (n', edges')."""
    gone = set(removed)
    index = {}
    for v in range(n):
        if v not in gone:
            index[v] = len(index)
    return len(index), [(index[u], index[v]) for u, v in edges
                        if u not in gone and v not in gone]


def is_independent(edges, vertices):
    inside = set(vertices)
    return not any(u in inside and v in inside for u, v in edges)


def covers(edges, vertices):
    inside = set(vertices)
    return all(u in inside or v in inside for u, v in edges)


def list_colorable(n, edges, lists):
    """Try every choice from the lists."""
    for choice in product(*(lists[v] for v in range(n))):
        if all(choice[u] != choice[v] for u, v in edges):
            return True
    return n == 0


def min_near_3_size(n, edges):
    """Smallest independent A with G - A 2-choosable, or None."""
    for size in range(n + 1):
        found_independent = False
        for cand in combinations(range(n), size):
            if not is_independent(edges, cand):
                continue
            found_independent = True
            if two_choosable(*remainder_edges(n, edges, cand)):
                return size
        if not found_independent:
            return None
    return None
