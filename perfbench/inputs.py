"""Seeded input generators for the benchmark workloads.

Everything here produces plain edge lists, formulas as clause tuples, or
file text, from a ``random.Random`` the caller seeds.  Nothing imports the
package under test, so the same seed gives the same inputs whatever the
package's code does.
"""

import math
import random


def gnp(n, prob, rng):
    """Erdos-Renyi edge list; pair order and draws match the package's gen_gnp."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]


def gnm(n, m, rng):
    """Uniform random graph with exactly m edges."""
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def relabel(n, edges, rng):
    """The same graph under a random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def spider(k):
    """k four-cycles, each joined by one edge to a centre vertex 0 (n = 4k+1)."""
    edges = []
    for i in range(k):
        b = 1 + 4 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b), (0, b)]
    return 4 * k + 1, edges


def _path_edges(start, length, first, last):
    """Edges of a path of ``length`` edges from ``first`` to ``last``.

    Interior vertices are numbered from ``start``; returns (edges, next id).
    """
    edges = []
    prev = first
    nxt = start
    for _ in range(length - 1):
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    edges.append((prev, last))
    return edges, nxt


def cycle_edges(vertices):
    return [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]


def dumbbell(a, b, length):
    """Cycles C_a and C_b joined by a path with ``length`` edges."""
    left = list(range(a))
    right = list(range(a, a + b))
    edges = cycle_edges(left) + cycle_edges(right)
    path, n = _path_edges(a + b, length, left[0], right[0])
    return n, edges + path


def theta(a, b, c):
    """Hubs 0 and 1 joined by internally disjoint paths of lengths a, b, c."""
    edges = []
    nxt = 2
    for length in (a, b, c):
        path, nxt = _path_edges(nxt, length, 0, 1)
        edges += path
    return nxt, edges


def k2n(n):
    """Complete bipartite K_{2,n}."""
    return n + 2, [(i, 2 + j) for i in range(2) for j in range(n)]


def formula(num_vars, num_clauses, rng):
    """Random 3-CNF: three distinct variables per clause, half the literals negated.

    The number of negated literals is fixed, so the sizes of the gadget
    graphs built from the formula do not depend on the draw.
    """
    signs = [1] * (3 * num_clauses // 2) + [-1] * (3 * num_clauses - 3 * num_clauses // 2)
    rng.shuffle(signs)
    clauses = []
    for j in range(num_clauses):
        picked = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(s * v for s, v in zip(signs[3 * j:3 * j + 3], picked)))
    return clauses


def satisfying_assignment(num_vars, clauses):
    """First satisfying assignment in binary counting order, or None."""
    for bits in range(1 << num_vars):
        tau = [(bits >> (num_vars - 1 - i)) & 1 == 1 for i in range(num_vars)]
        if all(any(tau[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            return "".join("1" if t else "0" for t in tau)
    return None


def cnf_text(num_vars, clauses, rotations=None):
    lines = ["c generated by perfbench", "p cnf %d %d" % (num_vars, len(clauses))]
    if rotations:
        lines += ["c rot %d %d %d %d" % (j, *rot) for j, rot in enumerate(rotations, 1)]
    lines += ["%d %d %d 0" % c for c in clauses]
    return "\n".join(lines) + "\n"


def graph_text(n, edges, rng):
    """Edge-list graph file with edges in random order and orientation."""
    order = list(edges)
    rng.shuffle(order)
    lines = ["c generated by perfbench", "p edge %d %d" % (n, len(order))]
    for u, v in order:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append("e %d %d" % (u + 1, v + 1))
    return "\n".join(lines) + "\n"


def planted_forest(target_m, clean, rng):
    """Sparse graph of many components, each a planted core with random trees hung on it.

    Core shapes: even cycles and theta_{2,2,2m} (2-choosable), plus, when
    ``clean`` is false, odd cycles and thetas with a path of odd length
    (not 2-choosable).  Half the components come with an isolated vertex.
    Vertex ids are shuffled so components interleave.  Returns (n, edges).
    """
    edges = []
    n = 0
    shapes = ("even", "theta") if clean else ("even", "theta", "odd", "bad-theta")
    while len(edges) < target_m:
        shape = rng.choice(shapes)
        if shape in ("even", "odd"):
            length = 2 * rng.randint(2, 20) + (shape == "odd")
            core = list(range(n, n + length))
            comp = cycle_edges(core)
            n += length
        else:
            long = 2 * rng.randint(1, 10) + (shape == "bad-theta")
            hub_a, hub_b = n, n + 1
            comp, n = [], n + 2
            for length in (2, 2, long):
                path, n = _path_edges(n, length, hub_a, hub_b)
                comp += path
            core = list(range(hub_a, n))
        hung = rng.randint(0, 3 * len(core))
        members = list(core)
        for v in range(n, n + hung):
            comp.append((rng.choice(members), v))
            members.append(v)
        n += hung
        edges += comp
        if rng.random() < 0.5:
            n += 1                               # an isolated vertex
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[u], perm[v]) for u, v in edges]


def seeded(seed, *stream):
    """Independent generator for one named input stream of a workload."""
    return random.Random("%s/%s" % (seed, "/".join(str(s) for s in stream)))


def log2_ceil(n):
    return math.ceil(math.log2(n))
