"""Seeded, deterministic generators for graphs and formulas used in tests and the CLI.

The graph generators check their vertex count against ``MAX_GRAPH_VERTICES``,
and ``gen_gnp`` its edge probability, before they build anything, so a
request over the limit fails at once rather than after building the graph.
"""

import random

from .graphs import Graph, _check_vertex_limit
from .reductions import CnfFormula


def gen_cycle(n):
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    _check_vertex_limit(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_theta(a, b, c):
    """Two hubs joined by three internally disjoint paths of lengths a, b, c."""
    lengths = (a, b, c)
    if min(lengths) < 1 or sorted(lengths)[1] < 2:
        raise ValueError("at most one path may have length 1")
    _check_vertex_limit(a + b + c - 1)
    edges = []
    nxt = 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def gen_gnp(n, prob, seed):
    """Erdos-Renyi graph; identical seeds give identical graphs."""
    _check_vertex_limit(n)
    if not 0 <= prob <= 1:
        raise ValueError("edge probability %r is not in [0, 1]" % prob)
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < prob]
    return Graph(n, edges)


def gen_formula(num_vars, num_clauses, seed):
    """Random 3-CNF with three distinct variables per clause."""
    if num_vars < 3:
        raise ValueError("need at least 3 variables")
    if num_clauses < 0:
        raise ValueError("clause count %d is negative" % num_clauses)
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        picked = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in picked))
    return CnfFormula(num_vars, tuple(clauses))
