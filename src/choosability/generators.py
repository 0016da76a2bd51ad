"""Seeded, deterministic generators for graphs and formulas used in tests and the CLI."""

import random

from .graphs import Graph
from .reductions import CnfFormula


def gen_cycle(n):
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_theta(a, b, c):
    """Two hubs joined by three internally disjoint paths of lengths a, b, c."""
    lengths = (a, b, c)
    if min(lengths) < 1 or sorted(lengths)[1] < 2:
        raise ValueError("at most one path may have length 1")
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
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < prob]
    return Graph(n, edges)


def gen_formula(num_vars, num_clauses, seed):
    """Random 3-CNF with three distinct variables per clause."""
    if num_vars < 3:
        raise ValueError("need at least 3 variables")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        picked = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in picked))
    return CnfFormula(num_vars, tuple(clauses))
