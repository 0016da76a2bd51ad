"""Desk-scale exact solvers for the deletion and decomposition problems.

Minimum vertex cover, minimum 2-choosable deletion and minimum
near-3-choosability are hitting-set problems, and one bounded search tree,
:func:`_hitting_set`, solves all three; each solver supplies only the
obstruction to branch on.  Searches are budgeted by node-expansion counters
(never wall clock), break ties deterministically, and refuse graphs above a
size cap that callers may raise.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import Budget
from .graphs import delete_vertices, induced_subgraph
from .recognition import is_2_choosable

DEFAULT_NEAR3_CAP = 25
DEFAULT_DEL_CAP = 20


@dataclass(frozen=True)
class Decomposition:
    """Vertex partition (a, b) with ``a`` independent and ``b`` inducing a 2-choosable graph."""

    a: tuple
    b: tuple


def decomposition_is_valid(g, decomp):
    a, b = set(decomp.a), set(decomp.b)
    if a & b or (a | b) != set(range(g.n)):
        return False
    if any(u in a and v in a for u, v in g.edges):
        return False
    return is_2_choosable(induced_subgraph(g, b)[0])[0]


def near_3_decide(g, budget=None, cap=DEFAULT_NEAR3_CAP):
    """Find a decomposition (A, B) with A independent and G[B] 2-choosable.

    A is the minimum-size, lexicographically first independent set that
    works, as found by :func:`min_near_3`.  Returns a Decomposition or None.
    """
    found = min_near_3(g, budget, cap)
    if found is None:
        return None
    a = set(found[1])
    return Decomposition(found[1], tuple(v for v in range(g.n) if v not in a))


def maximal_independent_sets(g, budget=None):
    """All maximal independent sets, each sorted, in lexicographic order."""
    bud = Budget.ensure(budget)
    adj = g.adj_sets()
    out = []

    def extend(chosen, candidates, excluded):
        bud.charge(stage="mis-enumeration")
        if not candidates and not excluded:
            out.append(tuple(chosen))
            return
        for v in sorted(candidates):
            extend(chosen + [v],
                   {u for u in candidates if u > v and u not in adj[v]},
                   {u for u in excluded if u not in adj[v]})
            candidates.discard(v)
            excluded.add(v)

    extend([], set(range(g.n)), set())
    return out


def _hitting_set(obstruction, bud, stage):
    """Minimum vertex set hitting every obstruction, as ``(size, sorted tuple)``.

    ``obstruction(chosen)`` is None when ``chosen`` is a solution, else the
    vertices one of which every solution containing ``chosen`` must contain
    (empty when none can).  Only a strictly larger size is pruned, so every
    minimum solution is reached and the lexicographically first is returned;
    None when there is no solution.
    """
    best = None
    seen = set()

    def rec(chosen):
        nonlocal best
        bud.charge(stage=stage)
        if chosen in seen:
            return
        seen.add(chosen)
        obs = obstruction(chosen)
        if obs is None:
            cand = (len(chosen), tuple(sorted(chosen)))
            if best is None or cand < best:
                best = cand
            return
        if best is not None and len(chosen) + 1 > best[0]:
            return
        for v in obs:
            rec(chosen | {v})

    rec(frozenset())
    return best


def _minimal_obstruction(g, removed):
    """Vertex-minimal non-2-choosable induced subgraph of g minus ``removed``.

    Shrinks the offending core component: each vertex, in ascending order,
    goes when the rest is still not 2-choosable, and then only the rest's
    offending core component is kept.  Returns the sorted vertex tuple in
    g's ids, or None when g minus ``removed`` is 2-choosable.
    """
    rest, kept = delete_vertices(g, removed)
    ok, core = is_2_choosable(rest)
    if ok:
        return None
    current = tuple(kept[v] for v in core)
    for v in current:
        if v not in current:
            continue
        sub, sub_kept = induced_subgraph(g, (u for u in current if u != v))
        ok, core = is_2_choosable(sub)
        if not ok:
            current = tuple(sub_kept[u] for u in core)
    return current


def _obstruction_cache(g):
    """Minimal-obstruction callback; reuses any earlier find disjoint from ``chosen``."""
    found = []

    def obstruction(chosen):
        for obs in found:
            if chosen.isdisjoint(obs):
                return obs
        obs = _minimal_obstruction(g, chosen)
        if obs is not None:
            found.append(obs)
        return obs

    return obstruction


def min_near_3(g, budget=None, cap=DEFAULT_NEAR3_CAP):
    """Minimum-size independent A with G minus A 2-choosable.

    Branches on the minimal obstruction's vertices with no chosen
    neighbour.  Returns the lexicographically smallest optimum as
    (size, A), or None when no independent set works.
    """
    if g.n > cap:
        raise ValueError("n=%d exceeds cap %d" % (g.n, cap))
    adj = g.adj_sets()
    hit = _obstruction_cache(g)

    def obstruction(chosen):
        obs = hit(chosen)
        if obs is None:
            return None
        return tuple(v for v in obs if chosen.isdisjoint(adj[v]))

    return _hitting_set(obstruction, Budget.ensure(budget), "near3-check")


def min_2_del_exact(g, budget=None, cap=DEFAULT_DEL_CAP):
    """Minimum-size vertex set whose removal leaves a 2-choosable graph.

    Branches on a minimal obstruction.  Returns the lexicographically
    smallest optimum as (size, A).
    """
    if g.n > cap:
        raise ValueError("n=%d exceeds cap %d" % (g.n, cap))
    return _hitting_set(_obstruction_cache(g), Budget.ensure(budget), "del2-branch")


def min_vertex_cover_exact(g, budget=None, cap=DEFAULT_DEL_CAP):
    """Minimum vertex cover via hitting-set search on the first uncovered edge."""
    if g.n > cap:
        raise ValueError("n=%d exceeds cap %d" % (g.n, cap))

    def first_uncovered(chosen):
        for u, v in g.edges:
            if u not in chosen and v not in chosen:
                return u, v
        return None

    return _hitting_set(first_uncovered, Budget.ensure(budget), "vc-branch")


def min_2_del_bruteforce(g, budget=None):
    """Reference oracle: try all vertex subsets by ascending size, lexicographic."""
    bud = Budget.ensure(budget)
    for t in range(g.n + 1):
        for cand in combinations(range(g.n), t):
            bud.charge(stage="del2-bruteforce")
            if is_2_choosable(delete_vertices(g, cand)[0])[0]:
                return t, cand
    raise AssertionError("deleting all vertices always works")
