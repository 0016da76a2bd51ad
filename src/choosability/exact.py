"""Desk-scale exact solvers for the deletion and decomposition problems.

Minimum vertex cover, minimum 2-choosable deletion and minimum
near-3-choosability are hitting-set problems, and one bounded search tree,
:func:`_hitting_set`, solves all three; each solver supplies only the
obstruction to branch on.  The search branches include/exclude, so it
reaches each vertex set at most once and keeps no record of the sets it
has seen, and at the incumbent's size it tries only sets that come before
the incumbent.  Searches are budgeted by node-expansion counters (never
wall clock), break ties deterministically, and refuse graphs above a size
cap that callers may raise.

The search holds vertex sets as Python ints, bit v standing for vertex v,
and reads the adjacency of the simple ``Graph`` from ``g.adj_bits()``.  The
minimal obstruction is found on these bitmasks: a triangle, the smallest
graph that is not 2-choosable, when what is left has one (the
lexicographically first, by :func:`~choosability.graphs._first_triangle`,
the triangle ``is_triangle_free`` finds too; graphs whose 2-core has none
are never scanned), else a core component outside the family, shrunk vertex
by vertex until it is an odd cycle or a bipartite core of cyclomatic
number 2, from which no vertex can go (:func:`_is_minimal_core`).  A
private peel, :func:`_peel_bits`, deletes vertices with at most one
neighbour left and starts only from the neighbours of the vertices just
taken away; the components it leaves are found by a bitmask breadth-first
search, which in the same walk lists each component's vertices and their
degrees, and are classified from these by
:func:`~choosability.recognition._classify_component`, the one shape test,
which also classifies the contracted components of :mod:`~choosability.approx`.
``decomposition_is_valid`` and ``min_2_del_bruteforce`` stay on
:func:`~choosability.recognition.is_2_choosable`, so they check the bitmask
search independently.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import Budget
from .graphs import _first_triangle
from .recognition import KIND_OUTSIDE, _classify_component, is_2_choosable

DEFAULT_NEAR3_CAP = 25
DEFAULT_DEL_CAP = 20
#: node budget of ``del2 --exact`` and ``near3`` when ``--budget`` is absent
DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class Decomposition:
    """Vertex partition (a, b) with ``a`` independent and ``b`` inducing a 2-choosable graph."""

    a: tuple
    b: tuple


def decomposition_is_valid(g, decomp):
    a, b = set(decomp.a), set(decomp.b)
    if a & b or (a | b) != set(range(g.n)):
        return False
    adj = g.adj
    if any(not a.isdisjoint(adj[u]) for u in a):
        return False
    return is_2_choosable(g, b)[0]


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


def _members(mask):
    """The vertices of a bitmask as an ascending tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _precedes(x, y):
    """Whether vertex set ``x`` comes before ``y`` of the same size, as sorted tuples.

    Both agree below the lowest vertex in one and not the other, so the one
    that holds it is the smaller.
    """
    diff = x ^ y
    return bool(x & diff & -diff)


def _hitting_set(obstruction, bud, stage):
    """Minimum vertex set hitting every obstruction, as ``(size, sorted tuple)``.

    Vertex sets are bitmasks.  ``obstruction(chosen)`` is None when
    ``chosen`` is a solution, else the ascending tuple of vertices outside
    ``chosen`` one of which every solution containing ``chosen`` must
    contain (empty when none can).  Returns the lexicographically first
    minimum solution, or None when there is none.

    Include/exclude branching: a node is ``chosen`` with a set ``excluded``
    disjoint from it, and its children take the obstruction's vertices
    outside ``excluded`` in order, each child excluding the siblings taken
    before it.  A node whose obstruction lies inside ``excluded`` is dead.
    Two paths to one set split where one takes a vertex the other then
    excludes, so every set is reached at most once and no set of visited
    nodes is kept.  A child is skipped, when it is taken, if it is larger
    than the incumbent, or of its size and not lexicographically before it.

    Neither rule loses the lexicographically first minimum solution S.
    From the root down, keep a node with ``chosen`` inside S and
    ``excluded`` outside it.  Until ``chosen`` is S it is smaller than S,
    so no solution and smaller than any incumbent, and the node branches;
    S meets its obstruction outside ``excluded``.  The first branch vertex
    in S, v, gives a child whose earlier siblings are not in S, so the
    child keeps both properties.  It is not skipped: ``chosen | 1 << v``
    lies in S, so it is no larger than any incumbent, and if of the
    incumbent's size it is S itself, which comes before any other
    solution of that size.

    Depth-first with an explicit stack of ``[chosen, excluded, untried]``
    frames, one per level, so deep trees cannot exhaust the recursion limit
    and memory grows with the depth, not with the nodes expanded.
    """
    best_size = None
    best_mask = 0
    stack = []
    chosen = excluded = size = 0
    while True:
        bud.charge(stage=stage)
        obs = obstruction(chosen)
        if obs is None:
            # every node reached beats the incumbent, so this one is the new best
            best_size, best_mask = size, chosen
        elif best_size is None or size < best_size:
            stack.append([chosen, excluded, iter([v for v in obs if not excluded >> v & 1])])
        while stack:
            frame = stack[-1]
            parent, excluded, untried = frame
            v = next(untried, None)
            if v is None:
                stack.pop()
                continue
            frame[1] = excluded | 1 << v
            chosen = parent | 1 << v
            size = parent.bit_count() + 1
            if (best_size is None or size < best_size
                    or size == best_size and _precedes(chosen, best_mask)):
                break
        else:
            return None if best_size is None else (best_size, _members(best_mask))


def _peel_bits(bits, alive, todo):
    """Repeatedly delete the vertices of ``alive`` with at most one neighbour in it.

    ``bits`` is the adjacency as bitmasks; only the vertices of ``todo``,
    and the neighbours of the ones deleted, are looked at, so ``todo`` must
    hold every vertex of ``alive`` that may start out with at most one
    neighbour.  Returns what is left, the 2-core of ``G[alive]``.
    """
    while todo:
        low = todo & -todo
        todo ^= low
        if alive & low:
            nbrs = bits[low.bit_length() - 1] & alive
            if not nbrs & (nbrs - 1):
                alive ^= low
                todo |= nbrs
    return alive


def _offending_component(g, bits, core):
    """First component of ``G[core]`` outside the 2-choosable family, as a bitmask.

    ``core`` is a bitmask with no vertex of degree below 2 in ``G[core]``.
    Components are found by breadth-first search on bitmasks in order of
    smallest vertex.  The walk that grows a component also lists its
    vertices, in the order reached, and their degrees in ``G[core]``, which
    inside a core component are their degrees in the component; with these
    it is classified once by
    :func:`~choosability.recognition._classify_component`.  0 when none is
    outside.
    """
    adj = g.adj
    while core:
        comp = todo = core & -core
        members = []
        degree = {}
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            nbrs = bits[v] & core
            members.append(v)
            degree[v] = nbrs.bit_count()
            new = nbrs & ~comp
            comp |= new
            todo |= new
        core ^= comp
        if _classify_component(members, adj, degree)[0] == KIND_OUTSIDE:
            return comp
    return 0


def _two_core(g):
    """The 2-core of g as a bitmask: :func:`_peel_bits` of the whole graph."""
    everyone = (1 << g.n) - 1
    return _peel_bits(g.adj_bits(), everyone, everyone)


def _is_minimal_core(bits, comp):
    """Whether no vertex can go from the connected, offending core ``comp``.

    True when ``comp`` is a cycle, or is bipartite with cyclomatic number
    m - n + 1 = 2.  Its degrees are at least 2, and they sum to 2n for a
    cycle and to 2n + 2 at cyclomatic number 2, so only then is it
    2-coloured.

    Why no vertex v can go from either.  An offending cycle is odd, and
    without v it is a path.  In the second case, when v lies on a cycle
    that cycle is lost, so the cyclomatic numbers of the pieces of
    ``comp`` minus v sum to at most 1.  When it does not, every edge at v
    is a bridge, and there are at least two; in the piece that each leads
    to, every vertex but the bridge's end keeps degree 2 or more, so the
    piece has as many edges as vertices and holds a cycle, and the two
    independent cycles of ``comp`` lie in different pieces.  Either way
    each piece has at most one cycle, an even one since ``comp`` is
    bipartite, so its core is empty or an even cycle and it is
    2-choosable.
    """
    excess = 0      # the degree sum less 2n, so far
    todo = comp
    while todo:
        low = todo & -todo
        todo ^= low
        excess += (bits[low.bit_length() - 1] & comp).bit_count() - 2
        if excess > 2:
            return False
    if not excess:
        return True
    # breadth-first layers; a connected graph is bipartite when no edge
    # joins two vertices of one layer
    layer = seen = comp & -comp
    while layer:
        reached = 0
        todo = layer
        while todo:
            low = todo & -todo
            todo ^= low
            nbrs = bits[low.bit_length() - 1] & comp
            if nbrs & layer:
                return False
            reached |= nbrs
        layer = reached & ~seen
        seen |= layer
    return True


def _minimal_obstruction(g, core, removed, triangles=True):
    """Vertex-minimal non-2-choosable induced subgraph of g minus ``removed``.

    ``core`` is the bitmask :func:`_two_core` of g and ``removed`` a vertex
    bitmask.  The 2-core of g minus ``removed`` is that of ``core`` minus
    ``removed``, so the peel starts from the neighbours of the removed
    vertices alone.  A triangle is the smallest graph that is not
    2-choosable, so when what is left has one, the lexicographically first
    (:func:`~choosability.graphs._first_triangle`) is the answer;
    ``triangles`` is False when g is known to have none, and then no scan is
    made.  Otherwise the first component outside the 2-choosable family, by
    smallest vertex, is shrunk: each vertex, in ascending order, goes when
    the rest is still not 2-choosable, and then only the rest's offending
    core component is kept.  That component is a core too, so each step
    re-peels from the deleted vertex's neighbours alone.  The shrink stops
    once what is left is a core from which no vertex can go, an odd cycle or
    a bipartite core of cyclomatic number 2 (:func:`_is_minimal_core` proves
    that every vertex deletion from one is 2-choosable), so the stop returns
    the tuple the full shrink would.  Returns the sorted vertex tuple, or
    None when g minus ``removed`` is 2-choosable.
    """
    bits = g.adj_bits()
    rest = core & ~removed
    todo = 0
    gone = core & removed
    while gone:
        low = gone & -gone
        gone ^= low
        todo |= bits[low.bit_length() - 1]
    rest = _peel_bits(bits, rest, todo & rest)
    if triangles:
        found = _first_triangle(bits, rest)
        if found is not None:
            return found
    current = _offending_component(g, bits, rest)
    if not current:
        return None
    # each vertex of the first component, ascending, while it is still left
    tried = 0 if _is_minimal_core(bits, current) else current
    while tried:
        low = tried & -tried
        tried ^= low
        if not current & low:
            continue
        rest = current ^ low
        nbrs = bits[low.bit_length() - 1] & rest
        shrunk = _offending_component(g, bits, _peel_bits(bits, rest, nbrs))
        if shrunk:
            current = shrunk
            if _is_minimal_core(bits, current):
                break
    return _members(current)


def _obstruction_cache(g):
    """Minimal-obstruction callback; reuses any earlier find disjoint from ``chosen``.

    Every triangle of g minus a vertex set is a triangle of g's 2-core, so
    when that core has none, no node scans for one.
    """
    core = _two_core(g)
    triangles = _first_triangle(g.adj_bits(), core) is not None
    found = []      # (bitmask, sorted tuple) of every obstruction found so far

    def obstruction(chosen):
        for mask, obs in found:
            if not chosen & mask:
                return obs
        obs = _minimal_obstruction(g, core, chosen, triangles)
        if obs is not None:
            found.append((sum(1 << v for v in obs), obs))
        return obs

    return obstruction


def _uncovered_edge(g):
    """Callback: the first edge of ``g.edges`` with neither end in ``chosen``, or None.

    ``g.edges`` is sorted with the smaller end first, so that edge is the
    smallest vertex u outside ``chosen`` with a neighbour above it outside
    ``chosen``, and the lowest such neighbour; no edge is scanned.
    """
    above = [b >> (u + 1) << (u + 1) for u, b in enumerate(g.adj_bits())]
    starts = sum(1 << u for u, b in enumerate(above) if b)

    def first_uncovered(chosen):
        todo = starts & ~chosen
        while todo:
            low = todo & -todo
            u = low.bit_length() - 1
            nbrs = above[u] & ~chosen
            if nbrs:
                return u, (nbrs & -nbrs).bit_length() - 1
            todo ^= low
        return None

    return first_uncovered


def min_near_3(g, budget=None, cap=DEFAULT_NEAR3_CAP):
    """Minimum-size independent A with G minus A 2-choosable.

    Branches on the minimal obstruction's vertices with no chosen
    neighbour.  Returns the lexicographically smallest optimum as
    (size, A), or None when no independent set works.
    """
    if g.n > cap:
        raise ValueError("n=%d exceeds cap %d" % (g.n, cap))
    bits = g.adj_bits()
    hit = _obstruction_cache(g)

    def obstruction(chosen):
        obs = hit(chosen)
        if obs is None:
            return None
        return tuple(v for v in obs if not bits[v] & chosen)

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
    return _hitting_set(_uncovered_edge(g), Budget.ensure(budget), "vc-branch")


def min_2_del_bruteforce(g, budget=None):
    """Reference oracle: try all vertex subsets by ascending size, lexicographic."""
    bud = Budget.ensure(budget)
    for t in range(g.n + 1):
        for cand in combinations(range(g.n), t):
            bud.charge(stage="del2-bruteforce")
            if is_2_choosable(g, [v for v in range(g.n) if v not in cand])[0]:
                return t, cand
    raise AssertionError("deleting all vertices always works")
