"""Contraction-based 2-choosability test and the short-cycle deletion heuristic.

``preprocess`` peels degree-1 vertices with ``graphs._peel``, the package's
one degree-1 peel, then in one linear sweep replaces every maximal chain of
two or more adjacent degree-2 vertices by a single counted vertex (a cycle
component contracts all but one of its vertices, yielding a two-vertex
parallel pair).  After preprocessing, a connected graph is 2-choosable
exactly when it lands in one of three counted shapes; ``approx_2_del``
takes the contracted components one at a time and deletes a shortest cycle
of each one outside the counted family, re-contracting only what is left
of it, then expands each contracted vertex back to the first original
vertex of its chain.

``preprocess`` also takes a vertex set and contracts the sub-multigraph on
it in the multigraph's own ids, and ``preprocessed_components`` splits in
one pass over the edges, so a round builds each new piece once: one
``CountedMultiGraph`` for the contracted remainder and one per component
of it.  Every numbering, orientation and tie-break reads only the relative
order of the ids, and restricting to a vertex set keeps that order, so
the answers are those of contracting the relabelled sub-multigraph.
"""

from dataclasses import dataclass

from .errors import InternalCheckError
from .graphs import CountedMultiGraph, _peel, connected_components, shortest_cycle
from .recognition import is_2_choosable

KIND_K1_COUNTED = "K1-counted"
KIND_PARALLEL_PAIR_EVEN = "parallel-pair-even-sum"
KIND_K23_ONE_ODD = "K23-one-odd-count"
KIND_NOT_IN_FAMILY = "not-in-family"


@dataclass(frozen=True)
class CPrimeVerdict:
    kind: str

    @property
    def in_family(self):
        return self.kind != KIND_NOT_IN_FAMILY


def preprocess(mg, vertices=None):
    """Peel degree-1 vertices, then contract every maximal degree-2 run.

    Works on ``mg[vertices]`` (all of ``mg`` when None) in ``mg``'s own
    ids: the peel, the runs and the edges are read from ``mg.adj`` inside
    the set, and only the result is built; an id outside 0..n-1 raises
    ValueError.

    A run is a maximal chain of two or more adjacent degree-2 vertices.  It
    becomes one counted vertex carrying the run's summed count and its
    provenance concatenated in path order.  A path run is oriented from its
    smaller-id endpoint; a cycle component is walked from its smallest
    vertex towards that vertex's smaller neighbour, and its last vertex is
    left out, so the cycle becomes a parallel pair.  Contracting a run
    changes no other vertex's degree, so one peel and one sweep over the
    runs reach the fixpoint.  Uncontracted vertices come first in ascending
    order, then one vertex per run in ascending order of its smallest id.
    Every one of these choices reads only the relative order of the ids, so
    the result equals that of the sub-multigraph on ``vertices`` relabelled
    in ascending order.
    """
    core, degree = _peel(mg, vertices)
    # a neighbour of a core vertex is in the core exactly when its degree
    # left by the peel is at least 2 (a peeled vertex keeps 1, an outside one 0)
    adj = {v: [u for u in mg.adj[v] if degree[u] > 1] for v in core}
    walked = set()
    runs = []
    for v in core:
        if v in walked or len(adj[v]) != 2 or adj[v][0] == adj[v][1]:
            continue
        ahead, closed = _degree_two_walk(adj, v, adj[v][0])
        if closed:
            walked.add(ahead[-1])
            run = [v] + ahead[:-1]
        else:
            run = _degree_two_walk(adj, v, adj[v][1])[0][::-1] + [v] + ahead
            if run[0] > run[-1]:
                run.reverse()
        walked.update(run)
        if len(run) > 1:
            runs.append(run)
    in_run = {u for run in runs for u in run}
    kept = [v for v in core if v not in in_run]
    new_id = {v: i for i, v in enumerate(kept)}
    for r, run in enumerate(runs, len(kept)):
        new_id.update(dict.fromkeys(run, r))
    edges = [(new_id[u], new_id[v]) for v in core for u in adj[v]
             if u > v and new_id[u] != new_id[v]]
    return CountedMultiGraph(
        len(kept) + len(runs), edges,
        [mg.provenance[v] for v in kept]
        + [tuple(x for u in run for x in mg.provenance[u]) for run in runs])


def _degree_two_walk(adj, start, cur):
    """Degree-2 vertices met going from ``start`` through ``cur``.

    Stops before the first vertex of another degree or on coming back to
    ``start``; returns the vertices and whether the walk came back.
    """
    out = []
    prev = start
    while cur != start and len(adj[cur]) == 2:
        out.append(cur)
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
    return out, cur == start


def classify_c_prime(component):
    """Classify one connected, fully preprocessed counted component."""
    for v in range(component.n):
        if component.degree(v) == 1:
            raise ValueError("degree-1 vertex %d present; input is not preprocessed" % v)
    if component.n == 1:
        return CPrimeVerdict(KIND_K1_COUNTED)
    if component.n == 2 and len(component.edges) == 2:
        if sum(component.counts) % 2 == 0:
            return CPrimeVerdict(KIND_PARALLEL_PAIR_EVEN)
        return CPrimeVerdict(KIND_NOT_IN_FAMILY)
    if _is_counted_k23(component):
        return CPrimeVerdict(KIND_K23_ONE_ODD)
    return CPrimeVerdict(KIND_NOT_IN_FAMILY)


def _is_counted_k23(c):
    """Underlying K_{2,3}; hub counts 1; at most one count>1, odd, on a degree-2 vertex."""
    if c.n != 5 or len(c.edges) != 6 or len(set(c.edges)) != 6:
        return False
    hubs = [v for v in range(5) if c.degree(v) == 3]
    legs = [v for v in range(5) if c.degree(v) == 2]
    # five vertices, six distinct edges and two non-adjacent degree-3 hubs force K_{2,3}
    if len(hubs) != 2 or len(legs) != 3 or hubs[1] in c.adj[hubs[0]]:
        return False
    if any(c.counts[h] != 1 for h in hubs):
        return False
    heavy = [v for v in legs if c.counts[v] > 1]
    if len(heavy) > 1:
        return False
    return all(c.counts[v] % 2 == 1 for v in heavy)


def preprocessed_components(mg):
    """Split a counted multigraph into its connected component multigraphs.

    A connected ``mg`` is returned as it is.  Otherwise one pass over the
    edges hands each to its component, and each piece is built once,
    relabelled in ascending order of its vertices.
    """
    comps = connected_components(mg)
    if len(comps) == 1:
        return [mg]
    piece = [0] * mg.n
    local = [0] * mg.n
    for c, comp in enumerate(comps):
        for i, v in enumerate(comp):
            piece[v] = c
            local[v] = i
    edges = [[] for _ in comps]
    for u, v in mg.edges:
        edges[piece[u]].append((local[u], local[v]))
    return [CountedMultiGraph(len(comp), es, [mg.provenance[v] for v in comp])
            for comp, es in zip(comps, edges)]


def is_2_choosable_via_preprocessing(g):
    """Contraction-pipeline test for 2-choosability.

    Lifts the simple graph to unit counts, preprocesses, and accepts exactly
    when every component classifies into the counted family.
    """
    reduced = preprocess(CountedMultiGraph.from_graph(g))
    return all(classify_c_prime(comp).in_family for comp in preprocessed_components(reduced))


def approx_2_del(g):
    """Greedy short-cycle deletion heuristic for 2-choosable deletion.

    Preprocess and split into components, then work through them one at a
    time: a component in the counted family is dropped; otherwise a
    shortest cycle of it is removed, and only what is left of that
    component is re-preprocessed, as a vertex set of the component, and
    split back onto the worklist.  Each removed contracted vertex is
    expanded to the first original vertex of its chain.  The returned set
    is re-validated; failure raises InternalCheckError.

    Components never interact, and every choice made on one depends only
    on the relative order of its own vertices: the last-in, first-out
    order of ``graphs._peel``, the numbering and run orientation of
    ``preprocess``, and the lexicographic tie-break of ``shortest_cycle``.
    Restricting to a component keeps that relative order, so each
    component goes through the same rounds as it would inside the whole
    graph, and the sorted union of the picks is the same.
    """
    pending = preprocessed_components(preprocess(CountedMultiGraph.from_graph(g)))
    chosen = []
    while pending:
        comp = pending.pop()
        if classify_c_prime(comp).in_family:
            continue
        cycle = shortest_cycle(comp)
        if cycle is None:
            raise InternalCheckError("contracted graph is acyclic but non-empty")
        chosen.extend(comp.provenance[v][0] for v in cycle)
        cut = set(cycle)
        rest = [v for v in range(comp.n) if v not in cut]
        pending.extend(preprocessed_components(preprocess(comp, rest)))
    result = tuple(sorted(set(chosen)))
    if len(result) != len(chosen):
        raise InternalCheckError("expanded deletion picks collided")
    picked = set(result)
    ok, _ = is_2_choosable(g, [v for v in range(g.n) if v not in picked])
    if not ok:
        raise InternalCheckError("deletion set does not leave a 2-choosable graph")
    return result
