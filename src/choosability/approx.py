"""Contraction-based 2-choosability test and the short-cycle deletion heuristic.

``preprocess`` is the package's one contraction.  It peels degree-1
vertices with ``graphs._peel``, the package's one whole-set degree-1 peel,
then in one linear sweep replaces every maximal chain of two or more
adjacent degree-2 vertices by a single counted vertex of a new
``CountedMultiGraph``, the package's one counted multigraph, in which every
other vertex keeps its id (a cycle component contracts all but one of its
vertices, yielding a two-vertex parallel pair).  A connected graph is
2-choosable exactly when its contraction is K1, C_{2m+2} or theta_{2,2,2m}
once each counted vertex is read as the chain it stands for; ``_in_family``
reads that with ``recognition._classify_component``, the package's one
shape test, from the degrees and the provenance lengths.

``is_2_choosable_via_preprocessing`` contracts once and tests every
component with ``_in_family``.  ``approx_2_del`` contracts once too, then
deletes a shortest cycle of each contracted component outside the family,
re-peeling, re-contracting and re-splitting only around each deleted
cycle, while a ``graphs._CycleSearch`` it holds as a local keeps the
shortest-cycle search's per-root certificates between rounds; each
contracted vertex it picks is expanded back to the first original vertex
of its chain.
"""

from .errors import InternalCheckError
from .graphs import _CycleSearch, _components, _peel, _shortest_cycle
from .recognition import KIND_OUTSIDE, _classify_component, is_2_choosable


class CountedMultiGraph:
    """A mutable counted multigraph whose vertices keep their ids.

    ``adj[v]`` is the sorted list of ``v``'s neighbours, one entry per
    edge, and ``provenance[v]`` the non-empty tuple of original vertices
    ``v`` stands for; the tuples are disjoint, and their lengths are the
    counts.  A deleted or contracted vertex keeps its slot with an empty
    list, and a new vertex takes the next id, above every id so far;
    removing an entry and appending a new id both keep the lists sorted.
    It is data only: what the deletion heuristic keeps from one round to
    the next lives in :func:`approx_2_del`'s locals.
    """

    __slots__ = ("adj", "provenance")

    def __init__(self, adj, provenance):
        self.adj = adj
        self.provenance = provenance

    @property
    def n(self):
        return len(self.adj)


def preprocess(g, vertices=None):
    """Peel degree-1 vertices, then contract every maximal degree-2 run.

    Works on ``g[vertices]`` (all of ``g`` when None) in ``g``'s own ids,
    for a ``Graph`` (one singleton provenance per vertex) or a
    ``CountedMultiGraph`` (its provenance): the peel, the runs and the
    edges are read from ``g.adj`` inside the set, and only the new working
    ``CountedMultiGraph`` is built; an id outside 0..n-1 raises ValueError.
    Returns ``(work, ids)``: ``work`` and its vertices, ascending, the
    uncontracted core vertices first, then one per run.  Every slot of
    ``work`` outside ``ids`` has an empty list, so a later call on ``work``
    passes ``ids`` or a subset of it.

    A run is a maximal chain of two or more adjacent degree-2 vertices.  It
    becomes one counted vertex carrying the run's summed count and its
    provenance concatenated in path order.  A path run is oriented from its
    smaller-id endpoint; a cycle component is walked from its smallest
    vertex towards that vertex's smaller neighbour, and its last vertex is
    left out, so the cycle becomes a parallel pair.  Contracting a run
    changes no other vertex's degree, so one peel and one sweep over the
    runs reach the fixpoint.  The runs get ids from ``g.n`` up, in
    ascending order of their smallest vertex.  Every one of these choices
    reads only the relative order of the ids, so ``work`` on ``ids``,
    relabelled in ascending order, is the contraction of the
    sub-multigraph on ``vertices`` relabelled the same way.
    """
    core, degree = _peel(g, vertices)
    # a neighbour of a core vertex is in the core exactly when its degree
    # left by the peel is at least 2 (a peeled vertex keeps 1, an outside one 0)
    adj = [[] for _ in range(g.n)]
    for v in core:
        adj[v] = [u for u in g.adj[v] if degree[u] > 1]
    if isinstance(g, CountedMultiGraph):
        provenance = list(g.provenance)
    else:
        provenance = [(v,) for v in range(g.n)]
    work = CountedMultiGraph(adj, provenance)
    absorbed = _contract(work, core)[0]
    return work, [v for v in core if v not in absorbed] + list(range(g.n, work.n))


def _contract(work, seeds):
    """Contract every maximal degree-2 run of ``work`` through a vertex of ``seeds``.

    ``seeds`` is ascending.  The runs get new ids in ascending order of
    their smallest vertex, orientations as in :func:`preprocess`.  Returns
    the set of vertices absorbed into them and the set of run ends, the
    other vertices whose adjacency changed.
    """
    adj = work.adj
    walked = set()
    runs = []
    for v in seeds:
        if v in walked or len(adj[v]) != 2 or adj[v][0] == adj[v][1]:
            continue
        ahead, closed = _degree_two_walk(adj, v, adj[v][0])
        if closed:
            # a cycle component is walked from its smallest vertex
            v = min(v, *ahead)
            ahead = _degree_two_walk(adj, v, adj[v][0])[0]
            walked.add(ahead[-1])
            run = [v] + ahead[:-1]
        else:
            run = _degree_two_walk(adj, v, adj[v][1])[0][::-1] + [v] + ahead
            if run[0] > run[-1]:
                run.reverse()
        walked.update(run)
        if len(run) > 1:
            runs.append(run)
    runs.sort(key=min)
    provenance = work.provenance
    absorbed = set()
    ends = set()
    for run in runs:
        x = len(adj)
        first, last = run[0], run[-1]
        a, b = _other(adj[first], run[1]), _other(adj[last], run[-2])
        # x is the largest id so far, so appending it keeps the lists sorted
        adj[a].remove(first)
        adj[a].append(x)
        adj[b].remove(last)
        adj[b].append(x)
        adj.append([a, b] if a <= b else [b, a])
        provenance.append(tuple(o for u in run for o in provenance[u]))
        for u in run:
            adj[u] = []
        absorbed.update(run)
        ends.add(a)
        ends.add(b)
    return absorbed, ends


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


def _other(pair, u):
    """The entry of a two-entry neighbour list that is not ``u``."""
    return pair[1] if pair[0] == u else pair[0]


def is_2_choosable_via_preprocessing(g):
    """Contraction-pipeline test for 2-choosability.

    Preprocesses the simple graph with unit counts and accepts exactly
    when every contracted component, read with its counts, is in the family.
    """
    work, ids = preprocess(g)
    return all(_in_family(work, comp) for comp in _components(work, ids))


def _in_family(work, comp):
    """Whether the contracted component ``comp`` of ``work`` is in the family.

    A contracted K1, even cycle or theta has 1, 2 or 5 vertices.
    """
    if len(comp) > 5:
        return False
    adj, provenance = work.adj, work.provenance
    degree = {v: len(adj[v]) for v in comp}
    counts = {v: len(provenance[v]) for v in comp}
    return _classify_component(comp, adj, degree, counts)[0] != KIND_OUTSIDE


def approx_2_del(g):
    """Greedy short-cycle deletion heuristic for 2-choosable deletion.

    ``preprocess`` peels and contracts ``g`` once into a working
    ``CountedMultiGraph`` with unit provenance, which is split into
    components; then the components are worked through one at a time on
    that multigraph, in which a vertex keeps its id: a component in the
    family is dropped; otherwise a shortest cycle of it is deleted,
    and the component is repaired and split around the cut (see
    :func:`_cut`) back onto the worklist.  The shortest-cycle search reads
    the multigraph's adjacency lists and keeps its per-root certificates in
    ``search``, a ``graphs._CycleSearch`` held here as a local for all the
    rounds; each cut drops those whose BFS read a changed adjacency list,
    so a round searches again only near the cut.  Each removed contracted
    vertex is expanded to the first original vertex of its chain.  The
    returned set is re-validated; failure raises InternalCheckError.

    Components never interact, and every choice made on one depends only
    on the relative order of its own vertices: the last-in, first-out
    order of the peel, the run orientation of the contraction, and the
    lexicographic tie-break of ``shortest_cycle``.  The new runs of a round
    get ids above every id so far, in ascending order of their smallest
    vertex, which is the relative order ``preprocess`` of what is left
    would give them.  So each component goes through the same rounds as it
    would if every round re-preprocessed what is left of it, or of the
    whole graph, and the sorted union of the picks is the same.
    """
    work, ids = preprocess(g)
    search = _CycleSearch()
    # ids is ascending, so the components need no second sort
    pending = _components(work, ids)
    chosen = []
    provenance = work.provenance
    while pending:
        comp = pending.pop()
        if _in_family(work, comp):
            continue
        cycle = _shortest_cycle(work.adj, comp, search)
        if cycle is None:
            raise InternalCheckError("contracted graph is acyclic but non-empty")
        chosen.extend(provenance[v][0] for v in cycle)
        pending.extend(_cut(work, comp, cycle, search))
    result = tuple(sorted(set(chosen)))
    if len(result) != len(chosen):
        raise InternalCheckError("expanded deletion picks collided")
    picked = set(result)
    ok, _ = is_2_choosable(g, [v for v in range(g.n) if v not in picked])
    if not ok:
        raise InternalCheckError("deletion set does not leave a 2-choosable graph")
    return result


def _cut(work, comp, cycle, search):
    """Delete ``cycle`` from the connected component ``comp`` of ``work`` and repair it.

    Only the vertices next to the cut change degree, so only they start
    the peel (last in, first out from the ascending list of those left
    with degree 1, as in :func:`graphs._peel`), and only the maximal
    degree-2 runs through a vertex whose degree changed are contracted:
    every other run of ``comp`` was contracted before.  Every vertex whose
    adjacency list changed is handed to ``search.forget``.
    Returns the components of what is left of ``comp``, each sorted, in
    ascending order of their smallest vertex, as :func:`_split` finds
    them from the survivors next to the cut and the new runs.
    """
    adj = work.adj
    gone = set(cycle)
    touched = set()
    for v in cycle:
        for u in adj[v]:
            if u not in gone:
                adj[u].remove(v)
                touched.add(u)
        adj[v] = []
    stack = sorted(u for u in touched if len(adj[u]) == 1)
    while stack:
        v = stack.pop()
        if len(adj[v]) != 1:
            continue
        u = adj[v][0]
        adj[v] = []
        gone.add(v)
        adj[u].remove(v)
        touched.add(u)
        if len(adj[u]) == 1:
            stack.append(u)
    first_new = work.n
    absorbed, ends = _contract(work, sorted(touched - gone))
    search.forget(gone | touched | absorbed | ends)
    gone |= absorbed
    runs = range(first_new, work.n)
    return _split(work, comp, gone, sorted(touched - gone) + list(runs), runs)


def _split(work, comp, gone, seeds, runs):
    """Components of ``comp`` minus ``gone`` plus ``runs``, searched from ``seeds``.

    ``comp`` was connected before the cut, so every component of what is
    left holds a seed.  One breadth-first search per seed runs in lockstep,
    one vertex each per sweep; searches that meet are merged, and a merged
    group that runs out of vertices is a whole component.  The sweeps stop
    when at most one group is still running: what no finished group holds
    is then one component.  So the cost is about the number of seeds times
    the smaller components, not the whole of ``comp``.  The labels live in
    a dict made for this call, which holds only the vertices visited.
    """
    adj = work.adj
    owner = {}
    parent = list(range(len(seeds)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    queues = []
    for i, s in enumerate(seeds):
        owner[s] = i
        queues.append([s])
    heads = [0] * len(seeds)
    running = list(range(len(seeds)))
    while len({find(i) for i in running}) > 1:
        still = []
        for i in running:
            queue = queues[i]
            if heads[i] == len(queue):
                continue
            u = queue[heads[i]]
            heads[i] += 1
            for w in adj[u]:
                o = owner.get(w)
                if o is None:
                    owner[w] = i
                    queue.append(w)
                elif o != i:
                    a, b = find(i), find(o)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
            still.append(i)
        running = still
    live = {find(i) for i in running}
    members = {}
    for i, queue in enumerate(queues):
        group = find(i)
        if group not in live:
            members.setdefault(group, []).extend(queue)
    pieces = [tuple(sorted(piece)) for piece in members.values()]
    if live:
        done = {v for piece in pieces for v in piece}
        rest = [v for v in comp if v not in gone and v not in done]
        rest += [x for x in runs if x not in done]
        pieces.append(tuple(rest))
    pieces.sort()
    return pieces
