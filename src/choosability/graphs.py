"""The graph container and the structural queries every other module builds on.

``Graph`` is simple, undirected, on dense 0-based ids, and immutable after
construction; every query is a pure function with deterministic
tie-breaking (ascending vertex ids).  ``_peel``, ``connected_components``
and ``shortest_cycle`` read only ``n`` and ``adj``, so they take a ``Graph``
and the counted multigraph of the contraction pipeline,
``approx.CountedMultiGraph``, alike, where a parallel pair is a repeated
neighbour; all three also work inside a vertex set of the graph, in its own
ids.  ``shortest_cycle`` restricts the adjacency lists to that set once;
its core ``_shortest_cycle`` runs one bounded BFS per root and one
depth-first search at the root that wins, keeping each root's result in
the ``_CycleSearch`` it is given: a fresh one per public call, or the one
the deletion heuristic, ``approx.approx_2_del``, holds across its rounds.
"""

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import accumulate, chain, compress, count, islice, repeat, starmap, tee
from operator import eq, getitem, itemgetter, lt

from .errors import InternalCheckError

#: the largest vertex count a graph file may declare and a reduction may
#: build; a header alone sizes the graph, and a few bytes of formula size a
#: reduction, so without a bound a tiny input could ask for gigabytes
MAX_GRAPH_VERTICES = 100_000


def _check_vertex_limit(n):
    """ValueError if a graph would have more than MAX_GRAPH_VERTICES vertices."""
    if n > MAX_GRAPH_VERTICES:
        raise ValueError("graph has %d vertices; the limit is %d" % (n, MAX_GRAPH_VERTICES))


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Rejects self-loops, duplicate edges and out-of-range endpoints at
    construction time.  When an input has several faults the one reported
    is the first in sorted order of the edges, each written (smaller,
    larger) whatever order it was given in.  ``adj[v]`` is a sorted tuple
    of neighbours.

    The adjacency is the graph; ``edges``, the ``(u, v)`` pairs with
    ``u < v`` in ascending order, is built from it on first use, except
    when the constructor is given the edges in exactly that form, as the
    reduction builders and :func:`induced_subgraph` give them: those are
    kept as they are.  Any other edge list, or the two endpoint columns
    the graph file reader passes to :meth:`_from_columns`, is turned into
    adjacency lists with no pair normalised or sorted, and checked with
    passes over the columns and the sorted lists (see :func:`_adjacency`).
    Only when a check fails are the edges sorted, to name the first fault.
    ``==`` compares the adjacency; ``hash`` reads ``edges``.
    """

    __slots__ = ("n", "m", "adj", "_edges", "_adj_bits")

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = tuple(map(tuple, edges))
        if all(starmap(lt, edges)) and all(map(lt, edges, islice(edges, 1, None))):
            self._set(n, _ascending_adjacency(n, edges), len(edges), edges)
        else:
            us = list(map(itemgetter(0), edges))
            self._set(n, _adjacency(n, us, list(map(itemgetter(1), edges))), len(edges), None)

    @classmethod
    def _from_columns(cls, n, us, vs):
        """The graph on ``n >= 0`` vertices with edges ``(us[i], vs[i])``, in any order.

        Checked as the constructor checks an edge list, with no pair built;
        the graph file reader calls it with the columns of its edge lines.
        """
        g = cls.__new__(cls)
        g._set(n, _adjacency(n, us, vs), len(us), None)
        return g

    def _set(self, n, adj, m, edges):
        self.n = n
        self.m = m
        self.adj = adj
        self._edges = edges
        self._adj_bits = None

    @property
    def edges(self):
        """The edges ``(u, v)``, ``u < v``, ascending; built from ``adj`` on first use."""
        if self._edges is None:
            adj = self.adj
            ids = range(self.n)
            # the neighbours above u are the tail of its sorted list
            above = map(getitem, adj, map(slice, map(bisect_right, adj, ids), repeat(None)))
            self._edges = tuple(chain.from_iterable(map(zip, map(repeat, ids), above)))
        return self._edges

    def degree(self, v):
        return len(self.adj[v])

    def adj_bits(self):
        """Adjacency as one big int bitmask per vertex."""
        if self._adj_bits is None:
            bits = [0] * self.n
            for u, v in self.edges:
                bits[u] |= 1 << v
                bits[v] |= 1 << u
            self._adj_bits = tuple(bits)
        return self._adj_bits

    def has_edge(self, u, v):
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self.adj == other.adj)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "%s(n=%d, m=%d)" % (type(self).__name__, self.n, self.m)


def _ascending_adjacency(n, edges):
    """The sorted adjacency tuples of ascending pairs ``(u, v)`` with ``u < v``.

    Such a list has no repeats, and each vertex meets its smaller
    neighbours before its larger ones, in ascending order, so every list
    comes out sorted; only the range is left to check.
    """
    if edges and edges[0][0] < 0:
        _raise_first_fault(n, edges)
    adj = [[] for _ in range(n)]
    try:
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
    except IndexError:              # an id of n or more
        _raise_first_fault(n, edges)
    return tuple(map(tuple, adj))


def _adjacency(n, us, vs):
    """The sorted adjacency tuples of the edges ``(us[i], vs[i])``, checked.

    A negative id is found by ``min``, one of ``n`` or more by the index
    error it raises, and a self-loop or a repeated edge, in either
    orientation, by a neighbour that a sorted list holds twice in a row.
    Any of these sorts the edges to name the first fault.
    """
    if us and min(min(us), min(vs)) < 0:
        _raise_first_fault(n, zip(us, vs))
    adj = [[] for _ in range(n)]
    try:
        for u, v in zip(us, vs):
            adj[u].append(v)
            adj[v].append(u)
    except IndexError:              # an id of n or more
        _raise_first_fault(n, zip(us, vs))
    for v, a in enumerate(adj):
        a.sort()
        adj[v] = tuple(a)           # each list is freed as its tuple is made
    # a repeat shows as one id twice in a row inside a list; an id that ends
    # one list and starts the next is no fault, so each equal pair's second
    # position must be where a list starts
    ids, following = tee(chain.from_iterable(adj))
    next(following, None)
    seconds = list(compress(count(1), map(eq, ids, following)))
    if seconds and not set(accumulate(map(len, adj))).issuperset(seconds):
        _raise_first_fault(n, zip(us, vs))
    return tuple(adj)


def _raise_first_fault(n, edges):
    """Raise the ValueError of the first faulty edge of ``edges`` in sorted order.

    ``edges`` holds a self-loop, an out-of-range endpoint or a repeat.
    Each pair is written (smaller, larger) and the list sorted, so that
    repeats are adjacent, before it is scanned.
    """
    prev = None
    for e in sorted([(u, v) if u < v else (v, u) for u, v in edges]):
        u, v = e
        if u == v:
            raise ValueError("self-loop at vertex %d" % u)
        if u < 0 or v >= n:
            raise ValueError("edge (%d, %d) out of range for n=%d" % (u, v, n))
        if e == prev:
            raise ValueError("duplicate edge (%d, %d)" % e)
        prev = e
    raise InternalCheckError("no faulty edge to report")


def induced_subgraph(g, vertices):
    """Induced subgraph on ``vertices``, relabelled densely.

    Returns ``(subgraph, kept)`` where ``kept`` is the sorted tuple of
    original ids; new id i corresponds to ``kept[i]``.
    """
    kept = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(kept)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph(len(kept), edges), kept


def delete_vertices(g, drop):
    """Graph minus a vertex set, relabelled densely; returns (graph, kept)."""
    dropped = set(drop)
    return induced_subgraph(g, (v for v in range(g.n) if v not in dropped))


def _ascending_ids(g, vertices):
    """``vertices`` ascending without repeats; ValueError for an id outside 0..n-1."""
    order = sorted(set(vertices))
    if order and (order[0] < 0 or order[-1] >= g.n):
        bad = order[0] if order[0] < 0 else order[-1]
        raise ValueError("vertex %d out of range for n=%d" % (bad, g.n))
    return order


def _peel(g, vertices=None):
    """Repeatedly delete degree-1 vertices; return the core and its degrees.

    Peels ``G[vertices]`` (all of ``g`` when None) in ``g``'s own ids, with
    no subgraph built; an id outside 0..n-1 raises ValueError.  The whole
    graph is the vertex set ``range(g.n)``, whose degrees are the lengths
    of the adjacency lists, since every neighbour is inside.  Reads
    only ``g.n`` and ``g.adj``, so it takes a ``Graph`` or a counted
    multigraph; a parallel pair counts as degree 2.

    Returns ``(core, degree)``: ``core`` is the ascending list of the
    vertices left, and ``degree[v]`` the degree of each core vertex inside
    the core.  Since the core has no degree-1 vertex, that is 0 or at least
    2; a peeled vertex keeps 1 and a vertex outside ``vertices`` has 0.
    Degree-1 vertices are deleted last in, first out, from the ascending
    list of the first ones.  The surviving edges do not depend on that
    order, but which single vertex of a tree component survives does.

    Each call allocates lists of length ``g.n``, however small
    ``vertices`` is.  A caller that works through many small pieces of one
    large graph should split it into piece graphs first, or handle all the
    pieces in one call, rather than call this once per piece.  The lists
    stay: a variant that kept this state in dicts, so that one call per
    piece would be cheap, made the benchmark's ``exact`` wall_ref 14% and
    ``pipeline`` wall_ref 16% slower (Python 3.11, 2-vCPU VM).  The
    deletion heuristic calls it once per graph, not per piece: its rounds
    peel only around each deleted cycle, in ``approx._cut``.
    """
    adj = g.adj
    if vertices is None:
        order = range(g.n)
        alive = [True] * g.n
        degree = list(map(len, adj))
    else:
        order = _ascending_ids(g, vertices)
        alive = [False] * g.n
        for v in order:
            alive[v] = True
        degree = [0] * g.n
        inside = alive.__getitem__
        for v in order:
            degree[v] = sum(map(inside, adj[v]))
    stack = [v for v in order if degree[v] == 1]
    while stack:
        v = stack.pop()
        if not alive[v] or degree[v] != 1:
            continue
        alive[v] = False
        for u in adj[v]:
            if alive[u]:
                degree[u] -= 1
                if degree[u] == 1:
                    stack.append(u)
    return [v for v in order if alive[v]], degree


def connected_components(g, vertices=None):
    """Maximal connected vertex sets, each sorted, ordered by smallest member.

    Splits ``G[vertices]`` (all of ``g`` when None) in ``g``'s own ids; an
    id outside 0..n-1 raises ValueError.  The whole graph is the vertex set
    ``range(g.n)`` and takes the same path.  Takes a ``Graph`` or a counted
    multigraph.  Like :func:`_peel`, each call allocates a list of length
    ``g.n`` even for a small set, so do not call it once per piece of a
    large graph; the reason the list stays is given there.  The deletion heuristic calls it
    once per graph; a round splits only the component it cut, in
    ``approx._split``, searching from the cut.
    """
    return _components(g, range(g.n) if vertices is None else _ascending_ids(g, vertices))


def _components(g, order):
    """:func:`connected_components` of ``G[order]``, ``order`` ascending and in range.

    For a caller that holds its vertex set in that form already, such as
    the core list :func:`_peel` returns.
    """
    adj = g.adj
    seen = [True] * g.n
    for v in order:
        seen[v] = False
    components = []
    for start in order:
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        # breadth-first: the list is the queue, read while it grows
        for u in comp:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
        comp.sort()
        components.append(tuple(comp))
    return components


def is_bipartite(g):
    """Decide bipartiteness.

    Returns ``(True, coloring)`` with a proper 2-coloring (colors 1 and 2),
    or ``(False, cycle)`` where ``cycle`` is an odd cycle as a vertex list
    (closure back to the first vertex implied).
    """
    color = [0] * g.n
    parent = [-1] * g.n
    for start in range(g.n):
        if color[start]:
            continue
        color[start] = 1
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if color[v] == 0:
                    color[v] = 3 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return False, _odd_cycle(parent, u, v)
    return True, {v: color[v] for v in range(g.n)}


def _odd_cycle(parent, u, v):
    """Odd cycle through the conflict edge (u, v) using BFS-tree parents."""
    ancestors_u = [u]
    x = u
    while parent[x] != -1:
        x = parent[x]
        ancestors_u.append(x)
    pos = {x: i for i, x in enumerate(ancestors_u)}
    path_v = [v]
    y = v
    while y not in pos:
        y = parent[y]
        path_v.append(y)
    lca = y
    cycle = ancestors_u[:pos[lca] + 1]      # u .. lca
    cycle.extend(reversed(path_v[:-1]))     # .. back down to v
    return cycle


def is_triangle_free(g):
    """``(True, None)``, or ``(False, t)`` with ``t`` the lexicographically first triangle.

    The first edge ``(u, v)`` in ascending order whose ends have a common
    neighbour, with the smallest one, w > v; one ``&`` per edge, where
    :func:`_first_triangle` takes 1.0 s on C_99,999 against this 0.2 s.
    """
    bits = g.adj_bits()
    for u, v in g.edges:
        common = bits[u] & bits[v]
        if common:
            return False, (u, v, (common & -common).bit_length() - 1)
    return True, None


def _first_triangle(bits, alive):
    """The lexicographically first triangle of ``G[alive]``, as a sorted tuple, or None.

    ``bits`` is ``Graph.adj_bits()`` and ``alive`` a vertex bitmask.  The
    smallest u with a neighbour v above it that has a common neighbour above
    v; of those, the smallest v, and then the smallest such common neighbour w.
    On the exact search's small graphs it takes 1.9 microseconds a call
    against 3.2 for a scan of the edges of ``G[alive]``.
    """
    above = alive
    while above:
        low = above & -above
        above ^= low
        # ``above`` is now what is left of ``alive`` above u
        higher = bits[low.bit_length() - 1] & above
        while higher:
            mid = higher & -higher
            higher ^= mid
            common = bits[mid.bit_length() - 1] & higher
            if common:
                return (low.bit_length() - 1, mid.bit_length() - 1,
                        (common & -common).bit_length() - 1)
    return None


def diameter(g):
    """Largest shortest-path distance, or None when the graph is disconnected.

    The empty graph is connected by convention and has diameter 0.  When no
    degree exceeds 2 the answer is read from the shape: a path on n vertices
    has diameter n - 1 and the cycle C_n has n // 2.  Otherwise a bitmask
    BFS runs from every vertex, and the first that misses a vertex returns
    None.
    """
    if g.n == 0:
        return 0
    if all(len(a) <= 2 for a in g.adj):
        if len(connected_components(g)) > 1:
            return None
        return g.n // 2 if g.m == g.n else g.n - 1
    bits = g.adj_bits()
    full = (1 << g.n) - 1
    best = 0
    for src in range(g.n):
        seen = 1 << src
        frontier = seen
        dist = 0
        while seen != full:
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= bits[v]
            nxt &= ~seen
            if nxt == 0:
                return None
            seen |= nxt
            frontier = nxt
            dist += 1
        if dist > best:
            best = dist
    return best


class _CycleSearch:
    """What :func:`_shortest_cycle` keeps between calls on one changing adjacency.

    :func:`shortest_cycle` makes a fresh one, with no certificate, for each
    call; the deletion heuristic, ``approx.approx_2_del``, makes one as a
    local and passes it to every round.  The lists are indexed by vertex,
    and a kept store grows them as new ids are appended:

    - ``stamp``, ``dist`` and ``branch`` hold the BFS labels; a vertex counts
      as labelled by a BFS only when its stamp is that BFS's mark, and
      ``mark`` is above every mark used so far, so no call clears them;
    - ``low[v]`` is what the last BFS from root ``v`` returned and
      ``tight[v]`` whether that was below its bound (the exact length of
      the shortest cycle whose smallest vertex is ``v``) or only a lower
      bound; a dropped certificate reads 0 and not tight;
    - ``pair[v]`` is ``v``'s parallel-pair partner above it, -1 for none,
      None when not known;
    - ``readers[v]`` lists the roots whose BFS expanded ``v``, that is,
      read its adjacency; a BFS also reads its root's own.

    A BFS is a function of the adjacency lists it read, so its result
    stays valid until one of them changes; :meth:`forget` drops exactly the
    certificates that read a changed list: those of the changed vertices
    themselves and of their readers.
    """

    __slots__ = ("stamp", "dist", "branch", "mark", "low", "tight", "pair", "readers")

    def __init__(self, n=0):
        """A store for one call on ``n`` vertices, or an empty one to keep and grow.

        A store for one call is dropped before anything could be forgotten,
        so its vertices share one throwaway readers list, which costs no
        allocation per vertex.
        """
        self.stamp = [-1] * n
        self.dist = [0] * n
        self.branch = [0] * n
        self.mark = 0
        self.low = [0] * n
        self.tight = [False] * n
        self.pair = [None] * n
        self.readers = [[]] * n

    def grow(self, n):
        """Extend every list to ``n`` vertices; a new vertex has no certificate."""
        extra = n - len(self.stamp)
        if extra > 0:
            self.stamp += [-1] * extra
            self.dist += [0] * extra
            self.branch += [0] * extra
            self.low += [0] * extra
            self.tight += [False] * extra
            self.pair += [None] * extra
            self.readers += [[] for _ in range(extra)]

    def forget(self, changed):
        """Drop every certificate that read the adjacency of a vertex in ``changed``."""
        low, tight, pair, readers = self.low, self.tight, self.pair, self.readers
        known = len(low)
        for v in changed:
            if v >= known:
                continue
            pair[v] = None
            low[v] = 0
            tight[v] = False
            for root in readers[v]:
                low[root] = 0
                tight[root] = False
            readers[v] = []


def shortest_cycle(g, vertices=None):
    """Shortest cycle of ``G[vertices]`` (all of ``g`` when None), or None.

    Works in ``g``'s own ids with no subgraph built; an id outside 0..n-1
    raises ValueError.  A vertex set restricts the adjacency lists once:
    each listed vertex keeps its neighbours inside the set, every other
    vertex gets an empty list, and the search reads those lists alone,
    with no membership test.  Reads only ``n`` and ``adj``, so it takes a
    ``Graph``, and any object whose ``adj[v]`` lists are sorted.  A parallel
    pair counts as a cycle of length 2, and the first such pair ends the
    search.  Ties are broken by the lexicographically smallest vertex
    sequence; the sequence starts at the smallest vertex of the cycle
    and closure back to it is implied.  Every choice reads only the relative
    order of the ids, so the answer is that of the restriction relabelled in
    ascending order, mapped back.

    Otherwise one bounded BFS per root ``v0`` finds the shortest cycle whose
    smallest vertex is ``v0`` (Itai and Rodeh, 1978): the BFS runs over ids
    above ``v0`` and labels each vertex with the neighbour of ``v0`` it
    descends from, so an edge between two labels closes a simple cycle.  The
    first root to reach the minimum length is the first vertex of the
    answer, and a triangle, the shortest cycle left, ends the scan.  Each
    BFS stamps the vertices it labels with a mark of its own, so no root
    clears or allocates anything.  The winning root's BFS runs once more
    under a fresh mark to restore its labels, and one depth-first search
    there lists the cycle.

    The scan keeps a certificate per root in a :class:`_CycleSearch`: it
    starts from one more than the smallest exact value, reuses an exact
    value, skips a lower bound that is at least the best length so far,
    and runs the BFS again for the rest.  Each call here starts with an
    empty store, in which every root searches.  The deletion heuristic
    keeps one store across its rounds and calls :func:`_shortest_cycle`
    with it, so after a small change only the roots whose BFS read a
    changed adjacency list search again.
    """
    adj = g.adj
    order = range(g.n) if vertices is None else _ascending_ids(g, vertices)
    # ascending without repeats, so all of g exactly when n long
    if len(order) < g.n:
        inside = set(order)
        adj = [()] * g.n
        for v in order:
            adj[v] = [u for u in g.adj[v] if u in inside]
    return _shortest_cycle(adj, order, _CycleSearch(g.n))


def _shortest_cycle(adj, order, search):
    """:func:`shortest_cycle` on the adjacency lists ``adj``, over ``order``.

    ``order`` is ascending and a union of components of ``adj``, so no
    vertex in it has a neighbour outside and every list is read whole.
    ``search`` is the :class:`_CycleSearch` whose certificates the scan
    reuses and updates, grown here to ``len(adj)`` vertices.
    """
    n = len(adj)
    search.grow(n)
    pair, low, tight = search.pair, search.low, search.tight
    # the smallest exact certificate bounds the answer from above
    best = n
    for u in order:
        a = pair[u]
        if a is None:
            # the smallest neighbour above u joined to it by two edges, or -1
            a = -1
            for x, y in zip(adj[u], adj[u][1:]):
                if x == y and x > u:
                    a = x
                    break
            pair[u] = a
        if a >= 0:
            return [u, a]
        if tight[u] and low[u] < best:
            best = low[u]

    # no parallel pairs from here on: G[order] is simple
    stamp, dist, branch, readers = search.stamp, search.dist, search.branch, search.readers
    # roots stamp with base + v0 and the restoring run with base + n, all
    # above every mark of an earlier call on the same store
    base = search.mark
    search.mark = base + n + 1
    best, root = best + 1, None
    for v0 in order:
        found = low[v0]
        if not tight[v0]:
            if found >= best:
                continue
            # an odd bound 2D + 1 expands the same depths as 2D, and every
            # length below it comes out exact, so a tie at an even best is
            # certified exact at no extra cost
            bound = best | 1
            found = _root_bfs(adj, v0, bound, base + v0, stamp, dist, branch, readers)
            low[v0] = found
            tight[v0] = found < bound
        if found < best:
            best, root = found, v0
            if best == 3:
                break
    if root is None:
        return None
    _root_bfs(adj, root, best + 1, base + n, stamp, dist, branch, readers)
    return _lex_smallest_cycle(adj, root, best, base + n, stamp, dist)


def _root_bfs(adj, v0, found, mark, stamp, dist, branch, readers):
    """Length of the shortest cycle with smallest vertex v0 if below ``found``, else ``found``.

    Labels every vertex it reaches with ``stamp[w] = mark``, its distance to
    v0 through ids above v0 and the neighbour of v0 it descends from.  A
    vertex counts as unvisited unless its stamp is ``mark``, so ``mark``
    must differ from that of every earlier BFS on the same lists.  It stops
    at the first depth ``d`` with ``2d + 1 >= found``, so every vertex
    within ``found // 2`` of v0 is labelled.  It reads the adjacency of v0
    and of every vertex it expands, and appends v0 to the ``readers`` list
    of each vertex it expands.
    """
    frontier = [w for w in adj[v0] if w > v0]
    if len(frontier) < 2:
        return found
    for w in frontier:
        stamp[w] = mark
        dist[w] = 1
        branch[w] = w
    depth = 1
    # closures found while expanding depth d have length 2d+1 or more
    while frontier and 2 * depth + 1 < found:
        nxt = []
        for u in frontier:
            readers[u].append(v0)
            label = branch[u]
            for w in adj[u]:
                if w <= v0:
                    continue
                if stamp[w] != mark:
                    stamp[w] = mark
                    dist[w] = depth + 1
                    branch[w] = label
                    nxt.append(w)
                elif branch[w] != label and depth + dist[w] + 1 < found:
                    found = depth + dist[w] + 1
        frontier = nxt
        depth += 1
    return found


def _lex_smallest_cycle(adj, v0, length, mark, stamp, dist):
    """Lexicographically smallest cycle of ``length`` whose smallest vertex is v0.

    The vertices labelled ``stamp[w] == mark`` carry in ``dist`` their distance
    to v0 through ids above v0, and include every vertex within
    ``length // 2`` of it; no vertex further out lies on such a cycle.
    """
    path = [v0]
    on_path = {v0}
    # depth-first with an explicit stack: one neighbour iterator per
    # path vertex, so long cycles cannot exhaust the recursion limit
    stack = [iter(adj[v0])]
    while stack:
        remaining = length - len(path)
        for w in stack[-1]:
            if w == v0 and remaining == 0:
                return path
            if stamp[w] != mark or dist[w] > remaining or w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            stack.append(iter(adj[w]))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
    raise InternalCheckError("no cycle of length %d through root %d" % (length, v0))


def coloring_is_proper(g, assignment):
    """True when every vertex is colored and no edge is monochromatic."""
    if any(v not in assignment for v in range(g.n)):
        return False
    return all(assignment[u] != assignment[v] for u, v in g.edges)
