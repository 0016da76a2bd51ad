"""Shared builders, small-graph enumeration, and independent brute-force oracles."""

import itertools

import numpy as np
import pytest

from choosability.errors import Budget
from choosability.graphs import Graph


def graph_reference(n, edges):
    """``Graph``'s former constructor: ``(edges, adj)`` built edge by edge.

    Checks each edge in input order against a set of those seen, then sorts
    the edges and every neighbour list on its own.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    seen = set()
    normalized = []
    for u, v in edges:
        if u == v:
            raise ValueError("self-loop at vertex %d" % u)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge (%d, %d) out of range for n=%d" % (u, v, n))
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError("duplicate edge (%d, %d)" % e)
        seen.add(e)
        normalized.append(e)
    edges = tuple(sorted(normalized))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return edges, tuple(tuple(sorted(a)) for a in adj)


class SortedTupleGraph:
    """``Graph`` as it was before its adjacency came first: the sorted-tuple builder.

    Normalises every edge to a ``(smaller, larger)`` tuple, sorts them, scans
    the sorted list for the first self-loop, out-of-range endpoint or repeat,
    keeps the tuple as ``edges`` and builds ``adj`` from it.  ``m``, ``==``
    and ``hash`` read ``edges``.  Kept as the reference for the adjacency-first
    constructor, which must agree on all of these and on every message.
    """

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        normalized = sorted([(u, v) if u < v else (v, u) for u, v in edges])
        prev = None
        for e in normalized:
            u, v = e
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            if u < 0 or v >= n:
                raise ValueError("edge (%d, %d) out of range for n=%d" % (u, v, n))
            if e == prev:
                raise ValueError("duplicate edge (%d, %d)" % e)
            prev = e
        self.n = n
        self.edges = tuple(normalized)
        adj = [[] for _ in range(n)]
        for u, v in normalized:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(map(tuple, adj))

    @property
    def m(self):
        return len(self.edges)

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))


def counted_multigraph_reference(n, edges, provenance=None):
    """The former ``graphs.CountedMultiGraph`` constructor, from before it was a ``Graph``.

    Checks the provenance, then each edge in input order, and builds the
    adjacency itself.  Returns ``(n, edges, adj, counts, provenance)``.
    """
    if provenance is None:
        provenance = tuple((v,) for v in range(n))
    provenance = tuple(tuple(p) for p in provenance)
    if len(provenance) != n:
        raise ValueError("need one provenance entry per vertex")
    seen_origins = set()
    for v in range(n):
        if not provenance[v]:
            raise ValueError("provenance of vertex %d is empty" % v)
        for orig in provenance[v]:
            if orig in seen_origins:
                raise ValueError("provenance lists must be pairwise disjoint")
            seen_origins.add(orig)
    normalized = []
    for u, v in edges:
        if u == v:
            raise ValueError("self-loop at vertex %d" % u)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge (%d, %d) out of range for n=%d" % (u, v, n))
        normalized.append((u, v) if u < v else (v, u))
    edges = tuple(sorted(normalized))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return n, edges, tuple(map(tuple, adj)), tuple(len(p) for p in provenance), provenance


def counted(n, edges, provenance=None):
    """An ``approx.CountedMultiGraph`` on ``n`` vertices from an edge list.

    Repeated edges become parallel pairs, and ``provenance`` defaults to
    one singleton per vertex; the edges and provenance are checked and the
    adjacency built by :func:`counted_multigraph_reference`.
    """
    from choosability.approx import CountedMultiGraph

    _, _, adj, _, provenance = counted_multigraph_reference(n, edges, provenance)
    return CountedMultiGraph([list(a) for a in adj], list(provenance))


def lift(g):
    """The ``Graph`` ``g`` as a counted multigraph with unit provenance."""
    return counted(g.n, g.edges)


def adj_and_provenance(mg):
    """``(adj, provenance)`` of a counted multigraph as nested tuples, to compare two."""
    return tuple(map(tuple, mg.adj)), tuple(mg.provenance)


def counts(mg):
    """The counts of a counted multigraph: its provenance lengths."""
    return tuple(len(p) for p in mg.provenance)


def multigraph_edges(mg):
    """The edges of a counted multigraph, ``(u, v)`` with u < v, sorted, one per parallel edge."""
    return [(u, v) for u in range(mg.n) for v in mg.adj[u] if u < v]


def parse_graph_reference(text):
    """``dimacs.parse_graph`` as it was, checking every edge on its line.

    Tests each edge for a self-loop, range and (with a set of those seen) a
    repeat as it reads it, then builds the ``Graph``.  Kept as the reference
    for the one-pass parser that leaves those checks to ``Graph``, which
    must return an equal graph or raise the same message.
    """
    from choosability.dimacs import MAX_GRAPH_VERTICES, ParseError

    n = m = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError("header must be 'p edge <n> <m>'", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("header counts must be integers", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("header counts must be non-negative", lineno)
            if n > MAX_GRAPH_VERTICES:
                raise ParseError("header declares %d vertices; the limit is %d"
                                 % (n, MAX_GRAPH_VERTICES), lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before header", lineno)
            if len(parts) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno) from None
            if u == v:
                raise ParseError("self-loop at vertex %d" % u, lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError("vertex out of range in edge (%d, %d)" % (u, v), lineno)
            e = (min(u, v) - 1, max(u, v) - 1)
            if e in seen:
                raise ParseError("duplicate edge (%d, %d)" % (u, v), lineno)
            seen.add(e)
            edges.append(e)
        else:
            raise ParseError("unrecognized line %r" % line, lineno)
    if n is None:
        raise ParseError("missing 'p edge' header", max(1, text.count("\n") + 1))
    if len(edges) != m:
        raise ParseError("header promised %d edges, found %d" % (m, len(edges)),
                         text.count("\n") + 1)
    return Graph(n, edges)


def write_graph_reference(g):
    """``dimacs.write_graph`` as it was: one ``%``-formatted line per edge, then a join."""
    lines = ["p edge %d %d" % (g.n, len(g.edges))]
    for u, v in g.edges:
        lines.append("e %d %d" % (u + 1, v + 1))
    return "\n".join(lines) + "\n"


def h_phi_reference(phi):
    """``reductions.build_H_phi`` as it was: ``(n, edges, roles)``, the edges from a set.

    Adds every edge of the layout (each row's complete bipartite graph
    minus its pairing, each column's dominating vertex, the apex) and of
    each constraint-graph copy to a set of normalised pairs, and returns
    them sorted.  Kept as the reference for the one-sweep edge list of
    ``reductions._h_edges``.
    """
    from choosability.reductions import P_EDGES_BY_LABEL

    n, k = phi.num_vars, phi.num_clauses
    rows = n + 14 * k

    def tid(s, row, col):
        return ((s - 1) * rows + (row - 1)) * 34 + (col - 1)

    def fid(s, row, col):
        return tid(s, row, col) + 17

    def dom(s, col):
        return 34 * rows * k + (s - 1) * 17 + (col - 1)

    d0 = 34 * rows * k + 17 * k
    edges = set()
    positions = [(s, c) for s in range(1, k + 1) for c in range(1, 18)]
    for row in range(1, rows + 1):
        for s, c in positions:
            t = tid(s, row, c)
            for s2, c2 in positions:
                if (s, c) != (s2, c2):
                    f = fid(s2, row, c2)
                    edges.add((t, f) if t < f else (f, t))
    for s, c in positions:
        d = dom(s, c)
        for row in range(1, rows + 1):
            edges.add((tid(s, row, c), d))
            edges.add((fid(s, row, c), d))
        edges.add((d, d0))

    label_of = {}
    for s in range(1, k + 1):
        vmap = {"v%d" % r: (fid if lit < 0 else tid)(s, abs(lit), r)
                for r, lit in enumerate(phi.clauses[s - 1], 1)}
        for t in range(1, 15):
            vmap["w%d" % t] = tid(s, n + 14 * (s - 1) + t, t + 3)
        for a, b in P_EDGES_BY_LABEL:
            x, y = vmap[a], vmap[b]
            edges.add((x, y) if x < y else (y, x))
        for lab, vid in vmap.items():
            label_of[vid] = lab

    roles = {}
    for row in range(1, rows + 1):
        in_variable_block = row <= n
        for s, c in positions:
            for vid, side in ((tid(s, row, c), "true"), (fid(s, row, c), "false")):
                rec = {"role": ("variable-" if in_variable_block else "clause-") + side,
                       "gadget": s, "row": row, "col": c}
                if not in_variable_block:
                    rec["block"] = (row - n - 1) // 14 + 1
                    rec["block_row"] = (row - n - 1) % 14 + 1
                if vid in label_of:
                    rec["p_label"] = label_of[vid]
                roles[vid] = rec
    for s, c in positions:
        roles[dom(s, c)] = {"role": "dominating", "gadget": s, "col": c}
    roles[d0] = {"role": "d0"}
    return d0 + 1, sorted(edges), roles


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


def brute_lex_shortest_cycle(g):
    """Minimum over all cycles by ``(length, sequence)``, or None.

    A parallel pair ``u < v`` is the cycle ``[u, v]`` of length 2; a longer
    cycle is listed from its smallest vertex, in both directions.  Reads
    only ``n`` and ``adj``, so it takes either container.
    """
    cycles = [[u, v] for u in range(g.n) for v in set(g.adj[u])
              if v > u and g.adj[u].count(v) > 1]
    adj = [sorted(set(a)) for a in g.adj]

    def extend(path):
        for w in adj[path[-1]]:
            if w == path[0] and len(path) >= 3:
                cycles.append(list(path))
            elif w > path[0] and w not in path:
                extend(path + [w])

    for s in range(g.n):
        extend([s])
    return min(cycles, key=lambda c: (len(c), c), default=None)


def brute_diameter(g):
    """Largest BFS distance over all sources, or None when some pair is unreachable."""
    best = 0
    for src in range(g.n):
        dist = {src: 0}
        queue = [src]
        for v in queue:
            for w in g.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if len(dist) < g.n:
            return None
        best = max(best, max(dist.values()))
    return best


def brute_k_choosable(g, k, budget=None):
    """The list-assignment oracle's enumeration without the frontier memo.

    Same canonical lists, order, budget charges and witness as
    ``is_k_choosable_exhaustive``, but every frame keeps the full feasible
    colorings of its prefix and no subtree is skipped; no size cap.
    """
    bud = Budget.ensure(budget)
    stats = {"assignments": 0}
    earlier = [[u for u in g.adj[v] if u < v] for v in range(g.n)]
    lists = []
    candidates_after = {}

    def canonical_lists(used):
        if used not in candidates_after:
            candidates_after[used] = [
                old_part + tuple(range(used + 1, used + n_new + 1))
                for n_new in range(k + 1)
                for old_part in itertools.combinations(range(1, used + 1), k - n_new)]
        return iter(candidates_after[used])

    stack = [(0, [()], canonical_lists(0))] if g.n else []
    while stack:
        used, colorings, candidates = stack[-1]
        nbrs = earlier[len(lists)]
        for lst in candidates:
            bud.charge(stage="oracle", **stats)
            lists.append(lst)
            extended = []
            append = extended.append
            for coloring in colorings:
                for c in lst:
                    for u in nbrs:
                        if coloring[u] == c:
                            break
                    else:
                        append(coloring + (c,))
            if not extended:
                stats["assignments"] += 1
                used = max(used, lst[-1])
                witness = dict(enumerate(lists))
                for v in range(len(lists), g.n):
                    witness[v] = tuple(range(used + 1, used + k + 1))
                    used += k
                return False, witness
            if len(lists) < g.n:
                used = max(used, lst[-1])
                stack.append((used, extended, canonical_lists(used)))
                break
            stats["assignments"] += 1
            lists.pop()
        else:
            stack.pop()
            if lists:
                lists.pop()
    return True, None


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


def is_2_choosable_reference(g):
    """The former ``is_2_choosable``: build the core as a ``Graph`` and classify it.

    Kept as a reference for the vertex-set form, which peels and splits
    inside ``g`` and must return the same verdict and witness.
    """
    from choosability.recognition import classify_core, compute_core

    core, kept = compute_core(g)
    for verdict in classify_core(core):
        if not verdict.in_family:
            return False, tuple(sorted(kept[v] for v in verdict.vertices))
    return True, None


def is_2_choosable_on_subgraph(g, vertices):
    """``is_2_choosable_reference`` of ``G[vertices]``, its witness in g's ids."""
    from choosability.graphs import induced_subgraph

    sub, kept = induced_subgraph(g, vertices)
    ok, witness = is_2_choosable_reference(sub)
    return ok, None if ok else tuple(kept[v] for v in witness)


def minimal_obstruction_reference(g, removed):
    """``exact._minimal_obstruction`` on subgraphs: a triangle, else a shrink.

    The lexicographically first triangle of g minus ``removed``, read off
    its sorted edge list; when it has none, the shrink as it was, building
    a subgraph at every step.  Kept as a reference for the bitmask scan and
    shrink on vertex sets of ``g``, which must return the same tuple.
    """
    from choosability.graphs import delete_vertices, induced_subgraph

    rest, kept = delete_vertices(g, removed)
    edges = set(rest.edges)
    triangle = next(((u, v, w) for u, v in rest.edges for w in range(v + 1, rest.n)
                     if (u, w) in edges and (v, w) in edges), None)
    if triangle is not None:
        return tuple(kept[v] for v in triangle)
    ok, core = is_2_choosable_reference(rest)
    if ok:
        return None
    current = tuple(kept[v] for v in core)
    for v in current:
        if v not in current:
            continue
        sub, sub_kept = induced_subgraph(g, (u for u in current if u != v))
        ok, core = is_2_choosable_reference(sub)
        if not ok:
            current = tuple(sub_kept[u] for u in core)
    return current


def offending_component_reference(g, bits, core):
    """``exact._offending_component`` as it was, walking each component four times.

    A bitmask BFS finds the component; then its vertices are listed in
    ascending order, their degrees counted in a second pass, and the shape
    test scans them for hubs.  Kept as a reference for the single walk,
    which must return the same mask.
    """
    from choosability.exact import _members
    from choosability.recognition import KIND_OUTSIDE, _classify_component

    while core:
        comp = todo = core & -core
        while todo:
            low = todo & -todo
            todo ^= low
            new = bits[low.bit_length() - 1] & core & ~comp
            comp |= new
            todo |= new
        core ^= comp
        members = _members(comp)
        degree = {v: (bits[v] & comp).bit_count() for v in members}
        if _classify_component(members, g.adj, degree)[0] == KIND_OUTSIDE:
            return comp
    return 0


def vertex_set_corpus():
    """``(graph, vertex sets)`` pairs beyond the small labelled graphs.

    300 seeded G(n, p) with n = 4-14, each with five random vertex sets,
    then spiders, dumbbells, thetas, K_{2,n} and disjoint triangles, each
    with its whole vertex set, every set missing one vertex and 40 random
    sets.
    """
    import random

    from choosability.generators import gen_gnp

    rng = random.Random(1979)
    corpus = []
    for trial in range(300):
        g = gen_gnp(rng.randrange(4, 15), rng.choice([0.2, 0.3, 0.45]), seed=5000 + trial)
        corpus.append((g, [[v for v in range(g.n) if rng.random() < 0.7] for _ in range(5)]))
    triangles = Graph(12, [(3 * i + a, 3 * i + b) for i in range(4)
                           for a, b in ((0, 1), (1, 2), (0, 2))])
    shapes = ([spider_graph(k) for k in (2, 3, 4)]
              + [dumbbell_graph(3, 3, 2), dumbbell_graph(3, 5, 1), dumbbell_graph(4, 4, 2),
                 dumbbell_graph(5, 5, 3)]
              + [theta_graph(*paths) for paths in ((2, 2, 4), (2, 2, 5), (1, 3, 5), (2, 3, 3),
                                                   (3, 3, 3))]
              + [complete_bipartite(2, n) for n in (3, 4, 5, 6)] + [triangles])
    for g in shapes:
        sets = [list(range(g.n))] + [[u for u in range(g.n) if u != v] for v in range(g.n)]
        sets += [[v for v in range(g.n) if rng.random() < 0.75] for _ in range(40)]
        corpus.append((g, sets))
    return corpus


def brute_maximal_independent_sets(g):
    """All maximal independent sets, each sorted, in lexicographic order (bitmasks)."""
    nbrs = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    out = []
    for mask in range(1 << g.n):
        covered = mask
        for v in range(g.n):
            if mask >> v & 1:
                if nbrs[v] & mask:
                    break
                covered |= nbrs[v]
        else:
            if covered == (1 << g.n) - 1:
                out.append(tuple(v for v in range(g.n) if mask >> v & 1))
    return sorted(out)


def is_independent(g, vertices):
    inside = set(vertices)
    return not any(u in inside and v in inside for u, v in g.edges)


def multigraph_restrict(mg, vertices):
    """The former ``graphs.multigraph_restrict``: ``mg`` on ``vertices``, relabelled.

    New id i stands for the i-th smallest kept vertex, and counts and
    provenance are carried along.  Kept as the reference for
    ``preprocess(mg, vertices)``, which must contract what contracting this
    restriction contracts, and to relabel its result on its vertices.
    """
    kept = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(kept)}
    edges = [(index[u], index[v]) for u, v in multigraph_edges(mg)
             if u in index and v in index]
    return counted(len(kept), edges, [mg.provenance[v] for v in kept])


def random_multigraph(rng, n):
    """Random multigraph on n vertices where about one edge in five is doubled."""
    edges = []
    if n >= 2:
        for _ in range(rng.randrange(0, 2 * n + 1)):
            u, v = rng.sample(range(n), 2)
            edges += [(u, v)] * (2 if rng.random() < 0.2 else 1)
    return counted(n, edges)


def multigraph_delete(mg, drop):
    """The former ``graphs.multigraph_delete``: ``mg`` without ``drop``, relabelled."""
    dropped = set(drop)
    return multigraph_restrict(mg, (v for v in range(mg.n) if v not in dropped))


def approx_2_del_global(g):
    """The deletion heuristic re-contracting the whole graph every round.

    Kept as a reference for ``approx_2_del``'s rounds on one working
    multigraph with stable ids, re-contracted only around each deleted
    cycle, which must return the same set.  Each round's contraction is
    relabelled on its vertices in ascending order.
    """
    from choosability.approx import preprocess
    from choosability.errors import InternalCheckError
    from choosability.graphs import connected_components, delete_vertices, shortest_cycle
    from choosability.recognition import KIND_OUTSIDE, _classify_component, is_2_choosable

    def _contract_and_drop(mg):
        work = multigraph_restrict(*preprocess(mg))
        degree = [len(a) for a in work.adj]
        weights = counts(work)
        doomed = [v for comp in connected_components(work)
                  if _classify_component(comp, work.adj, degree, weights)[0] != KIND_OUTSIDE
                  for v in comp]
        return multigraph_delete(work, doomed) if doomed else work

    work = _contract_and_drop(g)
    chosen = []
    while work.n:
        cycle = shortest_cycle(work)
        if cycle is None:
            raise InternalCheckError("contracted graph is acyclic but non-empty")
        for v in cycle:
            chosen.append(work.provenance[v][0])
        work = _contract_and_drop(multigraph_delete(work, cycle))
    result = tuple(sorted(set(chosen)))
    if len(result) != len(chosen):
        raise InternalCheckError("expanded deletion picks collided")
    ok, _ = is_2_choosable(delete_vertices(g, result)[0])
    if not ok:
        raise InternalCheckError("deletion set does not leave a 2-choosable graph")
    return result
