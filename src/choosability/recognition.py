"""Recognition of 2-choosable graphs and the exhaustive choosability oracle.

The fast path classifies the core (the graph left after repeatedly deleting
degree-1 vertices) per connected component: a graph is 2-choosable exactly
when every core component is a single vertex, an even cycle C_{2m+2}, or a
theta graph with path lengths 2, 2, 2m.  The slow path enumerates k-list
assignments up to color renaming and checks each one; it is deliberately
independent of the classification so the two can cross-check each other.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import Budget, BudgetExceededError
from .graphs import _components, _peel, induced_subgraph

KIND_K1 = "K1"
KIND_EVEN_CYCLE = "even-cycle"
KIND_THETA = "theta-2-2-even"
KIND_OUTSIDE = "outside"

#: default size cap per k for full oracle enumeration ("true" verdicts)
_ORACLE_CAPS = {1: 10, 2: 6}


@dataclass(frozen=True)
class CoreClassification:
    """Verdict for one core component.

    ``kind`` is one of KIND_K1, KIND_EVEN_CYCLE (C_{2m+2}), KIND_THETA
    (theta_{2,2,2m}) or KIND_OUTSIDE; ``m`` carries the cycle/theta
    parameter, ``vertices`` the component in the classified graph's ids.
    """

    kind: str
    m: int | None
    vertices: tuple

    @property
    def in_family(self):
        return self.kind != KIND_OUTSIDE


def compute_core(g):
    """Repeatedly delete degree-1 vertices.

    Returns ``(core, kept)`` where ``kept`` maps the core's dense ids back
    to ``g``'s ids.  The core's edges are independent of removal order; a
    tree component leaves one vertex, and which one depends on the order
    of :func:`~choosability.graphs._peel`.  Isolated vertices survive as
    K1 components.
    """
    return induced_subgraph(g, _peel(g)[0])


def classify_core(g):
    """Classify every component of the core of ``g``, in ``g``'s own ids.

    Takes any graph: ``g`` is peeled as :func:`compute_core` peels it, with
    no core graph built, and each core component is classified by its
    vertices' degrees inside the core.  Components come ordered by smallest
    vertex; on a core the result is that of classifying ``g`` as it is.
    """
    core, degree = _peel(g)
    return [CoreClassification(*_classify_component(comp, g.adj, degree), comp)
            for comp in _components(g, core)]


def _classify_component(comp, adj, degree, counts=None):
    """``(kind, m)`` of one core component, from its vertices' degrees in the core.

    ``comp`` is the component's vertices in any order (the result does not
    depend on it), ``adj`` the adjacency of a graph it is induced in, and
    ``degree[v]`` the degree of each of its vertices inside the core.  On a
    contracted multigraph (see :func:`~choosability.approx.preprocess`),
    ``adj`` lists one entry per edge and ``counts[v]`` is the number of
    original vertices ``v`` stands for; None means a count of 1 each.  The
    order is the summed count.
    """
    n = len(comp)
    if n == 1:
        return KIND_K1, None
    if counts is not None:
        n = sum(counts[v] for v in comp)
    hubs = [v for v in comp if degree[v] != 2]
    if not hubs:
        # connected and all degree 2: the cycle C_n, contracted or not
        if n % 2 == 0:
            return KIND_EVEN_CYCLE, (n - 2) // 2
    elif len(hubs) == 2 and n % 2 == 1 and degree[hubs[0]] == degree[hubs[1]] == 3:
        # two degree-3 hubs, the rest degree 2: a theta or a dumbbell.  A
        # dumbbell's hubs share at most one neighbour, so two uncontracted
        # common neighbours make a theta with paths 2, 2 and n - 3; an odd
        # n rules out a hub-hub edge.  A contraction leaves hubs uncounted.
        a, b = hubs
        common = set(adj[a]).intersection(adj[b], comp)
        if counts is not None:
            if counts[a] != 1 or counts[b] != 1:
                return KIND_OUTSIDE, None
            common = [v for v in common if counts[v] == 1]
        if len(common) >= 2:
            return KIND_THETA, (n - 3) // 2
    return KIND_OUTSIDE, None


def is_2_choosable(g, vertices=None):
    """Core-classification test for 2-choosability of ``G[vertices]``.

    ``vertices`` defaults to all of ``g``.  The induced graph is peeled and
    split into core components in ``g``'s own ids, with no subgraph built;
    an id outside 0..n-1 raises ValueError.  Applied per connected component
    (lists never interact across components).  Returns ``(True, None)`` or
    ``(False, witness)`` where ``witness`` is the first core component
    outside the family, by smallest vertex, as a sorted tuple of ``g``'s
    vertex ids.
    """
    core, degree = _peel(g, vertices)
    for comp in _components(g, core):
        if _classify_component(comp, g.adj, degree)[0] == KIND_OUTSIDE:
            return False, comp
    return True, None


def is_L_colorable(g, lists, budget=None):
    """Backtracking search for a proper coloring drawing each color from its list.

    The package's one coloring search; a proper k-coloring is the case where
    every list is ``1..k``.  Vertices are colored in ascending id order,
    each list tried in ascending order.  ``lists`` maps every vertex to a
    non-empty collection of colors.  Returns ``(True, coloring)`` or
    ``(False, None)``; one budget unit is charged per step, forward or back,
    and BudgetExceededError is raised when the budget runs out, with the
    vertex being colored added to its ``stats`` as ``vertex``.
    """
    ordered = []
    for v in range(g.n):
        if v not in lists or not lists[v]:
            raise ValueError("vertex %d has no color list" % v)
        ordered.append(tuple(sorted(set(lists[v]))))
    bud = Budget.ensure(budget)
    earlier = [[u for u in g.adj[v] if u < v] for v in range(g.n)]
    chosen = [0] * g.n
    tried = [0] * g.n       # list entries of each vertex tried so far
    v = 0
    try:
        while 0 <= v < g.n:
            bud.charge(stage="list-coloring")
            for i in range(tried[v], len(ordered[v])):
                c = ordered[v][i]
                if all(chosen[u] != c for u in earlier[v]):
                    chosen[v] = c
                    tried[v] = i + 1
                    v += 1
                    break
            else:
                tried[v] = 0
                v -= 1
    except BudgetExceededError as exc:
        exc.stats["vertex"] = v
        raise
    if v < 0:
        return False, None
    return True, {u: chosen[u] for u in range(g.n)}


def is_k_choosable_exhaustive(g, k, budget=None, cap=None):
    """Exhaustive k-choosability oracle, independent of the core classification.

    Enumerates k-list assignments canonically up to color renaming (vertices
    in ascending id order; a new color may only be introduced as the smallest
    unused integer) and checks colorability of each.  Returns ``(True, None)``
    or ``(False, assignment)`` with a non-colorable witness assignment.

    A "false" answer short-circuits and therefore scales beyond the size cap;
    a "true" answer requires n within the cap (default 6 for k=2).  Raises
    BudgetExceededError when the budget runs out, with the number of
    complete assignments checked added to its ``stats`` as ``assignments``.
    The count is kept in a local and put on the error only then, so a node
    costs one plain ``charge``.

    While vertex d is listed, its *frontier* is the set of vertices before d
    that still have a neighbour at d or later.  Each search frame keeps the
    feasible colorings of the listed prefix projected onto that frontier, as
    a set, so colorings that differ only on finished vertices collapse.  A
    frame whose lists are all tried without a witness records the key
    ``(depth, used, projected colorings)`` in a per-call set, and a child
    whose key is recorded is skipped.  This is exact: the subtree below a
    frame depends only on its key, since ``used`` fixes which lists the
    later vertices are offered and no later vertex reads a color outside
    the frontier.  A skipped subtree is therefore one already proven to
    hold no uncolorable assignment, and since the enumeration order is
    unchanged the first witness found is the same as without the memo.

    When a frame is pushed, its colorings are grouped once by their
    projection onto the next frontier, and each such base is paired with
    its *blocked* colors: those that some earlier neighbour of the vertex
    has under every coloring with that base.  A list then extends a base
    by each of its colors outside the blocked set, so trying a list costs
    one set build over the bases instead of a walk over every coloring.
    The extended sets are the same as those of the walk, so node counts,
    budget charges and witnesses are unchanged.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if cap is None:
        cap = _ORACLE_CAPS.get(k, 4)
    bud = Budget.ensure(budget)
    if g.n > cap and bud.limit is None:
        raise ValueError(
            "n=%d exceeds the cap %d for full enumeration; pass a budget to "
            "hunt for a counterexample anyway" % (g.n, cap))
    assignments = 0     # complete assignments checked, for a budget error
    # per depth d: the positions in d's frontier of d's earlier neighbours
    # and of the vertices still in the next frontier, and whether d joins it
    plan = []
    front = []      # ascending frontier of the vertex being planned
    for d in range(g.n):
        last = [g.adj[u][-1] for u in front]
        joins = bool(g.adj[d]) and g.adj[d][-1] > d
        plan.append(([front.index(u) for u in g.adj[d] if u < d],
                     [i for i, w in enumerate(last) if w > d], joins))
        front = [u for u, w in zip(front, last) if w > d]
        if joins:
            front.append(d)
    lists = []      # the list of every vertex before the one being listed
    candidates_after = {}   # colors used so far -> the next vertex's lists
    done = set()    # keys of frames proven to hold no witness
    # depth-first with an explicit stack, one frame per listed vertex:
    # (key, untried lists, blocked colors per base), the key being (depth,
    # colors used so far, feasible colorings of the prefix projected onto
    # the frontier)
    root = frozenset([()])
    stack = ([((0, 0, root), iter(_canonical_lists(0, k)), _blocked(root, *plan[0][:2]))]
             if g.n else [])
    try:
        while stack:
            key, candidates, pairs = stack[-1]
            d, used = key[:2]
            joins = plan[d][2]
            for lst in candidates:
                bud.charge(stage="oracle")
                lists.append(lst)
                if joins:
                    extended = {base + (c,) for base, blk in pairs for c in lst if c not in blk}
                else:
                    extended = {base for base, blk in pairs if not blk.issuperset(lst)}
                if not extended:
                    # the prefix is already uncolorable; complete it with fresh colors
                    used = max(used, lst[-1])
                    witness = dict(enumerate(lists))
                    for v in range(len(lists), g.n):
                        witness[v] = tuple(range(used + 1, used + k + 1))
                        used += k
                    return False, witness
                if len(lists) < g.n:
                    child_used = max(used, lst[-1])
                    child = (d + 1, child_used, frozenset(extended))
                    if child not in done:
                        if child_used not in candidates_after:
                            candidates_after[child_used] = _canonical_lists(child_used, k)
                        stack.append((child, iter(candidates_after[child_used]),
                                      _blocked(extended, *plan[d + 1][:2])))
                        break
                else:
                    assignments += 1
                lists.pop()
            else:
                done.add(key)
                stack.pop()
                if lists:
                    lists.pop()
    except BudgetExceededError as exc:
        exc.stats["assignments"] = assignments
        raise
    return True, None


def _blocked(colorings, nbrs, keep):
    """The colors each projected base of a frame's colorings bars its vertex from.

    Groups ``colorings`` by their base, the colors at the positions ``keep``,
    and pairs each base with the intersection, over its colorings, of the
    colors at the positions ``nbrs`` (the vertex's earlier neighbours): a
    color in it clashes under every coloring with that base, and a color
    outside it is free under at least one.
    """
    blocked = {}
    for coloring in colorings:
        base = tuple([coloring[i] for i in keep])
        seen = {coloring[i] for i in nbrs}
        if base in blocked:
            blocked[base] &= seen
        else:
            blocked[base] = seen
    return list(blocked.items())


def _canonical_lists(used, k):
    """The k-lists of the next vertex up to renaming of the unused colors.

    Old colors come from 1..used, new ones are the smallest unused
    integers; lists come by ascending count of new colors, then
    lexicographically.
    """
    return [old_part + tuple(range(used + 1, used + n_new + 1))
            for n_new in range(k + 1)
            for old_part in combinations(range(1, used + 1), k - n_new)]


def format_list_assignment(lists):
    """Serialize a list assignment as lines ``v: c1 c2 ...`` with 1-based ids."""
    out = []
    for v in sorted(lists):
        out.append("%d: %s" % (v + 1, " ".join(str(c) for c in sorted(lists[v]))))
    return "\n".join(out)


def parse_list_assignment(text):
    """Inverse of :func:`format_list_assignment`."""
    lists = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        v = int(head) - 1
        lists[v] = tuple(int(tok) for tok in tail.split())
    return lists
