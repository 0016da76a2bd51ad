"""Generators and verifiers for the hardness constructions.

Everything here builds plain graphs plus per-vertex role annotations so the
structural claims (vertex counts, embedded subgraph copies, decomposition
recipes) can be re-checked mechanically rather than trusted.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import ceil

from .errors import InternalCheckError
from .exact import Decomposition, decomposition_is_valid
from .graphs import MAX_GRAPH_VERTICES, Graph, coloring_is_proper
from .recognition import is_2_choosable, is_L_colorable


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF instance: clauses of exactly three distinct signed literals."""

    num_vars: int
    clauses: tuple

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if type(self.num_vars) is not int:
            raise ValueError("the number of variables %r is not an integer" % (self.num_vars,))
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        for idx, clause in enumerate(self.clauses, 1):
            if len(clause) != 3:
                raise ValueError("clause %d has %d literals; need exactly 3" % (idx, len(clause)))
            for lit in clause:
                if type(lit) is not int:
                    raise ValueError("literal %r of clause %d is not an integer" % (lit, idx))
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError("literal %d of clause %d out of range" % (lit, idx))
            if len(set(clause)) != 3:
                raise ValueError("clause %d repeats a literal" % idx)

    @property
    def num_clauses(self):
        return len(self.clauses)

    def to_dict(self):
        return {"num_vars": self.num_vars, "clauses": [list(c) for c in self.clauses]}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`, ignoring other keys; ValueError if missing or malformed."""
        try:
            return cls(data["num_vars"], tuple(tuple(c) for c in data["clauses"]))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError("missing or malformed formula record: %r" % (exc,)) from exc

    def satisfies(self, tau):
        tau = normalize_assignment(self, tau)
        return all(any(literal_true(lit, tau) for lit in clause) for clause in self.clauses)


def normalize_assignment(phi, tau):
    """The sequence of n truth values ``tau`` as a dict {var: bool}.

    A truth value is a ``bool`` or the int 0 or 1; anything else, such as
    the character ``"0"``, raises ValueError rather than being read by its
    truthiness.
    """
    values = list(tau)
    if len(values) != phi.num_vars:
        raise ValueError("assignment has %d values; need %d" % (len(values), phi.num_vars))
    for value in values:
        if type(value) not in (bool, int) or value not in (0, 1):
            raise ValueError("truth value %r is not a bool, 0 or 1" % (value,))
    return {i: bool(values[i - 1]) for i in range(1, phi.num_vars + 1)}


def literal_true(lit, tau):
    return tau[abs(lit)] if lit > 0 else not tau[abs(lit)]


def _check_order(n):
    """ValueError if a reduction's graph would have more than MAX_GRAPH_VERTICES vertices.

    Each builder calls it with the vertex count it reads from its input,
    before it allocates anything, so a few bytes of input cannot make it
    build a graph that no graph file can hold.
    """
    if n > MAX_GRAPH_VERTICES:
        raise ValueError("the reduction would have %d vertices; the limit is %d"
                         % (n, MAX_GRAPH_VERTICES))


@dataclass
class ReductionArtifact:
    """Output graph plus per-vertex role records and construction metadata."""

    kind: str
    graph: Graph
    roles: dict
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the 17-vertex constraint graph
# ---------------------------------------------------------------------------

P_LABELS = ("v1", "v2", "v3") + tuple("w%d" % t for t in range(1, 15))

P_EDGES_BY_LABEL = (
    ("w1", "w2"), ("w1", "w12"), ("w1", "w8"), ("w1", "w6"), ("w1", "v2"),
    ("w2", "v1"), ("w2", "w3"),
    ("w3", "w13"), ("w3", "v3"), ("w3", "w7"), ("w3", "w11"),
    ("v1", "w12"), ("v1", "w13"), ("v1", "w8"), ("v1", "w11"),
    ("v2", "w4"), ("v2", "w9"), ("v2", "w5"),
    ("v3", "w5"), ("v3", "w14"), ("v3", "w10"),
    ("w4", "w6"), ("w4", "w14"),
    ("w5", "w7"),
    ("w6", "w9"), ("w6", "w10"),
    ("w7", "w10"),
    ("w8", "w9"),
    ("w9", "w12"),
    ("w10", "w11"), ("w10", "w13"),
)

#: the unique maximal independent set containing {v1, v2, v3}
UNIQUE_EXTENSION_LABELS = ("v1", "v2", "v3", "w6", "w7")

#: independent extensions of every proper subset of {v1, v2, v3}, keyed by
#: the subset's slot numbers; each complement induces a 2-choosable graph
EXTENSION_TABLE = {
    frozenset(): ("w1", "w3", "w4", "w5", "w9", "w10"),
    frozenset({1}): ("v1", "w1", "w3", "w4", "w5", "w9", "w10"),
    frozenset({2}): ("v2", "w2", "w6", "w7", "w8", "w11", "w12", "w13"),
    frozenset({3}): ("v3", "w2", "w6", "w7", "w8", "w11", "w12", "w13"),
    frozenset({1, 2}): ("v1", "v2", "w3", "w10", "w14"),
    frozenset({1, 3}): ("v1", "v3", "w1", "w7", "w9"),
    frozenset({2, 3}): ("v2", "v3", "w2", "w6", "w7", "w12", "w13"),
}

#: the independent set whose members have exactly one neighbour among v1..v3
SINGLE_CONTACT_LABELS = ("w1", "w3", "w4", "w9", "w10")

ODD_CYCLE_LABELS = ("v2", "w5", "v3", "w14", "w4")

P_INDEX = {label: i for i, label in enumerate(P_LABELS)}


def constraint_graph_P():
    """The frozen 17-vertex, 31-edge constraint graph with label roles."""
    edges = [(P_INDEX[a], P_INDEX[b]) for a, b in P_EDGES_BY_LABEL]
    g = Graph(len(P_LABELS), edges)
    roles = {P_INDEX[lab]: {"role": "constraint-p", "label": lab} for lab in P_LABELS}
    return ReductionArtifact("constraint-p", g, roles)


def _maximal_independent_supersets(g, u):
    """Count the maximal independent sets containing u, up to 2, as ``(count, superset)``.

    For an independent U they are U + M with M maximal independent in
    G - N[U], so the count is 1 exactly when G - N[U] has no edge, and
    ``superset`` is then U + (V - N[U]); otherwise it is None.
    """
    bits = g.adj_bits()
    u = set(u)
    chosen = sum(1 << v for v in u)
    if any(bits[v] & chosen for v in u):
        return 0, None
    covered = chosen
    for v in u:
        covered |= bits[v]
    rest = [v for v in range(g.n) if not covered >> v & 1]
    free = sum(1 << v for v in rest)
    if any(bits[v] & free for v in rest):
        return 2, None
    return 1, tuple(sorted(u.union(rest)))


def verify_lemma_2_2(art):
    """Re-check the three structural claims about the constraint graph.

    (a) the listed odd 5-cycle exists; (b) the listed set is the unique
    maximal independent set containing {v1, v2, v3} and removing it leaves a
    graph that is not 2-choosable; (c) each tabulated extension is an
    independent set meeting {v1, v2, v3} exactly in its subset and its
    complement induces a 2-choosable graph.  Failures are report entries,
    not exceptions.
    """
    g = art.graph
    idx = P_INDEX
    report = {}

    cyc = [idx[lab] for lab in ODD_CYCLE_LABELS]
    closed = all(g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))
    report["odd_cycle"] = {
        "ok": closed and len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc),
        "cycle": list(ODD_CYCLE_LABELS),
    }

    u = {idx["v1"], idx["v2"], idx["v3"]}
    expected = tuple(sorted(idx[lab] for lab in UNIQUE_EXTENSION_LABELS))
    found, superset = _maximal_independent_supersets(g, u)
    remainder_ok, _ = is_2_choosable(g, [v for v in range(g.n) if v not in expected])
    report["unique_extension"] = {
        "ok": superset == expected and not remainder_ok,
        "extension": list(UNIQUE_EXTENSION_LABELS),
        "maximal_supersets_found": found,
        "core_outside_family": not remainder_ok,
    }

    entries = []
    for slots in sorted(EXTENSION_TABLE, key=lambda s: (len(s), sorted(s))):
        labels = EXTENSION_TABLE[slots]
        ext = {idx[lab] for lab in labels}
        independent = not any(a in ext and b in ext for a, b in g.edges)
        meets = ext & u == {idx["v%d" % r] for r in slots}
        rest_ok, _ = is_2_choosable(g, [v for v in range(g.n) if v not in ext])
        entries.append({
            "subset": sorted("v%d" % r for r in slots),
            "extension": list(labels),
            "independent": independent,
            "meets_subset_exactly": meets,
            "remainder_2_choosable": rest_ok,
            "ok": independent and meets and rest_ok,
        })
    report["extensions"] = entries
    report["ok"] = (report["odd_cycle"]["ok"] and report["unique_extension"]["ok"]
                    and all(e["ok"] for e in entries))
    return report


# ---------------------------------------------------------------------------
# the satisfiability-to-decomposition construction
# ---------------------------------------------------------------------------

def _h_layout(phi):
    n, k = phi.num_vars, phi.num_clauses
    rows = n + 14 * k

    def tid(s, row, col):
        return ((s - 1) * rows + (row - 1)) * 34 + (col - 1)

    def fid(s, row, col):
        return tid(s, row, col) + 17

    def dom(s, col):
        return 34 * rows * k + (s - 1) * 17 + (col - 1)

    d0 = 34 * rows * k + 17 * k
    return rows, tid, fid, dom, d0


def _rebuilt(art, kind):
    """``(phi, artifact)``: the ``kind`` reduction of ``art.meta.formula``, matched to ``art``.

    ``kind`` is ``sat3`` or ``planar3sat``.  For ``sat3`` the vertex count
    is checked first, and then ``art.graph.edges`` is compared with
    :func:`_h_edges`; no second graph or role table is built, and the
    artifact returned is None.  For ``planar3sat`` the reduction is built
    again (:func:`build_G_phi_p` with ``meta.p``, a positive integer) and
    returned.  ValueError unless the formula is valid and its reduction is
    ``art.graph``.  Nothing else of the sidecar is read: the solution
    builders take roles and gadget records from the rebuilt artifact or the
    formula.
    """
    phi = CnfFormula.from_dict(art.meta.get("formula"))
    if kind == "sat3":
        # H_phi is dense: a formula for another vertex count is not swept
        same = (phi.num_clauses >= 1 and _h_layout(phi)[-1] + 1 == art.graph.n
                and art.graph.edges == tuple(_h_edges(phi)))
        rebuilt = None
    else:
        p = art.meta.get("p")
        if type(p) is not int or p < 1:
            raise ValueError("meta.p must be a positive integer, not %r" % (p,))
        rebuilt = build_G_phi_p(phi, p)
        same = rebuilt.graph == art.graph
    if not same:
        raise ValueError("the graph is not the reduction of meta.formula; "
                         "was one of the files edited?")
    return phi, rebuilt


def _constraint_positions(phi, s):
    """Map constraint-graph labels to ``(row, col, on_false_side)`` in clause gadget s.

    ``v1..v3`` sit in the rows of the clause's variables, on the false side
    for a negated literal; ``w1..w14`` sit on the true side of the gadget's
    own block of 14 rows.
    """
    n = phi.num_vars
    pos = {"v%d" % r: (abs(lit), r, lit < 0) for r, lit in enumerate(phi.clauses[s - 1], 1)}
    for t in range(1, 15):
        pos["w%d" % t] = (n + 14 * (s - 1) + t, t + 3, False)
    return pos


def _identified_vertices(phi, s, tid, fid):
    """Map constraint-graph labels to vertex ids for clause gadget s."""
    return {lab: (fid if false else tid)(s, row, col)
            for lab, (row, col, false) in _constraint_positions(phi, s).items()}


def _h_edges(phi):
    """H_phi's edges as ``(u, v)`` pairs with ``u < v``, ascending and without repeats.

    One sweep over the vertices in id order (gadget by gadget, row by row,
    each row's true columns before its false ones, then the dominating row
    and the apex), each listing its larger neighbours in ascending order.  A
    true vertex meets the false vertices of its own block at the other
    columns, every false vertex of its row in later gadgets and its
    dominating vertex; a false vertex meets the true vertices of its row in
    later gadgets and its dominating vertex; a dominating vertex meets the
    apex.  Only the designated vertices of a constraint-graph copy have
    other neighbours, and theirs are merged in with ``sorted(set(...))``.
    """
    k = phi.num_clauses
    rows, tid, fid, dom, d0 = _h_layout(phi)
    extra = {}
    for s in range(1, k + 1):
        vmap = _identified_vertices(phi, s, tid, fid)
        for a, b in P_EDGES_BY_LABEL:
            x, y = sorted((vmap[a], vmap[b]))
            extra.setdefault(x, []).append(y)

    edges = []
    extend = edges.extend

    def emit(u, larger):
        if u in extra:
            larger = sorted(set(larger).union(extra[u]))
        extend(zip(repeat(u), larger))

    gadget = 34 * rows
    for s in range(1, k + 1):
        doms = range(dom(s, 1), dom(s, 1) + 17)
        for row in range(1, rows + 1):
            base = tid(s, row, 1)
            later_true = [t for b in range(base + gadget, gadget * k, gadget)
                          for t in range(b, b + 17)]
            later_false = [t + 17 for t in later_true]
            own_false = range(base + 17, base + 34)
            for c in range(17):
                emit(base + c, [*own_false[:c], *own_false[c + 1:], *later_false, doms[c]])
            for c in range(17):
                emit(base + 17 + c, [*later_true, doms[c]])
    for d in range(dom(1, 1), d0):
        emit(d, [d0])
    return edges


def build_H_phi(phi):
    """Array-of-rows satisfiability graph with embedded constraint copies.

    One gadget per clause: n + 14k paired rows of 17 columns (a true and a
    false vertex per position) plus a dominating row; each global row of the
    merged graph induces a complete bipartite graph between true and false
    vertices minus the pairing; an apex vertex is adjacent to the whole
    dominating row; each gadget carries one relabelled copy of the
    constraint graph on its designated vertices.  The edges come from
    :func:`_h_edges`, which is also what :func:`_rebuilt` compares a
    ``sat3`` artifact's graph with.
    """
    n, k = phi.num_vars, phi.num_clauses
    if k < 1:
        raise ValueError("need at least one clause")
    rows, tid, fid, dom, d0 = _h_layout(phi)
    _check_order(d0 + 1)
    positions = [(s, c) for s in range(1, k + 1) for c in range(1, 18)]

    roles = {}
    label_of = {}
    for s in range(1, k + 1):
        for lab, vid in _identified_vertices(phi, s, tid, fid).items():
            label_of[vid] = lab
    for row in range(1, rows + 1):
        in_variable_block = row <= n
        for s, c in positions:
            block = None if in_variable_block else (row - n - 1) // 14 + 1
            block_row = None if in_variable_block else (row - n - 1) % 14 + 1
            for vid, side in ((tid(s, row, c), "true"), (fid(s, row, c), "false")):
                rec = {"role": ("variable-" if in_variable_block else "clause-") + side,
                       "gadget": s, "row": row, "col": c}
                if not in_variable_block:
                    rec["block"] = block
                    rec["block_row"] = block_row
                if vid in label_of:
                    rec["p_label"] = label_of[vid]
                roles[vid] = rec
    for s, c in positions:
        roles[dom(s, c)] = {"role": "dominating", "gadget": s, "col": c}
    roles[d0] = {"role": "d0"}

    g = Graph(d0 + 1, _h_edges(phi))
    meta = {"formula": phi.to_dict(), "n": n, "k": k, "rows": rows}
    return ReductionArtifact("sat3", g, roles, meta)


def H_phi_four_coloring(art):
    """Row-uniform proper 4-coloring of H_phi.

    Every paired row colors its true and false sides uniformly with
    distinct colors from {1, 2, 3}, the dominating row gets 4 and the apex
    1.  The row colors are a 3-list coloring of the row graph, which has one
    vertex per row side (``2 * (row - 1)`` the true side, the next id the
    false side), an edge between the two sides of each row, and one edge
    per constraint-graph edge of each gadget.  Returns ``(assignment,
    details)`` with ``details["row_pairs"]`` mapping each row to its (true,
    false) colors; failure to find any row-uniform coloring raises
    InternalCheckError.  The row and side of each constraint-graph vertex
    come from the formula, whose reduction :func:`_rebuilt` has matched to
    the graph; the role records are not read.
    """
    phi, _ = _rebuilt(art, "sat3")
    rows, tid, fid, dom, d0 = _h_layout(phi)
    k = phi.num_clauses

    edges = [(2 * r, 2 * r + 1) for r in range(rows)]
    for s in range(1, k + 1):
        side = {lab: 2 * (row - 1) + false
                for lab, (row, _, false) in _constraint_positions(phi, s).items()}
        edges.extend((side[a], side[b]) for a, b in P_EDGES_BY_LABEL)
    ok, colors = is_L_colorable(Graph(2 * rows, edges),
                                dict.fromkeys(range(2 * rows), (1, 2, 3)))
    if not ok:
        raise InternalCheckError("no row-uniform 4-coloring exists")
    row_pairs = {row: (colors[2 * row - 2], colors[2 * row - 1])
                 for row in range(1, rows + 1)}

    assignment = {d0: 1}
    for s in range(1, k + 1):
        for c in range(1, 18):
            assignment[dom(s, c)] = 4
            for row, (y, z) in row_pairs.items():
                assignment[tid(s, row, c)] = y
                assignment[fid(s, row, c)] = z
    if not coloring_is_proper(art.graph, assignment):
        raise InternalCheckError("row-uniform coloring failed the edge re-check")
    return assignment, {"row_pairs": row_pairs}


def decomposition_from_assignment(art, tau):
    """Build the decomposition induced by a satisfying assignment.

    The apex joins A; a variable row sends the side matching the assignment
    to B and the mates to A; in each gadget the designated vertices of the
    false literals are extended via the tabulated independent set, and every
    designated row follows its designated vertex.  Only ``meta.formula`` is
    read, and the graph must be its reduction (:func:`_rebuilt`); the result
    is re-checked with :func:`decomposition_is_valid` before being returned.
    """
    phi, _ = _rebuilt(art, "sat3")
    rows, tid, fid, dom, d0 = _h_layout(phi)
    tau = normalize_assignment(phi, tau)
    if not phi.satisfies(tau.values()):
        raise ValueError("assignment does not satisfy the formula")
    n, k = phi.num_vars, phi.num_clauses

    # per global row: which side goes to A
    a_side = {}
    for i in range(1, n + 1):
        a_side[i] = "false" if tau[i] else "true"
    for s in range(1, k + 1):
        clause = phi.clauses[s - 1]
        false_slots = frozenset(r for r, lit in enumerate(clause, 1)
                                if not literal_true(lit, tau))
        extension = set(EXTENSION_TABLE[false_slots])
        for t in range(1, 15):
            row = n + 14 * (s - 1) + t
            a_side[row] = "true" if ("w%d" % t) in extension else "false"

    a = {d0}
    for s in range(1, k + 1):
        for row in range(1, rows + 1):
            pick = tid if a_side[row] == "true" else fid
            for c in range(1, 18):
                a.add(pick(s, row, c))

    return _rechecked(art.graph, a)


def _rechecked(g, a):
    """The decomposition (A, V - A) of ``g``, re-checked with ``decomposition_is_valid``.

    The callers build A on the graph that :func:`_rebuilt` has matched to
    the formula, so a failed re-check is a fault in the construction, an
    InternalCheckError.
    """
    decomp = Decomposition(tuple(sorted(a)), tuple(v for v in range(g.n) if v not in a))
    if not decomposition_is_valid(g, decomp):
        raise InternalCheckError("constructed solution failed decomposition_is_valid")
    return decomp


# ---------------------------------------------------------------------------
# the inapproximability gadgets
# ---------------------------------------------------------------------------

class _ArtifactBuilder:
    def __init__(self):
        self.roles = {}
        self.edges = set()
        self.edge_records = []
        self.gadget_records = []

    def vertex(self, **record):
        vid = len(self.roles)
        self.roles[vid] = record
        return vid

    def edge(self, u, v):
        self.edges.add((u, v) if u < v else (v, u))

    def artifact(self, kind, **meta):
        g = Graph(len(self.roles), sorted(self.edges))
        meta = dict(meta, edge_gadgets=self.edge_records,
                    forbidden_gadgets=self.gadget_records)
        return ReductionArtifact(kind, g, self.roles, meta)


def _add_forbidden(builder, p, root, gadget_id):
    """Attach a root-core edge plus p+1 four-cycle petals sharing the core."""
    if p < 1:
        raise ValueError("petal parameter p must be >= 1")
    builder.roles[root]["roots_gadget"] = gadget_id
    core = builder.vertex(role="gadget-core", gadget=gadget_id)
    builder.edge(root, core)
    for petal in range(p + 1):
        a = builder.vertex(role="petal", gadget=gadget_id, petal=petal)
        b = builder.vertex(role="petal", gadget=gadget_id, petal=petal)
        c = builder.vertex(role="petal", gadget=gadget_id, petal=petal)
        builder.edge(core, a)
        builder.edge(a, b)
        builder.edge(b, c)
        builder.edge(c, core)
    builder.gadget_records.append({"gadget": gadget_id, "root": root, "core": core, "p": p})
    return core


def build_forbidden_gadget(p):
    """Standalone forbidden gadget on exactly 3p+5 vertices (fresh root)."""
    _check_order(3 * p + 5)
    builder = _ArtifactBuilder()
    root = builder.vertex(role="gadget-root")
    _add_forbidden(builder, p, root, "standalone")
    return builder.artifact("forbidden-gadget", p=p, root=root)


def _add_clause_gadget(builder, p, j):
    """Hexagon w1 c2 w2 c1 w3 c3 with chord w1-c1; forbidden gadget on each w."""
    c = {r: builder.vertex(role="hexagon-c", clause=j, slot=r) for r in (1, 2, 3)}
    w = {r: builder.vertex(role="hexagon-w", clause=j, slot=r) for r in (1, 2, 3)}
    ring = (w[1], c[2], w[2], c[1], w[3], c[3])
    for i, u in enumerate(ring):
        builder.edge(u, ring[(i + 1) % 6])
    builder.edge(w[1], c[1])
    for r in (1, 2, 3):
        _add_forbidden(builder, p, w[r], ("clause", j, r))
    return c, w


def build_clause_gadget_planar(p):
    """Standalone clause gadget on 9p+18 vertices."""
    _check_order(9 * p + 18)
    builder = _ArtifactBuilder()
    c, w = _add_clause_gadget(builder, p, 1)
    return builder.artifact("clause-gadget", p=p,
                            c_vertices=[c[r] for r in (1, 2, 3)],
                            w_vertices=[w[r] for r in (1, 2, 3)])


def _add_edge_gadget(builder, kind, p, x, c, edge_id):
    """Wire one variable-to-clause connection; endpoints already exist."""
    eid = list(edge_id)
    if kind == "positive":
        blacks = [builder.vertex(role="edge-plain", edge=eid) for _ in range(10)]
        b1, b2, b3, b4, b5, b6, b7, b8, b9, b10 = blacks
        r1 = builder.vertex(role="edge-red", edge=eid)
        mid = builder.vertex(role="edge-blue", edge=eid)
        r2 = builder.vertex(role="edge-red", edge=eid)
        for u, v in ((c, b1), (b1, b2), (b2, r1), (r1, b3), (b3, b4), (b4, c),
                     (r1, b5), (b5, b6), (b6, mid), (mid, r2),
                     (r2, b7), (b7, b8), (b8, mid), (b7, r1),
                     (r2, b9), (b9, b10), (b10, x), (x, r2),
                     (mid, r1), (r1, c), (b6, b9)):
            builder.edge(u, v)
        blue, red = [c, mid, x], [r1, r2]
    elif kind == "negative":
        blacks = [builder.vertex(role="edge-plain", edge=eid) for _ in range(4)]
        n1, n2, n3, n4 = blacks
        for u, v in ((c, n1), (n1, n2), (n2, x), (x, n3), (n3, n4), (n4, c), (c, x)):
            builder.edge(u, v)
        blue, red = [c], [x]
    else:
        raise ValueError("edge gadget kind must be 'positive' or 'negative'")
    for serial, b in enumerate(blacks):
        _add_forbidden(builder, p, b, ("edge", *edge_id, serial))
    builder.edge_records.append({
        "edge": eid, "kind": kind, "x": x, "c": c, "blue": blue, "red": red,
        "blacks": blacks,
    })


def build_edge_gadget(kind, p):
    """Standalone edge gadget with fresh endpoints: 30p+55 vertices if positive, else 12p+22."""
    _check_order(30 * p + 55 if kind == "positive" else 12 * p + 22)
    builder = _ArtifactBuilder()
    x = builder.vertex(role="variable", var=1)
    c = builder.vertex(role="hexagon-c", clause=1, slot=1)
    _add_edge_gadget(builder, kind, p, x, c, (1, 1))
    return builder.artifact("edge-gadget", p=p, kind_detail=kind, x=x, c=c)


def build_G_phi_p(phi, p):
    """Replace clause vertices by clause gadgets and incidences by edge gadgets.

    Attachment point r of clause j receives the clause's r-th literal; the
    connection is a positive or negative gadget per the literal's polarity,
    sharing the variable vertex and the hexagon attachment vertex.  No other
    attachment order is needed for a planar embedding: c1, c2 and c3 lie on
    one face of the clause gadget, so their two cyclic orders are mirror
    images, and each gadget can be reflected to match the order that a planar
    embedding of the variable-clause graph puts on the clause's three edges.
    """
    if p < 1:
        raise ValueError("petal parameter p must be >= 1")
    forbidden = 3 * p + 4                  # a forbidden gadget's core and petals
    _check_order(phi.num_vars + phi.num_clauses * (6 + 3 * forbidden)
                 + sum(13 + 10 * forbidden if lit > 0 else 4 + 4 * forbidden
                       for clause in phi.clauses for lit in clause))
    builder = _ArtifactBuilder()
    xs = {i: builder.vertex(role="variable", var=i) for i in range(1, phi.num_vars + 1)}
    for j, clause in enumerate(phi.clauses, 1):
        c, _ = _add_clause_gadget(builder, p, j)
        for r, lit in enumerate(clause, 1):
            kind = "positive" if lit > 0 else "negative"
            _add_edge_gadget(builder, kind, p, xs[abs(lit)], c[r], (j, r))
    return builder.artifact("planar3sat", p=p, formula=phi.to_dict())


def deletion_set_from_assignment(art, tau):
    """Independent deletion set induced by a satisfying assignment.

    Takes every forbidden-gadget core, the blue vertices of positive
    connections whose variable is true (red otherwise), and per negative
    connection the red vertex when the variable is true (blue otherwise).
    Only ``meta.formula`` and ``meta.p`` are read, and the graph must be
    their reduction (:func:`_rebuilt`); the gadget records and roles are
    those of the rebuilt artifact.  The set is re-checked with
    :func:`decomposition_is_valid` before being returned.
    """
    phi, rebuilt = _rebuilt(art, "planar3sat")
    tau = normalize_assignment(phi, tau)
    if not phi.satisfies(tau.values()):
        raise ValueError("assignment does not satisfy the formula")
    a = {record["core"] for record in rebuilt.meta["forbidden_gadgets"]}
    for record in rebuilt.meta["edge_gadgets"]:
        var = rebuilt.roles[record["x"]]["var"]
        a.update(record["blue"] if tau[var] == (record["kind"] == "positive")
                 else record["red"])
    return _rechecked(art.graph, a).a


def compute_paper_p(k, epsilon):
    """Petal parameter (280k)^ceil((2-eps)/eps) as an exact integer.

    ``k`` is an int of at least 1 (a ``bool`` is refused).  ``epsilon`` may
    be a Fraction, int, or float in (0, 1]; floats are snapped to the
    nearest small fraction so exact ceilings survive.
    """
    if type(k) is not int or k < 1:
        raise ValueError("k must be an integer of at least 1, not %r" % (k,))
    if isinstance(epsilon, float):
        epsilon = Fraction(epsilon).limit_denominator(1_000_000)
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    exponent = ceil((2 - epsilon) / epsilon)
    return (280 * k) ** exponent


def triangle_reduction(g):
    """Copy of g plus one new vertex per edge forming a triangle with it."""
    _check_order(g.n + g.m)
    edges = list(g.edges)
    new_edges = list(edges)
    roles = {v: {"role": "original", "source": v} for v in range(g.n)}
    for i, (u, v) in enumerate(edges):
        ve = g.n + i
        roles[ve] = {"role": "edge-vertex", "source": [u, v]}
        new_edges.append((u, ve))
        new_edges.append((v, ve))
    out = Graph(g.n + len(edges), new_edges)
    return ReductionArtifact("vc-triangle", out, roles,
                             {"n": g.n, "m": len(edges)})
