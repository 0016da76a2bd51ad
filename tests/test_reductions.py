import copy
import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import networkx as nx
import pytest

from choosability.dimacs import write_artifact
from choosability.exact import decomposition_is_valid
from choosability.generators import gen_formula
from choosability.graphs import (coloring_is_proper, delete_vertices, diameter,
                                 is_bipartite, is_triangle_free)
from choosability import reductions
from choosability.recognition import is_2_choosable, is_L_colorable
from choosability.reductions import (P_EDGES_BY_LABEL, P_INDEX, P_LABELS,
                                     SINGLE_CONTACT_LABELS,
                                     CnfFormula, build_G_phi_p, build_H_phi,
                                     build_clause_gadget_planar,
                                     build_edge_gadget, build_forbidden_gadget,
                                     compute_paper_p, constraint_graph_P,
                                     decomposition_from_assignment,
                                     deletion_set_from_assignment,
                                     H_phi_four_coloring, _maximal_independent_supersets,
                                     triangle_reduction, verify_lemma_2_2)

from conftest import (brute_maximal_independent_sets, cycle_graph, graph_classes,
                      graph_reference, h_phi_reference, is_independent)


def all_assignments(n):
    return [bits for bits in product((False, True), repeat=n)]


def satisfying(phi):
    return [bits for bits in all_assignments(phi.num_vars) if phi.satisfies(bits)]


class TestCnfFormula:
    def test_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            CnfFormula(3, [(1, 1, 2)])
        with pytest.raises(ValueError, match="out of range"):
            CnfFormula(2, [(1, 2, 3)])
        with pytest.raises(ValueError, match="exactly 3"):
            CnfFormula(3, [(1, 2)])
        with pytest.raises(ValueError, match="not an integer"):
            CnfFormula(3.0, [(1, 2, 3)])
        with pytest.raises(ValueError, match="not an integer"):
            CnfFormula(3, [(True, 2, 3)])

    def test_truth_values_are_bools_or_zero_and_one(self):
        phi = CnfFormula(3, [(1, 2, -3)])
        assert phi.satisfies((0, 0, 0)) and phi.satisfies((False, True, 1))
        assert not phi.satisfies((0, 0, 1)) and not phi.satisfies((False, False, True))
        # a string's characters are all truthy, so "001" used to read as (1, 1, 1)
        for bad in ("001", "000", (0, 0, 2), (0, 0, -1), (0.0, 0, 1), (0, None, 1)):
            with pytest.raises(ValueError, match="is not a bool, 0 or 1"):
                phi.satisfies(bad)

    def test_complementary_literals_allowed(self):
        phi = CnfFormula(2, [(1, -1, 2)])
        assert phi.satisfies((False, False))

    def test_roundtrip_dict(self):
        phi = CnfFormula(4, [(1, -2, 3), (2, 3, -4)])
        assert CnfFormula.from_dict(phi.to_dict()) == phi
        # other keys are ignored, such as the clause rotations of older records
        old = dict(phi.to_dict(), rotation=[[2, 1, 3], [1, 2, 3]])
        assert CnfFormula.from_dict(old) == phi


class TestConstraintGraph:
    def test_counts(self):
        art = constraint_graph_P()
        assert art.graph.n == 17
        assert len(art.graph.edges) == 31

    def test_not_bipartite(self):
        assert not is_bipartite(constraint_graph_P().graph)[0]

    def test_triangle_free(self):
        assert is_triangle_free(constraint_graph_P().graph)[0]

    def test_lemma_report_all_pass(self):
        report = verify_lemma_2_2(constraint_graph_P())
        assert report["ok"]
        assert report["odd_cycle"]["ok"]
        assert report["unique_extension"]["ok"]
        assert all(entry["ok"] for entry in report["extensions"])
        assert len(report["extensions"]) == 7

    def test_maximal_independent_supersets_match_enumeration(self):
        for n in range(1, 7):
            for g in graph_classes(n):
                mis_list = brute_maximal_independent_sets(g)
                for size in range(4):
                    for u in combinations(range(n), size):
                        found = [m for m in mis_list if set(u) <= set(m)]
                        expected = (min(len(found), 2), found[0] if len(found) == 1 else None)
                        assert _maximal_independent_supersets(g, u) == expected

    def test_single_contact_set(self):
        g = constraint_graph_P().graph
        s = [P_INDEX[lab] for lab in SINGLE_CONTACT_LABELS]
        assert is_independent(g, s)
        u = {P_INDEX["v1"], P_INDEX["v2"], P_INDEX["v3"]}
        for v in s:
            assert len([w for w in g.adj[v] if w in u]) == 1

    def test_roles_carry_labels(self):
        art = constraint_graph_P()
        assert art.roles[P_INDEX["w14"]] == {"role": "constraint-p", "label": "w14"}
        assert sorted(P_LABELS) == sorted(r["label"] for r in art.roles.values())


def seeded_formula(seed):
    """A formula on 3 + seed % 4 variables with 1 + seed // 2 % 4 clauses.

    Each clause negates its last literal, and each after the first shares
    its first variable with the clause before it.
    """
    rng = random.Random(seed)
    num_vars, k = 3 + seed % 4, 1 + seed // 2 % 4
    clauses = []
    for _ in range(k):
        shared = [abs(clauses[-1][0])] if clauses else []
        others = [v for v in range(1, num_vars + 1) if v not in shared]
        first, second, third = shared + rng.sample(others, 3 - len(shared))
        clauses.append((rng.choice((first, -first)), rng.choice((second, -second)), -third))
    return CnfFormula(num_vars, clauses)


class TestHPhi:
    @pytest.mark.parametrize("phi", [seeded_formula(seed) for seed in range(8)]
                             + [CnfFormula(3, [(1, -1, 2), (-2, 2, 3)])],
                             ids=lambda phi: str(phi.clauses))
    def test_sweep_matches_the_set_based_builder(self, phi):
        n, edges, roles = h_phi_reference(phi)
        art = build_H_phi(phi)
        assert art.graph.n == n
        assert art.graph.edges == tuple(edges)
        assert art.graph.adj == graph_reference(n, edges)[1]
        assert art.roles == roles
        assert reductions._h_edges(phi) == edges

    # the files that the set-based builder (conftest.h_phi_reference) wrote
    @pytest.mark.parametrize("phi, graph_sha, roles_sha", [
        (CnfFormula(3, [(1, 2, -3)]),
         "cf3fc5e17bf53c08079e9e838f41a291f80a9c5c4878fb48b622cc892e38a13b",
         "6ebc5301ef91cf8293e78451c37e68b969adf1fb428f45750ce2b9bd0ec6a165"),
        (CnfFormula(4, [(1, -2, 3), (-1, 2, 4)]),
         "b2f5f029b82eab5d37e821a20f8fcaafe25f54173a65b7893e9b238df610d713",
         "8e5fcea1536e413fc3d238c4ba2bb1d1846c069046f2dace4819bd0543312e9b"),
    ])
    def test_written_files_are_pinned(self, tmp_path, phi, graph_sha, roles_sha):
        paths = write_artifact(build_H_phi(phi), tmp_path / "art")
        digests = [hashlib.sha256(open(path, "rb").read()).hexdigest() for path in paths]
        assert digests == [graph_sha, roles_sha]

    def test_vertex_count_formula(self):
        for n, k, clauses in ((3, 1, [(1, 2, 3)]),
                              (3, 2, [(1, 2, 3), (-1, 2, -3)]),
                              (4, 2, [(1, -2, 3), (2, 3, -4)])):
            art = build_H_phi(CnfFormula(n, clauses))
            assert art.graph.n == (n + 14 * k) * 34 * k + 17 * k + 1

    def test_triangle_free_and_diameter(self):
        art = build_H_phi(CnfFormula(3, [(1, 2, 3)]))
        assert is_triangle_free(art.graph)[0]
        assert diameter(art.graph) == 3

    def test_rows_are_complete_bipartite_minus_matching(self):
        phi = CnfFormula(3, [(1, 2, -3), (-1, 2, 3)])
        art = build_H_phi(phi)
        trues = {}
        falses = {}
        for v, rec in art.roles.items():
            if rec["role"] in ("variable-true", "clause-true"):
                trues.setdefault(rec["row"], {})[(rec["gadget"], rec["col"])] = v
            elif rec["role"] in ("variable-false", "clause-false"):
                falses.setdefault(rec["row"], {})[(rec["gadget"], rec["col"])] = v
        adj = [set(a) for a in art.graph.adj]
        for row in (1, 4, 20, 31):
            assert len(trues[row]) == 34 and len(falses[row]) == 34
            for pos_t, t in trues[row].items():
                for pos_f, f in falses[row].items():
                    assert (f in adj[t]) == (pos_t != pos_f)

    def test_dominating_roles_revalidate(self):
        art = build_H_phi(CnfFormula(3, [(1, 2, 3)]))
        adj = [set(a) for a in art.graph.adj]
        column = {}
        for v, rec in art.roles.items():
            if rec["role"].startswith(("variable", "clause")):
                column.setdefault((rec["gadget"], rec["col"]), set()).add(v)
        d0 = [v for v, rec in art.roles.items() if rec["role"] == "d0"]
        assert len(d0) == 1
        doms = [(v, rec) for v, rec in art.roles.items() if rec["role"] == "dominating"]
        assert len(doms) == 17
        for v, rec in doms:
            assert column[(rec["gadget"], rec["col"])] <= adj[v]
            assert d0[0] in adj[v]

    def test_embedded_copy_is_isomorphic_to_p(self):
        phi = CnfFormula(3, [(1, -2, 3), (-1, 2, 3)])
        art = build_H_phi(phi)
        adj = [set(a) for a in art.graph.adj]
        for s in (1, 2):
            vmap = {rec["p_label"]: v for v, rec in art.roles.items()
                    if rec.get("gadget") == s and rec.get("p_label")}
            assert len(vmap) == 17
            expected = {tuple(sorted((vmap[a], vmap[b]))) for a, b in P_EDGES_BY_LABEL}
            ids = sorted(vmap.values())
            induced = {tuple(sorted((u, v))) for i, u in enumerate(ids)
                       for v in ids[i + 1:] if v in adj[u]}
            assert induced == expected

    def test_four_coloring(self):
        # the last clauses repeat a variable with both signs
        phis = [CnfFormula(3, clauses) for clauses in (
            [(1, 2, 3)], [(-1, -2, -3)], [(1, 2, -3), (-1, 2, 3)],
            [(1, -1, 2)], [(1, -1, 2), (-2, 2, 3)])]
        phis += [gen_formula(4, 3, seed) for seed in (1, 2, 3)]
        for phi in phis:
            art = build_H_phi(phi)
            coloring, details = H_phi_four_coloring(art)
            assert coloring_is_proper(art.graph, coloring)
            assert set(coloring.values()) <= {1, 2, 3, 4}
            for v, rec in art.roles.items():
                if rec["role"] == "dominating":
                    assert coloring[v] == 4
                elif rec["role"] == "d0":
                    assert coloring[v] == 1
                else:
                    # every row is uniform per side
                    y, z = details["row_pairs"][rec["row"]]
                    assert coloring[v] == (y if rec["role"].endswith("true") else z)
                    assert y != z and {y, z} <= {1, 2, 3}

    def test_generic_backtracking_finds_a_4_coloring(self):
        g = build_H_phi(CnfFormula(3, [(1, 2, 3)])).graph
        ok, coloring = is_L_colorable(g, dict.fromkeys(range(g.n), (1, 2, 3, 4)),
                                      budget=2_000_000)
        assert ok and coloring_is_proper(g, coloring)

    def test_decompositions_from_satisfying_assignments(self):
        phi = CnfFormula(3, [(1, 2, -3)])
        art = build_H_phi(phi)
        taus = satisfying(phi)
        assert len(taus) == 7
        for tau in taus:
            decomp = decomposition_from_assignment(art, tau)
            assert decomposition_is_valid(art.graph, decomp)

    def test_rejects_non_satisfying(self):
        phi = CnfFormula(3, [(1, 2, -3)])
        art = build_H_phi(phi)
        with pytest.raises(ValueError, match="does not satisfy"):
            decomposition_from_assignment(art, (False, False, True))
        with pytest.raises(ValueError, match="does not satisfy"):
            decomposition_from_assignment(art, (0, 0, 1))

    def test_assignment_of_zeros_and_ones(self):
        art = build_H_phi(CnfFormula(3, [(1, 2, -3)]))
        assert (decomposition_from_assignment(art, (1, 1, 0))
                == decomposition_from_assignment(art, (True, True, False)))
        with pytest.raises(ValueError, match="'1' is not a bool, 0 or 1"):
            decomposition_from_assignment(art, "110")


class TestForbiddenGadget:
    def test_vertex_count(self):
        for p in (1, 2, 3, 5):
            assert build_forbidden_gadget(p).graph.n == 3 * p + 5

    def test_rejects_p0(self):
        with pytest.raises(ValueError):
            build_forbidden_gadget(0)

    def test_not_2_choosable_but_bipartite(self):
        for p in (1, 2, 3):
            g = build_forbidden_gadget(p).graph
            assert not is_2_choosable(g)[0]
            assert is_bipartite(g)[0]

    def test_roles(self):
        art = build_forbidden_gadget(2)
        roots = [v for v, r in art.roles.items() if r["role"] == "gadget-root"]
        cores = [v for v, r in art.roles.items() if r["role"] == "gadget-core"]
        petals = [v for v, r in art.roles.items() if r["role"] == "petal"]
        assert len(roots) == 1 and len(cores) == 1 and len(petals) == 3 * 3
        assert art.graph.has_edge(roots[0], cores[0])
        assert art.graph.degree(cores[0]) == 2 * 3 + 1


class TestClauseGadget:
    def test_vertex_count(self):
        for p in (1, 2, 3):
            assert build_clause_gadget_planar(p).graph.n == 9 * p + 18

    def test_not_2_choosable_but_bipartite(self):
        for p in (1, 2, 3):
            g = build_clause_gadget_planar(p).graph
            assert not is_2_choosable(g)[0]
            assert is_bipartite(g)[0]

    def test_hexagon_with_chord(self):
        art = build_clause_gadget_planar(1)
        c = {r["slot"]: v for v, r in art.roles.items() if r["role"] == "hexagon-c"}
        w = {r["slot"]: v for v, r in art.roles.items() if r["role"] == "hexagon-w"}
        g = art.graph
        ring = [w[1], c[2], w[2], c[1], w[3], c[3]]
        for i, u in enumerate(ring):
            assert g.has_edge(u, ring[(i + 1) % 6])
        assert g.has_edge(w[1], c[1])
        assert g.degree(c[2]) == 2 and g.degree(c[3]) == 2 and g.degree(c[1]) == 3


class TestEdgeGadgets:
    def test_counts(self):
        assert build_edge_gadget("negative", 1).graph.n == 34
        assert build_edge_gadget("positive", 1).graph.n == 85
        for p in (1, 2, 3):
            for kind in ("positive", "negative"):
                art = build_edge_gadget(kind, p)
                owned = art.graph.n - 1   # the clause-side endpoint is shared
                assert owned <= 84 * p

    def test_not_2_choosable_but_bipartite(self):
        for p in (1, 2, 3):
            for kind in ("positive", "negative"):
                g = build_edge_gadget(kind, p).graph
                assert not is_2_choosable(g)[0]
                assert is_bipartite(g)[0]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_edge_gadget("sideways", 1)

    @pytest.mark.parametrize("kind", ["positive", "negative"])
    def test_color_classes_give_valid_deletions(self, kind):
        art = build_edge_gadget(kind, 1)
        record = art.meta["edge_gadgets"][0]
        cores = [rec["core"] for rec in art.meta["forbidden_gadgets"]]
        for side in ("blue", "red"):
            a = sorted(set(record[side]) | set(cores))
            assert is_independent(art.graph, a)
            assert is_2_choosable(delete_vertices(art.graph, a)[0])[0]

    def test_propagation_parity(self):
        # positive: x and c in the same class; negative: opposite classes
        pos = build_edge_gadget("positive", 1)
        ok, coloring = is_bipartite(pos.graph)
        rec = pos.meta["edge_gadgets"][0]
        assert coloring[rec["x"]] == coloring[rec["c"]]
        neg = build_edge_gadget("negative", 1)
        ok, coloring = is_bipartite(neg.graph)
        rec = neg.meta["edge_gadgets"][0]
        assert coloring[rec["x"]] != coloring[rec["c"]]


class TestGPhiP:
    BALANCED = [
        CnfFormula(3, [(1, 2, 3)]),
        CnfFormula(3, [(1, 2, -3)]),
        CnfFormula(4, [(1, 2, -3), (2, -3, 4)]),
        CnfFormula(5, [(1, -2, 3), (3, 4, -5)]),
    ]

    def test_total_size_bound(self):
        for phi in self.BALANCED:
            k = phi.num_clauses
            for p in (1, 2):
                art = build_G_phi_p(phi, p)
                assert art.graph.n < p * 280 * k

    def test_bipartite_on_balanced_corpus(self):
        for phi in self.BALANCED:
            assert is_bipartite(build_G_phi_p(phi, 1).graph)[0]

    def test_unbalanced_signed_cycle_breaks_bipartiteness(self):
        # an odd number of negative incidences around a variable/clause cycle
        # forces an odd cycle through the gadget parities
        phi = CnfFormula(4, [(1, 2, -3), (2, 3, 4)])
        assert not is_bipartite(build_G_phi_p(phi, 1).graph)[0]

    def test_not_2_choosable(self):
        assert not is_2_choosable(build_G_phi_p(self.BALANCED[0], 1).graph)[0]

    def test_literal_r_attaches_at_point_r(self):
        phi = CnfFormula(3, [(2, -3, 1)])
        art = build_G_phi_p(phi, 1)
        records = {tuple(rec["edge"]): rec for rec in art.meta["edge_gadgets"]}
        assert sorted(records) == [(1, 1), (1, 2), (1, 3)]
        for r, lit in enumerate(phi.clauses[0], 1):
            rec = records[(1, r)]
            assert rec["kind"] == ("positive" if lit > 0 else "negative")
            assert art.roles[rec["x"]] == {"role": "variable", "var": abs(lit)}
            assert art.roles[rec["c"]] == {"role": "hexagon-c", "clause": 1, "slot": r}

    def test_roles_revalidate(self):
        phi = CnfFormula(3, [(1, 2, -3)])
        art = build_G_phi_p(phi, 1)
        g = art.graph
        for rec in art.meta["forbidden_gadgets"]:
            assert g.has_edge(rec["root"], rec["core"])
            assert g.degree(rec["core"]) == 2 * (rec["p"] + 1) + 1
        for rec in art.meta["edge_gadgets"]:
            assert art.roles[rec["x"]]["role"] == "variable"
            assert art.roles[rec["c"]]["role"] == "hexagon-c"

    def test_deletion_sets_from_assignments(self):
        for phi in self.BALANCED[:3]:
            art = build_G_phi_p(phi, 1)
            k = phi.num_clauses
            for tau in satisfying(phi):
                a = deletion_set_from_assignment(art, tau)
                assert len(a) <= 42 * k
                assert is_independent(art.graph, a)

    def test_rejects_non_satisfying(self):
        phi = CnfFormula(3, [(1, 2, 3)])
        art = build_G_phi_p(phi, 1)
        with pytest.raises(ValueError, match="does not satisfy"):
            deletion_set_from_assignment(art, (False, False, False))
        with pytest.raises(ValueError, match="'0' is not a bool, 0 or 1"):
            deletion_set_from_assignment(art, "001")


def is_planar(g, extra_edges=()):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    h.add_edges_from(extra_edges)
    return nx.check_planarity(h)[0]


def chain_formula(k, seed, shuffle):
    """Clause j on variables j, j+1, j+2 with random signs: a planar incidence graph.

    With ``shuffle`` each clause lists its literals in a random order, which
    permutes the points at which they attach.
    """
    rng = random.Random(seed)
    clauses = []
    for j in range(1, k + 1):
        clause = [v if rng.random() < 0.5 else -v for v in (j, j + 1, j + 2)]
        clauses.append(rng.sample(clause, 3) if shuffle else clause)
    return CnfFormula(k + 2, clauses)


class TestMalformedArtifacts:
    """The builders read only the formula and p: an edited formula or p is a ValueError,
    and edited roles or gadget records change nothing."""

    PHI = CnfFormula(3, [(1, 2, -3)])
    TAU = (True, True, False)

    def mutated(self, art, path, value=None):
        """A deep copy of ``art`` with the meta entry at ``path`` set to ``value`` (None: removed)."""
        art = copy.deepcopy(art)
        *keys, last = path
        record = art.meta
        for key in keys:
            record = record[key]
        if value is None:
            del record[last]
        else:
            record[last] = value
        return art

    @pytest.mark.parametrize("path,value", [
        pytest.param(("edge_gadgets",), None, id="no-edge-gadgets"),
        pytest.param(("forbidden_gadgets",), None, id="no-forbidden-gadgets"),
        pytest.param(("forbidden_gadgets", 0), None, id="no-first-forbidden-gadget"),
        pytest.param(("edge_gadgets",), {"0": {}}, id="edge-gadgets-object"),
        pytest.param(("edge_gadgets", 0), "record", id="record-string"),
        pytest.param(("forbidden_gadgets", 0, "core"), 10 ** 9, id="core-too-large"),
        pytest.param(("forbidden_gadgets", 0, "core"), -1, id="core-negative"),
        pytest.param(("edge_gadgets", 0, "x"), None, id="no-x"),
        pytest.param(("edge_gadgets", 0, "x"), 10 ** 9, id="x-too-large"),
        pytest.param(("edge_gadgets", 0, "kind"), "sideways", id="unknown-kind"),
        pytest.param(("edge_gadgets", 0, "blue"), [0, 10 ** 9], id="blue-too-large"),
        # blue is the side picked for record 0 (a positive literal of a true variable)
        pytest.param(("edge_gadgets", 0, "red"), 5, id="red-int"),
        pytest.param(("edge_gadgets", 0, "red"), None, id="no-red"),
        pytest.param(("edge_gadgets", 0, "red"), ["5"], id="red-string-id"),
    ])
    def test_deletion_set_ignores_gadget_records(self, path, value):
        art = build_G_phi_p(self.PHI, 1)
        intact = deletion_set_from_assignment(art, self.TAU)
        assert deletion_set_from_assignment(self.mutated(art, path, value), self.TAU) == intact

    @pytest.mark.parametrize("var", [None, 0, 4, "1"])
    def test_deletion_set_ignores_the_role_of_x(self, var):
        art = build_G_phi_p(self.PHI, 1)
        intact = deletion_set_from_assignment(art, self.TAU)
        x = art.meta["edge_gadgets"][0]["x"]
        art.roles[x] = {"role": "variable"} if var is None else {"role": "variable", "var": var}
        assert deletion_set_from_assignment(art, self.TAU) == intact

    @pytest.mark.parametrize("path,value", [
        pytest.param(("formula",), None, id="no-formula"),
        pytest.param(("formula", "clauses"), [[1, 2, 3]], id="other-clause"),
        pytest.param(("formula", "num_vars"), 4, id="other-num-vars"),
        pytest.param(("formula", "num_vars"), 3.0, id="float-num-vars"),
        pytest.param(("formula", "clauses"), [[True, 2, -3]], id="bool-literal"),
        pytest.param(("p",), None, id="no-p"),
        pytest.param(("p",), 2, id="other-p"),
        pytest.param(("p",), True, id="p-true"),
        pytest.param(("p",), 1.0, id="p-float"),
    ])
    def test_deletion_set_rejects_a_formula_or_p_that_does_not_build_the_graph(self, path,
                                                                               value):
        art = self.mutated(build_G_phi_p(self.PHI, 1), path, value)
        with pytest.raises(ValueError):
            deletion_set_from_assignment(art, self.TAU)

    @pytest.mark.parametrize("build", [decomposition_from_assignment,
                                       lambda art, tau: H_phi_four_coloring(art)])
    @pytest.mark.parametrize("formula", [None, {"num_vars": 4, "clauses": [[1, 2, -3]]}])
    def test_sat3_rejects_a_formula_that_is_missing_or_does_not_fit(self, build, formula):
        art = build_H_phi(self.PHI)
        build(art, self.TAU)
        art = self.mutated(art, ("formula",), formula)
        with pytest.raises(ValueError):
            build(art, self.TAU)


    @pytest.mark.parametrize("build", [decomposition_from_assignment,
                                       lambda art, tau: H_phi_four_coloring(art)])
    @pytest.mark.parametrize("clauses", [[[1, 2, 3]], [[2, 1, -3]], [[1, -2, -3]]])
    def test_sat3_rejects_a_formula_of_the_right_size_with_other_clauses(self, build, clauses):
        art = self.mutated(build_H_phi(self.PHI), ("formula", "clauses"), clauses)
        with pytest.raises(ValueError, match="is not the reduction of meta.formula"):
            build(art, self.TAU)

    @pytest.mark.parametrize("record", [
        None, "record", {"role": "variable-true"}, {"row": 1}, {"row": "1", "role": "variable-true"},
        {"row": 0, "role": "variable-true"}, {"row": 10 ** 9, "role": "variable-true"},
        {"row": 1, "role": "dominating"}, {"row": 1, "role": ["variable-true"]}])
    def test_four_coloring_reads_rows_from_the_formula_not_the_role_records(self, record):
        intact = H_phi_four_coloring(build_H_phi(self.PHI))
        art = copy.deepcopy(build_H_phi(self.PHI))
        vid = next(v for v, rec in art.roles.items() if rec.get("p_label") == "v1")
        if record is None:
            del art.roles[vid]
        else:
            art.roles[vid] = record
        assert H_phi_four_coloring(art) == intact


class TestPlanarity:
    """Planarity is checked here only, with networkx; every attachment order is planar."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_chain_formulas_give_planar_graphs(self, p, shuffle):
        for k in range(1, 7):
            phi = chain_formula(k, 100 * p + k, shuffle)
            assert is_planar(build_G_phi_p(phi, p).graph)

    def test_k33_incidence_gives_non_planar_graph(self):
        phi = CnfFormula(3, [(1, 2, 3), (-1, 2, -3), (1, -2, 3)])
        assert not is_planar(build_G_phi_p(phi, 1).graph)

    def test_clause_gadget_attachments_share_a_face(self):
        # an apex joined to c1, c2, c3 stays planar, so the three lie on one
        # face and their two cyclic orders are mirror images
        for p in (1, 2):
            art = build_clause_gadget_planar(p)
            apex = art.graph.n
            assert is_planar(art.graph, [(apex, c) for c in art.meta["c_vertices"]])

    @pytest.mark.parametrize("kind", ["positive", "negative"])
    def test_edge_gadget_endpoints_share_a_face(self, kind):
        for p in (1, 2):
            art = build_edge_gadget(kind, p)
            assert is_planar(art.graph, [(art.meta["x"], art.meta["c"])])


class TestPaperP:
    def test_values(self):
        assert compute_paper_p(1, 1) == 280
        assert compute_paper_p(2, 1) == 560
        assert compute_paper_p(1, Fraction(1, 2)) == 21_952_000
        assert compute_paper_p(1, 0.5) == 21_952_000

    def test_exact_boundary_fraction(self):
        # (2 - 2/3) / (2/3) is exactly 2; float epsilon must not bump the ceil
        assert compute_paper_p(1, Fraction(2, 3)) == 280 ** 2
        assert compute_paper_p(1, 2 / 3) == 280 ** 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            compute_paper_p(1, 0)
        with pytest.raises(ValueError):
            compute_paper_p(1, 2)
        for k in (0, -1, 2.5, True, 1.0):
            with pytest.raises(ValueError, match="k must be an integer"):
                compute_paper_p(k, 1)


class TestTriangleReduction:
    def test_single_edge(self):
        art = triangle_reduction(cycle_graph(3))
        assert art.graph.n == 6 and len(art.graph.edges) == 9

    def test_c4(self):
        art = triangle_reduction(cycle_graph(4))
        assert art.graph.n == 8 and len(art.graph.edges) == 12

    def test_roles(self):
        g = cycle_graph(3)
        art = triangle_reduction(g)
        for v, rec in art.roles.items():
            if rec["role"] == "edge-vertex":
                u, w = rec["source"]
                assert art.graph.has_edge(v, u) and art.graph.has_edge(v, w)
                assert art.graph.has_edge(u, w)


class TestVertexLimit:
    """Each builder counts its vertices from the input before it allocates, and the
    count is exact: a limit of the built graph's order passes, one less is refused."""

    @pytest.mark.parametrize("build", [
        lambda: build_H_phi(CnfFormula(3, [(1, 2, -3)])),
        lambda: build_H_phi(CnfFormula(4, [(1, -2, 3), (-1, 2, 4)])),
        lambda: build_G_phi_p(CnfFormula(3, [(1, 2, 3)]), 1),
        lambda: build_G_phi_p(CnfFormula(4, [(1, -2, 3), (-1, -3, -4)]), 2),
        lambda: build_G_phi_p(gen_formula(5, 4, seed=3), 3),
        lambda: triangle_reduction(cycle_graph(7)),
        lambda: build_forbidden_gadget(3),
        lambda: build_clause_gadget_planar(2),
        lambda: build_edge_gadget("positive", 2),
        lambda: build_edge_gadget("negative", 3),
    ], ids=["H_phi-1", "H_phi-2", "G_phi_p-1", "G_phi_p-2", "G_phi_p-random", "triangle",
            "forbidden", "clause", "positive-edge", "negative-edge"])
    def test_count_is_exact(self, build, monkeypatch):
        n = build().graph.n
        monkeypatch.setattr(reductions, "MAX_GRAPH_VERTICES", n)
        assert build().graph.n == n
        monkeypatch.setattr(reductions, "MAX_GRAPH_VERTICES", n - 1)
        with pytest.raises(ValueError, match="the reduction would have %d vertices; "
                                             "the limit is %d" % (n, n - 1)):
            build()
