import random

import pytest

from choosability.errors import Budget, BudgetExceededError
from choosability.graphs import Graph, coloring_is_proper, induced_subgraph
from choosability.recognition import (KIND_EVEN_CYCLE, KIND_K1, KIND_OUTSIDE,
                                      KIND_THETA, classify_core, compute_core,
                                      format_list_assignment, is_2_choosable,
                                      is_k_choosable_exhaustive, is_L_colorable,
                                      parse_list_assignment)
from choosability.generators import gen_gnp

from conftest import (brute_k_choosable, brute_list_colorable, complete_bipartite,
                      cycle_graph, disjoint_union, dumbbell_graph, graph_classes,
                      is_2_choosable_on_subgraph, is_2_choosable_reference,
                      mask_to_graph, path_graph, theta_graph, vertex_pairs,
                      vertex_set_corpus)


class TestComputeCore:
    def test_path_peels_to_single_vertex(self):
        core, kept = compute_core(path_graph(5))
        assert core.n == 1 and core.edges == ()

    def test_cycle_is_fixed(self):
        core, kept = compute_core(cycle_graph(6))
        assert core.n == 6 and kept == (0, 1, 2, 3, 4, 5)

    def test_pendant_peels_off_theta(self):
        g = theta_graph(2, 2, 4)
        pend = Graph(g.n + 1, list(g.edges) + [(0, g.n)])
        core, kept = compute_core(pend)
        assert core.n == g.n
        assert set(kept) == set(range(g.n))

    def test_isolated_vertices_remain(self):
        core, kept = compute_core(Graph(3, [(0, 1)]))
        # one endpoint of the isolated edge survives as K1, plus vertex 2
        assert core.edges == () and core.n == 2
        assert 2 in kept and len(kept) == 2

    def test_confluence_under_reversed_removal_order(self):
        # Peel with an adversarial (descending) order.  A tree component may
        # leave a different single survivor, so confluence is asserted on the
        # structure: identical edge-bearing vertices and identical K1 count.
        def reversed_core_vertices(g):
            degree = [g.degree(v) for v in range(g.n)]
            alive = set(range(g.n))
            while True:
                ones = sorted((v for v in alive if degree[v] == 1), reverse=True)
                if not ones:
                    return alive
                v = ones[0]
                alive.discard(v)
                for u in g.adj[v]:
                    if u in alive:
                        degree[u] -= 1

        rng = random.Random(4242)
        for trial in range(100):
            n = rng.randrange(1, 31)
            g = gen_gnp(n, rng.choice([0.05, 0.1, 0.2]), seed=trial)
            core, kept = compute_core(g)
            other = reversed_core_vertices(g)
            adj = [set(a) for a in g.adj]
            busy_a = {v for v in kept if adj[v] & set(kept)}
            busy_b = {v for v in other if adj[v] & other}
            assert busy_a == busy_b
            assert len(kept) == len(other)


class TestClassifyCore:
    def test_path_is_one_k1(self):
        # any graph is peeled first; a path leaves one vertex
        (verdict,) = classify_core(path_graph(3))
        assert verdict.kind == KIND_K1 and verdict.m is None and len(verdict.vertices) == 1

    @staticmethod
    def assert_matches_built_core(g):
        core, kept = compute_core(g)
        expected = [(v.kind, v.m, tuple(kept[u] for u in v.vertices))
                    for v in classify_core(core)]
        assert [(v.kind, v.m, v.vertices) for v in classify_core(g)] == expected, g.edges

    def test_matches_built_core_on_labelled_graphs_upto_6(self):
        for n in range(7):
            pairs = vertex_pairs(n)
            for mask in range(1 << len(pairs)):
                self.assert_matches_built_core(mask_to_graph(n, mask, pairs))

    def test_matches_built_core_on_corpus(self):
        for g, _ in vertex_set_corpus():
            self.assert_matches_built_core(g)

    def test_even_cycle(self):
        (verdict,) = classify_core(cycle_graph(4))
        assert verdict.kind == KIND_EVEN_CYCLE and verdict.m == 1

    def test_k23_is_theta(self):
        (verdict,) = classify_core(complete_bipartite(2, 3))
        assert verdict.kind == KIND_THETA and verdict.m == 1

    def test_odd_cycle_outside(self):
        (verdict,) = classify_core(cycle_graph(5))
        assert verdict.kind == KIND_OUTSIDE

    def test_roundtrip_parameters(self):
        for m in range(1, 6):
            (verdict,) = classify_core(cycle_graph(2 * m + 2))
            assert (verdict.kind, verdict.m) == (KIND_EVEN_CYCLE, m)
            (verdict,) = classify_core(theta_graph(2, 2, 2 * m))
            assert (verdict.kind, verdict.m) == (KIND_THETA, m)

    def test_k1_and_mixture(self):
        g = disjoint_union(Graph(1, []), cycle_graph(4))
        kinds = [v.kind for v in classify_core(g)]
        assert kinds == [KIND_K1, KIND_EVEN_CYCLE]

    def test_odd_theta_outside(self):
        (verdict,) = classify_core(theta_graph(2, 2, 3))
        assert verdict.kind == KIND_OUTSIDE
        (verdict,) = classify_core(theta_graph(3, 3, 3))
        assert verdict.kind == KIND_OUTSIDE
        # odd n and two degree-3 hubs, but the hubs share only the middle of their path
        for g in (dumbbell_graph(4, 4, 2), dumbbell_graph(4, 6, 2)):
            (verdict,) = classify_core(g)
            assert verdict.kind == KIND_OUTSIDE
        figure_eight = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])
        (verdict,) = classify_core(figure_eight)
        assert verdict.kind == KIND_OUTSIDE


class TestIs2Choosable:
    def test_examples(self):
        assert is_2_choosable(theta_graph(2, 2, 4))[0]
        assert not is_2_choosable(complete_bipartite(2, 4))[0]
        assert not is_2_choosable(theta_graph(3, 3, 3))[0]
        assert is_2_choosable(disjoint_union(cycle_graph(4), complete_bipartite(2, 3)))[0]
        assert is_2_choosable(Graph(0, []))[0]
        assert is_2_choosable(Graph(1, []))[0]

    def test_union_agrees_with_per_component_oracle(self):
        g = disjoint_union(cycle_graph(4), complete_bipartite(2, 3))
        # lists on the union never interact across components, so the oracle
        # may run per component
        assert is_k_choosable_exhaustive(cycle_graph(4), 2)[0]
        assert is_k_choosable_exhaustive(complete_bipartite(2, 3), 2)[0]
        assert is_2_choosable(g)[0]

    def test_witness_is_outside_component(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(5))
        ok, witness = is_2_choosable(g)
        assert not ok
        assert witness == (4, 5, 6, 7, 8)
        sub, _ = induced_subgraph(g, witness)
        assert not is_k_choosable_exhaustive(sub, 2)[0]

    def test_witness_fails_oracle_on_small_graphs(self):
        for n in range(1, 6):
            for g in graph_classes(n):
                ok, witness = is_2_choosable(g)
                if not ok:
                    sub, _ = induced_subgraph(g, witness)
                    assert not is_k_choosable_exhaustive(sub, 2)[0]

    def test_induced_subgraph_monotone(self):
        from itertools import combinations
        for n in range(1, 6):
            for g in graph_classes(n):
                if not is_2_choosable(g)[0]:
                    continue
                for size in range(n):
                    for subset in combinations(range(n), size):
                        assert is_2_choosable(induced_subgraph(g, subset)[0])[0]


class TestIs2ChoosableOnVertexSets:
    """``is_2_choosable(g, S)`` equals the old test on the built subgraph G[S]."""

    def test_every_labelled_graph_and_set_upto_5(self):
        for n in range(0, 6):
            pairs = vertex_pairs(n)
            for mask in range(1 << len(pairs)):
                g = mask_to_graph(n, mask, pairs)
                for bits in range(1 << n):
                    s = [v for v in range(n) if bits >> v & 1]
                    assert is_2_choosable(g, s) == is_2_choosable_on_subgraph(g, s), (g.edges, s)

    def test_gnp_and_structured_corpus(self):
        for g, sets in vertex_set_corpus():
            assert is_2_choosable(g) == is_2_choosable_reference(g), g.edges
            for s in sets:
                assert is_2_choosable(g, s) == is_2_choosable_on_subgraph(g, s), (g.edges, s)

    def test_vertices_in_any_order_with_repeats(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(5))
        expected = (False, (4, 5, 6, 7, 8))
        assert is_2_choosable(g, range(9)) == expected
        assert is_2_choosable(g, [8, 7, 6, 5, 4, 4, 8, 0]) == expected
        assert is_2_choosable(g, (v for v in range(9) if v != 6)) == (True, None)
        assert is_2_choosable(g, []) == (True, None)

    @pytest.mark.parametrize("bad", [[-1], [9], [0, 1, 2, 40], [-3, 2]])
    def test_out_of_range_ids(self, bad):
        g = disjoint_union(cycle_graph(4), cycle_graph(5))
        with pytest.raises(ValueError, match="out of range for n=9"):
            is_2_choosable(g, bad)


class TestListColoring:
    def test_even_cycle_two_lists(self):
        g = cycle_graph(4)
        ok, coloring = is_L_colorable(g, {v: {1, 2} for v in range(4)})
        assert ok and coloring_is_proper(g, coloring)
        assert all(coloring[v] in (1, 2) for v in range(4))

    def test_triangle_same_lists(self):
        assert not is_L_colorable(cycle_graph(3), {v: {1, 2} for v in range(3)})[0]

    def test_long_path_within_recursion_limit(self):
        ok, coloring = is_L_colorable(path_graph(1200), {v: {1, 2} for v in range(1200)})
        assert ok and coloring == {v: 1 + v % 2 for v in range(1200)}

    def test_k24_hard_assignment(self):
        g = complete_bipartite(2, 4)
        lists = {0: {1, 2}, 1: {3, 4}, 2: {1, 3}, 3: {1, 4}, 4: {2, 3}, 5: {2, 4}}
        assert not brute_list_colorable(g, lists)
        assert not is_L_colorable(g, lists)[0]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            is_L_colorable(cycle_graph(3), {0: set(), 1: {1}, 2: {1}})

    def test_agrees_with_product_bruteforce(self):
        rng = random.Random(7)
        for trial in range(150):
            n = rng.randrange(1, 6)
            g = gen_gnp(n, 0.5, seed=1000 + trial)
            lists = {v: set(rng.sample(range(1, 5), rng.randrange(1, 3)))
                     for v in range(n)}
            ok, coloring = is_L_colorable(g, lists)
            assert ok == brute_list_colorable(g, lists)
            if ok:
                assert coloring_is_proper(g, coloring)
                assert all(coloring[v] in lists[v] for v in range(n))


#: the benchmark's eight 6-vertex oracle classes (``ORACLE_CLASSES`` in
#: perfbench/workloads.py): name, edges, nodes used at k = 2, and the witness,
#: None for the one 2-choosable class
_BIPARTITE_WITNESS = {0: (1, 2), 1: (1, 3), 2: (2, 3), 3: (1, 2), 4: (1, 3), 5: (2, 3)}
_TRIANGLE_WITNESS = {0: (1, 2), 1: (1, 2), 2: (1, 2), 3: (3, 4), 4: (5, 6), 5: (7, 8)}
ORACLE_PINS = [
    ("k23-plus-k1", ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)), 1330, None),
    ("k24", ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)), 2348,
     {0: (1, 2), 1: (3, 4), 2: (1, 3), 3: (1, 4), 4: (2, 3), 5: (2, 4)}),
    ("bipartite-7-edges", ((0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)), 846,
     _BIPARTITE_WITNESS),
    ("k33-minus-edge", ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)),
     796, _BIPARTITE_WITNESS),
    ("k33", ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)), 1736,
     _BIPARTITE_WITNESS),
    ("triangle-path", ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)), 3, _TRIANGLE_WITNESS),
    ("k4-plus-edge", ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)), 3,
     _TRIANGLE_WITNESS),
    ("wheel-c5", ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1), (5, 2), (5, 3),
                  (5, 4)), 5,
     {0: (1, 2), 1: (1, 2), 2: (1, 2), 3: (1, 2), 4: (1, 2), 5: (3, 4)}),
]


def assert_oracle_matches_reference(graphs, ks=(1, 2)):
    """Same verdict and witness as the plain enumeration, never more nodes, for each k."""
    verdicts = set()
    for g in graphs:
        for k in ks:
            new, ref = Budget(), Budget()
            answer = is_k_choosable_exhaustive(g, k, budget=new, cap=g.n)
            assert answer == brute_k_choosable(g, k, budget=ref), (g.edges, k)
            assert new.used <= ref.used, (g.edges, k)
            verdicts.add(answer[0])
    assert verdicts == {True, False}


class TestOracle:
    def test_examples(self):
        assert is_k_choosable_exhaustive(cycle_graph(4), 2) == (True, None)
        ok, witness = is_k_choosable_exhaustive(cycle_graph(5), 2)
        assert not ok
        assert not is_L_colorable(cycle_graph(5), witness)[0]
        assert all(len(witness[v]) == 2 for v in witness)
        assert is_k_choosable_exhaustive(complete_bipartite(2, 3), 2)[0]

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="cap"):
            is_k_choosable_exhaustive(cycle_graph(8), 2)

    def test_false_beyond_cap_with_budget(self):
        ok, witness = is_k_choosable_exhaustive(cycle_graph(9), 2, budget=500_000)
        assert not ok
        assert not is_L_colorable(cycle_graph(9), witness)[0]

    def test_budget_error_carries_stats(self):
        from choosability.errors import BudgetExceededError
        with pytest.raises(BudgetExceededError) as err:
            is_k_choosable_exhaustive(cycle_graph(6), 2, budget=5)
        assert "expanded" in err.value.stats

    def test_one_choosability(self):
        assert is_k_choosable_exhaustive(Graph(3, []), 1)[0]
        assert not is_k_choosable_exhaustive(Graph(2, [(0, 1)]), 1)[0]

    def test_matches_reference_on_labelled_graphs_upto_5(self):
        assert_oracle_matches_reference(
            mask_to_graph(n, mask, vertex_pairs(n))
            for n in range(6) for mask in range(1 << len(vertex_pairs(n))))

    def test_matches_reference_on_six_vertex_graphs(self):
        rng = random.Random(6)
        pairs = vertex_pairs(6)
        named = [disjoint_union(complete_bipartite(2, 3), Graph(1, [])),
                 complete_bipartite(2, 4), complete_bipartite(3, 3),
                 Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])]
        assert_oracle_matches_reference(
            named + [mask_to_graph(6, rng.getrandbits(len(pairs)), pairs) for _ in range(300)])

    def test_frontier_memo_reaches_eight_vertices(self):
        assert is_k_choosable_exhaustive(cycle_graph(8), 2, cap=8) == (True, None)
        assert is_k_choosable_exhaustive(theta_graph(2, 2, 4), 2, cap=8) == (True, None)
        assert is_k_choosable_exhaustive(cycle_graph(10), 2, budget=300_000)[0]

    def test_matches_reference_for_three_lists(self):
        # every labelled graph on at most 4 vertices, then a seeded sample on 5
        # (one 3-choosable graph, one not): a 3-choosable 5-vertex graph costs
        # the plain enumeration 515,088 nodes, about 17 s, so the sample is small
        rng = random.Random(5)
        pairs = vertex_pairs(5)
        assert_oracle_matches_reference(
            [mask_to_graph(n, mask, vertex_pairs(n))
             for n in range(5) for mask in range(1 << len(vertex_pairs(n)))]
            + [mask_to_graph(5, rng.getrandbits(len(pairs)), pairs) for _ in range(2)],
            ks=(3,))

    @pytest.mark.parametrize("name,edges,used,witness", ORACLE_PINS)
    def test_pinned_six_vertex_classes(self, name, edges, used, witness):
        # the benchmark's oracle classes: a faster oracle may not move a node
        # count, a verdict or a witness
        bud = Budget()
        assert is_k_choosable_exhaustive(Graph(6, edges), 2, budget=bud) == (
            witness is None, witness)
        assert bud.used == used

    @pytest.mark.parametrize("g,cap,used", [(cycle_graph(8), 8, 32_825),
                                            (theta_graph(2, 2, 4), 8, 37_455),
                                            (cycle_graph(10), 10, 147_027)])
    def test_pinned_node_counts_beyond_six_vertices(self, g, cap, used):
        bud = Budget()
        assert is_k_choosable_exhaustive(g, 2, budget=bud, cap=cap) == (True, None)
        assert bud.used == used

    def test_pinned_budget_stats(self):
        with pytest.raises(BudgetExceededError) as err:
            is_k_choosable_exhaustive(cycle_graph(8), 2, budget=10_000)
        assert err.value.stats == {"expanded": 10_001, "limit": 10_000, "stage": "oracle",
                                   "assignments": 5_939}
        with pytest.raises(BudgetExceededError) as err:
            is_k_choosable_exhaustive(cycle_graph(8), 2, budget=50, cap=8)
        assert err.value.stats == {"expanded": 51, "limit": 50, "stage": "oracle",
                                   "assignments": 37}


class TestAssignmentSerialization:
    def test_roundtrip(self):
        lists = {0: (1, 2), 1: (2, 3), 2: (1, 4)}
        text = format_list_assignment(lists)
        assert text.splitlines()[0] == "1: 1 2"
        assert parse_list_assignment(text) == lists
