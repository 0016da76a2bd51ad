import random
from itertools import combinations

import pytest

from choosability.errors import BudgetExceededError
from choosability.exact import (Decomposition, _minimal_obstruction, decomposition_is_valid,
                                maximal_independent_sets, min_2_del_bruteforce,
                                min_2_del_exact, min_near_3,
                                min_vertex_cover_exact, near_3_decide)
from choosability.generators import gen_gnp
from choosability.graphs import Graph, delete_vertices, induced_subgraph
from choosability.recognition import is_2_choosable
from choosability.reductions import (build_forbidden_gadget, constraint_graph_P,
                                     triangle_reduction)

from conftest import (brute_min_near_3, brute_min_vertex_cover, complete_bipartite,
                      complete_graph, cycle_graph, dumbbell_graph, graph_classes,
                      is_independent, spider_graph, theta_graph)


def structured_graphs():
    """Structured families for the exact solvers.

    Branching on a shortest cycle missed the optimum on the first three:
    (2, (0, 4)) on the three-C4 spider against (1, (12,)), and size 3 on the
    G(10, 0.3) draw against 2.
    """
    figure_eight = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])
    return ([spider_graph(3), spider_graph(4), gen_gnp(10, 0.3, seed=159),
             dumbbell_graph(3, 3, 2), dumbbell_graph(3, 5, 1), dumbbell_graph(5, 5, 3),
             figure_eight]
            + [complete_bipartite(2, n) for n in (3, 4, 5)]
            + [theta_graph(1, 3, 5), theta_graph(2, 3, 3), theta_graph(2, 2, 5)])


class TestMaximalIndependentSets:
    def test_triangle(self):
        assert maximal_independent_sets(cycle_graph(3)) == [(0,), (1,), (2,)]

    def test_lexicographic_order_and_maximality(self):
        g = cycle_graph(5)
        sets = maximal_independent_sets(g)
        assert sets == sorted(sets)
        for s in sets:
            assert is_independent(g, s)
            for v in range(g.n):
                if v not in s:
                    assert not is_independent(g, s + (v,))


class TestNear3Decide:
    def test_c5(self):
        decomp = near_3_decide(cycle_graph(5))
        assert decomp is not None
        assert decomposition_is_valid(cycle_graph(5), decomp)

    def test_constraint_graph(self):
        g = constraint_graph_P().graph
        decomp = near_3_decide(g)
        assert decomp is not None
        assert decomposition_is_valid(g, decomp)

    def test_bipartite_always_works(self):
        rng = random.Random(17)
        for trial in range(30):
            a, b = rng.randrange(1, 6), rng.randrange(1, 6)
            edges = [(i, a + j) for i in range(a) for j in range(b)
                     if rng.random() < 0.6]
            g = Graph(a + b, edges)
            decomp = near_3_decide(g)
            assert decomp is not None and decomposition_is_valid(g, decomp)

    def test_infeasible(self):
        assert near_3_decide(complete_graph(5)) is None

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            near_3_decide(Graph(26, []))

    def test_matches_bruteforce(self):
        graphs = [g for n in range(1, 7) for g in graph_classes(n)] + structured_graphs()
        for g in graphs:
            best = brute_min_near_3(g)
            decomp = near_3_decide(g)
            if best is None:
                assert decomp is None
            else:
                assert decomp == Decomposition(best[1], tuple(v for v in range(g.n)
                                                              if v not in best[1]))

    def test_maximal_superset_monotonicity(self):
        # every valid (A, B) stays valid for every maximal independent superset
        for n in range(1, 7):
            for g in graph_classes(n):
                mis_list = maximal_independent_sets(g)
                for size in range(n + 1):
                    for a in combinations(range(n), size):
                        if not is_independent(g, a):
                            continue
                        rest = tuple(v for v in range(n) if v not in set(a))
                        if not is_2_choosable(induced_subgraph(g, rest)[0])[0]:
                            continue
                        for mis in mis_list:
                            if set(a) <= set(mis):
                                comp = tuple(v for v in range(n) if v not in set(mis))
                                assert is_2_choosable(induced_subgraph(g, comp)[0])[0]


class TestMinNear3:
    def test_c6(self):
        assert min_near_3(cycle_graph(6)) == (0, ())

    def test_k24_removes_one_hub(self):
        assert min_near_3(complete_bipartite(2, 4)) == (1, (0,))

    def test_constraint_graph_regression(self):
        # frozen value from the subset-enumeration search
        size, a = min_near_3(constraint_graph_P().graph)
        assert size == 4
        assert a == (0, 1, 5, 8)   # v1, v2, w3, w6

    def test_none_for_complete_graph(self):
        assert min_near_3(complete_graph(5)) is None

    def test_matches_bruteforce(self):
        for g in structured_graphs():
            assert min_near_3(g) == brute_min_near_3(g)

    def test_result_revalidates(self):
        rng = random.Random(3)
        for trial in range(40):
            g = gen_gnp(rng.randrange(1, 12), 0.35, seed=trial)
            result = min_near_3(g)
            if result is None:
                continue
            size, a = result
            assert len(a) == size and is_independent(g, a)
            assert is_2_choosable(delete_vertices(g, a)[0])[0]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            min_near_3(complete_bipartite(7, 7), budget=8)


class TestMin2Del:
    def test_triangle(self):
        assert min_2_del_exact(cycle_graph(3)) == (1, (0,))

    def test_c6(self):
        assert min_2_del_exact(cycle_graph(6)) == (0, ())

    def test_forbidden_gadget_positive_minimum(self):
        g = build_forbidden_gadget(1).graph
        size, a = min_2_del_exact(g)
        assert size >= 1
        assert min_2_del_bruteforce(g)[0] == size
        assert is_2_choosable(delete_vertices(g, a)[0])[0]

    def test_zero_iff_2_choosable_small(self):
        for n in range(0, 7):
            for g in graph_classes(n):
                assert (min_2_del_exact(g)[0] == 0) == is_2_choosable(g)[0]

    def test_matches_bruteforce_small(self):
        for n in range(1, 7):
            for g in graph_classes(n):
                assert min_2_del_exact(g) == min_2_del_bruteforce(g)

    def test_matches_bruteforce_structured(self):
        for g in structured_graphs():
            assert min_2_del_exact(g) == min_2_del_bruteforce(g)

    def test_matches_bruteforce_random(self):
        rng = random.Random(23)
        for trial in range(60):
            g = gen_gnp(rng.randrange(4, 10), rng.choice([0.3, 0.5]), seed=900 + trial)
            assert min_2_del_exact(g) == min_2_del_bruteforce(g)

    def test_minimal_obstruction(self):
        for n in range(1, 7):
            for g in graph_classes(n):
                if is_2_choosable(g)[0]:
                    assert _minimal_obstruction(g, frozenset()) is None
                    continue
                obs = _minimal_obstruction(g, frozenset())
                assert not is_2_choosable(induced_subgraph(g, obs)[0])[0]
                for v in obs:
                    rest = [u for u in obs if u != v]
                    assert is_2_choosable(induced_subgraph(g, rest)[0])[0]

    def test_min_near3_dominates(self):
        for n in range(1, 7):
            for g in graph_classes(n):
                near = min_near_3(g)
                if near is not None:
                    assert near[0] >= min_2_del_exact(g)[0]

    def test_seven_vertex_invariants(self):
        rng = random.Random(70)
        for trial in range(60):
            g = gen_gnp(7, rng.choice([0.2, 0.35, 0.5]), seed=1700 + trial)
            size, _ = min_2_del_exact(g)
            assert (size == 0) == is_2_choosable(g)[0]
            near = min_near_3(g)
            if near is not None:
                assert near[0] >= size

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            min_2_del_exact(complete_graph(9), budget=20)


class TestMinVertexCover:
    def test_single_edge(self):
        assert min_vertex_cover_exact(Graph(2, [(0, 1)])) == (1, (0,))

    def test_c5(self):
        size, s = min_vertex_cover_exact(cycle_graph(5))
        assert size == 3
        g = cycle_graph(5)
        assert all(u in set(s) or v in set(s) for u, v in g.edges)

    def test_k4(self):
        assert min_vertex_cover_exact(complete_graph(4))[0] == 3

    def test_matches_bruteforce(self):
        for n in range(1, 7):
            for g in graph_classes(n):
                assert min_vertex_cover_exact(g)[0] == brute_min_vertex_cover(g)

    def test_triangle_reduction_equivalence_small(self):
        for n in range(2, 6):
            for g in graph_classes(n):
                reduced = triangle_reduction(g).graph
                assert (min_vertex_cover_exact(g)[0]
                        == min_2_del_exact(reduced, cap=reduced.n)[0])


class TestDecomposition:
    def test_validity_checks(self):
        g = cycle_graph(5)
        assert decomposition_is_valid(g, Decomposition((0, 2), (1, 3, 4)))
        assert not decomposition_is_valid(g, Decomposition((0, 1), (2, 3, 4)))
        assert not decomposition_is_valid(g, Decomposition((0,), (1, 2, 3)))
