import random
import sys
from itertools import combinations

import pytest

from choosability import exact
from choosability.errors import Budget, BudgetExceededError
from choosability.exact import (Decomposition, _is_minimal_core, _members,
                                _minimal_obstruction, _offending_component,
                                _peel_bits, _two_core, _uncovered_edge, decomposition_is_valid,
                                min_2_del_bruteforce, min_2_del_exact, min_near_3,
                                min_vertex_cover_exact, near_3_decide)
from choosability.generators import gen_gnp
from choosability.graphs import Graph, delete_vertices, induced_subgraph
from choosability.recognition import is_2_choosable
from choosability.reductions import (build_clause_gadget_planar, build_forbidden_gadget,
                                     constraint_graph_P, triangle_reduction)

from conftest import (brute_maximal_independent_sets, brute_min_near_3,
                      brute_min_vertex_cover, complete_bipartite,
                      complete_graph, cycle_graph, dumbbell_graph, graph_classes,
                      is_independent, minimal_obstruction_reference,
                      offending_component_reference, spider_graph,
                      theta_graph, vertex_set_corpus)


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


def shape_cases():
    """Shapes for the shrink, each with removed vertex sets.

    Spiders, dumbbells, thetas, K_{2,n}, K_{a,b} and six disjoint
    triangles, each with no vertex removed, each single vertex removed and
    20 seeded random sets.
    """
    rng = random.Random(1979)
    triangles = Graph(18, [(3 * i + a, 3 * i + b) for i in range(6)
                           for a, b in ((0, 1), (1, 2), (0, 2))])
    shapes = ([spider_graph(k) for k in range(3, 9)]
              + [dumbbell_graph(3, 3, 1), dumbbell_graph(3, 4, 2), dumbbell_graph(4, 6, 3),
                 dumbbell_graph(5, 5, 1)]
              + [theta_graph(*paths) for paths in ((1, 2, 2), (2, 2, 6), (1, 3, 3),
                                                   (2, 4, 4), (3, 3, 5))]
              + [complete_bipartite(2, n) for n in range(1, 9)]
              + [complete_bipartite(a, b) for a in range(1, 7) for b in range(a, 7)]
              + [triangles])
    cases = []
    for g in shapes:
        sets = [frozenset()] + [frozenset([v]) for v in range(g.n)]
        sets += [frozenset(v for v in range(g.n) if rng.random() < 0.25) for _ in range(20)]
        cases.append((g, sets))
    return cases


def graphs_upto_7():
    """Every graph on at most seven vertices up to isomorphism, some more than once.

    The classes on at most six vertices, and each six-vertex class with a
    seventh vertex joined to each subset of it.
    """
    graphs = [g for n in range(7) for g in graph_classes(n)]
    for g in graph_classes(6):
        for mask in range(1 << 6):
            graphs.append(Graph(7, g.edges + tuple((v, 6) for v in range(6) if mask >> v & 1)))
    return graphs


def triangle_rich_graphs():
    """Graphs where the search branches on triangles first.

    The wheels W_4-W_8 (a hub joined to every vertex of C_k), K_4-K_7, the
    octahedron K_{2,2,2} and 30 seeded G(n, 0.5) with n = 4-10.
    """
    wheels = [Graph(k + 1, cycle_graph(k).edges + tuple((v, k) for v in range(k)))
              for k in range(4, 9)]
    octahedron = Graph(6, [(u, v) for u, v in combinations(range(6), 2) if u // 2 != v // 2])
    rng = random.Random(33)
    return (wheels + [complete_graph(n) for n in range(4, 8)] + [octahedron]
            + [gen_gnp(rng.randrange(4, 11), 0.5, seed=3300 + trial) for trial in range(30)])


# every graph but G(14, 0.3) is bipartite, so only it has triangles to branch on
PINNED_GRAPHS = {"clause": lambda: build_clause_gadget_planar(1).graph,
                 "spider": lambda: spider_graph(4),
                 "K8,10": lambda: complete_bipartite(8, 10),
                 "G(14,0.3)": lambda: gen_gnp(14, 0.3, seed=4)}


def set_systems():
    """Seeded set systems over at most 10 elements, as lists of ascending tuples.

    Random sets, disjoint triples (many optima), chains of nested sets, and
    systems holding the empty set, which nothing hits.
    """
    rng = random.Random(4242)
    systems = [[], [()], [(0, 1, 2), ()]]
    for trial in range(300):
        m = rng.randrange(1, 11)
        kind = trial % 4
        if kind == 0:
            sets = [tuple(sorted(rng.sample(range(m), rng.randrange(1, min(m, 4) + 1))))
                    for _ in range(rng.randrange(1, 9))]
        elif kind == 1:
            sets = [tuple(range(3 * i, 3 * i + 3)) for i in range(m // 3)]
            sets += [tuple(sorted(rng.sample(range(m), 2))) for _ in range(rng.randrange(3))
                     if m >= 2]
        elif kind == 2:
            order = rng.sample(range(m), m)
            sets = [tuple(sorted(order[:k])) for k in range(1, m + 1)]
            sets += [(v,) for v in rng.sample(range(m), rng.randrange(min(m, 3)))]
        else:
            sets = [tuple(sorted(rng.sample(range(m), rng.randrange(0, min(m, 3) + 1))))
                    for _ in range(rng.randrange(1, 6))]
        rng.shuffle(sets)
        systems.append(sets)
    return systems


def brute_hitting_set(sets):
    """First hitting set by size, then in lexicographic order; None when none exists."""
    universe = sorted({v for s in sets for v in s})
    for size in range(len(universe) + 1):
        for cand in combinations(universe, size):
            if all(set(s) & set(cand) for s in sets):
                return size, cand
    return None


class TestHittingSet:
    def test_matches_bruteforce_on_set_systems(self):
        for sets in set_systems():
            masks = [(sum(1 << v for v in s), s) for s in sets]
            expanded = []

            def first_unhit(chosen):
                expanded.append(chosen)
                return next((s for mask, s in masks if not chosen & mask), None)

            assert exact._hitting_set(first_unhit, Budget(), "test") == brute_hitting_set(sets), sets
            assert len(set(expanded)) == len(expanded), sets


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
                mis_list = brute_maximal_independent_sets(g)
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

    def test_matches_bruteforce_with_many_triangles(self):
        for g in triangle_rich_graphs():
            assert min_near_3(g) == brute_min_near_3(g), g.edges

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

    def test_matches_bruteforce_with_many_triangles(self):
        for g in triangle_rich_graphs():
            assert min_2_del_exact(g) == min_2_del_bruteforce(g), g.edges

    def test_minimal_obstruction(self):
        for n in range(1, 7):
            for g in graph_classes(n):
                if is_2_choosable(g)[0]:
                    assert _minimal_obstruction(g, _two_core(g), 0) is None
                    continue
                obs = _minimal_obstruction(g, _two_core(g), 0)
                assert not is_2_choosable(induced_subgraph(g, obs)[0])[0]
                for v in obs:
                    rest = [u for u in obs if u != v]
                    assert is_2_choosable(induced_subgraph(g, rest)[0])[0]

    def test_minimal_obstruction_matches_subgraph_reference(self):
        # the same tuple as the reference that reads a triangle off the edge
        # list and else shrinks, building a subgraph per step, so the search
        # branches the same way; the shrink takes a bitmask, the reference a
        # vertex set
        cases = [(g, [frozenset(r) for size in range(g.n + 1)
                      for r in combinations(range(g.n), size)])
                 for n in range(1, 7) for g in graph_classes(n)]
        cases += [(g, [frozenset(range(g.n)) - frozenset(s) for s in sets])
                  for g, sets in vertex_set_corpus()]
        cases += shape_cases()
        for g, removed_sets in cases:
            core = _two_core(g)
            for removed in removed_sets:
                assert (_minimal_obstruction(g, core, sum(1 << v for v in removed))
                        == minimal_obstruction_reference(g, removed)), (g.edges, removed)

    def test_offending_component_matches_reference(self):
        # every core of every class on at most six vertices: the one walk
        # that finds and classifies a component returns the same mask as
        # the walks that listed, counted and scanned it after finding it
        for n in range(1, 7):
            for g in graph_classes(n):
                bits = g.adj_bits()
                for core in sorted({_peel_bits(bits, s, s) for s in range(1 << n)}):
                    assert (_offending_component(g, bits, core)
                            == offending_component_reference(g, bits, core)), (g.edges, core)

    def test_offending_component_matches_reference_on_shrink_corpus(self, monkeypatch):
        # every core the shrink hands it on the corpus of the subgraph
        # reference, its shapes included
        one_walk = exact._offending_component
        cores = []

        def checked(g, bits, core):
            found = one_walk(g, bits, core)
            assert found == offending_component_reference(g, bits, core), (g.edges, core)
            cores.append(core)
            return found

        monkeypatch.setattr(exact, "_offending_component", checked)
        self.test_minimal_obstruction_matches_subgraph_reference()
        assert cores

    def test_shrink_stop_is_sound(self, monkeypatch):
        # every offending connected core the stop accepts loses its
        # obstruction with any one vertex: each connected core on at most
        # seven vertices, and every core the shrink asks about on the shapes
        accepted = []
        for g in graphs_upto_7():
            bits, everyone = g.adj_bits(), (1 << g.n) - 1
            if (g.n and _peel_bits(bits, everyone, everyone) == everyone
                    and _offending_component(g, bits, everyone) == everyone
                    and _is_minimal_core(bits, everyone)):
                accepted.append((g, everyone))
        rule = exact._is_minimal_core
        stops = []

        def recording(bits, comp):
            found = rule(bits, comp)
            if found:
                stops.append(comp)
            return found

        monkeypatch.setattr(exact, "_is_minimal_core", recording)
        for g, removed_sets in shape_cases():
            core = _two_core(g)
            for removed in removed_sets:
                _minimal_obstruction(g, core, sum(1 << v for v in removed))
            accepted += [(g, comp) for comp in stops]
            stops.clear()
        kinds = {"cycle": 0, "cyclomatic number 2": 0}
        for g, comp in accepted:
            members = _members(comp)
            assert not is_2_choosable(g, members)[0], (g.edges, members)
            for v in members:
                assert is_2_choosable(g, [u for u in members if u != v])[0], (g.edges, v)
            edges = sum(len(set(g.adj[v]) & set(members)) for v in members) // 2
            kinds["cycle" if edges == len(members) else "cyclomatic number 2"] += 1
        assert all(kinds.values()), kinds

    @pytest.mark.parametrize("solve,name,used,answer", [
        (min_2_del_exact, "clause", 401, (4, (0, 6, 13, 20))),
        (min_near_3, "clause", 401, (4, (0, 6, 13, 20))),
        (min_2_del_exact, "spider", 64, (1, (16,))),
        (min_near_3, "spider", 68, (1, (16,))),
        (min_vertex_cover_exact, "clause", 1921,
         (12, (0, 1, 2, 6, 8, 11, 13, 15, 18, 20, 22, 25))),
        (min_vertex_cover_exact, "spider", 170, (8, (0, 2, 4, 6, 8, 10, 12, 14))),
        (min_2_del_exact, "K8,10", 3984, (7, tuple(range(7)))),
        (min_near_3, "K8,10", 504, (7, tuple(range(7)))),
        (min_vertex_cover_exact, "K8,10", 37, (8, tuple(range(8)))),
        (min_2_del_exact, "G(14,0.3)", 70, (4, (0, 2, 6, 7))),
        (min_near_3, "G(14,0.3)", 30, (4, (0, 3, 6, 7))),
        (min_vertex_cover_exact, "G(14,0.3)", 102, (9, (0, 1, 2, 4, 6, 8, 10, 11, 12))),
    ])
    def test_node_counts_pinned(self, solve, name, used, answer):
        # the answers every earlier search gave, and the exact node counts of
        # include/exclude branching with the lexicographic skip at the
        # incumbent's size, and on G(14, 0.3) of taking the first triangle as
        # the obstruction, so any change in how the search branches shows
        g = PINNED_GRAPHS[name]()
        bud = Budget()
        assert solve(g, budget=bud, cap=g.n) == answer
        assert bud.used == used

    @pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
    def test_no_vertex_set_expanded_twice(self, name, monkeypatch):
        # every node of each solver's search is a different vertex set, and
        # each is charged once
        engine = exact._hitting_set
        expanded = []

        def recording(obstruction, bud, stage):
            def wrapped(chosen):
                expanded.append(chosen)
                return obstruction(chosen)
            return engine(wrapped, bud, stage)

        monkeypatch.setattr(exact, "_hitting_set", recording)
        g = PINNED_GRAPHS[name]()
        for solve in (min_2_del_exact, min_near_3, min_vertex_cover_exact):
            expanded.clear()
            bud = Budget()
            solve(g, budget=bud, cap=g.n)
            assert len(set(expanded)) == len(expanded) == bud.used, solve.__name__

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

    @pytest.mark.parametrize("limit", [-1, True, 1.0, "5"])
    def test_budget_must_be_none_or_a_non_negative_int(self, limit):
        with pytest.raises(ValueError, match="node budget must be None or an int"):
            Budget(limit)
        with pytest.raises(ValueError, match="node budget must be None or an int"):
            min_2_del_exact(complete_graph(3), budget=limit)

    def test_budget_of_zero_is_spent_and_none_is_unlimited(self):
        with pytest.raises(BudgetExceededError, match="budget of 0 exceeded"):
            min_2_del_exact(complete_graph(3), budget=0)
        assert min_2_del_exact(complete_graph(3), budget=None) == (1, (0,))

    def test_deep_search_within_recursion_limit(self):
        # 200 disjoint triangles put the first solution 200 levels down; a
        # recursive search would need a frame per level
        g = Graph(600, [(3 * i + a, 3 * i + b) for i in range(200)
                        for a, b in ((0, 1), (1, 2), (0, 2))])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            for solve in (min_2_del_exact, min_near_3, min_vertex_cover_exact):
                with pytest.raises(BudgetExceededError) as err:
                    solve(g, budget=400, cap=g.n)
                assert err.value.stats["expanded"] == 401
        finally:
            sys.setrecursionlimit(limit)


class TestMinVertexCover:
    def test_first_uncovered_edge(self):
        # the bitmask search picks the edge a scan of g.edges in order picks
        for g in graph_classes(6):
            first_uncovered = _uncovered_edge(g)
            for chosen in range(1 << g.n):
                expected = next(((u, v) for u, v in g.edges
                                 if not (chosen >> u & 1 or chosen >> v & 1)), None)
                assert first_uncovered(chosen) == expected, (g.edges, chosen)

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
