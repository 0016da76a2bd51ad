import random

import pytest

from choosability import graphs
from choosability.approx import (KIND_K1_COUNTED, KIND_K23_ONE_ODD,
                                 KIND_NOT_IN_FAMILY, KIND_PARALLEL_PAIR_EVEN,
                                 CountedMultiGraph, _cut, _relabelled, approx_2_del,
                                 classify_c_prime, is_2_choosable_via_preprocessing,
                                 preprocess, preprocessed_components)
from choosability.generators import gen_gnp
from choosability.graphs import (Graph, _CycleSearch, connected_components, delete_vertices,
                                 shortest_cycle)
from choosability.recognition import compute_core, is_2_choosable

from choosability.reductions import CnfFormula, build_G_phi_p

from conftest import (adj_and_provenance, approx_2_del_global, counted, counts, cycle_graph,
                      disjoint_union, dumbbell_graph, graph_classes, multigraph_delete,
                      multigraph_edges, multigraph_restrict, path_graph, petersen_graph,
                      random_multigraph, spider_graph, theta_graph, vertex_set_corpus)


def lift(g):
    return CountedMultiGraph.from_graph(g)


def gnm(n, m, rng):
    """G(n, m): ``m`` distinct random edges on ``n`` vertices."""
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def disjoint_triangles(k):
    """k disjoint triangles."""
    return Graph(3 * k, [e for i in range(k) for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2),
                                                       (3 * i, 3 * i + 2))])


def tailed_triangles(k):
    """k disjoint triangles, each with a two-edge tail hung on one corner."""
    edges = []
    for i in range(k):
        b = 5 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2), (b + 2, b + 3), (b + 3, b + 4)]
    return Graph(5 * k, edges)


def assert_vertex_set_form(mg, vertices):
    """``preprocess`` on a vertex set and the one-pass split match the references."""
    out = preprocess(mg, vertices)
    assert adj_and_provenance(out) == adj_and_provenance(
        preprocess(multigraph_restrict(mg, vertices)))
    assert ([adj_and_provenance(piece) for piece in preprocessed_components(out)]
            == [adj_and_provenance(multigraph_restrict(out, comp))
                for comp in connected_components(out)])


class TestPreprocess:
    def test_cycle_contracts_to_parallel_pair(self):
        out = preprocess(lift(cycle_graph(6)))
        assert adj_and_provenance(out) == (((1, 1), (0, 0)), ((5,), (0, 1, 2, 3, 4)))

    def test_path_peels_to_k1(self):
        out = preprocess(lift(path_graph(3)))
        assert out.n == 1 and out.adj == [[]]
        assert counts(out) == (1,)

    def test_theta_224_contracts_long_path(self):
        out = preprocess(lift(theta_graph(2, 2, 4)))
        assert out.n == 5
        assert sorted(counts(out)) == [1, 1, 1, 1, 3]
        heavy = counts(out).index(3)
        assert len(out.adj[heavy]) == 2
        assert out.provenance[heavy] == (4, 5, 6)

    def test_triangle(self):
        out = preprocess(lift(cycle_graph(3)))
        assert out.n == 2 and out.adj == [[1, 1], [0, 0]]
        assert sum(counts(out)) == 3

    def test_single_degree_2_vertices_not_contracted(self):
        out = preprocess(lift(theta_graph(2, 2, 2)))
        assert out.n == 5
        assert all(c == 1 for c in counts(out))

    def test_idempotent(self):
        rng = random.Random(11)
        cases = [cycle_graph(7), theta_graph(2, 2, 6), petersen_graph()]
        cases += [gen_gnp(rng.randrange(2, 25), rng.choice([0.08, 0.15, 0.3]), seed=s)
                  for s in range(40)]
        for g in cases:
            once = preprocess(lift(g))
            assert adj_and_provenance(preprocess(once)) == adj_and_provenance(once)

    def test_count_conservation_without_peeling(self):
        # no degree-1 vertices, so contraction must conserve total count
        for g in (cycle_graph(9), theta_graph(2, 2, 8), petersen_graph()):
            out = preprocess(lift(g))
            assert sum(counts(out)) == g.n

    def test_peeling_reduces_by_removed_count(self):
        g = path_graph(6)  # peels to one vertex
        out = preprocess(lift(g))
        assert sum(counts(out)) == 1

    def test_no_adjacent_degree_2_with_distinct_neighbors(self):
        rng = random.Random(5)
        for s in range(60):
            g = gen_gnp(rng.randrange(3, 35), rng.choice([0.08, 0.12, 0.25]), seed=100 + s)
            out = preprocess(lift(g))
            for v in range(out.n):
                assert len(out.adj[v]) != 1
                if len(out.adj[v]) == 2:
                    a, b = out.adj[v]
                    if a != b:
                        assert len(out.adj[a]) >= 3 and len(out.adj[b]) >= 3

    def test_survivors_match_compute_core(self):
        # both peel with the same routine, so even the vertex a tree
        # component leaves behind agrees
        rng = random.Random(17)
        for s in range(150):
            n = rng.randrange(1, 40)
            g = gen_gnp(n, rng.choice([0.03, 0.06, 0.1, 0.2]), seed=9000 + s)
            out = preprocess(lift(g))
            assert {x for p in out.provenance for x in p} == set(compute_core(g)[1])

    def test_second_round_chain_through_counted_vertices(self):
        # a theta on hubs 0 and 1 with three 3-edge paths; vertex 4, the
        # middle of one path, carries a pendant triangle 12-13-14 via 11-12
        g = Graph(15, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (0, 7), (7, 8),
                       (8, 1), (0, 9), (9, 10), (10, 1), (4, 11), (11, 12), (12, 13),
                       (13, 14), (14, 12)])
        first = preprocess(lift(g))
        second = multigraph_delete(first, shortest_cycle(first))
        assert second.provenance == [(0,), (1,), (4,), (11,), (2, 3), (5, 6), (7, 8), (9, 10)]
        out = preprocess(second)
        assert out.provenance == [(0,), (1,), (7, 8), (9, 10), (2, 3, 4, 5, 6)]
        assert counts(out) == (1, 1, 2, 2, 5)
        cut = set(shortest_cycle(first))
        rest = preprocess(first, [v for v in range(first.n) if v not in cut])
        assert adj_and_provenance(rest) == adj_and_provenance(out)


class TestPreprocessOnVertexSets:
    """``preprocess(mg, S)`` equals ``preprocess`` of the restriction to S."""

    def test_every_small_class_and_every_set(self, classes_upto_6):
        for n, graphs in classes_upto_6.items():
            for g in graphs:
                mg = lift(g)
                for mask in range(1 << n):
                    assert_vertex_set_form(mg, [v for v in range(n) if mask >> v & 1])

    def test_seeded_gnp_lifted_and_contracted(self):
        rng = random.Random(4242)
        for trial in range(300):
            g = gen_gnp(rng.randrange(2, 40), rng.choice([0.05, 0.1, 0.2, 0.35]),
                        seed=6000 + trial)
            for mg in (lift(g), preprocess(lift(g))):
                for _ in range(4):
                    assert_vertex_set_form(mg, [v for v in range(mg.n) if rng.random() < 0.75])
                assert_vertex_set_form(mg, range(mg.n))

    def test_random_multigraphs_with_parallel_pairs(self):
        rng = random.Random(1962)
        doubled = 0
        for _ in range(600):
            mg = random_multigraph(rng, rng.randrange(0, 12))
            edges = multigraph_edges(mg)
            doubled += len(set(edges)) < len(edges)
            for _ in range(3):
                assert_vertex_set_form(mg, [v for v in range(mg.n) if rng.random() < 0.7])
        assert doubled > 200

    def test_vertex_set_corpus(self):
        # seeded G(n, p), spiders, dumbbells, thetas, K_{2,n} and triangles
        for g, sets in vertex_set_corpus():
            for vertices in sets:
                assert_vertex_set_form(lift(g), vertices)
            contracted = preprocess(lift(g))
            for v in range(contracted.n):
                assert_vertex_set_form(contracted, [u for u in range(contracted.n) if u != v])

    def test_split_of_connected_graph_is_the_graph(self):
        mg = preprocess(lift(petersen_graph()))
        assert preprocessed_components(mg)[0] is mg
        assert preprocessed_components(counted(0, [])) == []

    def test_split_builds_each_piece_from_its_own_edges(self):
        pieces = preprocessed_components(preprocess(lift(tailed_triangles(3))))
        assert [p.provenance for p in pieces] == [[(2,), (0, 1)], [(7,), (5, 6)],
                                                  [(12,), (10, 11)]]
        assert all(p.adj == [[1, 1], [0, 0]] for p in pieces)

    def test_results_keep_sorted_symmetric_lists(self):
        # shortest_cycle and the heuristic's list edits rely on sorted lists
        rng = random.Random(1960)
        for _ in range(300):
            mg = random_multigraph(rng, rng.randrange(0, 14))
            out = preprocess(mg, [v for v in range(mg.n) if rng.random() < 0.8])
            for piece in [out] + preprocessed_components(out):
                for v in range(piece.n):
                    assert piece.adj[v] == sorted(piece.adj[v])
                    for u in set(piece.adj[v]):
                        assert piece.adj[u].count(v) == piece.adj[v].count(u)

    @pytest.mark.parametrize("bad", [[-1], [5], [0, 1, 5]])
    def test_out_of_range_ids_rejected(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            preprocess(lift(cycle_graph(5)), bad)


class TestCPrimeClassification:
    def test_counted_k1(self):
        mg = counted(1, [], provenance=((0, 1, 2, 3, 4, 5, 6),))
        assert classify_c_prime(mg).kind == KIND_K1_COUNTED

    def test_parallel_pair_even_sum(self):
        mg = counted(2, [(0, 1), (0, 1)], provenance=(tuple(range(5)), (9,)))
        assert classify_c_prime(mg).kind == KIND_PARALLEL_PAIR_EVEN

    def test_parallel_pair_odd_sum(self):
        mg = counted(2, [(0, 1), (0, 1)], provenance=(tuple(range(4)), (9,)))
        assert classify_c_prime(mg).kind == KIND_NOT_IN_FAMILY

    def test_counted_k23(self):
        k23 = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        mg = counted(5, k23, provenance=((0,), (1,), (2, 3, 4), (5,), (6,)))
        assert classify_c_prime(mg).kind == KIND_K23_ONE_ODD
        all_ones = counted(5, k23)
        assert classify_c_prime(all_ones).kind == KIND_K23_ONE_ODD

    def test_counted_k23_rejections(self):
        k23 = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        even = counted(5, k23, provenance=((0,), (1,), (2, 3), (4,), (5,)))
        assert classify_c_prime(even).kind == KIND_NOT_IN_FAMILY
        hub_heavy = counted(5, k23, provenance=((0, 1, 2), (3,), (4,), (5,), (6,)))
        assert classify_c_prime(hub_heavy).kind == KIND_NOT_IN_FAMILY
        two_heavy = counted(5, k23, provenance=((0,), (1,), (2, 3, 4), (5, 6, 7), (8,)))
        assert classify_c_prime(two_heavy).kind == KIND_NOT_IN_FAMILY

    def test_house_outside(self):
        # C5 plus the chord 0-2: degrees 3, 3, 2, 2, 2 on five vertices and
        # six edges, but the hubs are adjacent
        house = counted(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        assert classify_c_prime(house).kind == KIND_NOT_IN_FAMILY

    def test_rejects_unpreprocessed(self):
        with pytest.raises(ValueError, match="not preprocessed"):
            classify_c_prime(counted(2, [(0, 1)]))


class TestPipelineEquivalence:
    def test_even_cycles_and_examples(self):
        for m in range(1, 5):
            assert is_2_choosable_via_preprocessing(cycle_graph(2 * m + 2))
        assert not is_2_choosable_via_preprocessing(cycle_graph(5))
        assert is_2_choosable_via_preprocessing(theta_graph(2, 2, 6))

    def test_theta_226_shape(self):
        out = preprocess(lift(theta_graph(2, 2, 6)))
        verdicts = [classify_c_prime(c) for c in preprocessed_components(out)]
        assert [v.kind for v in verdicts] == [KIND_K23_ONE_ODD]
        assert 5 in counts(out)

    def test_agreement_small_classes(self):
        for n in range(0, 7):
            for g in graph_classes(n):
                assert is_2_choosable_via_preprocessing(g) == is_2_choosable(g)[0]

    def test_agreement_random(self):
        rng = random.Random(2024)
        for trial in range(200):
            n = rng.randrange(1, 41)
            g = gen_gnp(n, rng.choice([0.05, 0.1, 0.2, 0.4]), seed=5000 + trial)
            assert is_2_choosable_via_preprocessing(g) == is_2_choosable(g)[0]


class TestApprox2Del:
    def test_c6_deleted_as_family_component(self):
        assert approx_2_del(cycle_graph(6)) == ()

    def test_c3_trace(self):
        # contraction to an odd parallel pair, whole 2-cycle selected,
        # expansion picks the first path vertex plus the uncontracted vertex
        assert approx_2_del(cycle_graph(3)) == (0, 2)

    def test_petersen_valid(self):
        g = petersen_graph()
        a = approx_2_del(g)
        assert is_2_choosable(delete_vertices(g, a)[0])[0]

    def test_always_valid_on_randoms(self):
        rng = random.Random(31)
        for trial in range(120):
            n = rng.randrange(1, 50)
            g = gen_gnp(n, rng.choice([0.05, 0.1, 0.2, 0.5]), seed=7000 + trial)
            a = approx_2_del(g)
            assert is_2_choosable(delete_vertices(g, a)[0])[0]
            assert len(set(a)) == len(a)

    def test_matches_whole_graph_loop(self, classes_upto_6):
        cases = [g for graphs in classes_upto_6.values() for g in graphs]
        rng = random.Random(97)
        cases += [gen_gnp(rng.randrange(1, 80), rng.choice([0.03, 0.06, 0.1, 0.2]), seed=8000 + s)
                  for s in range(300)]
        cases += [spider_graph(k) for k in (3, 10, 50)]
        cases += [dumbbell_graph(3, 3, 2), dumbbell_graph(3, 5, 1), dumbbell_graph(5, 5, 3)]
        cases.append(disjoint_union(disjoint_union(spider_graph(4), petersen_graph()),
                                    cycle_graph(5)))
        phi = CnfFormula(7, [(1, 2, 3), (3, 4, 5), (5, 6, 7)])
        cases.append(build_G_phi_p(phi, 1).graph)
        cases += [tailed_triangles(k) for k in (1, 2, 50)]
        phi = CnfFormula(5, [(1, -2, 3), (-1, 4, 5), (2, -4, -5), (-3, 4, 1)])
        cases.append(build_G_phi_p(phi, 2).graph)
        for g in cases:
            assert approx_2_del(g) == approx_2_del_global(g)

    def test_matches_whole_graph_loop_over_many_rounds(self):
        # each of these takes dozens of rounds, most of them on one large
        # component; the triangles take one round per component
        rng = random.Random(250)
        cases = [gnm(n, 5 * n // 4, rng) for n in (250, 500, 1000)]
        cases += [spider_graph(20), spider_graph(30), spider_graph(50), dumbbell_graph(7, 9, 6)]
        phi = CnfFormula(7, [(1, 2, 3), (3, 4, 5), (5, 6, 7)])
        cases.append(build_G_phi_p(phi, 2).graph)
        cases.append(build_G_phi_p(phi, 3).graph)
        cases.append(disjoint_triangles(150))
        for g in cases:
            assert approx_2_del(g) == approx_2_del_global(g)
        # the whole-graph loop re-contracts everything each round, so 2,000
        # triangles would take it a minute; components never interact in it,
        # so its answer is the shifted union of its answer on one triangle
        one = approx_2_del_global(cycle_graph(3))
        expected = tuple(sorted(3 * i + v for i in range(2000) for v in one))
        assert approx_2_del(disjoint_triangles(2000)) == expected

    def test_round_on_working_multigraph_is_preprocess_of_the_rest(self):
        # a round deletes a shortest cycle and repairs only around it; what is
        # left, relabelled in ascending order, is preprocess of the rest, and
        # the cut component splits into the components of what is left of it.
        # The working multigraph keeps one certificate state across the
        # rounds, and each round's cycle is that of a search with none
        rng = random.Random(1998)
        rounds = 0
        for trial in range(40):
            g = gen_gnp(rng.randrange(10, 80), rng.choice([0.04, 0.08, 0.15]), seed=9500 + trial)
            current = preprocess(lift(g))
            work = CountedMultiGraph([list(a) for a in current.adj], list(current.provenance))
            work.cycle_search = _CycleSearch()
            ids = list(range(current.n))
            cycle = shortest_cycle(current)
            while cycle is not None:
                found = shortest_cycle(work, ids)
                assert found == [ids[v] for v in cycle]
                assert found == shortest_cycle(CountedMultiGraph(work.adj, work.provenance), ids)
                comp = next(c for c in connected_components(work, ids) if found[0] in c)
                pieces = _cut(work, comp, found)
                left = sorted(v for piece in pieces for v in piece)
                assert pieces == connected_components(work, left)
                ids = sorted(set(ids).difference(comp).union(left))
                current = preprocess(current, [v for v in range(current.n) if v not in cycle])
                assert adj_and_provenance(_relabelled(work, ids)) == adj_and_provenance(current)
                cycle = shortest_cycle(current)
                rounds += 1
        assert rounds > 100

    def test_root_whose_ball_met_the_cut_searches_again(self, monkeypatch):
        # two Petersen graphs, on 0..9 and 10..19; vertex 20 closes the
        # 4-cycle 10-11-20-14 and carries the triangle 20-21-22.  Round one
        # cuts the triangle, which takes the 4-cycle with it: root 10 read
        # the adjacency of 11 and 14, so it must search again, or its stale
        # length 4 would win; roots 0..9 keep their certificates
        p = petersen_graph()
        edges = list(p.edges) + [(u + 10, v + 10) for u, v in p.edges]
        edges += [(11, 20), (14, 20), (20, 21), (21, 22), (20, 22)]
        g = Graph(23, edges)
        work = CountedMultiGraph.from_graph(g)
        work.cycle_search = _CycleSearch()
        searched = []
        root_bfs = graphs._root_bfs

        def recorded(adj, inside, v0, *rest):
            searched.append(v0)
            return root_bfs(adj, inside, v0, *rest)

        monkeypatch.setattr(graphs, "_root_bfs", recorded)
        assert shortest_cycle(work, range(23)) == [20, 21, 22]
        assert work.cycle_search.low[10] == 4 and work.cycle_search.tight[10]
        assert _cut(work, range(10, 23), [20, 21, 22]) == [tuple(range(10, 20))]
        assert not work.cycle_search.tight[10]
        searched.clear()
        assert shortest_cycle(work, range(20)) == [0, 1, 2, 3, 4]
        assert 10 in searched
        # only the winning root runs again, to restore its labels
        assert [v for v in searched if v < 10] == [0]
        monkeypatch.undo()
        fresh = CountedMultiGraph(work.adj, work.provenance)
        assert shortest_cycle(fresh, range(20)) == [0, 1, 2, 3, 4]

    def test_disjoint_union_is_shifted_union(self):
        parts = [spider_graph(3), petersen_graph(), cycle_graph(5), cycle_graph(6),
                 dumbbell_graph(3, 5, 1)]
        union = parts[0]
        expected = list(approx_2_del(parts[0]))
        for part in parts[1:]:
            expected += [v + union.n for v in approx_2_del(part)]
            union = disjoint_union(union, part)
        assert approx_2_del(union) == tuple(sorted(expected))
