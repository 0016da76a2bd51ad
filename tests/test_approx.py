import hashlib
import random

import pytest

from choosability import graphs
from choosability.approx import (CountedMultiGraph, _cut, _in_family, approx_2_del,
                                 is_2_choosable_via_preprocessing, preprocess)
from choosability.generators import gen_gnp
from choosability.graphs import (Graph, _CycleSearch, _shortest_cycle, connected_components,
                                 delete_vertices, shortest_cycle)
from choosability.recognition import (KIND_EVEN_CYCLE, KIND_K1, KIND_OUTSIDE, KIND_THETA,
                                      _classify_component, classify_core, compute_core,
                                      is_2_choosable)

from choosability.reductions import CnfFormula, build_G_phi_p

from conftest import (adj_and_provenance, approx_2_del_global, counted, counts, cycle_graph,
                      disjoint_union, dumbbell_graph, graph_classes, lift, multigraph_delete,
                      multigraph_edges, multigraph_restrict, path_graph, petersen_graph,
                      random_multigraph, spider_graph, theta_graph, vertex_set_corpus)


def contracted(mg, vertices=None):
    """``preprocess(mg, vertices)`` relabelled on its vertices in ascending order."""
    return multigraph_restrict(*preprocess(mg, vertices))


def classify(mg):
    """``(kind, m)`` of the whole connected counted multigraph ``mg``, read with its counts."""
    return _classify_component(range(mg.n), mg.adj, [len(a) for a in mg.adj], counts(mg))


def in_family(mg):
    """Whether the whole connected counted multigraph ``mg`` is in the family."""
    return classify(mg)[0] != KIND_OUTSIDE


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
    """``preprocess`` on a vertex set matches the contraction of the restriction to it."""
    assert adj_and_provenance(contracted(mg, vertices)) == adj_and_provenance(
        contracted(multigraph_restrict(mg, vertices)))


class TestPreprocess:
    def test_cycle_contracts_to_parallel_pair(self):
        out = contracted(lift(cycle_graph(6)))
        assert adj_and_provenance(out) == (((1, 1), (0, 0)), ((5,), (0, 1, 2, 3, 4)))

    def test_path_peels_to_k1(self):
        out = contracted(lift(path_graph(3)))
        assert out.n == 1 and out.adj == [[]]
        assert counts(out) == (1,)

    def test_theta_224_contracts_long_path(self):
        out = contracted(lift(theta_graph(2, 2, 4)))
        assert out.n == 5
        assert sorted(counts(out)) == [1, 1, 1, 1, 3]
        heavy = counts(out).index(3)
        assert len(out.adj[heavy]) == 2
        assert out.provenance[heavy] == (4, 5, 6)

    def test_triangle(self):
        out = contracted(lift(cycle_graph(3)))
        assert out.n == 2 and out.adj == [[1, 1], [0, 0]]
        assert sum(counts(out)) == 3

    def test_single_degree_2_vertices_not_contracted(self):
        out = contracted(lift(theta_graph(2, 2, 2)))
        assert out.n == 5
        assert all(c == 1 for c in counts(out))

    def test_graph_and_unit_counted_multigraph_agree(self):
        # a Graph gets unit provenance, so it contracts like its lift
        rng = random.Random(12)
        for s in range(60):
            g = gen_gnp(rng.randrange(1, 30), rng.choice([0.05, 0.1, 0.2]), seed=300 + s)
            vertices = [v for v in range(g.n) if rng.random() < 0.8]
            for subset in (None, vertices):
                work, ids = preprocess(g, subset)
                lifted, lifted_ids = preprocess(lift(g), subset)
                assert ids == lifted_ids
                assert adj_and_provenance(work) == adj_and_provenance(lifted)

    def test_idempotent(self):
        rng = random.Random(11)
        cases = [cycle_graph(7), theta_graph(2, 2, 6), petersen_graph()]
        cases += [gen_gnp(rng.randrange(2, 25), rng.choice([0.08, 0.15, 0.3]), seed=s)
                  for s in range(40)]
        for g in cases:
            once = contracted(lift(g))
            assert adj_and_provenance(contracted(once)) == adj_and_provenance(once)

    def test_count_conservation_without_peeling(self):
        # no degree-1 vertices, so contraction must conserve total count
        for g in (cycle_graph(9), theta_graph(2, 2, 8), petersen_graph()):
            out = contracted(lift(g))
            assert sum(counts(out)) == g.n

    def test_peeling_reduces_by_removed_count(self):
        g = path_graph(6)  # peels to one vertex
        out = contracted(lift(g))
        assert sum(counts(out)) == 1

    def test_no_adjacent_degree_2_with_distinct_neighbors(self):
        rng = random.Random(5)
        for s in range(60):
            g = gen_gnp(rng.randrange(3, 35), rng.choice([0.08, 0.12, 0.25]), seed=100 + s)
            out = contracted(lift(g))
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
            out = contracted(lift(g))
            assert {x for p in out.provenance for x in p} == set(compute_core(g)[1])

    def test_second_round_chain_through_counted_vertices(self):
        # a theta on hubs 0 and 1 with three 3-edge paths; vertex 4, the
        # middle of one path, carries a pendant triangle 12-13-14 via 11-12
        g = Graph(15, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (0, 7), (7, 8),
                       (8, 1), (0, 9), (9, 10), (10, 1), (4, 11), (11, 12), (12, 13),
                       (13, 14), (14, 12)])
        first = contracted(lift(g))
        second = multigraph_delete(first, shortest_cycle(first))
        assert second.provenance == [(0,), (1,), (4,), (11,), (2, 3), (5, 6), (7, 8), (9, 10)]
        out = contracted(second)
        assert out.provenance == [(0,), (1,), (7, 8), (9, 10), (2, 3, 4, 5, 6)]
        assert counts(out) == (1, 1, 2, 2, 5)
        cut = set(shortest_cycle(first))
        rest = contracted(first, [v for v in range(first.n) if v not in cut])
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
            for mg in (lift(g), contracted(lift(g))):
                for _ in range(4):
                    assert_vertex_set_form(mg, [v for v in range(mg.n) if rng.random() < 0.75])
                assert_vertex_set_form(mg, range(mg.n))

    def test_working_multigraph_on_its_own_ids(self):
        # a second call on the working multigraph itself, on its ids or a
        # subset of them, contracts what the relabelled copy contracts
        rng = random.Random(4343)
        for trial in range(200):
            g = gen_gnp(rng.randrange(2, 40), rng.choice([0.05, 0.1, 0.2, 0.35]),
                        seed=6500 + trial)
            work, ids = preprocess(g)
            copy = multigraph_restrict(work, ids)
            for keep in (1.0, 0.75, 0.5):
                mask = [rng.random() < keep for _ in ids]
                subset = [v for v, m in zip(ids, mask) if m]
                assert adj_and_provenance(contracted(work, subset)) == adj_and_provenance(
                    contracted(copy, [i for i, m in enumerate(mask) if m]))

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
            out = contracted(lift(g))
            for v in range(out.n):
                assert_vertex_set_form(out, [u for u in range(out.n) if u != v])

    def test_split_of_connected_graph_is_the_graph(self):
        work, ids = preprocess(petersen_graph())
        assert connected_components(work, ids) == [tuple(ids)]
        work, ids = preprocess(counted(0, []))
        assert ids == [] and connected_components(work, ids) == []

    def test_split_builds_each_piece_from_its_own_edges(self):
        work, ids = preprocess(tailed_triangles(3))
        pieces = [multigraph_restrict(work, comp) for comp in connected_components(work, ids)]
        assert [p.provenance for p in pieces] == [[(2,), (0, 1)], [(7,), (5, 6)],
                                                  [(12,), (10, 11)]]
        assert all(p.adj == [[1, 1], [0, 0]] for p in pieces)

    def test_results_keep_sorted_symmetric_lists(self):
        # shortest_cycle and the heuristic's list edits rely on sorted lists
        rng = random.Random(1960)
        for _ in range(300):
            mg = random_multigraph(rng, rng.randrange(0, 14))
            work, ids = preprocess(mg, [v for v in range(mg.n) if rng.random() < 0.8])
            assert ids == sorted(ids)
            kept = set(ids)
            for v in range(work.n):
                if v not in kept:
                    assert work.adj[v] == []
                    continue
                assert work.adj[v] == sorted(work.adj[v])
                for u in set(work.adj[v]):
                    assert u in kept
                    assert work.adj[u].count(v) == work.adj[v].count(u)

    @pytest.mark.parametrize("bad", [[-1], [5], [0, 1, 5]])
    def test_out_of_range_ids_rejected(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            preprocess(lift(cycle_graph(5)), bad)


class TestCPrimeClassification:
    def test_counted_k1(self):
        assert classify(counted(1, [], provenance=((0, 1, 2, 3, 4, 5, 6),))) == (KIND_K1, None)

    def test_parallel_pair_even_sum(self):
        # a count of 5 and one of 1: the contraction of C_6
        pair = counted(2, [(0, 1), (0, 1)], provenance=(tuple(range(5)), (9,)))
        assert classify(pair) == (KIND_EVEN_CYCLE, 2)

    def test_parallel_pair_odd_sum(self):
        assert not in_family(counted(2, [(0, 1), (0, 1)], provenance=(tuple(range(4)), (9,))))

    def test_counted_k23(self):
        # one leg of count 3: the contraction of theta_{2,2,4}
        k23 = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        heavy = counted(5, k23, provenance=((0,), (1,), (2, 3, 4), (5,), (6,)))
        assert classify(heavy) == (KIND_THETA, 2)
        assert classify(counted(5, k23)) == (KIND_THETA, 1)

    def test_counted_k23_rejections(self):
        k23 = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        even = counted(5, k23, provenance=((0,), (1,), (2, 3), (4,), (5,)))
        assert not in_family(even)
        hub_heavy = counted(5, k23, provenance=((0, 1, 2), (3,), (4,), (5,), (6,)))
        assert not in_family(hub_heavy)
        two_heavy = counted(5, k23, provenance=((0,), (1,), (2, 3, 4), (5, 6, 7), (8,)))
        assert not in_family(two_heavy)

    def test_house_outside(self):
        # C5 plus the chord 0-2: degrees 3, 3, 2, 2, 2 on five vertices and
        # six edges, but the hubs are adjacent
        assert not in_family(counted(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]))

    def test_family_reads_only_the_given_vertices(self):
        # the K_{2,3} sits on ids 3..7 of a working multigraph whose other
        # slots are empty, with counts in a dict
        k23 = [(3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7)]
        mg = counted(8, k23)
        degree = {v: len(mg.adj[v]) for v in range(3, 8)}
        assert _classify_component(range(3, 8), mg.adj, degree,
                                   {v: 1 for v in range(3, 8)}) == (KIND_THETA, 1)
        assert _classify_component(range(3, 8), mg.adj, degree,
                                   {3: 2, 4: 1, 5: 1, 6: 1, 7: 1})[0] == KIND_OUTSIDE

    def test_in_family_reads_a_component_on_working_ids(self):
        # _in_family reads a contracted component where it sits in the
        # working multigraph, and agrees with the classifier on its relabelled copy
        rng = random.Random(3535)
        seen = set()
        for trial in range(300):
            g = gen_gnp(rng.randrange(2, 30), rng.choice([0.05, 0.1, 0.2]), seed=7000 + trial)
            work, ids = preprocess(g)
            for comp in connected_components(work, ids):
                answer = _in_family(work, comp)
                assert answer == in_family(multigraph_restrict(work, comp))
                seen.add(answer)
        assert seen == {True, False}

    def test_in_family_outside_above_five_vertices(self):
        # a contracted K1, even cycle or theta has at most 5 vertices, so the
        # early answer for larger components is the classifier's answer too
        rng = random.Random(3636)
        large = 0
        for _ in range(400):
            work, ids = preprocess(random_multigraph(rng, rng.randrange(6, 14)))
            for comp in connected_components(work, ids):
                if len(comp) > 5:
                    large += 1
                    assert not _in_family(work, comp)
                    assert not in_family(multigraph_restrict(work, comp))
        assert large > 100

    def test_unpreprocessed_edge_is_outside_until_preprocessed(self):
        # K2 is 2-choosable, but the family test reads preprocessed input:
        # on the bare edge it says no, on its contraction (one vertex) yes
        edge = counted(2, [(0, 1)])
        assert not in_family(edge)
        assert in_family(contracted(edge))

    @pytest.mark.parametrize("m", range(1, 5))
    def test_contractions_keep_the_family_parameter(self, m):
        # C_{2m+2} contracts to a parallel pair and theta_{2,2,2m} to a
        # K_{2,3}; read with counts, each gives the m of the simple core
        for g, shape in ((cycle_graph(2 * m + 2), (KIND_EVEN_CYCLE, m)),
                         (theta_graph(2, 2, 2 * m), (KIND_THETA, m))):
            out = contracted(g)
            assert out.n == (2 if shape[0] == KIND_EVEN_CYCLE else 5)
            assert classify(out) == shape
            assert [(c.kind, c.m) for c in classify_core(g)] == [shape]


class TestPipelineEquivalence:
    def test_even_cycles_and_examples(self):
        for m in range(1, 5):
            assert is_2_choosable_via_preprocessing(cycle_graph(2 * m + 2))
        assert not is_2_choosable_via_preprocessing(cycle_graph(5))
        assert is_2_choosable_via_preprocessing(theta_graph(2, 2, 6))

    def test_theta_226_shape(self):
        out = contracted(lift(theta_graph(2, 2, 6)))
        assert connected_components(out) == [tuple(range(5))]
        assert in_family(out)
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
        # One certificate store is kept across the rounds, as approx_2_del
        # keeps it, and each round's cycle is that of a search with none
        rng = random.Random(1998)
        rounds = 0
        for trial in range(40):
            g = gen_gnp(rng.randrange(10, 80), rng.choice([0.04, 0.08, 0.15]), seed=9500 + trial)
            current, current_ids = preprocess(g)
            work = CountedMultiGraph([list(a) for a in current.adj], list(current.provenance))
            search = _CycleSearch()
            ids = list(current_ids)
            cycle = shortest_cycle(current, current_ids)
            while cycle is not None:
                position = {v: i for i, v in enumerate(current_ids)}
                found = _shortest_cycle(work.adj, ids, search)
                assert found == [ids[position[v]] for v in cycle]
                assert found == shortest_cycle(CountedMultiGraph(work.adj, work.provenance), ids)
                comp = next(c for c in connected_components(work, ids) if found[0] in c)
                pieces = _cut(work, comp, found, search)
                left = sorted(v for piece in pieces for v in piece)
                assert pieces == connected_components(work, left)
                ids = sorted(set(ids).difference(comp).union(left))
                current, current_ids = preprocess(
                    current, [v for v in current_ids if v not in cycle])
                assert (adj_and_provenance(multigraph_restrict(work, ids))
                        == adj_and_provenance(multigraph_restrict(current, current_ids)))
                cycle = shortest_cycle(current, current_ids)
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
        work = lift(g)
        search = _CycleSearch()
        searched = []
        root_bfs = graphs._root_bfs

        def recorded(adj, v0, *rest):
            searched.append(v0)
            return root_bfs(adj, v0, *rest)

        monkeypatch.setattr(graphs, "_root_bfs", recorded)
        assert _shortest_cycle(work.adj, range(23), search) == [20, 21, 22]
        assert search.low[10] == 4 and search.tight[10]
        assert _cut(work, range(10, 23), [20, 21, 22], search) == [tuple(range(10, 20))]
        assert not search.tight[10]
        searched.clear()
        assert _shortest_cycle(work.adj, range(20), search) == [0, 1, 2, 3, 4]
        assert 10 in searched
        # only the winning root runs again, to restore its labels
        assert [v for v in searched if v < 10] == [0]
        monkeypatch.undo()
        fresh = CountedMultiGraph(work.adj, work.provenance)
        assert shortest_cycle(fresh, range(20)) == [0, 1, 2, 3, 4]

    def test_cut_that_leaves_many_pieces(self):
        # a triangle whose corners carry 30 Petersen graphs, each hung by one
        # edge: the first round deletes the triangle, and the split finds
        # each Petersen graph from its own seed
        p = petersen_graph()
        edges = [(0, 1), (1, 2), (0, 2)]
        for i in range(30):
            base = 3 + 10 * i
            edges += [(i % 3, base)] + [(u + base, v + base) for u, v in p.edges]
        g = Graph(303, edges)
        work, ids = preprocess(g)
        search = _CycleSearch()
        cycle = _shortest_cycle(work.adj, ids, search)
        assert cycle == [0, 1, 2]
        pieces = _cut(work, ids, cycle, search)
        assert len(pieces) == 30
        assert pieces == connected_components(work, range(3, 303))
        assert pieces == [tuple(range(3 + 10 * i, 13 + 10 * i)) for i in range(30)]
        assert approx_2_del(g) == approx_2_del_global(g)

    def test_disjoint_union_is_shifted_union(self):
        parts = [spider_graph(3), petersen_graph(), cycle_graph(5), cycle_graph(6),
                 dumbbell_graph(3, 5, 1)]
        union = parts[0]
        expected = list(approx_2_del(parts[0]))
        for part in parts[1:]:
            expected += [v + union.n for v in approx_2_del(part)]
            union = disjoint_union(union, part)
        assert approx_2_del(union) == tuple(sorted(expected))


#: sha256 of ``repr`` of the heuristic's answers on :func:`pinned_corpus`,
#: recorded before ``preprocess`` became the heuristic's contraction
PINNED_ANSWERS = "346ef08a7bc7c5ba2d64c5ea18859d94a26a85fcdf5c82b44b4cffa7c56dbb89"


def pinned_corpus():
    """Spiders, dumbbells, G(n, 5n/4) for n = 250 / 500 / 1000 and one ``G_phi_p``."""
    rng = random.Random(250)
    corpus = [spider_graph(k) for k in (3, 10, 50)]
    corpus += [dumbbell_graph(3, 3, 2), dumbbell_graph(3, 5, 1), dumbbell_graph(5, 5, 3),
               dumbbell_graph(7, 9, 6)]
    corpus += [gnm(n, 5 * n // 4, rng) for n in (250, 500, 1000)]
    corpus.append(build_G_phi_p(CnfFormula(7, [(1, 2, 3), (3, 4, 5), (5, 6, 7)]), 2).graph)
    return corpus


def test_answers_match_the_pinned_digest():
    answers = [approx_2_del(g) for g in pinned_corpus()]
    assert [len(a) for a in answers] == [4, 18, 98, 4, 4, 4, 4, 66, 127, 242, 252]
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == PINNED_ANSWERS
