import itertools
import random

import pytest

from choosability import graphs
from choosability.errors import BudgetExceededError
from choosability.generators import gen_gnp
from choosability.approx import CountedMultiGraph
from choosability.graphs import (Graph, _components, _peel, connected_components,
                                 coloring_is_proper,
                                 delete_vertices, diameter, induced_subgraph, is_bipartite,
                                 is_triangle_free, shortest_cycle)
from choosability.recognition import is_L_colorable

from conftest import (SortedTupleGraph, brute_diameter, brute_girth, brute_lex_shortest_cycle,
                      complete_bipartite, complete_graph, counted, cycle_graph, disjoint_union,
                      graph_classes, graph_reference, lift, mask_to_graph, multigraph_edges,
                      multigraph_restrict, path_graph, petersen_graph, random_multigraph,
                      vertex_pairs, vertex_set_corpus)


def k_colorable(g, k, budget=None):
    """Proper k-coloring search: every list is 1..k."""
    return is_L_colorable(g, dict.fromkeys(range(g.n), range(1, k + 1)), budget)


#: edges that add each fault to a graph on six vertices
FAULTS = {"self-loop": [(2, 2)], "duplicate": [(1, 3), (3, 1)],
          "out of range": [(4, 6), (-1, 0)]}


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])
        # the message gives the edge as (smaller, larger)
        with pytest.raises(ValueError, match=r"^edge \(0, 2\) out of range for n=2$"):
            Graph(2, [(2, 0)])

    def test_matches_reference_on_every_labelled_graph(self):
        for n in range(7):
            pairs = vertex_pairs(n)
            for mask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                g = Graph(n, edges)
                assert (g.edges, g.adj) == graph_reference(n, edges)

    def test_matches_reference_on_shuffled_gnp(self):
        rng = random.Random(20240)
        for _ in range(300):
            n = rng.randrange(1, 40)
            prob = rng.random()
            edges = [(u, v) if rng.random() < 0.5 else (v, u)
                     for u, v in vertex_pairs(n) if rng.random() < prob]
            rng.shuffle(edges)
            for given in (edges, [(v, u) for u, v in edges]):
                g = Graph(n, given)
                assert (g.edges, g.adj) == graph_reference(n, given)

    @pytest.mark.parametrize("faults", [kinds for r in (1, 2, 3)
                                        for kinds in itertools.combinations(FAULTS, r)],
                             ids="+".join)
    def test_each_fault_raises_its_message(self, faults):
        rng = random.Random(len(faults))
        base = [(0, 1), (1, 2), (2, 4), (0, 5)]
        for _ in range(20):
            edges = base + [e for kind in faults for e in FAULTS[kind]]
            rng.shuffle(edges)
            with pytest.raises(ValueError) as info:
                Graph(6, edges)
            message = str(info.value)
            assert any(kind in message for kind in faults), message
            if len(faults) == 1:
                with pytest.raises(ValueError, match=faults[0]):
                    graph_reference(6, edges)

    def test_adjacency_symmetric_and_degree(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        for u, v in g.edges:
            assert u in g.adj[v] and v in g.adj[u]
        assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]

    def test_equality_and_repr(self):
        g = Graph(2, [(0, 1)])
        assert g == Graph(2, [(1, 0)]) and hash(g) == hash(Graph(2, [(0, 1)]))
        assert g != Graph(2, []) and g != Graph(3, [(0, 1)])
        assert repr(g) == "Graph(n=2, m=1)"

    def test_has_edge_matches_adjacency(self):
        for n in range(6):
            for g in graph_classes(n):
                for u in range(n):
                    assert [g.has_edge(u, v) for v in range(-1, n + 1)] == [
                        v in g.adj[u] for v in range(-1, n + 1)]


def _three_orders(rng, n, prob):
    """A seeded edge set on ``n`` vertices as ascending, shuffled and flipped lists.

    The shuffled list has each edge in a random orientation; the flipped
    one is the ascending list with every edge written (larger, smaller).
    """
    ascending = [e for e in vertex_pairs(n) if rng.random() < prob]
    shuffled = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in ascending]
    rng.shuffle(shuffled)
    return ascending, shuffled, [(v, u) for u, v in ascending]


def _message(build, *args):
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


class TestAgainstSortedTupleGraph:
    """The adjacency-first constructor against the sorted-tuple one it replaced."""

    @pytest.mark.parametrize("seed", range(30))
    def test_same_graph_in_every_order(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(0, 80)
        built = []
        for edges in _three_orders(rng, n, rng.random() * 0.2):
            g, ref = Graph(n, edges), SortedTupleGraph(n, edges)
            assert (g.n, g.m, g.adj, g.edges) == (ref.n, ref.m, ref.adj, ref.edges)
            assert hash(g) == hash(ref)
            built.append(g)
        assert built[0] == built[1] == built[2]
        if built[0].m:
            fewer = Graph(n, built[0].edges[1:])
            assert fewer != built[1] and fewer.m == built[1].m - 1
            assert hash(fewer) == hash(SortedTupleGraph(n, built[0].edges[1:]))

    def test_ascending_pairs_are_kept_not_rebuilt(self):
        rng = random.Random(7)
        ascending, shuffled, _ = _three_orders(rng, 30, 0.3)
        kept = Graph(30, ascending).edges
        assert all(a is b for a, b in zip(kept, ascending))
        rebuilt = Graph(30, shuffled).edges
        assert rebuilt == kept and not any(a is b for a, b in zip(rebuilt, ascending))

    def test_an_id_ending_one_list_and_starting_the_next_is_no_repeat(self):
        # adj[0] = (2,) and adj[1] = (2,): one id twice in a row across lists
        for edges in ([(2, 0), (1, 2)], [(0, 3), (3, 1), (1, 2), (4, 3)]):
            g, ref = Graph(5, edges), SortedTupleGraph(5, edges)
            assert (g.adj, g.edges, g.m) == (ref.adj, ref.edges, ref.m)

    def test_columns_tell_a_list_boundary_from_a_repeat(self):
        # adj[0] = (2,) and adj[1] = (2,) put 2 twice in a row across a list
        # boundary; (0, 2) given twice puts it twice inside adj[0]
        g = Graph._from_columns(3, [0, 1], [2, 2])
        assert (g.adj, g.edges, g.m) == (((2,), (2,), (0, 1)), ((0, 2), (1, 2)), 2)
        assert _message(Graph._from_columns, 3, [0, 2], [2, 0]) == "duplicate edge (0, 2)"

    def test_columns_give_the_same_graph(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(1, 40)
            _, shuffled, _ = _three_orders(rng, n, rng.random() * 0.3)
            g = Graph._from_columns(n, [u for u, _ in shuffled], [v for _, v in shuffled])
            assert g == Graph(n, shuffled) and g.edges == SortedTupleGraph(n, shuffled).edges

    @pytest.mark.parametrize("seed", range(60))
    def test_several_faults_name_the_first_in_sorted_order(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randrange(1, 12)
        edges = [e for e in vertex_pairs(n) if rng.random() < 0.4]
        for _ in range(rng.randint(2, 4)):
            kind = rng.choice(["self-loop", "range", "duplicate"] if edges
                              else ["self-loop", "range"])
            if kind == "self-loop":
                u = rng.randrange(-1, n + 2)
                edges.append((u, u))
            elif kind == "range":
                u, v = rng.randrange(n), rng.choice([-2, -1, n, n + 3])
                edges.append((u, v) if rng.random() < 0.5 else (v, u))
            else:
                u, v = rng.choice(edges)
                edges.append((u, v) if rng.random() < 0.5 else (v, u))
        rng.shuffle(edges)
        expected = _message(SortedTupleGraph, n, edges)
        assert _message(Graph, n, edges) == expected
        assert _message(Graph._from_columns, n, [u for u, _ in edges],
                        [v for _, v in edges]) == expected
        # the same faults given ascending, each pair (smaller, larger)
        ascending = sorted((u, v) if u < v else (v, u) for u, v in edges)
        assert _message(Graph, n, ascending) == expected


class TestBipartite:
    def test_even_cycle(self):
        ok, coloring = is_bipartite(cycle_graph(6))
        assert ok
        assert coloring_is_proper(cycle_graph(6), coloring)

    def test_complete_bipartite(self):
        assert is_bipartite(complete_bipartite(2, 3))[0]

    def test_odd_cycle_witness(self):
        ok, cycle = is_bipartite(cycle_graph(5))
        assert not ok
        assert len(cycle) % 2 == 1 and len(cycle) >= 3
        g = cycle_graph(5)
        for i, v in enumerate(cycle):
            assert g.has_edge(v, cycle[(i + 1) % len(cycle)])

    def test_odd_witness_revalidates_everywhere(self):
        for n in range(3, 7):
            for g in graph_classes(n):
                ok, witness = is_bipartite(g)
                if ok:
                    assert coloring_is_proper(g, witness)
                else:
                    assert len(witness) % 2 == 1
                    assert len(set(witness)) == len(witness)
                    for i, v in enumerate(witness):
                        assert g.has_edge(v, witness[(i + 1) % len(witness)])

    def test_agrees_with_two_coloring_search(self):
        for n in range(0, 7):
            for g in graph_classes(n):
                assert is_bipartite(g)[0] == k_colorable(g, 2)[0]

    def test_agrees_with_two_coloring_search_at_7(self):
        import random
        rng = random.Random(71)
        pairs = vertex_pairs(7)
        for _ in range(250):
            g = mask_to_graph(7, rng.getrandbits(len(pairs)), pairs)
            assert is_bipartite(g)[0] == k_colorable(g, 2)[0]


class TestTriangleFree:
    def test_c5(self):
        assert is_triangle_free(cycle_graph(5)) == (True, None)

    def test_k4_witness(self):
        ok, tri = is_triangle_free(complete_graph(4))
        assert not ok
        a, b, c = tri
        g = complete_graph(4)
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)

    @staticmethod
    def first_triangle(g, vertices):
        """The first triple of ``vertices``, in combinations order, that is a triangle."""
        return next((t for t in itertools.combinations(vertices, 3)
                     if g.has_edge(t[0], t[1]) and g.has_edge(t[1], t[2])
                     and g.has_edge(t[0], t[2])), None)

    def test_lexicographically_first_on_gnp(self):
        for n in range(16):
            for s in range(60):
                g = gen_gnp(n, 0.35, seed=s)
                tri = self.first_triangle(g, range(n))
                assert is_triangle_free(g) == (tri is None, tri)
                # the exact search's scan finds the same triangle of the whole graph
                assert graphs._first_triangle(g.adj_bits(), (1 << n) - 1) == tri

    def test_first_triangle_inside_a_vertex_mask(self):
        rng = random.Random(5)
        for s in range(200):
            n = rng.randrange(3, 13)
            g = gen_gnp(n, 0.5, seed=s)
            alive = rng.getrandbits(n)
            inside = [v for v in range(n) if alive >> v & 1]
            assert graphs._first_triangle(g.adj_bits(), alive) == self.first_triangle(g, inside)


class TestDiameter:
    def test_even_cycles(self):
        for t in range(1, 9):
            if 2 * t >= 3:
                assert diameter(cycle_graph(2 * t)) == t
        assert diameter(cycle_graph(4)) == 2

    def test_k1_and_empty(self):
        assert diameter(Graph(1, [])) == 0
        assert diameter(Graph(0, [])) == 0

    def test_disconnected(self):
        assert diameter(Graph(2, [])) is None
        assert diameter(disjoint_union(cycle_graph(3), cycle_graph(4))) is None

    def test_matches_bruteforce(self, classes_upto_6):
        graphs = [g for classes in classes_upto_6.values() for g in classes]
        rng = random.Random(40)
        for _ in range(200):
            n = rng.randint(1, 40)
            prob = rng.choice([0.02, 0.05, 0.1, 0.3])
            graphs.append(Graph(n, [p for p in vertex_pairs(n) if rng.random() < prob]))
        # long paths, cycles and their unions take the degree <= 2 shortcut
        for n in (7, 20, 39):
            graphs += [path_graph(n), cycle_graph(n), disjoint_union(path_graph(n), cycle_graph(5))]
        outcomes = set()
        for g in graphs:
            expected = brute_diameter(g)
            assert diameter(g) == expected, g.edges
            outcomes.add(expected is None)
        assert outcomes == {True, False}


class TestShortestCycle:
    def test_parallel_pair(self):
        mg = counted(2, [(0, 1), (0, 1)])
        assert shortest_cycle(mg) == [0, 1]

    def test_simple_cycles(self):
        assert shortest_cycle(lift(cycle_graph(5))) == [0, 1, 2, 3, 4]

    def test_petersen(self):
        assert len(shortest_cycle(lift(petersen_graph()))) == 5

    def test_acyclic(self):
        assert shortest_cycle(lift(path_graph(4))) is None

    def test_long_cycle_within_recursion_limit(self):
        g = lift(cycle_graph(1200))
        assert shortest_cycle(g) == list(range(1200))
        assert shortest_cycle(counted(0, [])) is None

    def test_matches_bruteforce_girth_small(self):
        for n in range(3, 8):
            for g in graph_classes(n) if n <= 6 else []:
                expected = brute_girth(g)
                got = shortest_cycle(lift(g))
                assert (got is None) == (expected is None)
                if got is not None:
                    assert len(got) == expected

    def test_matches_bruteforce_girth_7(self):
        rng = random.Random(99)
        pairs = vertex_pairs(7)
        for _ in range(120):
            mask = rng.getrandbits(len(pairs))
            g = mask_to_graph(7, mask, pairs)
            expected = brute_girth(g)
            got = shortest_cycle(lift(g))
            assert (got is None) == (expected is None)
            if got is not None:
                assert len(got) == expected

    def test_cycle_witness_revalidates(self):
        for n in range(3, 7):
            for g in graph_classes(n):
                got = shortest_cycle(lift(g))
                if got is None:
                    continue
                assert len(set(got)) == len(got)
                for i, v in enumerate(got):
                    assert g.has_edge(v, got[(i + 1) % len(got)])

    def test_lexicographic_tie_break(self):
        # two triangles; the one through vertex 0 wins
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert shortest_cycle(lift(g)) == [0, 1, 2]

    def test_smaller_root_with_only_longer_cycles(self):
        # vertex 0 lies on a 4-cycle and a 5-cycle; the triangle avoids it
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (2, 4)])
        assert shortest_cycle(g) == [1, 2, 4]
        assert shortest_cycle(lift(g)) == [1, 2, 4]

    def test_parallel_pair_beats_earlier_triangle(self):
        mg = counted(5, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 3)])
        assert shortest_cycle(mg) == [3, 4]

    def test_lex_order_matches_bruteforce_on_relabelled_classes(self, classes_upto_6):
        rng = random.Random(41)
        for n, classes in classes_upto_6.items():
            for g in classes:
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
                    expected = brute_lex_shortest_cycle(h)
                    assert shortest_cycle(h) == expected
                    assert shortest_cycle(lift(h)) == expected

    def test_lex_order_matches_bruteforce_on_random_multigraphs(self):
        rng = random.Random(42)
        parallel = 0
        for _ in range(2000):
            n = rng.randint(1, 8)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 12))
                     if n > 1]
            mg = counted(n, edges)
            parallel += len(set(multigraph_edges(mg))) < len(edges)
            assert shortest_cycle(mg) == brute_lex_shortest_cycle(mg)
        assert parallel > 500


class TestShortestCycleOnVertexSets:
    """``shortest_cycle(g, S)`` is the brute-force answer on the restriction, mapped back."""

    @staticmethod
    def expected(g, vertices):
        kept = sorted(set(vertices))
        if isinstance(g, CountedMultiGraph):
            sub = multigraph_restrict(g, kept)
        else:
            sub = induced_subgraph(g, kept)[0]
        cycle = brute_lex_shortest_cycle(sub)
        return None if cycle is None else [kept[v] for v in cycle]

    def test_vertex_set_corpus(self):
        for g, sets in vertex_set_corpus():
            for vertices in sets:
                assert shortest_cycle(g, vertices) == self.expected(g, vertices)

    def test_multigraphs_with_parallel_pairs(self):
        rng = random.Random(1978)
        pair_cut = pair_kept = 0
        for _ in range(300):
            mg = random_multigraph(rng, rng.randrange(2, 12))
            vertices = [v for v in range(mg.n) if rng.random() < 0.7]
            got = shortest_cycle(mg, vertices)
            assert got == self.expected(mg, vertices)
            edges = multigraph_edges(mg)
            if len(set(edges)) < len(edges):
                pair_kept += got is not None and len(got) == 2
                pair_cut += got is None or len(got) > 2
        # some sets keep a parallel pair, others leave out an end of every pair
        assert pair_kept > 30 and pair_cut > 30

    def test_none_is_the_whole_graph(self):
        g = petersen_graph()
        assert shortest_cycle(g, range(g.n)) == shortest_cycle(g) == [0, 1, 2, 3, 4]
        assert shortest_cycle(g, []) is None

    def test_triangle_at_smaller_root_ends_the_scan(self, monkeypatch):
        # triangles 0-1-2 and 3-4-5: root 0 finds a triangle and no later
        # root is scanned; its BFS then runs once more to restore its labels
        roots = []
        bfs = graphs._root_bfs

        def recording(adj, v0, *rest):
            roots.append(v0)
            return bfs(adj, v0, *rest)

        monkeypatch.setattr(graphs, "_root_bfs", recording)
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert shortest_cycle(g, [1, 2, 0, 3, 4, 5]) == [0, 1, 2]
        assert roots == [0, 0]
        assert shortest_cycle(g, [3, 4, 5]) == [3, 4, 5]


class TestProperColoring:
    def test_odd_cycle_needs_three(self):
        assert k_colorable(cycle_graph(5), 2) == (False, None)
        ok, coloring = k_colorable(cycle_graph(5), 3)
        assert ok and coloring_is_proper(cycle_graph(5), coloring)

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            k_colorable(complete_graph(8), 7, budget=10)
        # the vertex being colored when the budget ran out rides on the error
        assert err.value.stats == {"expanded": 11, "limit": 10, "stage": "list-coloring",
                                   "vertex": 6}

    def test_agrees_with_exhaustive_product(self):
        import itertools
        for n in range(1, 5):
            for g in graph_classes(n):
                for k in (1, 2, 3):
                    brute = any(
                        all(ch[u] != ch[v] for u, v in g.edges)
                        for ch in itertools.product(range(k), repeat=g.n))
                    assert k_colorable(g, k)[0] == brute


class TestComponents:
    def test_union(self):
        g = disjoint_union(Graph(1, []), cycle_graph(4))
        assert connected_components(g) == [(0,), (1, 2, 3, 4)]

    def test_connected(self):
        assert connected_components(cycle_graph(5)) == [(0, 1, 2, 3, 4)]

    def test_empty(self):
        assert connected_components(Graph(0, [])) == []

    def test_ordering_by_smallest_member(self):
        g = Graph(5, [(1, 3), (0, 4)])
        comps = connected_components(g)
        assert comps == [(0, 4), (1, 3), (2,)]


class TestVertexSets:
    """Peel and component walk inside a vertex set, against the built subgraph."""

    @staticmethod
    def pairs():
        for n in range(0, 6):
            pairs = vertex_pairs(n)
            for mask in range(0, 1 << len(pairs), 7):
                g = mask_to_graph(n, mask, pairs)
                for bits in range(1 << n):
                    yield g, [v for v in range(n) if bits >> v & 1]
        for g, sets in vertex_set_corpus():
            yield from ((g, s) for s in sets)

    def test_peel_matches_induced_subgraph(self):
        # the survivors, and so which vertex of a tree component is left
        for g, s in self.pairs():
            sub, kept = induced_subgraph(g, s)
            assert _peel(g, s)[0] == [kept[v] for v in _peel(sub)[0]]

    def test_components_match_induced_subgraph(self):
        for g, s in self.pairs():
            sub, kept = induced_subgraph(g, s)
            expected = [tuple(kept[v] for v in comp) for comp in connected_components(sub)]
            assert connected_components(g, s) == expected

    def test_none_is_the_whole_graph(self):
        g = disjoint_union(path_graph(3), cycle_graph(4))
        assert _peel(g, range(g.n))[0] == _peel(g)[0] == [0, 3, 4, 5, 6]
        assert _peel(g, range(g.n))[1] == _peel(g)[1]
        assert connected_components(g, range(g.n)) == connected_components(g)

    def test_components_of_the_core_list_as_given(self):
        for g, s in self.pairs():
            core = _peel(g, s)[0]
            assert _components(g, core) == connected_components(g, core)

    def test_none_is_range_on_multigraphs_with_parallel_pairs(self):
        rng = random.Random(714)
        with_pair = 0
        for _ in range(400):
            n = rng.randrange(1, 10)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
            edges += [e for e in edges if rng.random() < 0.3]
            with_pair += len(edges) > len(set(edges))
            mg = counted(n, edges)
            core, degree = _peel(mg)
            assert (core, degree) == _peel(mg, range(n))
            assert connected_components(mg) == connected_components(mg, range(n))
            # a core vertex's degree counts each parallel edge inside the core
            inside = set(core)
            assert all(degree[v] == sum(u in inside for u in mg.adj[v]) for v in core)
        assert with_pair > 100

    def test_multigraph_parallel_pair_counts_as_degree_two(self):
        mg = counted(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
        assert _peel(mg, [0, 1, 2])[0] == [0, 1]
        assert connected_components(mg, [0, 2, 3]) == [(0,), (2, 3)]

    @pytest.mark.parametrize("bad", [[-1], [5], [0, 7], [-2, 4]])
    def test_out_of_range_ids(self, bad):
        g = cycle_graph(5)
        for walk in (_peel, connected_components, shortest_cycle):
            with pytest.raises(ValueError, match="out of range for n=5"):
                walk(g, bad)


class TestSubgraphs:
    def test_induced_keeps_internal_edges(self):
        g = cycle_graph(5)
        sub, kept = induced_subgraph(g, [0, 1, 2])
        assert kept == (0, 1, 2)
        assert sub.edges == ((0, 1), (1, 2))

    def test_delete_vertices(self):
        g = complete_graph(4)
        sub, kept = delete_vertices(g, [0])
        assert sub.n == 3 and len(sub.edges) == 3
        assert kept == (1, 2, 3)
