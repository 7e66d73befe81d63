import random
from itertools import combinations

import networkx as nx
import pytest

import polycomp.cutpoly as cutpoly
from polycomp.compressed import is_compressed
from polycomp.cutpoly import (
    Graph,
    chordless_cycles,
    complete_graph,
    cut_compressed,
    cut_polytope,
    cut_semimetric,
    cycle_facet_levels,
    cycle_graph,
    edge_contract,
    has_minor,
    induced_subgraph,
    k5free_facets,
    max_induced_cycle,
    path_graph,
)

from conftest import has_minor_exhaustive

K3 = complete_graph(3)
K4 = complete_graph(4)
K5 = complete_graph(5)
C4 = cycle_graph(4)
C5 = cycle_graph(5)


def pentagonal_value(subset):
    b = {1: 1, 2: 1, 3: 1, 4: -1, 5: -1}
    cv = cut_semimetric(K5, subset)
    return sum(b[i] * b[j] * x for (i, j), x in zip(K5.edges, cv.coords))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 4),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (2, 1)))
    g = Graph(3, ((2, 1), (1, 3)))
    assert g.edges == ((1, 2), (1, 3))


def test_cut_semimetric_k3():
    assert cut_semimetric(K3, {1}).coords == (1, 1, 0)
    assert cut_semimetric(K3, set()).coords == (0, 0, 0)
    assert cut_semimetric(K3, {2, 3}).coords == (1, 1, 0)


def test_pentagonal_values():
    assert pentagonal_value({1, 2, 3}) == -6
    assert pentagonal_value({1, 2}) == -2
    assert pentagonal_value(set()) == 0


def test_cut_polytope_counts():
    assert len(cut_polytope(K3).generators) == 4
    k2 = complete_graph(2)
    poly = cut_polytope(k2)
    assert poly.generators == ((0,), (1,))
    assert len(cut_polytope(C4).generators) == 8


def test_cut_polytope_cap():
    with pytest.raises(ValueError):
        cut_polytope(complete_graph(8))


def test_minors():
    assert has_minor(K5, "K5")
    assert has_minor(K4, "K4")
    assert not has_minor(C5, "K4")
    assert not has_minor(K4, "K5")
    # K5 subdivision: subdividing an edge keeps the minor
    sub = Graph(6, tuple(e for e in K5.edges if e != (1, 2)) + ((1, 6), (2, 6)))
    assert has_minor(sub, "K5")
    # wheel over C4 has a K4 minor but no K5
    wheel = Graph(5, ((1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5), (3, 5), (4, 5)))
    assert has_minor(wheel, "K4")
    assert not has_minor(wheel, "K5")


def all_graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(2 ** len(pairs)):
        yield Graph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))


def random_graphs(label, count, sizes, density):
    rng = random.Random(label)
    for _ in range(count):
        n = rng.randint(*sizes)
        p = rng.uniform(*density)
        yield Graph(n, tuple(e for e in combinations(range(1, n + 1), 2) if rng.random() < p))


def from_networkx(g):
    g = nx.convert_node_labels_to_integers(g, 1)
    return Graph(g.number_of_nodes(), tuple(tuple(sorted(e)) for e in g.edges()))


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(1, graph.n + 1))
    g.add_edges_from(graph.edges)
    return g


def subdivided(graph, times):
    """The graph with its first ``times`` edges subdivided once each."""
    edges = list(graph.edges)
    n = graph.n
    for _ in range(times):
        i, j = edges.pop(0)
        n += 1
        edges += [(i, n), (j, n)]
    return Graph(n, tuple(edges))


def test_has_minor_matches_exhaustive_search_on_every_small_graph():
    for n in range(6):
        for g in all_graphs(n):
            for k in (0, 1, 2, 3, "K4", "K5"):
                assert has_minor(g, k) == has_minor_exhaustive(g, k), (g, k)


def test_has_minor_matches_exhaustive_search_on_random_graphs():
    for g in random_graphs("has_minor/oracle", 60, (6, 9), (0.2, 0.7)):
        for k in ("K4", "K5"):
            assert has_minor(g, k) == has_minor_exhaustive(g, k), (g, k)


def test_has_minor_rejects_negative_order():
    with pytest.raises(ValueError, match="negative"):
        has_minor(K4, -1)


def test_has_minor_on_large_sparse_graphs():
    # the reduction works on a worklist, so n sets no recursion depth
    k5_plus = Graph(1200, K5.edges)
    assert has_minor(k5_plus, "K5") and has_minor(k5_plus, "K4")
    assert not has_minor(cycle_graph(1200), "K4")
    assert not has_minor(from_networkx(nx.grid_2d_graph(5, 5)), "K5")


def planar(graph):
    adj = graph.adjacency()
    return all(
        cutpoly._planar_block(cutpoly._subgraph(adj, b)) for b in cutpoly._blocks(adj)
    )


def test_planarity_and_blocks_match_networkx():
    graphs = list(random_graphs("planarity/oracle", 400, (1, 12), (0.1, 0.7)))
    for base in (K5, from_networkx(nx.complete_bipartite_graph(3, 3))):
        graphs += [subdivided(base, t) for t in range(len(base.edges) + 1)]
    graphs += [from_networkx(nx.wheel_graph(n)) for n in range(4, 12)]
    graphs += [from_networkx(nx.grid_2d_graph(r, c)) for r in range(1, 6) for c in range(r, 7)]
    graphs += [from_networkx(nx.petersen_graph()), from_networkx(nx.circulant_graph(8, [1, 4]))]
    for g in graphs:
        ref = to_networkx(g)
        assert planar(g) == nx.check_planarity(ref)[0], g
        blocks = sorted(sorted(b) for b in cutpoly._blocks(g.adjacency()))
        assert blocks == sorted(sorted(b) for b in nx.biconnected_components(ref)), g


def test_minor_search_refuses_at_its_budget(monkeypatch):
    k34 = from_networkx(nx.complete_bipartite_graph(3, 4))
    assert not has_minor(k34, "K5")
    monkeypatch.setattr(cutpoly, "MINOR_SEARCH_BUDGET", 10)
    with pytest.raises(ValueError, match="after 10 nodes on a nonplanar core with 7 vertices"):
        has_minor(k34, "K5")
    # the structural answers need no search
    assert has_minor(k34, "K4")
    assert has_minor(K5, "K5")
    assert not has_minor(from_networkx(nx.wheel_graph(9)), "K5")


def test_minor_search_cost_does_not_depend_on_labels(monkeypatch):
    # a 10-vertex graph whose reduced core (9 vertices, nonplanar, below
    # Mader's bound) colour refinement splits into singletons, so every
    # numbering gives the search the same vertex order and the same leaves
    edges = [(1, 4), (1, 5), (1, 8), (2, 4), (2, 7), (2, 9), (3, 4), (3, 5), (3, 8), (3, 9),
             (4, 5), (4, 6), (4, 7), (4, 8), (5, 6), (5, 8), (6, 9), (7, 8), (7, 9), (7, 10),
             (8, 10)]
    leaves = []
    is_model = cutpoly._is_model

    def counted(*args):
        leaves[-1] += 1
        return is_model(*args)

    monkeypatch.setattr(cutpoly, "_is_model", counted)
    core = Graph(10, edges).adjacency()
    cutpoly._reduce(core, suppress=True)
    order = cutpoly._refined_order(core)
    rng = random.Random("minor/relabel")
    for _ in range(20):
        name = [0, *rng.sample(range(1, 11), 10)]
        g = Graph(10, [(name[a], name[b]) for a, b in edges])
        relabelled = g.adjacency()
        cutpoly._reduce(relabelled, suppress=True)
        assert cutpoly._refined_order(relabelled) == [name[v] for v in order]
        leaves.append(0)
        assert has_minor(g, "K5")
    assert len(set(leaves)) == 1 and leaves[0] > 0


def edge_set(cycle):
    return frozenset(frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1]))


def test_chordless_cycles_match_networkx():
    for g in random_graphs("chordless/oracle", 150, (1, 9), (0.2, 0.8)):
        ours = chordless_cycles(g)
        assert ours == sorted(ours, key=lambda c: (len(c), c))
        assert all(c[0] == min(c) for c in ours)
        ref = {edge_set(c) for c in nx.chordless_cycles(to_networkx(g)) if len(c) >= 3}
        assert {edge_set(c) for c in ours} == ref, g


def test_max_induced_cycle():
    assert max_induced_cycle(C5) == 5
    assert max_induced_cycle(K4) == 3
    pendant = Graph(5, ((1, 2), (2, 3), (3, 4), (1, 4), (4, 5)))
    assert max_induced_cycle(pendant) == 4
    assert max_induced_cycle(path_graph(4)) == 0


def test_chordless_cycles_of_k4_are_triangles():
    cycles = chordless_cycles(K4)
    assert sorted(len(c) for c in cycles) == [3, 3, 3, 3]


def test_cut_compressed_examples():
    assert cut_compressed(K3) is True
    assert cut_compressed(C5) is False
    assert cut_compressed(K5) is False
    assert cut_compressed(K4) is True
    assert cut_compressed(C4) is True


def test_k5free_facets_k2():
    facets = k5free_facets(complete_graph(2))
    assert {(f.normal, f.offset) for f in facets} == {((1,), 0), ((-1,), -1)}


def test_k5free_facets_c4_count():
    facets = k5free_facets(C4)
    cycle_ineqs = [f for f in facets if sum(abs(x) for x in f.normal) == 4]
    box_ineqs = [f for f in facets if sum(abs(x) for x in f.normal) == 1]
    assert len(cycle_ineqs) == 8
    assert len(box_ineqs) == 8


def test_k5free_facets_rejected_on_k5():
    with pytest.raises(ValueError):
        k5free_facets(K5)


@pytest.mark.parametrize(
    "graph",
    [K3, K4, C4, C5, path_graph(3), path_graph(5), cycle_graph(3)],
    ids=["K3", "K4", "C4", "C5", "P3", "P5", "C3"],
)
def test_k5free_facets_match_generic_enumeration(graph):
    facets = k5free_facets(graph)
    generic = cut_polytope(graph).facets()
    assert {(f.normal, f.offset) for f in facets} == {
        (f.normal, f.offset) for f in generic
    }


def test_cycle_levels_even():
    rep4 = cycle_facet_levels(4, [(1, 2)])
    assert rep4.levels == (2,)
    assert rep4.stated_count == 1 and rep4.matches_stated_count
    rep6 = cycle_facet_levels(6, [(1, 2)])
    assert rep6.levels == (2, 4)
    assert rep6.stated_count == 2 and rep6.matches_stated_count


def test_cycle_levels_odd_flagged():
    rep5 = cycle_facet_levels(5, [(1, 2)])
    assert rep5.levels == (2, 4)
    assert rep5.stated_count == 1
    assert not rep5.matches_stated_count
    rep3 = cycle_facet_levels(3, [(1, 2)])
    assert rep3.levels == (2,)
    assert not rep3.matches_stated_count  # ceil(3/2)-1 = 1 != floor(3/2)-1 = 0


def test_cycle_levels_parity():
    for c in range(3, 8):
        for r in range(1, c + 1, 2):
            for odd in combinations(cycle_graph(c).edges, r):
                rep = cycle_facet_levels(c, odd)
                assert all(m % 2 == 0 for m in rep.levels)


def test_cycle_levels_equivalent_for_all_odd_subsets():
    # switching symmetry consequence, verified empirically: every odd subset
    # of a cycle sees the same level set
    for c in (4, 5, 6):
        reports = set()
        for r in range(1, c + 1, 2):
            for odd in combinations(cycle_graph(c).edges, r):
                reports.add(cycle_facet_levels(c, odd).levels)
        assert len(reports) == 1


def test_cycle_levels_validation():
    with pytest.raises(ValueError):
        cycle_facet_levels(4, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        cycle_facet_levels(4, [(1, 3)])


def test_edge_contract_c4_gives_c3():
    g = edge_contract(C4, (1, 2))
    assert g.n == 3
    assert len(g.edges) == 3
    assert max_induced_cycle(g) == 3


def test_contract_c5_flips_classifier():
    assert cut_compressed(C5) is False
    g = edge_contract(C5, (1, 2))
    assert g.n == 4 and len(g.edges) == 4
    assert cut_compressed(g) is True


def test_induced_subgraph_k5_minus_vertex():
    g = induced_subgraph(K5, {1, 2, 3, 4})
    assert g.edges == complete_graph(4).edges


def test_minor_hereditary_consistency_small_corpus():
    graphs = [K3, K4, C4, C5, path_graph(4)]
    for g in graphs:
        if not cut_compressed(g):
            continue
        for e in g.edges:
            assert cut_compressed(edge_contract(g, e))
        for r in range(1, g.n + 1):
            for w in combinations(range(1, g.n + 1), r):
                assert cut_compressed(induced_subgraph(g, w))


def test_classifier_matches_certifier_small_graphs():
    graphs = [K3, K4, C4, C5, path_graph(3), cycle_graph(3)]
    for g in graphs:
        assert cut_compressed(g) == is_compressed(cut_polytope(g)).verdict
