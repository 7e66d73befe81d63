from fractions import Fraction
from itertools import product

import pytest

from polycomp.compressed import is_compressed
from polycomp.cutpoly import complete_graph, cycle_graph, path_graph
from polycomp.margins import (
    SimplicialComplex,
    binary_graph_classifier,
    boundary_of_simplex,
    boundary_simplex_classifier,
    cone_apexes,
    cone_model,
    covariance_check,
    graph_complex,
    induced_subcomplex,
    is_decomposable,
    is_reducible,
    marginal_matrix,
    marginal_polytope,
    margins_compressed,
    tilde_graph,
)

PATH3 = SimplicialComplex(3, ((1, 2), (2, 3)))
BOUNDARY2 = boundary_of_simplex(3)


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex(2, ((1, 2), (1,)))  # comparable facets
    with pytest.raises(ValueError):
        SimplicialComplex(3, ((1, 2),))  # vertex 3 uncovered
    with pytest.raises(ValueError):
        SimplicialComplex(2, ((1, 3),))
    c = SimplicialComplex(3, ((2, 1), (3, 2)))
    assert c.facets == ((1, 2), (2, 3))


def test_marginal_matrix_independence_model():
    model = marginal_matrix(SimplicialComplex(2, ((1,), (2,))), (2, 2))
    assert len(model.matrix) == 4
    assert model.column_count == 4
    # each column: row indicator followed by column indicator of a 2x2 table
    cols = model.columns()
    assert cols[0] == (1, 0, 1, 0)  # cell (0,0)
    assert cols[3] == (0, 1, 0, 1)  # cell (1,1)
    for col in cols:
        assert sum(col) == 2


def test_marginal_matrix_full_table_is_identity():
    model = marginal_matrix(SimplicialComplex(2, ((1, 2),)), (2, 2))
    assert model.matrix == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_marginal_matrix_boundary_of_triangle():
    model = marginal_matrix(BOUNDARY2, (2, 2, 2))
    assert len(model.matrix) == 12
    assert model.column_count == 8
    for col in model.columns():
        assert sum(col) == 3  # one 1 per facet block


def test_path_complex_is_reducible_and_decomposable():
    dec = is_reducible(PATH3)
    assert dec is not None
    assert dec.separator == (2,)
    assert is_decomposable(PATH3)


def test_boundary_complex_is_irreducible():
    assert is_reducible(BOUNDARY2) is None
    assert not is_decomposable(BOUNDARY2)


def test_single_facet_is_decomposable():
    assert is_decomposable(SimplicialComplex(3, ((1, 2, 3),)))


def test_disconnected_complex_reducible_with_empty_separator():
    two_edges = SimplicialComplex(4, ((1, 2), (3, 4)))
    dec = is_reducible(two_edges)
    assert dec is not None
    assert dec.separator == ()
    assert is_decomposable(two_edges)


def test_cycle_graph_complex_not_decomposable():
    c4 = graph_complex(cycle_graph(4))
    assert is_reducible(c4) is None
    assert not is_decomposable(c4)


def test_induced_subcomplex():
    sub = induced_subcomplex(BOUNDARY2, [1, 2])
    assert sub.facets == ((1, 2),)
    sub2 = induced_subcomplex(PATH3, [1, 3])
    assert sub2.facets == ((1,), (2,))


def test_margins_compressed_path_rule():
    res = margins_compressed(PATH3, (3, 3, 3))
    assert res.verdict == "true"
    assert res.rule == "decomposable"


def test_margins_compressed_c5_binary_rule():
    c5 = graph_complex(cycle_graph(5))
    res = margins_compressed(c5, (2,) * 5)
    assert res.verdict == "false"
    assert res.rule == "binary-graph"


def test_margins_compressed_boundary_344():
    res = margins_compressed(BOUNDARY2, (3, 4, 4))
    assert res.verdict == "false"
    assert res.rule == "boundary-of-simplex"


def test_margins_compressed_certifier_fallback():
    # a square (4-cycle) with one binary and mixed sizes: no closed-form rule
    c4 = graph_complex(cycle_graph(4))
    res = margins_compressed(c4, (2, 2, 2, 3))
    assert res.rule == "certifier"
    assert res.verdict in ("true", "false")


def test_margins_compressed_unknown_above_cap():
    c4 = graph_complex(cycle_graph(4))
    res = margins_compressed(c4, (5, 5, 5, 5))
    assert res.verdict == "unknown"


def test_boundary_simplex_classifier_table():
    assert boundary_simplex_classifier(3, (3, 3, 7)) is True
    assert boundary_simplex_classifier(3, (3, 4, 4)) is False
    assert boundary_simplex_classifier(4, (2, 3, 3, 3)) is False
    assert boundary_simplex_classifier(3, (3, 3, 3)) is True
    assert boundary_simplex_classifier(4, (2, 2, 5, 9)) is True
    with pytest.raises(ValueError):
        boundary_simplex_classifier(2, (2, 2))


@pytest.mark.parametrize("size", [2.5, Fraction(5, 2), 3.0])
def test_table_sizes_must_be_integers(size):
    # int() used to truncate a size of 2.5 to 2
    with pytest.raises(TypeError):
        marginal_matrix(PATH3, (2, size, 2))
    with pytest.raises(TypeError):
        boundary_simplex_classifier(3, (2, size, 2))
    with pytest.raises(TypeError):
        margins_compressed(PATH3, (2, size, 2))


def test_tilde_graph():
    delta = graph_complex(complete_graph(2))
    tilde = tilde_graph(delta)
    assert tilde.edges == complete_graph(3).edges
    with pytest.raises(ValueError):
        tilde_graph(SimplicialComplex(3, ((1, 2, 3),)))


def test_binary_graph_classifier():
    assert binary_graph_classifier(graph_complex(cycle_graph(4))) is True
    assert binary_graph_classifier(graph_complex(complete_graph(4))) is False
    assert binary_graph_classifier(graph_complex(cycle_graph(5))) is False


def test_covariance_check_single_edge():
    delta = graph_complex(complete_graph(2))
    assert covariance_check(delta)
    # the marginal polytope of one binary edge is a 3-simplex, like Cut(K3)
    poly = marginal_polytope(marginal_matrix(delta, (2, 2)))
    assert len(poly.generators) == 4
    assert poly.dim == 3


def test_covariance_check_small_graphs():
    graphs = [complete_graph(2), path_graph(3), cycle_graph(3), cycle_graph(4), complete_graph(4)]
    for g in graphs:
        assert covariance_check(graph_complex(g))


def test_covariance_check_rejects_nonbinary():
    with pytest.raises(ValueError):
        covariance_check(graph_complex(complete_graph(2)), (2, 3))


def test_cone_model_simplest():
    base = SimplicialComplex(1, ((1,),))
    cone = cone_model(base, (2,), 2)
    assert cone.complex.facets == ((1, 2),)
    assert cone.column_count == 4
    assert is_decomposable(cone.complex)


def test_cone_vertex_counts_multiply():
    base = PATH3
    base_model = marginal_matrix(base, (2, 2, 2))
    base_poly = marginal_polytope(base_model)
    for apex_size in (1, 2, 3):
        cone = cone_model(base, (2, 2, 2), apex_size)
        cone_poly = marginal_polytope(cone)
        assert len(cone_poly.generators) == apex_size * len(base_poly.generators)


def test_cone_preserves_decomposability_and_verdict():
    cone = cone_model(PATH3, (2, 2, 2), 2)
    assert is_decomposable(cone.complex)
    res = margins_compressed(cone.complex, cone.d)
    assert res.verdict == "true"


def test_cone_rule_inherits_false():
    # cone over the binary 5-cycle: not decomposable, not a graph complex,
    # inherits "false" from the base через the cone rule
    c5 = graph_complex(cycle_graph(5))
    cone = cone_model(c5, (2,) * 5, 2)
    res = margins_compressed(cone.complex, cone.d)
    assert res.verdict == "false"
    assert res.rule.startswith("cone(")


def test_cone_apexes():
    assert cone_apexes(SimplicialComplex(3, ((1, 3), (2, 3)))) == [3]
    assert cone_apexes(PATH3) == [2]
    assert cone_apexes(BOUNDARY2) == []


def test_classifier_agrees_with_certifier_small_models():
    cases = [
        (PATH3, (2, 2, 2)),
        (PATH3, (2, 3, 2)),
        (BOUNDARY2, (2, 2, 2)),
        (BOUNDARY2, (2, 2, 4)),
        (graph_complex(cycle_graph(4)), (2, 2, 2, 2)),
        (graph_complex(cycle_graph(5)), (2, 2, 2, 2, 2)),
        (SimplicialComplex(2, ((1,), (2,))), (3, 4)),
    ]
    for complex_, d in cases:
        res = margins_compressed(complex_, d)
        if res.verdict == "unknown":
            continue
        cert = is_compressed(marginal_polytope(marginal_matrix(complex_, d)))
        assert res.verdict == ("true" if cert.verdict else "false"), (complex_, d, res)


def test_heredity_on_compressed_models():
    # induced subcomplexes and smaller sizes of compressed models stay compressed
    base = PATH3
    d = (3, 3, 3)
    assert margins_compressed(base, d).verdict == "true"
    for keep in ([1, 2], [2, 3], [1, 2, 3]):
        sub = induced_subcomplex(base, keep)
        sub_d = tuple(d[v - 1] for v in keep)
        assert margins_compressed(sub, sub_d).verdict == "true"
    for smaller in product((2, 3), repeat=3):
        assert margins_compressed(base, smaller).verdict == "true"


def test_reducible_gluing_facets_union():
    # the facets of the glued model are the lifts of the parts' facets
    model = marginal_matrix(PATH3, (2, 2, 2))
    poly = marginal_polytope(model)
    dec = is_reducible(PATH3)
    lifted_tight_sets = set()
    for part, verts in (
        (dec.part1, dec.part1_vertices),
        (dec.part2, dec.part2_vertices),
    ):
        part_d = tuple((2, 2, 2)[v - 1] for v in verts)
        part_model = marginal_matrix(part, part_d)
        part_poly = marginal_polytope(part_model)
        # a column of the full model restricts to a column of the part model
        # by keeping the rows of the part's margins
        relabel = {v: k + 1 for k, v in enumerate(verts)}
        row_pick = [
            i
            for i, (facet, _) in enumerate(model.rows)
            if set(facet) <= set(verts)
            and tuple(sorted(relabel[v] for v in facet)) in part.facets
        ]
        for facet in part_poly.facets():
            tight = frozenset(
                j
                for j, col in enumerate(poly.generators)
                if facet.evaluate(tuple(col[i] for i in row_pick)) == 0
            )
            lifted_tight_sets.add(tight)
    own_tight_sets = {
        frozenset(
            j for j, col in enumerate(poly.generators) if facet.evaluate(col) == 0
        )
        for facet in poly.facets()
    }
    assert own_tight_sets == lifted_tight_sets
