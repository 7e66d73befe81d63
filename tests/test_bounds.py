import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycomp.bounds as bounds
from polycomp.bounds import (
    GapWitness,
    find_weight,
    gap_witness,
    ip_max,
    lp_ip_equal_all,
    lp_max,
    make_program,
    matrix_columns,
    pull_first_unimodular,
)
from polycomp.linalg import affine_lattice_of
from polycomp.margins import SimplicialComplex, graph_complex, marginal_matrix
from polycomp.polytope import PointConfiguration
from polycomp.triangulate import pulling_triangulation_of
from polycomp.cli import main
from polycomp.cutpoly import cycle_graph

from conftest import per_cell_unimodular

SEGMENT_MATRIX = [[1, 1, 1], [0, 1, 2]]
EXAMPLE_MATRIX = [[1, 1, 1, 1, 1], [0, 0, 1, 2, 3], [1, 0, 0, 0, 0]]


def test_find_weight_example_matrix():
    assert find_weight(EXAMPLE_MATRIX) == (1, 0, 0)


def test_find_weight_marginal_matrix_block_indicator():
    model = marginal_matrix(SimplicialComplex(3, ((1, 2), (2, 3))), (2, 2, 2))
    w = find_weight([list(r) for r in model.matrix])
    assert w is not None
    for col in model.columns():
        assert sum(wi * x for wi, x in zip(w, col)) == 1


def test_find_weight_failure():
    assert find_weight([[1, 2]]) is None
    with pytest.raises(ValueError):
        make_program([[1, 2]], [1], 0)


def test_lp_max_segment_examples():
    p = make_program(SEGMENT_MATRIX, (1, 1), 2)
    res = lp_max(p)
    assert res.status == "optimal" and res.value == Fraction(1, 2)
    p2 = make_program(SEGMENT_MATRIX, (2, 2), 2)
    assert lp_max(p2).value == 1
    # b equal to a column: its own cell reaches 1
    for i, col in enumerate(matrix_columns(SEGMENT_MATRIX)):
        p3 = make_program(SEGMENT_MATRIX, col, i)
        assert lp_max(p3).value == 1


def test_lp_max_infeasible():
    p = make_program(SEGMENT_MATRIX, (-1, 0), 0)
    assert lp_max(p).status == "infeasible"


def test_ip_max_segment_examples():
    p = make_program(SEGMENT_MATRIX, (1, 1), 2)
    res = ip_max(p)
    assert res.status == "optimal" and res.value == 0
    assert res.table == (0, 1, 0)
    p2 = make_program(SEGMENT_MATRIX, (2, 2), 2)
    res2 = ip_max(p2)
    assert res2.value == 1 and res2.table in ((1, 0, 1), (0, 2, 0))
    assert res2.table == (1, 0, 1)  # scan from above finds the max cell first
    p3 = make_program(SEGMENT_MATRIX, (0, 0), 1)
    assert ip_max(p3).value == 0


def test_ip_infeasible_statuses_are_distinct():
    p = make_program(SEGMENT_MATRIX, (-1, 0), 0)
    res = ip_max(p)
    assert res.status == "infeasible" and res.reason == "lp-infeasible"
    # LP-feasible with an integral budget, but no integer point hits b
    p2 = make_program([[2, 0], [0, 2]], (1, 1), 0)
    assert lp_max(p2).status == "optimal"
    res2 = ip_max(p2)
    assert res2.status == "infeasible" and res2.reason == "no-integer-point"
    # fractional budget short-circuits
    p3 = make_program([[2, 0], [0, 2]], (1, 0), 0)
    assert lp_max(p3).status == "optimal"
    res3 = ip_max(p3)
    assert res3.status == "infeasible" and res3.reason == "no-integer-point"


def test_homogeneity_budget():
    p = make_program(SEGMENT_MATRIX, (3, 2), 0)
    assert p.budget == 3
    lp = lp_max(p)
    assert sum(lp.point) == 3


def test_weak_duality_random_instances():
    rng = random.Random(4242)
    trials = 0
    while trials < 25:
        ncols = rng.randint(2, 4)
        nrows = rng.randint(1, 3)
        body = [[rng.randint(0, 3) for _ in range(ncols)] for _ in range(nrows)]
        a = [[1] * ncols] + body  # first row of ones makes it homogeneous
        combo = [rng.randint(0, 2) for _ in range(ncols)]
        cols = matrix_columns(a)
        b = [sum(c * col[r] for c, col in zip(combo, cols)) for r in range(nrows + 1)]
        i = rng.randrange(ncols)
        p = make_program(a, b, i)
        lp, ip = lp_max(p), ip_max(p)
        assert lp.status == "optimal" and ip.status == "optimal"
        assert lp.value >= ip.value
        assert sum(ip.table) == p.budget
        trials += 1


def test_lp_min_ip_min_flagged_path():
    p = make_program(SEGMENT_MATRIX, (2, 2), 2)
    assert lp_max(p, minimize=True).value == 0
    assert ip_max(p, minimize=True).value == 0
    p2 = make_program(SEGMENT_MATRIX, (2, 2), 1)
    assert lp_max(p2, minimize=True).value == 0
    assert ip_max(p2, minimize=True).value == 0
    p3 = make_program(SEGMENT_MATRIX, (1, 1), 1)
    assert ip_max(p3, minimize=True).value == 1


def test_sweep_example_matrix_first_cell_holds():
    res = lp_ip_equal_all(EXAMPLE_MATRIX, budget=5, cells=[0])
    assert res.holds, res.counterexample


def test_sweep_segment_matrix_finds_counterexample():
    res = lp_ip_equal_all(SEGMENT_MATRIX, budget=3)
    assert not res.holds
    b, i, lp_value, ip_value = res.counterexample
    # both end cells have a gap at b=(1,1); the deterministic scan hits x_1
    assert b == (1, 1) and i == 0
    assert lp_value == Fraction(1, 2) and ip_value == 0
    # the mirrored end shows the same gap values
    p = make_program(SEGMENT_MATRIX, (1, 1), 2)
    assert lp_max(p).value == Fraction(1, 2) and ip_max(p).value == 0


def test_sweep_decomposable_margins_hold():
    model = marginal_matrix(SimplicialComplex(3, ((1, 2), (2, 3))), (2, 2, 2))
    res = lp_ip_equal_all([list(r) for r in model.matrix], budget=4)
    assert res.holds, res.counterexample


def test_gap_witness_segment_matrix():
    witness = gap_witness(SEGMENT_MATRIX)
    assert isinstance(witness, GapWitness)
    assert witness.rhs == (1, 1)
    assert witness.lp_value == Fraction(1, 2)
    assert witness.ip_value == 0
    # the first violating facet (by normal order) puts the gap at an end cell
    assert witness.objective_index in (0, 2)
    assert witness.kernel_vector in ((-1, 2, -1),)
    # the kernel vector certifies itself
    assert all(
        sum(SEGMENT_MATRIX[r][j] * witness.kernel_vector[j] for j in range(3)) == 0
        for r in range(2)
    )


def test_gap_witness_none_for_compressed():
    square_homog = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert gap_witness(square_homog) is None


def test_gap_witness_binary_five_cycle_margins():
    model = marginal_matrix(graph_complex(cycle_graph(5)), (2,) * 5)
    a = [list(r) for r in model.matrix]
    witness = gap_witness(a)
    assert witness is not None
    assert witness.lp_value > witness.ip_value
    # b really is IP-feasible: the verifying solver said "optimal", and the
    # kernel vector sums to zero as an affine dependency
    assert sum(witness.kernel_vector) == 0


def test_pull_first_unimodular_example_matrix_all_false():
    for i in range(5):
        assert pull_first_unimodular(EXAMPLE_MATRIX, i) is False


def test_pull_first_unimodular_square_true():
    square_homog = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    for i in range(4):
        assert pull_first_unimodular(square_homog, i) is True


def test_pull_first_unimodular_segment_middle():
    assert pull_first_unimodular(SEGMENT_MATRIX, 1) is True
    assert pull_first_unimodular(SEGMENT_MATRIX, 0) is False
    assert pull_first_unimodular(SEGMENT_MATRIX, 2) is False


def test_pull_first_cap_and_validation():
    with pytest.raises(ValueError):
        pull_first_unimodular(SEGMENT_MATRIX, 5)
    wide = [[1] * 10, list(range(10))]
    with pytest.raises(ValueError):
        pull_first_unimodular(wide, 0)


def brute_pull_first(a, objective_index):
    """Reference: some ordering from the objective column has every cell's
    edge determinant equal to +-1."""
    columns = matrix_columns(a)
    lattice = affine_lattice_of(columns)
    coords = [lattice.coords(c) for c in columns]
    config = PointConfiguration(columns)
    rest = [j for j in range(len(columns)) if j != objective_index]
    for tail in permutations(rest):
        cells = pulling_triangulation_of(config, (objective_index,) + tail).simplices
        if per_cell_unimodular(coords, cells):
            return True
    return False


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(lambda rows: st.lists(
    st.tuples(*[st.integers(0, 3)] * rows), min_size=2, max_size=6, unique=True)))
def test_pull_first_unimodular_matches_per_cell_reference(tails):
    # a top row of ones makes the matrix homogeneous
    a = [[1] * len(tails)] + [list(row) for row in zip(*tails)]
    for i in range(len(tails)):
        assert pull_first_unimodular(a, i) == brute_pull_first(a, i)


def test_example_matrix_nonnecessity():
    # no unimodular pulling ordering starts at the first column, yet the
    # sweep finds no gap at that cell: the sufficient condition is not needed
    assert pull_first_unimodular(EXAMPLE_MATRIX, 0) is False
    assert lp_ip_equal_all(EXAMPLE_MATRIX, budget=4, cells=[0]).holds


def test_ip_max_with_the_callers_lp_matches_its_own():
    cases = [(SEGMENT_MATRIX, b, i) for b in ((1, 1), (2, 2), (3, 2), (-1, 0)) for i in range(3)]
    cases += [([[2, 0], [0, 2]], b, i) for b in ((1, 1), (1, 0), (2, 4)) for i in range(2)]
    reasons = set()
    for matrix, b, i in cases:
        p = make_program(matrix, b, i)
        for minimize in (False, True):
            own = ip_max(p, minimize=minimize)
            assert ip_max(p, minimize=minimize, lp=lp_max(p, minimize=minimize)) == own
            reasons.add(own.reason)
    assert reasons == {None, "lp-infeasible", "no-integer-point"}


def test_one_lp_solve_per_program(monkeypatch, tmp_path):
    solves = []
    programs = []
    solve, make = bounds.solve_standard_form, bounds.make_program
    monkeypatch.setattr(bounds, "solve_standard_form",
                        lambda *args: solves.append(args) or solve(*args))
    monkeypatch.setattr(bounds, "make_program",
                        lambda *args: programs.append(args) or make(*args))

    model = marginal_matrix(SimplicialComplex(3, ((1, 2), (2, 3))), (2, 2, 2))
    matrix = [list(r) for r in model.matrix]
    res = lp_ip_equal_all(matrix, budget=2)
    assert res.holds
    assert len(programs) == res.checked_rhs * len(matrix[0])
    assert len(solves) == len(programs)

    solves.clear()
    programs.clear()
    assert gap_witness(SEGMENT_MATRIX) is not None
    assert programs and len(solves) == len(programs)

    path = tmp_path / "A.json"
    path.write_text(json.dumps({"matrix": SEGMENT_MATRIX}))
    for b in ("1,1", "-1,0"):
        solves.clear()
        assert main(["bounds", "--matrix", str(path), f"--b={b}", "--cell", "3"]) == 0
        assert len(solves) == 1
