import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

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
from polycomp.polytope import LatticePolytope, PointConfiguration
from polycomp.simplex import solve_standard_form
from polycomp.triangulate import pulling_triangulation_of
from polycomp.cli import main
from polycomp.compressed import is_compressed
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
        make_program([[1, 2]], [1])


def test_make_program_rejects_non_integer_entries():
    # int() used to truncate these to the fiber of b = (2, 2)
    with pytest.raises(TypeError):
        make_program(SEGMENT_MATRIX, [Fraction(5, 2), 2.7])
    with pytest.raises(TypeError):
        make_program(SEGMENT_MATRIX, [2, 2.0])


def test_cell_range_is_checked_per_call():
    p = make_program(SEGMENT_MATRIX, (1, 1))
    for cell in (-1, 3):
        with pytest.raises(ValueError, match="objective index out of range"):
            lp_max(p, cell)
        with pytest.raises(ValueError, match="objective index out of range"):
            ip_max(p, cell, lp=lp_max(p, 0))


def test_lp_max_segment_examples():
    p = make_program(SEGMENT_MATRIX, (1, 1))
    res = lp_max(p, 2)
    assert res.status == "optimal" and res.value == Fraction(1, 2)
    p2 = make_program(SEGMENT_MATRIX, (2, 2))
    assert lp_max(p2, 2).value == 1
    # b equal to a column: its own cell reaches 1
    for i, col in enumerate(matrix_columns(SEGMENT_MATRIX)):
        p3 = make_program(SEGMENT_MATRIX, col)
        assert lp_max(p3, i).value == 1


def test_lp_max_infeasible():
    p = make_program(SEGMENT_MATRIX, (-1, 0))
    assert lp_max(p, 0).status == "infeasible"


def test_ip_max_segment_examples():
    p = make_program(SEGMENT_MATRIX, (1, 1))
    res = ip_max(p, 2)
    assert res.status == "optimal" and res.value == 0
    assert res.table == (0, 1, 0)
    p2 = make_program(SEGMENT_MATRIX, (2, 2))
    res2 = ip_max(p2, 2)
    assert res2.value == 1 and res2.table in ((1, 0, 1), (0, 2, 0))
    assert res2.table == (1, 0, 1)  # scan from above finds the max cell first
    p3 = make_program(SEGMENT_MATRIX, (0, 0))
    assert ip_max(p3, 1).value == 0


def test_ip_infeasible_statuses_are_distinct():
    p = make_program(SEGMENT_MATRIX, (-1, 0))
    res = ip_max(p, 0)
    assert res.status == "infeasible" and res.reason == "lp-infeasible"
    # LP-feasible with an integral budget, but no integer point hits b
    p2 = make_program([[2, 0], [0, 2]], (1, 1))
    assert lp_max(p2, 0).status == "optimal"
    res2 = ip_max(p2, 0)
    assert res2.status == "infeasible" and res2.reason == "no-integer-point"
    # fractional budget short-circuits
    p3 = make_program([[2, 0], [0, 2]], (1, 0))
    assert lp_max(p3, 0).status == "optimal"
    res3 = ip_max(p3, 0)
    assert res3.status == "infeasible" and res3.reason == "no-integer-point"


def test_homogeneity_budget():
    p = make_program(SEGMENT_MATRIX, (3, 2))
    assert p.budget == 3
    lp = lp_max(p, 0)
    assert sum(lp.solution) == 3


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
        p = make_program(a, b)
        lp, ip = lp_max(p, i), ip_max(p, i)
        assert lp.status == "optimal" and ip.status == "optimal"
        assert lp.value >= ip.value
        assert sum(ip.table) == p.budget
        trials += 1


def _fiber_points(a, b, norm):
    """Every nonnegative integer x with sum(x) == norm and a x == b."""
    ncols = len(a[0])
    points = []
    for combo in combinations_with_replacement(range(ncols), norm):
        x = tuple(combo.count(j) for j in range(ncols))
        if all(sum(r * v for r, v in zip(row, x)) == rb for row, rb in zip(a, b)):
            points.append(x)
    return points


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda rows: st.lists(
    st.tuples(*[st.integers(-2, 3)] * rows), min_size=2, max_size=5)), st.data())
def test_ip_max_matches_enumeration_of_the_fiber(tails, data):
    # a top row of k's makes the matrix homogeneous: every point of the fiber
    # has 1-norm b[0] / k, so its integer points are finitely many
    k = data.draw(st.integers(1, 2))
    a = [[k] * len(tails)] + [list(row) for row in zip(*tails)]
    columns = matrix_columns(a)
    if data.draw(st.booleans()):
        counts = data.draw(st.lists(st.integers(0, 2), min_size=len(columns),
                                    max_size=len(columns)))
        b = [sum(c * col[r] for c, col in zip(counts, columns)) for r in range(len(a))]
    else:
        b = [data.draw(st.integers(0, 8))] + data.draw(
            st.lists(st.integers(-4, 6), min_size=len(tails[0]), max_size=len(tails[0])))
    program = make_program(a, b)
    points = _fiber_points(a, b, b[0] // k) if b[0] % k == 0 else []
    for cell in range(len(columns)):
        for minimize in (False, True):
            res = ip_max(program, cell, minimize=minimize)
            if not points:
                lp = lp_max(program, cell, minimize=minimize)
                reason = "lp-infeasible" if lp.status == "infeasible" else "no-integer-point"
                assert (res.status, res.reason) == ("infeasible", reason)
                continue
            best = (min if minimize else max)(x[cell] for x in points)
            assert res.status == "optimal" and res.value == best
            assert res.table in points and res.table[cell] == best


def test_lp_min_ip_min_flagged_path():
    p = make_program(SEGMENT_MATRIX, (2, 2))
    assert lp_max(p, 2, minimize=True).value == 0
    assert ip_max(p, 2, minimize=True).value == 0
    assert lp_max(p, 1, minimize=True).value == 0
    assert ip_max(p, 1, minimize=True).value == 0
    p3 = make_program(SEGMENT_MATRIX, (1, 1))
    assert ip_max(p3, 1, minimize=True).value == 1


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
    p = make_program(SEGMENT_MATRIX, (1, 1))
    assert lp_max(p, 2).value == Fraction(1, 2) and ip_max(p, 2).value == 0


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda rows: st.lists(
    st.tuples(*[st.integers(-2, 3)] * rows), min_size=3, max_size=6, unique=True)))
def test_gap_witness_is_the_first_mid_construction(tails):
    # a top row of ones makes the matrix homogeneous
    a = [[1] * len(tails)] + [list(row) for row in zip(*tails)]
    columns = matrix_columns(a)
    poly = LatticePolytope(columns)
    witness = gap_witness(a)
    if is_compressed(poly).verdict:
        assert witness is None
        return
    slacks = [witness.facet.lattice_slack(poly.hull_lattice.coords(c)) for c in columns]
    m = max(slacks)
    mid, *later_mids = [j for j, s in enumerate(slacks) if 0 < s < m]
    v = witness.kernel_vector
    assert all(v[j] == 0 for j in later_mids)
    assert slacks[witness.objective_index] == m and v[witness.objective_index] < 0
    assert v[mid] >= 2
    assert all(sum(x * c[r] for x, c in zip(v, columns)) == 0 for r in range(len(a)))
    rhs = [-x for x in columns[mid]]
    for x, c in zip(v, columns):
        if x > 0:
            rhs = [r + x * y for r, y in zip(rhs, c)]
    assert witness.rhs == tuple(rhs)
    assert witness.lp_value > witness.ip_value


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
        p = make_program(matrix, b)
        for minimize in (False, True):
            own = ip_max(p, i, minimize=minimize)
            assert ip_max(p, i, minimize=minimize, lp=lp_max(p, i, minimize=minimize)) == own
            reasons.add(own.reason)
    assert reasons == {None, "lp-infeasible", "no-integer-point"}


def test_one_lp_solve_per_program(monkeypatch, tmp_path):
    calls = Counter()
    for name in ("find_weight", "feasible_start", "optimize"):
        real = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *args, real=real, name=name:
                            calls.update([name]) or real(*args))

    model = marginal_matrix(SimplicialComplex(3, ((1, 2), (2, 3))), (2, 2, 2))
    matrix = [list(r) for r in model.matrix]
    assert len(matrix[0]) == 8
    res = lp_ip_equal_all(matrix, budget=2)
    assert res.holds
    assert calls == Counter(find_weight=1, feasible_start=res.checked_rhs,
                            optimize=res.checked_rhs * 8)

    calls.clear()
    assert gap_witness(SEGMENT_MATRIX) is not None
    assert calls == Counter(find_weight=1, feasible_start=1, optimize=1)

    path = tmp_path / "A.json"
    path.write_text(json.dumps({"matrix": SEGMENT_MATRIX}))
    for b, phase_two in (("1,1", 1), ("-1,0", 0)):
        calls.clear()
        assert main(["bounds", "--matrix", str(path), f"--b={b}", "--cell", "3"]) == 0
        assert calls == Counter(find_weight=1, feasible_start=1, optimize=phase_two)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda rows: st.lists(
    st.tuples(*[st.integers(-2, 3)] * rows), min_size=2, max_size=5)), st.data())
def test_one_program_serves_every_cell_in_any_order(tails, data):
    # a top row of ones makes the matrix homogeneous; b is a sum of columns
    a = [[1] * len(tails)] + [list(row) for row in zip(*tails)]
    columns = matrix_columns(a)
    counts = data.draw(st.lists(st.integers(0, 2), min_size=len(columns),
                                max_size=len(columns)))
    b = [sum(k * c[r] for k, c in zip(counts, columns)) for r in range(len(a))]
    program = make_program(a, b)
    cells = list(range(len(columns)))
    for cell in cells + cells[::-1]:
        fresh = make_program(a, b)
        for minimize in (False, True):
            sign = -1 if minimize else 1
            lp = lp_max(program, cell, minimize=minimize)
            direct = solve_standard_form(a, b, [sign * (j == cell) for j in cells])
            assert lp.status == direct.status == "optimal"
            assert (lp.value, lp.solution) == (sign * direct.value, direct.solution)
            assert lp_max(fresh, cell, minimize=minimize) == lp
            assert ip_max(program, cell, minimize=minimize) == ip_max(
                fresh, cell, minimize=minimize)
