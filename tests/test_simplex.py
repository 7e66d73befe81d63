import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomp import simplex
from polycomp.simplex import (
    LPResult,
    feasible_start,
    optimize,
    solve_box_program,
    solve_standard_form,
)

from conftest import fraction_solve


def _fraction_pivot(tableau, basis, row, col, trail):
    trail.append((row, col))
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i, tr in enumerate(tableau):
        if i != row and tr[col]:
            f = tr[col]
            tableau[i] = [x - f * y for x, y in zip(tr, tableau[row])]
    basis[row] = col


def _fraction_run(tableau, basis, ncols, trail):
    m = len(tableau) - 1
    while True:
        obj = tableau[m]
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return "optimal"
        best = None
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            return "unbounded"
        _fraction_pivot(tableau, basis, best[1], col, trail)


def fraction_simplex(a, b, c, trail):
    """Two-phase Bland simplex on a Fraction tableau: the reference.

    Same algorithm as ``solve_standard_form`` (artificials on every row,
    leftover artificials driven out, redundant rows dropped), with every
    entry a Fraction and every pivot a division.  Appends each pivot's
    (row, column) to ``trail``.
    """
    m = len(a)
    n = len(a[0]) if m else len(c)
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    ncols = n + m
    tableau = []
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(rows[i] + art + [rhs[i]])
    obj = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        for j in range(n):
            obj[j] += tableau[i][j]
        obj[ncols] += tableau[i][-1]
    tableau.append(obj)
    basis = [n + i for i in range(m)]
    assert _fraction_run(tableau, basis, ncols, trail) == "optimal"
    if tableau[m][-1] != 0:
        return LPResult("infeasible", None, None)
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        col = next((j for j in range(n) if tableau[i][j] != 0), None)
        if col is None:
            continue
        _fraction_pivot(tableau, basis, i, col, trail)
        keep.append(i)
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    obj = [Fraction(x) for x in c] + [Fraction(0)]
    for i, bi in enumerate(basis):
        f = obj[bi]
        if f:
            obj = [x - f * y for x, y in zip(obj, tableau[i])]
    tableau.append(obj)
    if _fraction_run(tableau, basis, n, trail) == "unbounded":
        return LPResult("unbounded", None, None)
    solution = [Fraction(0)] * n
    for i in range(len(tableau) - 1):
        solution[basis[i]] = tableau[i][-1]
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, solution))
    return LPResult("optimal", value, tuple(solution))


@st.composite
def _programs(draw):
    """Small integer programs, with the degenerate shapes drawn often:
    negative right-hand sides, duplicated and scaled rows, and both
    feasible (b = A x0 for x0 >= 0) and arbitrary right-hand sides, which
    are often infeasible.  Free objectives make unbounded programs."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 7))
    entry = st.integers(-3, 3)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, 2), min_size=ncols, max_size=ncols))
        b = [sum(r * x for r, x in zip(row, x0)) for row in rows]
    else:
        b = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(rows) - 1))
        scale = draw(st.sampled_from([1, 1, 2, -1, -2, 3]))
        rows.append([scale * x for x in rows[k]])
        b.append(scale * b[k])
    c = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    return rows, b, c


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_programs())
def test_integer_tableau_matches_fraction_tableau(program):
    a, b, c = program
    trail, expected_trail = [], []
    pivot = simplex._pivot

    def recording_pivot(tableau, basis, row, col, d):
        trail.append((row, col))
        return pivot(tableau, basis, row, col, d)

    with mock.patch.object(simplex, "_pivot", recording_pivot):
        res = solve_standard_form(a, b, c)
    expected = fraction_simplex(a, b, c, expected_trail)
    assert res == expected
    # the same pivots, so the same vertex on degenerate ties
    assert trail == expected_trail
    if res.status == "optimal":
        assert isinstance(res.value, Fraction)
        assert all(isinstance(x, Fraction) for x in res.solution)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_programs())
def test_one_start_serves_every_objective(program):
    a, b, c = program
    start = feasible_start(a, b)
    if start is None:
        assert fraction_simplex(a, b, c, []).status == "infeasible"
        return
    before = repr(start)
    for objective in (c, [-x for x in c], c[::-1], c):
        assert optimize(start, objective) == fraction_simplex(a, b, objective, [])
    assert repr(start) == before


def test_fraction_entries_raise_type_error():
    with pytest.raises(TypeError):
        solve_standard_form([[Fraction(1, 2), 1]], [1], [1, 0])
    with pytest.raises(TypeError):
        solve_standard_form([[1, 1]], [Fraction(1, 2)], [1, 0])
    with pytest.raises(TypeError):
        solve_standard_form([[1, 1]], [1], [Fraction(1, 2), 0])


def test_optimal_basic():
    # max x2 s.t. x1+x2+x3 = 1, x2+2x3 = 1
    res = solve_standard_form([[1, 1, 1], [0, 1, 2]], [1, 1], [0, 0, 1])
    assert res.status == "optimal"
    assert res.value == Fraction(1, 2)
    a, b = [[1, 1, 1], [0, 1, 2]], [1, 1]
    assert all(
        sum(a[i][j] * res.solution[j] for j in range(3)) == b[i] for i in range(2)
    )
    assert all(x >= 0 for x in res.solution)


def test_infeasible():
    res = solve_standard_form([[1, 1]], [-1], [1, 0])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_standard_form([[1, -1]], [0], [1, 0])
    assert res.status == "unbounded"


def test_redundant_rows_are_dropped():
    res = solve_standard_form([[1, 1], [2, 2]], [1, 2], [1, 0])
    assert res.status == "optimal"
    assert res.value == 1


def test_degenerate_does_not_cycle():
    # classic degeneracy: many tight constraints at the optimum
    a = [[1, 1, 1, 0], [1, 0, 0, 1]]
    res = solve_standard_form(a, [1, 1], [0, 1, 0, 0])
    assert res.status == "optimal"
    assert res.value == 1


def test_matches_vertex_enumeration_oracle():
    # on random bounded programs, the optimum equals the best basic solution
    # found by brute force over column subsets
    rng = random.Random(2024)
    from itertools import combinations

    checked = 0
    while checked < 30:
        m, n = rng.randint(1, 2) + 1, rng.randint(3, 5)
        a = [[1] * n] + [[rng.randint(0, 3) for _ in range(n)] for _ in range(m - 1)]
        x0 = [rng.randint(0, 2) for _ in range(n)]
        b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        res = solve_standard_form(a, b, c)
        assert res.status == "optimal"
        best = None
        for k in range(1, m + 1):
            for cols in combinations(range(n), k):
                sub = [[a[i][j] for j in cols] for i in range(m)]
                sol = fraction_solve(sub, b)
                if sol is None or any(x < 0 for x in sol):
                    continue
                val = sum(c[j] * x for j, x in zip(cols, sol))
                if best is None or val > best:
                    best = val
        assert best is not None
        assert res.value == best
        checked += 1


def test_box_program_min_and_max():
    # optimize x1 over the triangle x1+x2 = 1 inside the unit square
    res = solve_box_program([[1, 1]], [1], [1, 0], 2, maximize=False)
    assert res.status == "optimal" and res.value == 0
    res = solve_box_program([[1, 1]], [1], [1, 0], 2, maximize=True)
    assert res.status == "optimal" and res.value == 1


def test_box_program_cube_section_validity():
    # the diagonal section x1 = x2 of the square: both 0/1 points satisfy
    # x1 + x2 >= 0 with minimum 0 over the whole section
    res = solve_box_program([[1, -1]], [0], [1, 1], 2, maximize=False)
    assert res.status == "optimal" and res.value == 0


def test_exactness_no_rounding():
    # an instance whose optimum is a ratio of large primes
    p, q = 10**12 + 39, 10**12 + 61
    res = solve_standard_form([[q, p]], [p * q], [1, 0])
    assert res.status == "optimal"
    assert res.value == Fraction(p * q, q)
