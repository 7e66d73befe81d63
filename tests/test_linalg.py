import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomp.linalg import (
    AffineLattice,
    affine_lattice_of,
    bareiss_pivot,
    determinant,
    hermite_normal_form,
    hnf_basis,
    integer_kernel,
    matrix_rank,
    primitive,
    rref,
    saturate_rows,
    solve_fraction_free,
)

from conftest import fraction_rref, fraction_solve, nullspace_rational


def naive_determinant(m):
    """Permutation expansion, the independent oracle for small matrices."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def test_determinant_identity():
    assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_determinant_diagonal():
    assert determinant([[2, 0], [0, 3]]) == 6


def test_determinant_segment_edge_matrix():
    assert determinant([[2]]) == 2


def test_determinant_empty_and_singular():
    assert determinant([]) == 1
    assert determinant([[1, 2], [2, 4]]) == 0


def test_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_hnf_identity():
    h, u = hermite_normal_form([[1, 0], [0, 1]])
    assert h == [[1, 0], [0, 1]]
    assert u == [[1, 0], [0, 1]]


def test_hnf_hand_case_diagonal():
    h, _ = hermite_normal_form([[2, 4], [0, 2]])
    assert h == [[2, 0], [0, 2]]


def test_hnf_hand_case_column():
    h, _ = hermite_normal_form([[0], [3]])
    assert h == [[3], [0]]


def test_hnf_transform_is_unimodular_and_exact():
    rng = random.Random(7)
    for _ in range(80):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = [[rng.randint(-20, 20) for _ in range(ncols)] for _ in range(nrows)]
        h, u = hermite_normal_form(m)
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in u] == h
        assert abs(determinant(u)) == 1
        # pivots positive, entries above a pivot reduced
        pivot_cols = []
        for row in h:
            nz = [j for j, v in enumerate(row) if v]
            if nz:
                pivot_cols.append(nz[0])
                assert row[nz[0]] > 0
        assert pivot_cols == sorted(pivot_cols)
        for i, row in enumerate(h):
            nz = [j for j, v in enumerate(row) if v]
            if not nz:
                continue
            c = nz[0]
            for k in range(i):
                assert 0 <= h[k][c] < row[c]


def test_affine_lattice_of_unit_square_corner():
    lat = affine_lattice_of([(0, 0), (1, 0), (0, 1)])
    assert lat.dim == 2
    assert lat.basis == ((1, 0), (0, 1))


def test_affine_lattice_of_even_segment():
    lat = affine_lattice_of([(0,), (2,)])
    assert lat.dim == 1
    assert lat.basis == ((2,),)


def test_affine_lattice_of_index_two_sublattice():
    lat = affine_lattice_of([(0, 0), (2, 0), (0, 2), (1, 1)])
    assert lat.basis == ((1, 1), (0, 2))


def test_affine_lattice_of_is_order_invariant():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1)]
    expected = affine_lattice_of(pts).basis
    for perm in permutations(pts):
        lat = affine_lattice_of(list(perm))
        assert lat.basis == expected


def test_affine_lattice_membership_and_coords():
    lat = affine_lattice_of([(0, 0), (2, 0), (0, 2), (1, 1)])
    assert lat.contains((1, 1))
    assert not lat.contains((1, 0))
    z = lat.coords((3, 1))
    assert lat.point(z) == (3, 1)
    with pytest.raises(ValueError):
        lat.coords((0, 1))


def test_lattice_rejects_dependent_basis():
    with pytest.raises(ValueError):
        AffineLattice((0, 0), ((1, 1), (2, 2)))


def test_integer_kernel_examples():
    assert integer_kernel([[1, 1, 1], [0, 1, 2]]) == [(1, -2, 1)]
    assert integer_kernel([[1, 0], [0, 1]]) == []
    assert integer_kernel([[1, 1]]) == [(1, -1)]


def test_integer_kernel_rank_and_exactness():
    rng = random.Random(99)
    for _ in range(60):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        kernel = integer_kernel(a)
        for y in kernel:
            assert all(sum(a[i][j] * y[j] for j in range(ncols)) == 0 for i in range(nrows))
        assert len(kernel) + matrix_rank(a) == ncols


def test_integer_kernel_is_saturated():
    # the kernel of [[2, 2]] is generated by (1, -1), not (2, -2)
    assert integer_kernel([[2, 2]]) == [(1, -1)]


def test_solve_fraction_free_and_nullspace():
    x, d = solve_fraction_free([[1, 1, 1], [0, 1, 2]], [[1], [1]])
    sol = [Fraction(row[0], d) for row in x]
    assert sum(sol) == 1
    assert sol[1] + 2 * sol[2] == 1
    assert solve_fraction_free([[1, 0], [1, 0]], [[0], [1]]) is None
    ns = nullspace_rational([[1, 1, 1], [0, 1, 2]])
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] + v[2] == 0 and v[1] + 2 * v[2] == 0


def test_rref_pivots():
    assert rref([[0, 2], [1, 1]]) == ([[2, 0], [0, 2]], [0, 1], 2)
    # a negative pivot row is negated, so d > 0
    assert rref([[-3, 1]]) == ([[3, -1]], [0], 3)
    assert rref([[0, 0], [0, 0]]) == ([], [], 1)
    assert rref([]) == ([], [], 1)
    with pytest.raises(TypeError):
        rref([[Fraction(1, 2)]])


# small entries with extra weight on 0 and -1 give zero rows and columns,
# rank deficiency and negative pivots often
_entries = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(-9, 9))
_matrices = st.integers(1, 7).flatmap(
    lambda nrows: st.integers(1, 8).flatmap(
        lambda ncols: st.lists(
            st.lists(_entries, min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows,
        )
    )
)


_square_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_square_matrices)
def test_determinant_matches_permutation_expansion(m):
    assert determinant(m) == naive_determinant(m)


def test_bareiss_pivot_negates_a_negative_pivot_and_replaces_target_rows():
    rows = [(-2, 1, 0), (3, 0, 1), (0, 5, 5)]
    assert bareiss_pivot(rows, 0, 0, 1, [1]) == 2
    assert rows == [[2, -1, 0], [0, 3, 2], (0, 5, 5)]
    # the next pivot divides by the previous one exactly: 3 * RREF of rows 0-1
    assert bareiss_pivot(rows, 1, 1, 2, [0, 1]) == 3
    assert rows == [[3, 0, 1], [0, 3, 2], (0, 5, 5)]


@pytest.mark.parametrize("bad", [Fraction(3, 2), 2.5])
def test_non_integer_entries_raise_type_error(bad):
    with pytest.raises(TypeError):
        determinant([[bad, 0], [0, 2]])
    with pytest.raises(TypeError):
        hermite_normal_form([[bad, 0], [0, 2]])
    with pytest.raises(TypeError):
        AffineLattice((bad, 0), ((1, 0),))
    with pytest.raises(TypeError):
        AffineLattice((0, 0), ((bad, 0),))
    with pytest.raises(TypeError):
        affine_lattice_of([(0, 0), (bad, 1)])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_matrices)
def test_rref_matches_fraction_gauss_jordan(rows):
    reduced, pivots, d = rref(rows)
    expected, expected_pivots = fraction_rref(rows)
    assert d > 0
    assert pivots == expected_pivots
    assert [[Fraction(x, d) for x in row] for row in reduced] == expected
    assert matrix_rank(rows) == len(expected_pivots)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_matrices, st.integers(1, 3), st.booleans(), st.randoms(use_true_random=False))
def test_solve_fraction_free_matches_columnwise_solves(rows, width, consistent, rng):
    ncols = len(rows[0])
    if consistent:
        x0 = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(ncols)]
        rhs = [[sum(row[k] * x0[k][j] for k in range(ncols)) for j in range(width)]
               for row in rows]
    else:
        rhs = [[rng.randint(-3, 3) for _ in range(width)] for _ in rows]
    expected = [fraction_solve(rows, [r[j] for r in rhs]) for j in range(width)]
    solved = solve_fraction_free(rows, rhs)
    if any(col is None for col in expected):
        assert solved is None
        return
    x, d = solved
    assert d > 0
    for j, col in enumerate(expected):
        assert [Fraction(x[k][j], d) for k in range(ncols)] == col


def test_primitive_and_ranks():
    assert primitive((2, -4, 6)) == (1, -2, 3)
    assert primitive((0, 0)) == (0, 0)
    assert matrix_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert matrix_rank([(0, 0)]) == 0
    assert matrix_rank([]) == 0


def test_saturate_rows():
    # span_Q{(2, 0)} meets Z^2 in Z(1, 0)
    assert saturate_rows([(2, 0)], 2) == [(1, 0)]
    assert saturate_rows([(1, 1), (1, -1)], 2) == [(1, 0), (0, 1)]
    assert saturate_rows([(2, 2)], 2) == [(1, 1)]


def test_hnf_basis_canonical():
    assert hnf_basis([(2, 0), (0, 2), (1, 1)]) == [(1, 1), (0, 2)]
