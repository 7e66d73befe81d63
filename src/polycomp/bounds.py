"""Exact LP relaxations and integer optima of one cell x_i over a fiber.

A program is the fiber ``{x >= 0 : A x = b}`` of a homogeneous integer
matrix A: a weight vector w, found once per matrix, has w.A_j = 1 for every
column, which pins the 1-norm of every feasible point to w.b and makes the
integer side a finite enumeration.  The LP side is the exact simplex, whose
phase 1 runs once per fiber for all cells; the IP side scans the objective
value downward and settles feasibility of each residual by depth-first
search with interval pruning, so the two sides are independent.

When the column polytope is not compressed, some right-hand side provably
separates the two optima.  ``gap_witness`` builds one directly from a facet
of lattice width m >= 2: one solve writes a top-level column as an affine
combination of the first intermediate-level column and the facet columns,
which gives a kernel vector and the right-hand side.  That column exists,
the solve succeeds, the IP is feasible and the LP optimum is fractional
(proof in ``gap_witness``), so both solvers only confirm the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, permutations
from operator import index

from .compressed import is_compressed
from .linalg import primitive, solve_fraction_free
from .polytope import LatticePolytope, PointConfiguration
from .simplex import LPResult, feasible_start, optimize
from .triangulate import each_pulling_unimodular

DEFAULT_ORDERING_CAP = 9


def matrix_columns(a):
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    return [tuple(a[i][j] for i in range(nrows)) for j in range(ncols)]


def find_weight(a):
    """A rational w with w . column = 1 for every column, or None."""
    columns = matrix_columns(a)
    solved = solve_fraction_free(columns, [[1]] * len(columns)) if columns else None
    if solved is None:
        return None
    x, d = solved
    return tuple(Fraction(row[0], d) for row in x)


@dataclass(frozen=True)
class StandardFormProgram:
    """The fiber {x >= 0 : matrix @ x = rhs} of a homogeneous matrix with
    weight vector ``weight``; ``lp_max`` and ``ip_max`` optimize its cells."""

    matrix: tuple
    rhs: tuple
    weight: tuple

    @property
    def ncols(self):
        return len(self.matrix[0])

    @cached_property
    def budget(self):
        """w.rhs: the exact 1-norm of every feasible point, computed once."""
        return sum(w * r for w, r in zip(self.weight, self.rhs))

    @cached_property
    def columns(self):
        """The matrix's columns as tuples, built once for every cell."""
        return matrix_columns(self.matrix)

    @cached_property
    def start(self):
        """Phase 1 of the simplex on the fiber, None when it is empty,
        computed once for every cell."""
        return feasible_start(self.matrix, self.rhs)


def _homogeneous(a, message):
    """The matrix as int tuples and its weight vector; ValueError if none."""
    w = find_weight(a)
    if w is None:
        raise ValueError(message)
    return tuple(tuple(map(index, row)) for row in a), w


def make_program(a, b):
    """The validated fiber of b; rejects inhomogeneous matrices."""
    matrix, w = _homogeneous(a, "matrix is not homogeneous (no weight vector w.A_j = 1)")
    if len(b) != len(matrix):
        raise ValueError("right-hand side length must match the row count")
    return StandardFormProgram(matrix=matrix, rhs=tuple(map(index, b)), weight=w)


def lp_max(program, cell, minimize=False):
    """Exact LP optimum of cell ``cell`` over the fiber (minimization behind
    the flag), as an LPResult, "optimal" or "infeasible"."""
    if not 0 <= cell < program.ncols:
        raise ValueError("objective index out of range")
    if program.start is None:
        return LPResult("infeasible", None, None)
    sign = -1 if minimize else 1
    c = [0] * program.ncols
    c[cell] = sign
    res = optimize(program.start, c)
    if res.status != "optimal":
        raise RuntimeError(f"simplex returned {res.status!r} on a homogeneous program")
    if sum(res.solution) != program.budget:
        raise RuntimeError("LP optimum breaks the 1-norm that homogeneity pins")
    return LPResult("optimal", sign * res.value, res.solution)


@dataclass(frozen=True)
class IPOutcome:
    status: str  # "optimal" | "infeasible"
    value: int | None
    table: tuple | None
    reason: str | None = None  # on infeasible: "lp-infeasible" | "no-integer-point"


def _exact_filler(columns):
    """``fill(target, budget)``: a nonnegative integer combination of exactly
    ``budget`` columns hitting target, or None.  Interval pruning per row over
    the remaining columns, whose bounds are built once for every target by
    one backward pass of running minima and maxima."""
    ncols = len(columns)
    lows, highs = [None] * ncols, [None] * ncols
    lo = hi = [0] * (len(columns[0]) if columns else 0)
    for j in range(ncols - 1, -1, -1):
        lo = lows[j] = [min(a, x) for a, x in zip(lo, columns[j])]
        hi = highs[j] = [max(a, x) for a, x in zip(hi, columns[j])]

    def fill(target, budget):
        if ncols == 0:
            return () if budget == 0 and not any(target) else None
        counts = [0] * ncols

        def rec(j, residual, remaining):
            if j == ncols - 1:
                if all(x == remaining * c for x, c in zip(residual, columns[j])):
                    counts[j] = remaining
                    return True
                return False
            for lo, hi, x in zip(lows[j], highs[j], residual):
                if not remaining * lo <= x <= remaining * hi:
                    return False
            col = columns[j]
            for c in range(remaining + 1):
                counts[j] = c
                if rec(j + 1, [x - c * y for x, y in zip(residual, col)], remaining - c):
                    return True
            counts[j] = 0
            return False

        if rec(0, list(target), budget):
            return tuple(counts)
        return None

    return fill


def ip_max(program, cell, minimize=False, lp=None):
    """Exact integer optimum of cell ``cell`` by downward scan over its value.

    Fixing x_i = t leaves a residual that must be an exact nonnegative
    integer combination of the other columns using the remaining budget; the
    first feasible t below the LP bound is optimal.  LP-infeasibility and
    integer-infeasibility are reported apart.  ``lp`` is the caller's
    ``lp_max(program, cell, minimize=minimize)`` outcome, so a caller that
    already holds it does not solve the LP again.
    """
    if not 0 <= cell < program.ncols:
        raise ValueError("objective index out of range")
    if lp is None:
        lp = lp_max(program, cell, minimize=minimize)
    if lp.status == "infeasible":
        return IPOutcome("infeasible", None, None, reason="lp-infeasible")
    budget = program.budget
    if budget.denominator != 1 or budget < 0:
        return IPOutcome("infeasible", None, None, reason="no-integer-point")
    budget = int(budget)
    col_i = program.columns[cell]
    fill_exact = _exact_filler([c for j, c in enumerate(program.columns) if j != cell])

    if minimize:
        start = lp.value.numerator // lp.value.denominator
        if Fraction(start) < lp.value:
            start += 1
        values = range(max(start, 0), budget + 1)
    else:
        values = range(min(lp.value.numerator // lp.value.denominator, budget), -1, -1)

    for t in values:
        residual = [x - t * y for x, y in zip(program.rhs, col_i)]
        fill = fill_exact(residual, budget - t)
        if fill is not None:
            table = list(fill[:cell]) + [t] + list(fill[cell:])
            return IPOutcome("optimal", t, tuple(table))
    return IPOutcome("infeasible", None, None, reason="no-integer-point")


@dataclass(frozen=True)
class SweepResult:
    holds: bool
    checked_rhs: int
    counterexample: tuple | None  # (b, objective_index, lp_value, ip_value)


def lp_ip_equal_all(a, budget, cells=None):
    """Test LP = IP over every IP-feasible b with w.b <= budget.

    The right-hand sides are exactly the sums of at most ``budget`` columns
    (with multiplicity), deduplicated; ``cells`` restricts the objective
    coordinates, default all.  Returns the first counterexample found.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    matrix, w = _homogeneous(a, "matrix is not homogeneous")
    columns = matrix_columns(matrix)
    ncols = len(columns)
    cells = list(range(ncols)) if cells is None else sorted(set(cells))
    nrows = len(a)
    rhs_set = set()
    for k in range(budget + 1):
        for combo in combinations_with_replacement(range(ncols), k):
            b = [0] * nrows
            for j in combo:
                b = [x + y for x, y in zip(b, columns[j])]
            rhs_set.add(tuple(b))
    for b in sorted(rhs_set):
        program = StandardFormProgram(matrix=matrix, rhs=b, weight=w)
        for i in cells:
            lp = lp_max(program, i)
            ip = ip_max(program, i, lp=lp)
            if lp.status != "optimal" or ip.status != "optimal":
                raise RuntimeError(f"column sum {b} must be LP- and IP-feasible")
            if lp.value != ip.value:
                return SweepResult(False, len(rhs_set), (b, i, lp.value, ip.value))
    return SweepResult(True, len(rhs_set), None)


@dataclass(frozen=True)
class GapWitness:
    facet: object
    rhs: tuple
    objective_index: int
    lp_value: Fraction
    ip_value: int
    kernel_vector: tuple


def gap_witness(a):
    """A right-hand side separating LP from IP, from a facet of width >= 2.

    Returns None when the column polytope is compressed.  Otherwise take the
    violating facet F, whose primitive functional puts the columns at levels
    0..m with m >= 2, the first top-level column ``top`` and the first
    intermediate-level column ``mid``.  One solve writes ``top`` as an affine
    combination of ``mid`` and the columns on F; scaled to a primitive
    integer vector (x, d) it is the kernel vector v with v_top = -d, and
    b = sum_{v_j>0} v_j A_j - A_mid.  The construction always succeeds:

    (i) Some column lies strictly between level 0 and m.  The top level is
        reached at a vertex, which is a column.  If every column sat at level
        0 or m, the primitive functional would take only multiples of m on
        the lattice the columns generate, which forces m = 1: a single level.
    (ii) The facet columns span F's hyperplane and ``mid`` lies off it, so
        together they affinely span the hull and the solve succeeds.  The
        functional gives ``mid`` the coefficient m/s_mid > 1, for its level
        s_mid, so v_mid >= 2 and b is a nonnegative integer combination of
        columns: the IP is feasible.
    (iii) The LP optimum at ``top`` is d - s_mid/m, which is not an integer,
        so LP > IP.

    Both solvers check the gap; a failure raises as a broken invariant.
    """
    matrix, w = _homogeneous(a, "matrix is not homogeneous")
    columns = matrix_columns(matrix)
    poly = LatticePolytope(columns)
    cert = is_compressed(poly)
    if cert.verdict:
        return None
    facet = cert.violation.facet
    slacks = [facet.lattice_slack(poly.hull_lattice.coords(c)) for c in columns]
    m = max(slacks)
    top = slacks.index(m)
    mid = next(j for j, s in enumerate(slacks) if 0 < s < m)
    support = [mid] + [j for j, s in enumerate(slacks) if s == 0]
    rows = [[columns[j][r] for j in support] for r in range(len(a))]
    rows.append([1] * len(support))
    solved = solve_fraction_free(rows, [[x] for x in columns[top]] + [[1]])
    if solved is None:
        raise RuntimeError("the facet columns and an intermediate column must span the hull")
    x, d = solved
    *coefficients, scale = primitive([row[0] for row in x] + [d])
    v = [0] * len(columns)
    v[top] = -scale
    for j, c in zip(support, coefficients):
        v[j] = c
    b = [-c for c in columns[mid]]
    for j, c in enumerate(v):
        if c > 0:
            b = [r + c * y for r, y in zip(b, columns[j])]
    program = StandardFormProgram(matrix=matrix, rhs=tuple(b), weight=w)
    lp = lp_max(program, top)
    ip = ip_max(program, top, lp=lp)
    if lp.status != "optimal" or ip.status != "optimal" or lp.value <= ip.value:
        raise RuntimeError("the facet construction must separate LP from IP")
    return GapWitness(
        facet=facet,
        rhs=tuple(b),
        objective_index=top,
        lp_value=lp.value,
        ip_value=ip.value,
        kernel_vector=tuple(v),
    )


def pull_first_unimodular(a, objective_index):
    """Whether some column ordering starting at the objective column induces a
    unimodular pulling triangulation of the column polytope.

    The triangulation uses only the columns as points, against the lattice
    they span.  All (n-1)! tail orderings go through
    ``triangulate.each_pulling_unimodular``, with early exit.
    """
    columns = matrix_columns(a)
    if len(set(columns)) != len(columns):
        raise ValueError("duplicate columns")
    n = len(columns)
    if not 0 <= objective_index < n:
        raise ValueError("objective index out of range")
    if n > DEFAULT_ORDERING_CAP:
        raise ValueError(f"{n} columns exceed the ordering cap {DEFAULT_ORDERING_CAP}")
    rest = [j for j in range(n) if j != objective_index]
    orders = ((objective_index,) + tail for tail in permutations(rest))
    return any(each_pulling_unimodular(PointConfiguration(columns), orders))
