"""Exact LP relaxations and integer optima for max-cell standard-form programs.

Programs are ``max x_i : A x = b, x >= 0 (, x integral)`` for a homogeneous
integer matrix A: some weight vector w has w.A_j = 1 for every column, which
pins the 1-norm of every feasible point to w.b and makes the integer side a
finite enumeration.  The LP side is the exact simplex; the IP side scans the
objective value downward and settles feasibility of each residual by
depth-first search with interval pruning, so the two sides are independent
of each other.

When the column polytope is not compressed, some right-hand side provably
separates the two optima; ``gap_witness`` builds one from a two-level facet
by solving for an affine dependency between the top-level column, the facet
columns and an intermediate column, then verifies the gap with both solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, permutations
from math import gcd

from .compressed import is_compressed
from .linalg import affine_lattice_of, solve_rational
from .polytope import LatticePolytope, PointConfiguration
from .simplex import solve_standard_form
from .triangulate import DEFAULT_ORDERING_CAP, each_pulling_unimodular


def matrix_columns(a):
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    return [tuple(a[i][j] for i in range(nrows)) for j in range(ncols)]


def find_weight(a):
    """A rational w with w . column = 1 for every column, or None."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0:
        return None
    at = [[a[i][j] for i in range(nrows)] for j in range(ncols)]
    sol = solve_rational(at, [1] * ncols)
    return tuple(sol) if sol is not None else None


@dataclass(frozen=True)
class StandardFormProgram:
    """max x_objective subject to matrix @ x = rhs, x >= 0."""

    matrix: tuple
    rhs: tuple
    objective_index: int
    weight: tuple

    @property
    def ncols(self):
        return len(self.matrix[0])

    @cached_property
    def budget(self):
        """w.rhs: the exact 1-norm of every feasible point, computed once."""
        return sum(Fraction(w) * r for w, r in zip(self.weight, self.rhs))


def make_program(a, b, objective_index):
    """Validated standard-form program; rejects inhomogeneous matrices."""
    w = find_weight(a)
    if w is None:
        raise ValueError("matrix is not homogeneous (no weight vector w.A_j = 1)")
    matrix = tuple(tuple(int(x) for x in row) for row in a)
    if len(b) != len(matrix):
        raise ValueError("right-hand side length must match the row count")
    ncols = len(matrix[0])
    if not 0 <= objective_index < ncols:
        raise ValueError("objective index out of range")
    return StandardFormProgram(
        matrix=matrix,
        rhs=tuple(int(x) for x in b),
        objective_index=objective_index,
        weight=w,
    )


@dataclass(frozen=True)
class LPOutcome:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None
    point: tuple | None


def lp_max(program, minimize=False):
    """Exact LP optimum of the relaxation (minimization behind the flag)."""
    sign = -1 if minimize else 1
    c = [0] * program.ncols
    c[program.objective_index] = sign
    res = solve_standard_form(program.matrix, program.rhs, c)
    if res.status == "infeasible":
        return LPOutcome("infeasible", None, None)
    if res.status != "optimal":
        raise RuntimeError(f"simplex returned {res.status!r} on a homogeneous program")
    if sum(res.solution) != program.budget:
        raise RuntimeError("LP optimum breaks the 1-norm that homogeneity pins")
    return LPOutcome("optimal", sign * res.value, res.solution)


@dataclass(frozen=True)
class IPOutcome:
    status: str  # "optimal" | "infeasible"
    value: int | None
    table: tuple | None
    reason: str | None = None  # on infeasible: "lp-infeasible" | "no-integer-point"


def _fill_exact(columns, target, budget):
    """A nonnegative integer combination of exactly ``budget`` columns hitting
    target, or None.  Interval pruning per row over the remaining columns."""
    ncols = len(columns)
    nrows = len(target)
    if ncols == 0:
        return () if budget == 0 and not any(target) else None
    suffix_min = [[0] * nrows for _ in range(ncols + 1)]
    suffix_max = [[0] * nrows for _ in range(ncols + 1)]
    for j in range(ncols - 1, -1, -1):
        for r in range(nrows):
            suffix_min[j][r] = min(suffix_min[j + 1][r], columns[j][r])
            suffix_max[j][r] = max(suffix_max[j + 1][r], columns[j][r])

    counts = [0] * ncols

    def rec(j, residual, remaining):
        if j == ncols - 1:
            if all(x == remaining * c for x, c in zip(residual, columns[j])):
                counts[j] = remaining
                return True
            return False
        lo = suffix_min[j]
        hi = suffix_max[j]
        for r in range(nrows):
            if not remaining * lo[r] <= residual[r] <= remaining * hi[r]:
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


def ip_max(program, minimize=False, lp=None):
    """Exact integer optimum by downward scan over the objective value.

    Fixing x_i = t leaves a residual that must be an exact nonnegative
    integer combination of the other columns using the remaining budget; the
    first feasible t below the LP bound is optimal.  LP-infeasibility and
    integer-infeasibility are reported apart.  ``lp`` is the caller's
    ``lp_max(program, minimize=minimize)`` outcome, so a caller that already
    holds it does not solve the LP again.
    """
    if lp is None:
        lp = lp_max(program, minimize=minimize)
    if lp.status == "infeasible":
        return IPOutcome("infeasible", None, None, reason="lp-infeasible")
    budget = program.budget
    if budget.denominator != 1 or budget < 0:
        return IPOutcome("infeasible", None, None, reason="no-integer-point")
    budget = int(budget)
    i = program.objective_index
    columns = matrix_columns(program.matrix)
    others = [c for j, c in enumerate(columns) if j != i]
    col_i = columns[i]

    if minimize:
        start = lp.value.numerator // lp.value.denominator
        if Fraction(start) < lp.value:
            start += 1
        values = range(max(start, 0), budget + 1)
    else:
        values = range(min(lp.value.numerator // lp.value.denominator, budget), -1, -1)

    for t in values:
        residual = [x - t * y for x, y in zip(program.rhs, col_i)]
        fill = _fill_exact(others, residual, budget - t)
        if fill is not None:
            table = list(fill[:i]) + [t] + list(fill[i:])
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
    w = find_weight(a)
    if w is None:
        raise ValueError("matrix is not homogeneous")
    columns = matrix_columns(a)
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
        for i in cells:
            program = make_program(a, b, i)
            lp = lp_max(program)
            ip = ip_max(program, lp=lp)
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


def _integerize(values):
    scale = 1
    for v in values:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    return [int(v * scale) for v in values], scale


def gap_witness(a, kernel_radius=3):
    """A right-hand side separating LP from IP, from a two-level facet.

    Returns None when the column polytope is compressed.  Otherwise: take the
    violating facet, name a top-level column, and for each intermediate-level
    column solve for the affine dependency through the facet columns; scaled
    to integers it is a kernel vector v with the signs of the gap
    construction, and b = sum_{v_i>0} v_i A_i - A_mid.  Every candidate is
    verified by running both solvers; a bounded search over integer kernel
    combinations backs up the direct construction.  Exhausting the search
    without a verified witness raises instead of failing silently.
    """
    w = find_weight(a)
    if w is None:
        raise ValueError("matrix is not homogeneous")
    columns = matrix_columns(a)
    poly = LatticePolytope(columns)
    cert = is_compressed(poly)
    if cert.verdict:
        return None
    facet = cert.violation.facet
    zcols = [poly.hull_lattice.coords(c) for c in columns]
    slacks = [facet.lattice_slack(z) for z in zcols]
    m = max(slacks)
    top = next(j for j, s in enumerate(slacks) if s == m)
    mids = [j for j, s in enumerate(slacks) if 0 < s < m]
    base = [j for j, s in enumerate(slacks) if s == 0]

    def verify(v, mid):
        positive = [(j, x) for j, x in enumerate(v) if x > 0]
        b = [0] * len(a)
        for j, x in positive:
            b = [r + x * c for r, c in zip(b, columns[j])]
        b = [r - c for r, c in zip(b, columns[mid])]
        program = make_program(a, b, top)
        lp = lp_max(program)
        ip = ip_max(program, lp=lp)
        if lp.status != "optimal" or ip.status != "optimal":
            return None
        if lp.value > ip.value:
            return GapWitness(
                facet=facet,
                rhs=tuple(b),
                objective_index=top,
                lp_value=lp.value,
                ip_value=ip.value,
                kernel_vector=tuple(v),
            )
        return None

    # direct construction: top column as an affine combination of an
    # intermediate column and the facet columns
    for mid in mids:
        support = [mid] + base
        rows = [[columns[j][r] for j in support] for r in range(len(a))]
        rows.append([1] * len(support))
        sol = solve_rational(rows, list(columns[top]) + [1])
        if sol is None:
            continue
        ints, scale = _integerize(sol)
        v = [0] * len(columns)
        v[top] = -scale
        for j, x in zip(support, ints):
            v[j] += x
        witness = verify(v, mid)
        if witness is not None:
            return witness

    # fallback: bounded integer combinations of the kernel basis
    from .linalg import integer_kernel

    basis = integer_kernel(list(a))
    if basis and len(basis) <= 8:
        from itertools import product as iproduct

        candidates = []
        for coeffs in iproduct(range(-kernel_radius, kernel_radius + 1), repeat=len(basis)):
            if not any(coeffs):
                continue
            v = [0] * len(columns)
            for c, vec in zip(coeffs, basis):
                if c:
                    v = [x + c * y for x, y in zip(v, vec)]
            if v[top] >= 0:
                continue
            if any(v[j] > 0 for j, s in enumerate(slacks) if s == m and j != top):
                continue
            for mid in mids:
                if v[mid] > 1 and all(v[j] <= 0 for j in mids if j != mid):
                    candidates.append((v[mid], tuple(v), mid))
        for _, v, mid in sorted(set(candidates)):
            witness = verify(list(v), mid)
            if witness is not None:
                return witness

    raise RuntimeError(
        "no verified gap witness within the search budget; the polytope is "
        "certified non-compressed, so one exists beyond it"
    )


def pull_first_unimodular(a, objective_index, cap=DEFAULT_ORDERING_CAP):
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
    if n > cap:
        raise ValueError(f"{n} columns exceed the ordering cap {cap}")
    lattice = affine_lattice_of(columns)
    coords = [lattice.coords(c) for c in columns]
    rest = [j for j in range(n) if j != objective_index]
    orders = ((objective_index,) + tail for tail in permutations(rest))
    return any(each_pulling_unimodular(PointConfiguration(columns), coords, orders))
