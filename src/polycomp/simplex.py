"""Exact simplex method over the rationals, on an integer tableau.

Two-phase tableau simplex for standard-form programs ``max c.x : A x = b,
x >= 0`` with Bland's rule for both the entering and the leaving variable,
so cycling is impossible and every reported optimum is exact.  The phases
are separate functions: ``feasible_start`` finds a feasible basis of the
fiber ``{x >= 0 : A x = b}`` once, and ``optimize`` runs phase 2 from it
for one objective without changing it.  ``solve_standard_form`` is the two
in sequence.

The tableau is fraction-free (Edmonds 1967): an integer matrix ``M`` with
one positive common denominator ``D`` stands for ``M / D``.  A pivot is
``linalg.bareiss_pivot`` over every row, the same step that ``rref`` and
``determinant`` take, and leaves ``D`` the absolute determinant of the
current basis.  Comparisons divide nothing: signs are read off ``M`` and
ratios are compared by cross-multiplication.  Fractions are built only for
the returned value and solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .linalg import bareiss_pivot


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    solution: tuple | None


def _pivot(tableau, basis, row, col, d):
    """Pivot the integer tableau on (row, col); returns the new denominator."""
    basis[row] = col
    return bareiss_pivot(tableau, row, col, d, range(len(tableau)))


def _run_simplex(tableau, basis, ncols, d):
    """Maximize the objective stored in the last tableau row (Bland's rule).

    Returns the status and the final denominator.
    """
    m = len(tableau) - 1
    while True:
        obj = tableau[m]
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return "optimal", d
        best = None
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                if best is None:
                    best, num, den = i, tableau[i][-1], a
                    continue
                # tableau[i][-1] / a against num / den, both denominators > 0
                lhs, rhs = tableau[i][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, num, den = i, tableau[i][-1], a
        if best is None:
            return "unbounded", d
        d = _pivot(tableau, basis, best, col, d)


def feasible_start(a, b):
    """Phase 1 for the fiber ``{x >= 0 : a x = b}``: a feasible basis, or None.

    Minimizes the sum of one artificial per row, drives leftover artificials
    out of the basis and drops redundant rows.  Returns ``(tableau, basis,
    d)`` as tuples without the artificial columns or an objective row.
    Entries must be ints: a Fraction raises TypeError, not truncation.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [list(map(index, row)) for row in a]
    rhs = list(map(index, b))
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    ncols = n + m
    tableau = []
    for i in range(m):
        art = [0] * m
        art[i] = 1
        tableau.append(rows[i] + art + [rhs[i]])
    # maximize -(sum of artificials) == row sums over the original columns
    obj = [sum(col) for col in zip(*rows)] if m else []
    tableau.append(obj + [0] * m + [sum(rhs)])
    basis = [n + i for i in range(m)]
    status, d = _run_simplex(tableau, basis, ncols, 1)
    if status != "optimal":
        raise RuntimeError(f"phase 1 returned {status!r}; it is always bounded")
    if tableau.pop()[-1] != 0:
        return None

    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        col = next((j for j in range(n) if tableau[i][j] != 0), None)
        if col is None:
            continue  # redundant constraint
        d = _pivot(tableau, basis, i, col, d)
        keep.append(i)
    return (tuple(tuple(tableau[i][:n]) + (tableau[i][-1],) for i in keep),
            tuple(basis[i] for i in keep), d)


def optimize(start, c):
    """Phase 2: maximize ``c.x`` from a ``feasible_start`` result, on a copy
    so one start serves every objective.  Returns an LPResult, "optimal"
    (the solution attains the value exactly) or "unbounded".
    """
    c = list(map(index, c))
    n = len(c)
    # bareiss_pivot replaces the start's tuple rows instead of writing into them
    tableau, basis, d = list(start[0]), list(start[1]), start[2]
    # the objective row is d*c - sum of c[basis[i]] * row i
    obj = [d * x for x in c] + [0]
    for tr, bi in zip(tableau, basis):
        f = c[bi]
        if f:
            obj = [x - f * y for x, y in zip(obj, tr)]
    tableau.append(obj)
    status, d = _run_simplex(tableau, basis, n, d)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    solution = [Fraction(0)] * n
    for tr, bi in zip(tableau, basis):
        solution[bi] = Fraction(tr[-1], d)
    value = Fraction(sum(c[bi] * tr[-1] for tr, bi in zip(tableau, basis)), d)
    return LPResult("optimal", value, tuple(solution))


def solve_standard_form(a, b, c):
    """Solve ``max c.x  s.t.  a x = b, x >= 0`` exactly: ``feasible_start``
    then ``optimize``.  Returns an LPResult."""
    start = feasible_start(a, b)
    if start is None:
        return LPResult("infeasible", None, None)
    return optimize(start, c)


def solve_box_program(equalities, eq_rhs, objective, n, maximize=False):
    """Optimize ``objective . x`` over ``{x in [0,1]^n : equalities x = rhs}``.

    Used for checking that inequalities are valid on a cube section.  Returns
    an LPResult in the original variables.
    """
    rows = [list(row) + [0] * n for row in equalities]
    rhs = list(eq_rhs)
    for j in range(n):
        slack = [0] * (2 * n)
        slack[j] = 1
        slack[n + j] = 1
        rows.append(slack)
        rhs.append(1)
    sign = 1 if maximize else -1
    c = [sign * x for x in objective] + [0] * n
    res = solve_standard_form(rows, rhs, c)
    if res.status != "optimal":
        return res
    return LPResult("optimal", sign * res.value, res.solution[:n])
