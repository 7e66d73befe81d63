"""Exact simplex method over the rationals.

Two-phase tableau simplex for standard-form programs ``max c.x : A x = b,
x >= 0`` with Fraction arithmetic throughout and Bland's rule for both the
entering and the leaving variable, so cycling is impossible and every
reported optimum is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    solution: tuple | None


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i, tr in enumerate(tableau):
        if i != row and tr[col]:
            f = tr[col]
            tableau[i] = [x - f * y for x, y in zip(tr, tableau[row])]
    basis[row] = col


def _run_simplex(tableau, basis, ncols):
    """Maximize the objective stored in the last tableau row (Bland's rule)."""
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
        _pivot(tableau, basis, best[1], col)


def solve_standard_form(a, b, c):
    """Solve ``max c.x  s.t.  a x = b, x >= 0`` exactly.

    Returns an LPResult; on "optimal" the solution attains the value exactly.
    """
    m = len(a)
    n = len(a[0]) if m else len(c)
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: artificials on every row, minimize their sum
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
    # maximize -(sum of artificials) == row sums over the original columns
    tableau.append(obj)
    basis = [n + i for i in range(m)]
    status = _run_simplex(tableau, basis, ncols)
    if status != "optimal":
        raise RuntimeError(f"phase 1 returned {status!r}; it is always bounded")
    if tableau[m][-1] != 0:
        return LPResult("infeasible", None, None)

    # drive leftover artificials out of the basis, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        col = next((j for j in range(n) if tableau[i][j] != 0), None)
        if col is None:
            continue  # redundant constraint
        _pivot(tableau, basis, i, col)
        keep.append(i)
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2
    obj = [Fraction(x) for x in c] + [Fraction(0)]
    for i, bi in enumerate(basis):
        f = obj[bi]
        if f:
            obj = [x - f * y for x, y in zip(obj, tableau[i])]
    tableau.append(obj)
    status = _run_simplex(tableau, basis, n)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    solution = [Fraction(0)] * n
    mm = len(tableau) - 1
    for i in range(mm):
        solution[basis[i]] = tableau[i][-1]
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, solution))
    return LPResult("optimal", value, tuple(solution))


def solve_box_program(equalities, eq_rhs, objective, n, maximize=False):
    """Optimize ``objective . x`` over ``{x in [0,1]^n : equalities x = rhs}``.

    Used for checking that inequalities are valid on a cube section.  Returns
    an LPResult in the original variables.
    """
    rows = []
    rhs = []
    for row, val in zip(equalities, eq_rhs):
        rows.append([Fraction(x) for x in row] + [Fraction(0)] * n)
        rhs.append(Fraction(val))
    for j in range(n):
        slack = [Fraction(0)] * (2 * n)
        slack[j] = Fraction(1)
        slack[n + j] = Fraction(1)
        rows.append(slack)
        rhs.append(Fraction(1))
    sign = 1 if maximize else -1
    c = [sign * Fraction(x) for x in objective] + [Fraction(0)] * n
    res = solve_standard_form(rows, rhs, c)
    if res.status != "optimal":
        return res
    return LPResult("optimal", sign * res.value, res.solution[:n])
