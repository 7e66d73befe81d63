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


def bareiss_pivot(rows, r, c, d, targets):
    """One fraction-free pivot on ``rows[r][c]`` with denominator ``d > 0``.

    Row r is negated first when its pivot is negative, so ``p = |rows[r][c]|
    > 0``.  Every target row i != r becomes ``(p * row_i - row_i[c] * row_r)
    // d``.  By Sylvester's identity every entry stays a minor of the input
    (with some rows negated), so each division is exact (Bareiss 1968).
    Rows are replaced, never written into, so they may be tuples shared with
    another matrix.  Returns p, the new denominator.
    """
    top = rows[r]
    p = top[c]
    if p < 0:
        top = rows[r] = [-x for x in top]
        p = -p
    for i in targets:
        if i == r:
            continue
        row = rows[i]
        f = row[c]
        if f:
            rows[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
        elif p != d:
            rows[i] = [p * x // d for x in row]
    return p


def determinant(m):
    """Exact determinant of a square integer matrix: forward elimination with
    ``bareiss_pivot``, whose last denominator is the absolute determinant.
    Entries must be ints: a Fraction or a float raises TypeError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    a = [list(map(index, row)) for row in m]
    sign = 1
    d = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        if a[k][k] < 0:
            sign = -sign
        d = bareiss_pivot(a, k, k, d, range(k + 1, n))
    return sign * d


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
    h = [list(map(index, row)) for row in m]
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
    the common denominator.  Each pivot is one ``bareiss_pivot`` over every
    row.  Entries must be ints: a Fraction raises TypeError rather than
    being truncated.
    """
    m = [list(map(index, row)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    d = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        d = bareiss_pivot(m, r, c, d, range(nrows))
        pivots.append(c)
        r += 1
    return m[:r], pivots, d


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
        object.__setattr__(self, "anchor", tuple(map(index, self.anchor)))
        if any(len(row) != len(self.anchor) for row in self.basis):
            raise ValueError("lattice basis rows must have the anchor's width")
        rows = hnf_basis([tuple(map(index, row)) for row in self.basis])
        if len(rows) != len(self.basis):
            raise ValueError("lattice basis rows must be linearly independent")
        object.__setattr__(self, "basis", tuple(rows))
        # each row as (pivot column, pivot, nonzero entries after the pivot),
        # found once: difference_coords runs once per candidate point of the
        # lattice-point scan
        steps = []
        for row in rows:
            c = next(j for j, v in enumerate(row) if v)
            steps.append((c, row[c], tuple((j, v) for j, v in enumerate(row) if v and j > c)))
        object.__setattr__(self, "_steps", tuple(steps))

    @property
    def dim(self):
        return len(self.basis)

    @property
    def ambient_dim(self):
        return len(self.anchor)

    def difference_coords(self, vec):
        """Coordinates z with z @ basis == vec, or None if vec is outside.

        The stored basis is in row HNF, so forward substitution along the
        pivot columns solves the system directly.  A row is zero before its
        pivot, so a step clears the pivot entry of the residual and changes
        only the entries where the row is nonzero after it.
        """
        if not self.basis:
            return () if not any(vec) else None
        z = []
        residual = list(vec)
        for c, p, entries in self._steps:
            r = residual[c]
            if r % p:
                return None
            q = r // p
            z.append(q)
            if q:
                residual[c] = 0
                for j, v in entries:
                    residual[j] -= q * v
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
    pts = [tuple(map(index, p)) for p in points]
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
