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


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[dot(row, col) for col in bt] for row in a]


def determinant(m):
    """Exact determinant of a square integer matrix (Bareiss elimination).

    Fraction-free: every intermediate value is an integer, which keeps the
    bit growth polynomial instead of exponential.
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
    """Rank over the rationals of an integer (or Fraction) matrix."""
    _, pivots = rref([[Fraction(x) for x in row] for row in rows])
    return len(pivots)


def rref(rows):
    """Reduced row echelon form over Fraction. Returns (nonzero rows, pivot cols)."""
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def solve_rational(a, b):
    """One rational solution x of a @ x == b, or None if inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    reduced, pivots = rref(aug)
    for row in reduced:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        if c == ncols:
            return None
        x[c] = row[-1]
    return x


def nullspace_rational(a):
    """Basis of {x : a @ x == 0} over the rationals."""
    ncols = len(a[0]) if a else 0
    reduced, pivots = rref([[Fraction(x) for x in row] for row in a])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def _transpose_hnf(matrix):
    key = tuple(tuple(row) for row in matrix)
    cached = _transpose_hnf_cache.get(key)
    if cached is None:
        nrows = len(matrix)
        ncols = len(matrix[0]) if nrows else 0
        at = [[matrix[i][j] for i in range(nrows)] for j in range(ncols)]
        h, u = hermite_normal_form(at)
        cached = (h, u)
        if len(_transpose_hnf_cache) < 256:
            _transpose_hnf_cache[key] = cached
    return cached


_transpose_hnf_cache = {}


def solve_integer(a, b):
    """One integer solution x of a @ x == b, or None.

    Works through the column-style HNF: with U @ a^T = H, solving the
    triangular system y @ H = b (with divisibility checks) and pulling back
    x = y @ U gives an exact witness whenever one exists.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    h, u = _transpose_hnf(a)
    # Solve y @ h == b by forward substitution along the pivot structure.
    y = [0] * ncols
    residual = [int(v) for v in b]
    for i in range(ncols):
        pivot_col = next((j for j in range(nrows) if h[i][j] != 0), None)
        if pivot_col is None:
            break
        if residual[pivot_col] % h[i][pivot_col] != 0:
            return None
        q = residual[pivot_col] // h[i][pivot_col]
        y[i] = q
        residual = [r - q * v for r, v in zip(residual, h[i])]
    if any(residual):
        return None
    x = [0] * ncols
    for i in range(ncols):
        if y[i]:
            x = [xx + y[i] * uu for xx, uu in zip(x, u[i])]
    return tuple(x)


def affine_rank(points):
    """Dimension of the affine hull of a point set (-1 for the empty set)."""
    if not points:
        return -1
    base = points[0]
    diffs = [vsub(p, base) for p in points[1:]]
    return matrix_rank(diffs)


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
