"""Constructors and references shared by several test modules."""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

from hypothesis import strategies as st

from polycomp.cutpoly import _MINOR_ORDER
from polycomp.linalg import (AffineLattice, determinant, dot, matrix_rank, primitive, rref,
                             standard_lattice, vsub)
from polycomp.polytope import LatticePolytope
from polycomp.triangulate import each_pulling_unimodular, lattice_point_orbits


def birkhoff(n):
    """The Birkhoff polytope B_n: the n x n permutation matrices, flattened."""
    pts = []
    for perm in permutations(range(n)):
        mat = [0] * (n * n)
        for i, j in enumerate(perm):
            mat[i * n + j] = 1
        pts.append(tuple(mat))
    return LatticePolytope(pts)


def per_cell_unimodular(coords, cells):
    """Reference verdict: every cell's edge determinant over coords is +-1."""
    return all(
        abs(determinant([vsub(coords[i], coords[cell[0]]) for i in cell[1:]])) == 1
        for cell in cells
    )


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


def _facets_bruteforce(points, dim):
    """All facets of conv(points), points full-dimensional in Z^dim.

    Tries every dim-subset of points; the ones spanning a hyperplane with all
    remaining points on one side are the facets.  Exponential, but exact and
    independent of double description; it returns the same sorted
    ``(normal, offset, tight, slacks)`` tuples as ``polytope._facets_dd``.
    """
    n = len(points)
    found = {}
    for subset in combinations(range(n), dim):
        pts = [points[i] for i in subset]
        if dim == 1:
            normals = [[Fraction(1)]]
        else:
            diffs = [vsub(p, pts[0]) for p in pts[1:]]
            normals = nullspace_rational(diffs)
        if len(normals) != 1:
            continue
        scale = 1
        for x in normals[0]:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        g = primitive(tuple(int(x * scale) for x in normals[0]))
        h = dot(g, pts[0])
        slacks = [dot(g, p) - h for p in points]
        if all(s >= 0 for s in slacks):
            pass
        elif all(s <= 0 for s in slacks):
            g = tuple(-x for x in g)
            h = -h
            slacks = [-s for s in slacks]
        else:
            continue
        tight = frozenset(i for i, s in enumerate(slacks) if s == 0)
        found[(g, h)] = (tight, tuple(slacks))
    return sorted(
        (g, h, tight, slacks) for (g, h), (tight, slacks) in found.items()
    )


def fraction_rref(rows):
    """Gauss-Jordan over Fraction: the reference the fraction-free rref must match."""
    m = [[Fraction(x) for x in row] for row in rows]
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


def fraction_solve(rows, b):
    """One solution of rows @ x == b with free unknowns 0, or None: the reference."""
    ncols = len(rows[0])
    reduced, pivots = fraction_rref([list(row) + [v] for row, v in zip(rows, b)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[-1]
    return x


def has_minor_exhaustive(graph, minor):
    """Whether the graph contains the given complete graph as a minor.

    Exhaustive branch-set search: every vertex is assigned to one of k
    candidate branch sets or left unused; an assignment witnesses the minor
    when each set is nonempty and connected and all pairs of sets are joined
    by an edge.  Sets open in vertex order, which kills the labeling symmetry.
    """
    k = _MINOR_ORDER[minor] if isinstance(minor, str) else int(minor)
    n = graph.n
    if n < k or len(graph.edges) < k * (k - 1) // 2:
        return False
    adj = graph.adjacency()
    assignment = {}

    def connected(group):
        stack = [next(iter(group))]
        seen = {stack[0]}
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in group and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(group)

    def complete_assignment():
        groups = [[] for _ in range(k)]
        for v, g in assignment.items():
            groups[g].append(v)
        if any(not grp for grp in groups):
            return False
        for grp in groups:
            if not connected(grp):
                return False
        for a, b in combinations(range(k), 2):
            if not any(w in adj[v] for v in groups[a] for w in groups[b]):
                return False
        return True

    def place(v, opened):
        if k - opened > n - v + 1:
            return False
        if v > n:
            return opened == k and complete_assignment()
        limit = min(opened + 1, k)
        for g in range(limit):
            assignment[v] = g
            if place(v + 1, max(opened, g + 1)):
                return True
            del assignment[v]
        return place(v + 1, opened)

    return place(1, 0)


def all_pulling_unimodular_exhaustive(polytope):
    """Whether every pulling triangulation of the lattice points is unimodular.

    All orderings are enumerated, reduced by symmetry: only one first point
    per orbit needs trying, with all orderings of the rest.  The orderings
    go through ``each_pulling_unimodular``: the first one's cell volumes sum
    to the normalized volume V, and a later ordering is unimodular exactly
    when its triangulation has V cells.
    """
    k = len(polytope.lattice_points())
    orders = (
        (first,) + tail
        for first in (orbit[0] for orbit in lattice_point_orbits(polytope))
        for tail in permutations([i for i in range(k) if i != first])
    )
    return all(each_pulling_unimodular(polytope.configuration(), orders))


def lattice_point_orbits_bruteforce(polytope):
    """Orbits of the lattice points under every permutation sigma of them
    that an affine map induces: the reference ``lattice_point_orbits`` must
    match.

    With P the rows (1, p_i), sigma is induced exactly when appending the
    rows (1, p_sigma(i)) to P keeps its rank: a linear map then carries each
    row of P to its image, and it fixes the first coordinate.  Every prefix
    of such a sigma keeps the rank of its own rows too, which prunes the
    search over permutations.
    """
    rows = [(1,) + tuple(p) for p in polytope.lattice_points()]
    n = len(rows)
    ranks = [matrix_rank(rows[:k + 1]) for k in range(n)]
    orbits = [{i} for i in range(n)]

    def extend(image):
        k = len(image)
        if k == n:
            for i, j in enumerate(image):
                orbits[i].add(j)
            return
        for j in range(n):
            if j not in image:
                pairs = [rows[i] + rows[t] for i, t in enumerate(image + [j])]
                if matrix_rank(pairs) == ranks[k]:
                    extend(image + [j])

    extend([])
    return [list(orbit) for orbit in sorted({tuple(sorted(orbit)) for orbit in orbits})]


def lattice_points_by_box(polytope):
    """Every point of the generators' bounding box that satisfies the hull
    equations and every facet and lies in the hull lattice, in lex order:
    the reference the lattice-point scan must match."""
    gens = polytope.generators
    box = product(*[range(min(c), max(c) + 1) for c in zip(*gens)])
    equations = polytope.hull_equations()
    facets = polytope.facets()
    return tuple(
        p for p in box
        if all(dot(a, p) == b for a, b in equations)
        and all(f.evaluate(p) >= 0 for f in facets)
        and polytope.hull_lattice.contains(p)
    )


@st.composite
def small_polytopes(draw, side=None):
    """A lattice polytope of dimension at most 4 with coordinates in -3..3;
    with ``side``, each coordinate takes the values c, ..., c + side for its
    own c drawn from -1, 0 and 4, so for side 1 the generators are 0/1
    points shifted off the origin.

    The lattice is the generators' own ("auto"), the whole ambient lattice,
    or the index-2 lattice of points whose coordinate sum has the parity of
    the first point's.  Some draws append up to two coordinates that are
    affine functions of the others, so the polytope is embedded in a higher
    ambient space and has hull equations; a declared lattice goes along
    with the embedding.  The ambient dimension stays at most 4, so the
    generators' bounding box stays small enough for
    ``lattice_points_by_box``.
    """
    dim = draw(st.integers(1, 4))
    if side:
        corner = draw(st.tuples(*[st.sampled_from([-1, 0, 4])] * dim))
        coordinates = st.tuples(*[st.integers(c, c + side) for c in corner])
    else:
        coordinates = st.tuples(*[st.integers(-3, 3)] * dim)
    pts = draw(st.lists(coordinates, min_size=2, max_size=dim + 4, unique=True))
    kind = draw(st.sampled_from(["auto", "ambient", "index-2"]))
    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    if kind == "index-2":
        pts = [p for p in pts if (sum(p) - sum(pts[0])) % 2 == 0]
        basis = [(2,) + (0,) * (dim - 1)] + [(1,) + row[1:] for row in basis[1:]]
    forms = draw(st.lists(st.tuples(st.integers(-2, 2), *[st.integers(-1, 1)] * dim),
                          max_size=max(0, 4 - dim - 1) + (dim < 4)))

    def embed(p, shift=True):
        return tuple(p) + tuple(c * shift + dot(row, p) for c, *row in forms)

    pts = [embed(p) for p in pts]
    if kind == "auto":
        lattice = None
    elif kind == "ambient":
        lattice = standard_lattice(len(pts[0]))
    else:
        lattice = AffineLattice(pts[0], tuple(embed(row, shift=False) for row in basis))
    return LatticePolytope(pts, lattice=lattice)
