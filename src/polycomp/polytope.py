"""Lattice polytopes: facet enumeration, lattice points, faces, all exact.

A polytope is the convex hull of finitely many integer points together with
an affine lattice.  By default the lattice is the smallest one containing the
generators; a coarser ambient lattice (for example Z^E for cut polytopes) can
be declared explicitly.  All geometric computation happens in the coordinates
of the "hull lattice" (declared lattice restricted to the affine hull), where
the polytope is full dimensional and facet normals have a canonical primitive
normalization.

Facet enumeration is the double description method for every input size.
``_facets_bruteforce`` (hyperplane search through point subsets) has no
caller here: it is the independent reference the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .linalg import (
    AffineLattice,
    affine_lattice_of,
    dot,
    hermite_normal_form,
    hnf_basis,
    identity_matrix,
    integer_kernel,
    matrix_rank,
    nullspace_rational,
    primitive,
    rref,
    saturate_rows,
    vsub,
)

PROPAGATED_FACET_LIMIT = 64


@dataclass(frozen=True)
class FacetIneq:
    """One facet inequality ``normal @ x >= offset`` of a lattice polytope.

    ``normal``/``offset`` are a canonical ambient integer form; the
    ``lattice_*`` fields are the same facet in hull-lattice coordinates, where
    the normal is primitive on the polytope's lattice.  ``tight`` holds the
    indices of the generators lying on the facet, and ``generator_slacks``
    their lattice-normalized slacks, captured from enumeration so level
    profiles never redo the dot products.
    """

    normal: tuple
    offset: int
    lattice_normal: tuple
    lattice_offset: int
    tight: frozenset = field(compare=False)
    generator_slacks: tuple = field(compare=False, repr=False, default=None)

    def evaluate(self, point):
        return dot(self.normal, point) - self.offset

    def lattice_slack(self, z):
        return dot(self.lattice_normal, z) - self.lattice_offset


def _project_to_pivot_coords(points):
    """Project points onto coordinates where their affine hull is full-dim.

    The pivot columns of the RREF of the difference matrix give a coordinate
    subset on which the projection restricted to the affine hull is
    injective, so the projected configuration has the same face structure.
    """
    base = points[0]
    diffs = [vsub(p, base) for p in points[1:]]
    _, pivots, _ = rref(diffs)
    return [tuple(p[c] for c in pivots) for p in points], len(pivots)


def _facets_bruteforce(points, dim):
    """All facets of conv(points), points full-dimensional in Z^dim.

    Tries every dim-subset of points; the ones spanning a hyperplane with all
    remaining points on one side are the facets.  Exponential, but exact and
    independent of the incremental method.
    """
    from itertools import combinations

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


def _facets_dd(points, dim):
    """Facets of conv(points) by the double description method.

    Works in the dual: the facets of P are the extreme rays of the cone
    ``{y : (1, z_i) . y >= 0 for all i}``.  The start cone comes from one
    RREF of ``[rows^T | I]``: its pivot columns are the first affinely
    independent points in input order, and row j of the right-hand block
    solves ``base . y = e_j``, so scaled to a primitive integer vector it is
    the ray tight at every start row but the j-th.  Rays carry bitmasks of
    the constraints tight at them; adjacency of a positive/negative ray pair
    is decided combinatorially (no third ray's tight set contains the common
    one), which is what keeps the insertion step polynomial per output ray.
    Every ray also carries its value against all n constraints, updated
    with the same combination that builds the ray, so no dot product is ever
    recomputed and the final values double as the facet slacks.
    """
    rows = [(1,) + tuple(z) for z in points]
    n = len(rows)
    width = dim + 1
    augmented = [
        [row[k] for row in rows] + [int(k == j) for j in range(width)]
        for k in range(width)
    ]
    reduced, pivots, _ = rref(augmented)
    if pivots[-1] >= n:
        raise ValueError("rows do not have full rank")
    start_set = set(pivots)
    start_mask = sum(1 << i for i in pivots)

    rays = []
    masks = []
    values = []
    for i, red in zip(pivots, reduced):
        ray = primitive(red[n:])
        rays.append(ray)
        masks.append(start_mask & ~(1 << i))
        values.append([dot(row, ray) for row in rows])

    for c in range(n):
        if c in start_set:
            continue
        neg = [i for i in range(len(rays)) if values[i][c] < 0]
        cbit = 1 << c
        if not neg:
            for i in range(len(rays)):
                if values[i][c] == 0:
                    masks[i] |= cbit
            continue
        pos = [i for i in range(len(rays)) if values[i][c] > 0]
        zero = [i for i in range(len(rays)) if values[i][c] == 0]
        new_rays = [rays[i] for i in pos] + [rays[i] for i in zero]
        new_masks = [masks[i] for i in pos] + [masks[i] | cbit for i in zero]
        new_values = [values[i] for i in pos + zero]
        seen = set(new_rays)
        min_common = dim - 1
        for p in pos:
            mp = masks[p]
            vp = values[p][c]
            for m in neg:
                common = mp & masks[m]
                if common.bit_count() < min_common:
                    continue
                adjacent = True
                for k, mk in enumerate(masks):
                    if k != p and k != m and common & mk == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vm = values[m][c]
                combo = tuple(
                    vp * rm - vm * rp for rp, rm in zip(rays[p], rays[m])
                )
                g = 0
                for x in combo:
                    g = gcd(g, x)
                if g > 1:
                    combo = tuple(x // g for x in combo)
                if combo in seen:
                    continue
                seen.add(combo)
                val_p = values[p]
                val_m = values[m]
                if g > 1:
                    vals = [(vp * b - vm * a) // g for a, b in zip(val_p, val_m)]
                else:
                    vals = [vp * b - vm * a for a, b in zip(val_p, val_m)]
                new_rays.append(combo)
                new_masks.append((mp & masks[m]) | cbit)
                new_values.append(vals)
        rays = new_rays
        masks = new_masks
        values = new_values

    facets = []
    for ray, vals in zip(rays, values):
        g = ray[1:]
        if not any(g):
            continue
        h = -ray[0]
        slacks = tuple(vals)
        tight = frozenset(i for i, s in enumerate(slacks) if s == 0)
        facets.append((g, h, tight, slacks))
    return sorted(facets)


def _facets_fulldim(points, dim):
    return _facets_dd(points, dim) if dim else []


def facet_index_subsets(points):
    """For each facet of conv(points), the indices of points lying on it.

    ``points`` may sit in a higher-dimensional space; they are projected to
    full dimension first.  Returns None when the points are affinely
    independent (a simplex needs no splitting).
    """
    projected, dim = _project_to_pivot_coords(points)
    if dim == len(points) - 1:
        return None
    return [tight for _, _, tight, _ in _facets_fulldim(projected, dim)]


def _reduce_mod_rows(vec, hnf_rows):
    """Canonical representative of vec modulo the lattice spanned by hnf_rows."""
    v = list(vec)
    for row in hnf_rows:
        c = next(j for j, x in enumerate(row) if x)
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


class PointConfiguration:
    """A fixed point list with a cache of face splits.

    ``facet_subsets`` answers, for a subset of the points, how the facets of
    its convex hull partition it.  The split depends only on geometry, never
    on an ordering, so every pulling-triangulation recursion over the same
    configuration shares this cache.
    """

    def __init__(self, points):
        self.points = tuple(tuple(int(x) for x in p) for p in points)
        self._cache = {}

    def __len__(self):
        return len(self.points)

    def facet_subsets(self, key):
        """Facet point-index subsets of conv(points[key]); None for a simplex."""
        key = frozenset(key)
        if key not in self._cache:
            ordered = sorted(key)
            subs = facet_index_subsets([self.points[i] for i in ordered])
            if subs is None:
                self._cache[key] = None
            else:
                self._cache[key] = tuple(
                    frozenset(ordered[i] for i in t) for t in subs
                )
        return self._cache[key]


class LatticePolytope:
    """Convex hull of integer points with an ambient affine lattice.

    Facets, affine-hull equations, lattice points and derived lattices are
    computed on first use and cached; instances are immutable afterwards, so
    sharing across threads is safe once warm.
    """

    def __init__(self, points, lattice=None):
        pts = sorted({tuple(int(x) for x in p) for p in points})
        if not pts:
            raise ValueError("a lattice polytope needs at least one point")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("points must share one ambient dimension")
        self.generators = tuple(pts)
        self.ambient_dim = len(pts[0])
        self.lattice = lattice if lattice is not None else affine_lattice_of(pts)
        if self.lattice.ambient_dim != self.ambient_dim:
            raise ValueError("the lattice and the points must share one ambient dimension")
        for p in pts:
            if not self.lattice.contains(p):
                raise ValueError(f"generator {p} is not in the declared lattice")
        self.hull_lattice = sublattice_through(self.lattice, pts)
        self.dim = self.hull_lattice.dim
        self._pts_m = tuple(self.hull_lattice.coords(p) for p in pts)
        self._facets = None
        self._facet_set = None
        self._hull_equations = None
        self._lattice_points = None
        self._lattice_point_coords = None
        self._point_lattice = None
        self._vertex_mask = None
        self._configuration = None
        self._lift_cache = None

    def __repr__(self):
        return (f"LatticePolytope(dim={self.dim}, generators={len(self.generators)}, "
                f"ambient={self.ambient_dim})")

    # -- facet description ------------------------------------------------

    def facets(self):
        if self._facets is None:
            raw = _facets_fulldim(list(self._pts_m), self.dim)
            lifted = [self._lift_facet(g, h, tight, slacks) for g, h, tight, slacks in raw]
            lifted.sort(key=lambda f: (f.normal, f.offset))
            self._facets = tuple(lifted)
        return self._facets

    def _lift_data(self):
        """Per-polytope invariants for lifting hull-coordinate inequalities.

        With ``U @ B^T == H`` the HNF of the transposed hull basis ``B``, the
        first ``dim`` rows of H are the image lattice ``B @ Z^ambient`` in
        canonical form, the rows of U behind them map onto those rows, and
        the remaining rows of U span the integer kernel of B.
        """
        if self._lift_cache is None:
            basis = self.hull_lattice.basis
            columns = [[row[j] for row in basis] for j in range(self.ambient_dim)]
            h, u = hermite_normal_form(columns)
            image = [(next(j for j, x in enumerate(row) if x), row) for row in h[:self.dim]]
            kernel = hnf_basis(u[self.dim:])
            self._lift_cache = (image, u[:self.dim], kernel)
        return self._lift_cache

    def _lift_facet(self, g, h, tight, slacks):
        """Canonical ambient integer form of a hull-coordinate facet.

        Finds the minimal positive integer s with s*g in the image lattice
        by forward substitution along the image rows' pivots, scaling s, the
        residual and the coordinates y found so far whenever a pivot does
        not divide the residual.  Then ``a = y @ U`` solves basis @ a = s*g,
        and a is reduced canonically modulo the integer kernel of the basis
        map, so equal facets always print identically.
        """
        if not self.hull_lattice.basis:
            raise ValueError("a 0-dimensional polytope has no facets")
        image, transform, kernel = self._lift_data()
        residual = list(g)
        s = 1
        y = []
        for c, row in image:
            p = row[c]
            if residual[c] % p:
                f = p // gcd(residual[c], p)
                s *= f
                residual = [f * r for r in residual]
                y = [f * q for q in y]
            q = residual[c] // p
            y.append(q)
            if q:
                residual = [r - q * x for r, x in zip(residual, row)]
        a = [0] * self.ambient_dim
        for q, urow in zip(y, transform):
            if q:
                a = [x + q * v for x, v in zip(a, urow)]
        a = _reduce_mod_rows(a, kernel)
        b = s * h + dot(a, self.hull_lattice.anchor)
        return FacetIneq(normal=a, offset=b, lattice_normal=tuple(g),
                         lattice_offset=h, tight=tight,
                         generator_slacks=tuple(slacks))

    def facet_set(self):
        """Frozen set of the facets, for O(1) membership validation."""
        if self._facet_set is None:
            self._facet_set = frozenset(self.facets())
        return self._facet_set

    def hull_equations(self):
        """Integer equations (a, b) with a @ x == b on the affine hull."""
        if self._hull_equations is None:
            diffs = [vsub(p, self.generators[0]) for p in self.generators[1:]]
            diffs = [d for d in diffs if any(d)]
            if not diffs:
                covectors = [tuple(r) for r in identity_matrix(self.ambient_dim)]
            else:
                covectors = integer_kernel(diffs)
            anchor = self.generators[0]
            self._hull_equations = tuple((a, dot(a, anchor)) for a in covectors)
        return self._hull_equations

    # -- point queries ----------------------------------------------------

    def contains(self, point):
        """Membership of an ambient rational/integer point in the polytope."""
        point = tuple(point)
        return all(dot(a, point) == b for a, b in self.hull_equations()) and all(
            f.evaluate(point) >= 0 for f in self.facets()
        )

    def lattice_points(self):
        """All declared-lattice points inside the polytope, in lex order.

        Bounding-box scan over the ambient coordinates with interval
        propagation through the hull equations and facet inequalities, then a
        lattice-membership filter at the leaves.
        """
        if self._lattice_points is None:
            self._lattice_points = tuple(self._scan_lattice_points())
        return self._lattice_points

    @staticmethod
    def _scan_order(amb, equations):
        """Coordinate order that decides sparse equations early.

        Greedy: repeatedly take the equation with the fewest unplaced support
        coordinates and place them.  An equation prunes hard once all its
        coordinates are fixed, so clustering supports keeps the search narrow;
        the lexicographic order can be exponentially worse when supports
        straddle the coordinate range.
        """
        supports = [frozenset(j for j, x in enumerate(a) if x) for a, _ in equations]
        placed = []
        placed_set = set()
        open_eqs = sorted(range(len(supports)), key=lambda i: (len(supports[i]), i))
        remaining = set(open_eqs)
        while remaining:
            best = min(
                remaining,
                key=lambda i: (len(supports[i] - placed_set), min(supports[i] | {amb}), i),
            )
            for j in sorted(supports[best] - placed_set):
                placed.append(j)
                placed_set.add(j)
            remaining.discard(best)
            remaining = {i for i in remaining if not supports[i] <= placed_set}
        placed.extend(j for j in range(amb) if j not in placed_set)
        return placed

    def _scan_lattice_points(self):
        if self.dim == 0:
            return [self.generators[0]]
        amb = self.ambient_dim
        lows = [min(p[j] for p in self.generators) for j in range(amb)]
        highs = [max(p[j] for p in self.generators) for j in range(amb)]
        cons = [(a, b, True) for a, b in self.hull_equations()]
        all_facets = self.facets()
        # propagating thousands of inequalities costs more than it prunes;
        # past a bounded prefix the rest are checked once per candidate
        prop_facets = all_facets[:PROPAGATED_FACET_LIMIT]
        leaf_facets = all_facets[PROPAGATED_FACET_LIMIT:]
        cons += [(f.normal, f.offset, False) for f in prop_facets]
        for (a, b, is_eq) in cons:
            if not any(a):
                if b != 0 and (is_eq or 0 < b):
                    return []
        order = self._scan_order(amb, self.hull_equations())
        # suffix extremes of each constraint over the still-unassigned box; a
        # constraint is fully decided at its last touched position, so each
        # node only re-tests the constraints its coordinate appears in
        suffix = []
        for a, _, _ in cons:
            lo = [0] * (amb + 1)
            hi = [0] * (amb + 1)
            for pos in range(amb - 1, -1, -1):
                j = order[pos]
                t1 = a[j] * lows[j]
                t2 = a[j] * highs[j]
                lo[pos] = lo[pos + 1] + min(t1, t2)
                hi[pos] = hi[pos + 1] + max(t1, t2)
            suffix.append((lo, hi))
        touched = [
            [
                (idx, cons[idx][0][order[pos]], cons[idx][1], cons[idx][2],
                 suffix[idx][0][pos + 1], suffix[idx][1][pos + 1])
                for idx in range(len(cons))
                if cons[idx][0][order[pos]]
            ]
            for pos in range(amb)
        ]
        out = []
        point = [0] * amb
        sums = [0] * len(cons)
        generator_set = set(self.generators)

        def rec(pos):
            if pos == amb:
                p = tuple(point)
                if p in generator_set or (
                    all(f.evaluate(p) >= 0 for f in leaf_facets)
                    and self.hull_lattice.contains(p)
                ):
                    out.append(p)
                return
            j = order[pos]
            col = touched[pos]
            for v in range(lows[j], highs[j] + 1):
                point[j] = v
                ok = True
                for idx, coef, b, is_eq, lo, hi in col:
                    s = sums[idx] + coef * v
                    sums[idx] = s
                    if s + hi < b or (is_eq and s + lo > b):
                        ok = False
                        break
                if ok:
                    rec(pos + 1)
                    for idx, coef, _, _, _, _ in col:
                        sums[idx] -= coef * v
                else:
                    for idx2, coef, _, _, _, _ in col:
                        sums[idx2] -= coef * v
                        if idx2 == idx:
                            break
            point[j] = lows[j]

        rec(0)
        return sorted(out)

    def lattice_point_hull_coords(self):
        """Hull-lattice coordinates of every lattice point (cached)."""
        if self._lattice_point_coords is None:
            self._lattice_point_coords = tuple(
                self.hull_lattice.coords(p) for p in self.lattice_points()
            )
        return self._lattice_point_coords

    def point_lattice(self):
        """Affine lattice generated by the polytope's lattice points.

        This is the lattice that normalized volumes are measured against; it
        coincides with the declared lattice whenever the latter is the
        generators' own lattice, but can be finer-grained bookkeeping when a
        coarser ambient lattice was declared.
        """
        if self._point_lattice is None:
            self._point_lattice = affine_lattice_of(self.lattice_points())
        return self._point_lattice

    def vertices(self):
        """Generators that are vertices (tight facet normals span everything)."""
        if self._vertex_mask is None:
            facets = self.facets()
            mask = []
            for i in range(len(self.generators)):
                normals = [f.lattice_normal for f in facets if i in f.tight]
                mask.append(self.dim == 0 or matrix_rank(normals) == self.dim)
            self._vertex_mask = tuple(mask)
        return tuple(p for p, v in zip(self.generators, self._vertex_mask) if v)

    # -- faces --------------------------------------------------------------

    def configuration(self):
        """PointConfiguration over the lattice points (shared face-split cache)."""
        if self._configuration is None:
            self._configuration = PointConfiguration(self.lattice_points())
        return self._configuration


def facet_enumeration(points, lattice=None):
    """Irredundant facet inequalities of conv(points) within its affine hull."""
    return LatticePolytope(points, lattice=lattice).facets()


def affine_hull_equations(points):
    """Integer equations cutting out the affine hull of the points."""
    return LatticePolytope(points).hull_equations()


def sublattice_through(lattice, points):
    """The affine lattice ``lattice ∩ aff(points)``, anchored at the first point."""
    pts = [tuple(p) for p in points]
    anchor = pts[0]
    z0 = lattice.coords(anchor)
    zdiffs = [vsub(lattice.coords(p), z0) for p in pts[1:]]
    sat = saturate_rows(zdiffs, lattice.dim)
    amb = len(anchor)
    basis = [
        tuple(sum(s[i] * lattice.basis[i][j] for i in range(len(s))) for j in range(amb))
        for s in sat
    ]
    return AffineLattice(anchor, tuple(basis))


def face_of(polytope, tight_facets):
    """The face of the polytope where the chosen facet inequalities are tight.

    Returns None for the empty face.  The face keeps the induced lattice
    (the parent's lattice restricted to the face's affine hull), so level and
    volume computations on the face agree with the parent's conventions.
    """
    tight_facets = list(tight_facets)
    known = set(polytope.facets())
    for f in tight_facets:
        if f not in known:
            raise ValueError("tight set must consist of facets of the polytope")
    pts = [
        p
        for p in polytope.lattice_points()
        if all(f.evaluate(p) == 0 for f in tight_facets)
    ]
    if not pts:
        return None
    return LatticePolytope(pts, lattice=sublattice_through(polytope.lattice, pts))
