"""Lattice polytopes: facet enumeration, lattice points, faces, all exact.

A polytope is the convex hull of finitely many integer points together with
an affine lattice.  By default the lattice is the smallest one containing the
generators; a coarser ambient lattice (for example Z^E for cut polytopes) can
be declared explicitly.  All geometric computation happens in the coordinates
of the "hull lattice" (declared lattice restricted to the affine hull), where
the polytope is full dimensional and facet normals have a canonical primitive
normalization.

Facet enumeration is the double description method for every input size.
The tests compare it against an independent brute-force hyperplane search
through point subsets, which lives with them and not in the package.

A point configuration runs it once, and splits each face into its facets
by intersecting the face with the facets' point sets (Kaibel & Pfetsch
2002), in the order a double description of the face would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import index

from .linalg import (
    AffineLattice,
    affine_lattice_of,
    dot,
    hermite_normal_form,
    hnf_basis,
    identity_matrix,
    integer_kernel,
    matrix_rank,
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


def _facets_dd(points, dim):
    """Facets of conv(points) by the double description method.

    Works in the dual: the facets of P are the extreme rays of the cone
    ``{y : (1, z_i) . y >= 0 for all i}``.  The start cone comes from one
    RREF of ``[rows^T | I]``: its pivot columns are the first affinely
    independent points in input order, and row j of the right-hand block
    solves ``base . y = e_j``, so scaled to a primitive integer vector it is
    the ray tight at every start row but the j-th.  Rays carry bitmasks of
    the constraints tight at them; adjacency of a positive/negative ray pair
    is decided combinatorially: no third ray is tight on every constraint of
    the pair's common tight set (Fukuda & Prodon 1996).  The test runs
    transposed.  Each ray keeps one index for the whole run, and each
    constraint keeps one integer bitmask of the rays tight at it, so the
    rays tight on the common set are the AND of those bitmasks over the set,
    restricted to the live rays, and the pair is adjacent exactly when that
    AND is the pair itself.  Each new ray lies in the relative interior of
    the 2-face spanned by its adjacent pair; relative interiors of distinct
    faces are disjoint, so no two pairs give the same new ray and no new ray
    equals a kept one.
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

    # ray k keeps index k for the whole run; holders[j] has bit k set when
    # ray k is tight at constraint j, and live has bit k set while ray k is
    # in the cone
    rays, masks, values = [], [], []
    holders = [0] * n
    for i, red in zip(pivots, reduced):
        ray = primitive(red[n:])
        rays.append(ray)
        masks.append(start_mask & ~(1 << i))
        values.append([dot(row, ray) for row in rows])
    alive = list(range(width))
    live = (1 << width) - 1
    for k, j in enumerate(pivots):
        holders[j] = live ^ 1 << k
    min_common = dim - 1

    for c in range(n):
        if c in start_set:
            continue
        cbit = 1 << c
        pos, neg, zero = [], [], []
        for k in alive:
            v = values[k][c]
            (pos if v > 0 else neg if v < 0 else zero).append(k)
        born = []
        for p in pos:
            mp = masks[p]
            vp = values[p][c]
            bp = 1 << p
            for m in neg:
                common = mp & masks[m]
                if common.bit_count() < min_common:
                    continue
                # the rays tight on all of common, narrowed one constraint
                # at a time; p and m always stay in
                pair = bp | 1 << m
                rest = live
                while common:
                    low = common & -common
                    rest &= holders[low.bit_length() - 1]
                    if rest == pair:
                        break
                    common ^= low
                if rest != pair:
                    continue
                vm = values[m][c]
                combo = tuple(vp * rm - vm * rp for rp, rm in zip(rays[p], rays[m]))
                g = gcd(*combo)
                if g > 1:
                    combo = tuple(x // g for x in combo)
                    vals = [(vp * b - vm * a) // g for a, b in zip(values[p], values[m])]
                else:
                    vals = [vp * b - vm * a for a, b in zip(values[p], values[m])]
                born.append((combo, mp & masks[m] | cbit, vals))
        # the new rays join only after every pair of this step was tested
        for k in zero:
            masks[k] |= cbit
            holders[c] |= 1 << k
        for k in neg:
            live ^= 1 << k
            rays[k] = values[k] = None
        alive = pos + zero
        for ray, mask, vals in born:
            k = len(rays)
            rays.append(ray)
            masks.append(mask)
            values.append(vals)
            alive.append(k)
            bk = 1 << k
            live |= bk
            while mask:
                low = mask & -mask
                holders[low.bit_length() - 1] |= bk
                mask ^= low

    facets = []
    for k in alive:
        ray, vals = rays[k], values[k]
        g = ray[1:]
        if not any(g):
            continue
        h = -ray[0]
        slacks = tuple(vals)
        tight = frozenset(i for i, s in enumerate(slacks) if s == 0)
        facets.append((g, h, tight, slacks))
    return sorted(facets)


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

    ``facet_subsets`` answers, for the point set of a face, how the facets of
    that face partition it.  The split depends only on geometry, never on an
    ordering, so every pulling-triangulation recursion over the same
    configuration shares this cache.  One double description, on the pivot
    coordinates of the point differences, gives the facets of conv(points)
    with their point sets T(G); the facets of a face F are the
    inclusion-maximal proper nonempty sets F ∩ T(G) (Kaibel & Pfetsch,
    "Computing the face lattice of a polytope from its vertex-facet
    incidences", 2002).  Restricted to F's affine hull, a normal G that is
    valid on F and tight exactly on one of its facets is a positive multiple
    of that facet's inner normal, so the facets come out in the order of a
    double description of F alone: by primitive normal on F's pivots.
    """

    def __init__(self, points):
        self.points = tuple(tuple(map(index, p)) for p in points)
        self._cache = {}
        self._hull = None

    def __len__(self):
        return len(self.points)

    def _incidences(self):
        """The points on their pivot coordinates, and (tight-point bitmask,
        inner normal) for each facet of their hull, computed once."""
        if self._hull is None:
            base = self.points[0]
            _, pivots, _ = rref([vsub(p, base) for p in self.points[1:]])
            projected = [tuple(p[c] for c in pivots) for p in self.points]
            facets = [(sum(1 << i for i in tight), g)
                      for g, _, tight, _ in _facets_dd(projected, len(pivots))]
            self._hull = projected, facets
        return self._hull

    def facet_subsets(self, key):
        """Facet point-index subsets of the face conv(points[key]), in the
        order of their inner normals; None for a simplex.  ValueError when
        ``key`` is not the point set of a face."""
        key = frozenset(key)
        if key not in self._cache:
            self._cache[key] = self._split(key)
        return self._cache[key]

    def _split(self, key):
        projected, facets = self._incidences()
        mask = sum(1 << i for i in key)
        closure, normals = face_intersections(mask, facets)
        if closure & ((1 << len(self.points)) - 1) != mask:
            raise ValueError("the key is not the point set of a face")
        ordered = sorted(key)
        base = projected[ordered[0]]
        reduced, _, _ = rref([vsub(projected[i], base) for i in ordered[1:]])
        if len(reduced) == len(ordered) - 1:
            return None
        kept = inclusion_maximal(normals)
        kept.sort(key=lambda m: primitive([dot(normals[m], row) for row in reduced]))
        return tuple(frozenset(i for i in ordered if m >> i & 1) for m in kept)


def face_intersections(mask, facets):
    """Intersections of a face with the facets of the whole configuration.

    ``mask`` is the bitmask of the face's points and ``facets`` holds
    (tight-point bitmask, label) pairs for the facets of the whole hull.
    Returns the intersection of the tight sets that contain the face (-1,
    every bit, when none does), which is the face's own mask exactly when
    it is the point set of a face, and a dict from each proper nonempty
    intersection of the face with a tight set to the label of the first
    facet that cuts it out.  The facets of the face are the
    ``inclusion_maximal`` keys (Kaibel & Pfetsch 2002).
    """
    closure = -1
    labels = {}
    for tight, label in facets:
        common = mask & tight
        if common == mask:
            closure &= tight
        elif common:
            labels.setdefault(common, label)
    return closure, labels


def inclusion_maximal(masks):
    """The bitmasks among ``masks`` that no other one contains, largest first."""
    kept = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if all(m & k != m for k in kept):
            kept.append(m)
    return kept


class LatticePolytope:
    """Convex hull of integer points with an ambient affine lattice.

    Facets, affine-hull equations, lattice points and derived lattices are
    computed on first use and cached; instances are immutable afterwards, so
    sharing across threads is safe once warm.
    """

    def __init__(self, points, lattice=None):
        pts = sorted({tuple(map(index, p)) for p in points})
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
            raw = _facets_dd(self._pts_m, self.dim)
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

        Depth-first over the ambient coordinates in ``_scan_order``.  Each
        node bounds its coordinate by the interval that the hull equations
        and the first ``PROPAGATED_FACET_LIMIT`` facets leave it, given the
        coordinates fixed above and the generators' bounding box below, and
        loops over that interval only.  A point that comes out is checked
        against the remaining facets and the hull lattice, whose coordinates
        it keeps for ``lattice_point_hull_coords``.
        """
        if self._lattice_points is None:
            found = sorted(self._scan_lattice_points())
            self._lattice_points = tuple(p for p, _ in found)
            self._lattice_point_coords = tuple(z for _, z in found)
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
        """(point, hull-lattice coordinates) of every lattice point, unsorted."""
        if self.dim == 0:
            return [(self.generators[0], ())]
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
        # Node ``pos`` fixes coordinate j = order[pos] to v.  For a
        # constraint a.x >= b (or == b), let s be its sum over the
        # coordinates fixed above and [lo, hi] the range of its sum over the
        # box of the ones below.  Then a_j * v >= b - s - hi, and for an
        # equation also a_j * v <= b - s - lo.  Each bound is a term
        # t = (s + k) // d: v <= t for an upper term, v >= -t for a lower one
        # (a negative d turns the floor into a ceiling).  An equation with
        # lo == hi pins v to one value or none, so its terms are tested
        # first; at the last position every constraint is decided.
        rest = [(0, 0)] * len(cons)
        nodes = []
        for pos in range(amb - 1, -1, -1):
            j = order[pos]
            decided, terms, updates = [], [], []
            for idx, (a, b, is_eq) in enumerate(cons):
                c = a[j]
                if not c:
                    continue
                lo, hi = rest[idx]
                rest[idx] = (lo + min(c * lows[j], c * highs[j]),
                             hi + max(c * lows[j], c * highs[j]))
                own = [(idx, hi - b, abs(c), c < 0)]
                if is_eq:
                    own.append((idx, lo - b, -abs(c), c > 0))
                (decided if is_eq and lo == hi else terms).extend(own)
                updates.append((idx, c))
            nodes.append((j, decided + terms, updates))
        nodes.reverse()
        out = []
        point = [0] * amb
        sums = [0] * len(cons)
        generator_set = set(self.generators)
        anchor = self.hull_lattice.anchor
        solve = self.hull_lattice.difference_coords
        last = amb - 1

        def rec(pos):
            j, terms, updates = nodes[pos]
            vlo, vhi = lows[j], highs[j]
            for idx, k, d, upper in terms:
                t = (sums[idx] + k) // d
                if upper:
                    if t < vhi:
                        vhi = t
                elif -t > vlo:
                    vlo = -t
                if vlo > vhi:
                    return
            if pos == last:
                for v in range(vlo, vhi + 1):
                    point[j] = v
                    p = tuple(point)
                    if p not in generator_set and not all(
                            f.evaluate(p) >= 0 for f in leaf_facets):
                        continue
                    z = solve(vsub(p, anchor))
                    if z is not None:
                        out.append((p, z))
                return
            if vlo:
                for idx, c in updates:
                    sums[idx] += c * vlo
            point[j] = vlo
            rec(pos + 1)
            for v in range(vlo + 1, vhi + 1):
                for idx, c in updates:
                    sums[idx] += c
                point[j] = v
                rec(pos + 1)
            if vhi:
                for idx, c in updates:
                    sums[idx] -= c * vhi

        rec(0)
        return out

    def lattice_point_hull_coords(self):
        """Hull-lattice coordinates of every lattice point, in the order of
        ``lattice_points``; the scan finds them with the points."""
        self.lattice_points()
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
