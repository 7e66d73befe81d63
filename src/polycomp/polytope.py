"""Lattice polytopes: facet enumeration, lattice points, faces, all exact.

A polytope is the convex hull of finitely many integer points together with
an affine lattice.  By default the lattice is the smallest one containing the
generators; a coarser ambient lattice (for example Z^E for cut polytopes) can
be declared explicitly.  All geometric computation happens in the coordinates
of the "hull lattice" (declared lattice restricted to the affine hull), where
the polytope is full dimensional and facet normals have a canonical primitive
normalization.  The lattice-point scan runs there too: every integer point
of those coordinates is a lattice point, and the facets alone cut out P, so
it needs neither the hull equations nor a lattice test.

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
    identity_matrix,
    matrix_rank,
    primitive,
    rref,
    saturate_rows,
    solve_fraction_free,
    vsub,
)

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


class PointConfiguration:
    """A fixed point list in the lattice it spans, with a cache of face splits.

    ``lattice`` is the affine lattice L that the points span, and ``coords``
    are their coordinates in it.  One double description on ``coords`` gives
    the facets of conv(points) with their point sets T(G), normals primitive
    on L, and slacks, which are lattice heights (``facets``).

    ``facet_subsets`` answers, for the point set of a face, how the facets of
    that face partition it.  The split depends only on geometry, never on an
    ordering, so every pulling-triangulation recursion over the same
    configuration shares this cache.  The facets of a face F are the
    inclusion-maximal proper nonempty sets F ∩ T(G) (Kaibel & Pfetsch,
    "Computing the face lattice of a polytope from its vertex-facet
    incidences", 2002).  Restricted to F's affine hull, a normal G that is
    valid on F and tight exactly on one of its facets is a positive multiple
    of that facet's inner normal, so the facets come out in the order of a
    double description of F alone: by primitive normal on F's pivots.
    """

    def __init__(self, points):
        self.points = tuple(tuple(map(index, p)) for p in points)
        self.lattice = affine_lattice_of(self.points)
        self.coords = tuple(map(self.lattice.coords, self.points))
        # the pivot columns of L's row-HNF basis are those of the differences
        self._pivots = [next(j for j, v in enumerate(row) if v) for row in self.lattice.basis]
        self._projected = [tuple(p[c] for c in self._pivots) for p in self.points]
        self._cache = {}
        self._facets = None

    def __len__(self):
        return len(self.points)

    def facets(self):
        """(tight-point bitmask, (normal, slacks, pivot normal)) per facet.

        With T the basis on the pivot columns, the points' pivot coordinates
        are those of the anchor plus ``coords @ T``, so a facet's normal g is
        ``T @ y`` for its normal y on the pivot coordinates; one solve gives
        every y up to a positive factor.
        """
        if self._facets is None:
            raw = _facets_dd(self.coords, self.lattice.dim)
            t = [[row[c] for c in self._pivots] for row in self.lattice.basis]
            scaled, _ = solve_fraction_free(t, list(zip(*(g for g, _, _, _ in raw))))
            self._facets = tuple((sum(1 << i for i in tight), (g, slacks, y))
                                 for (g, _, tight, slacks), y in zip(raw, zip(*scaled)))
        return self._facets

    def facet_subsets(self, key):
        """Facet point-index subsets of the face conv(points[key]), in the
        order of their inner normals; None for a simplex.  ValueError when
        ``key`` is not the point set of a face."""
        key = frozenset(key)
        if key not in self._cache:
            self._cache[key] = self._split(key)
        return self._cache[key]

    def _split(self, key):
        mask = sum(1 << i for i in key)
        closure, labels = face_intersections(mask, self.facets())
        if closure & ((1 << len(self.points)) - 1) != mask:
            raise ValueError("the key is not the point set of a face")
        ordered = sorted(key)
        base = self._projected[ordered[0]]
        reduced, _, _ = rref([vsub(self._projected[i], base) for i in ordered[1:]])
        if len(reduced) == len(ordered) - 1:
            return None
        kept = inclusion_maximal(labels)
        kept.sort(key=lambda m: primitive([dot(labels[m][2], row) for row in reduced]))
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
        """The integer map that lifts hull-coordinate facets, and the kernel.

        Let B be the hull basis and ``U @ B^T == H`` the HNF of its
        transpose, with U unimodular.  Every integer a is ``(y, w) @ U``
        for integer y and w, and ``B @ a == y @ H[:dim]`` because the last
        rows of H are zero; so B @ a == t exactly when ``y @ H[:dim] == t``.
        Over Q that is ``y == t @ H[:dim]^-1``, and one fraction-free solve
        makes it integral for one denominator d: ``L == d * H[:dim]^-1 @
        U[:dim]``.
        Stored are the nonzero entries of each row of L (one row per hull
        coordinate), d, and the integer kernel of B as a lattice at the
        origin over ``U[dim:]``.
        """
        if self._lift_cache is None:
            basis = self.hull_lattice.basis
            columns = [[row[j] for row in basis] for j in range(self.ambient_dim)]
            h, u = hermite_normal_form(columns)
            x, d = solve_fraction_free(list(zip(*h[:self.dim])), identity_matrix(self.dim))
            # x is d * H[:dim]^-T, so column i of x holds row i of d * H[:dim]^-1
            rows = []
            for i in range(self.dim):
                row = [0] * self.ambient_dim
                for xrow, urow in zip(x, u[:self.dim]):
                    if xrow[i]:
                        row = [a + xrow[i] * b for a, b in zip(row, urow)]
                rows.append(tuple((j, v) for j, v in enumerate(row) if v))
            kernel = AffineLattice((0,) * self.ambient_dim, tuple(map(tuple, u[self.dim:])))
            self._lift_cache = (rows, d, kernel)
        return self._lift_cache

    def _lift_facet(self, g, h, tight, slacks):
        """Canonical ambient integer form of a hull-coordinate facet.

        ``n = g @ L`` is d times ``g @ H[:dim]^-1 @ U[:dim]``, which solves
        ``B @ a == g``, so ``n * s / d`` solves ``B @ a == s * g``.  It is
        ``y @ U[:dim]`` for ``y == s * g @ H[:dim]^-1``, and U is unimodular,
        so it is integral exactly when y is, that is when s * g lies in the
        image lattice of B.  The least such s is therefore ``d // gcd(d,
        *n)``.  The normal a is the kernel remainder of ``n * s / d``, so
        equal facets always print identically, and the offset is ``s * h +
        a @ anchor`` because hull coordinates are taken from the anchor.
        """
        if not self.hull_lattice.basis:
            raise ValueError("a 0-dimensional polytope has no facets")
        rows, d, kernel = self._lift_data()
        n = [0] * self.ambient_dim
        for gi, row in zip(g, rows):
            if gi:
                for j, v in row:
                    n[j] += gi * v
        e = gcd(d, *n)
        _, a = kernel.divmod([x // e for x in n])
        b = d // e * h + dot(a, self.hull_lattice.anchor)
        return FacetIneq(normal=a, offset=b, lattice_normal=tuple(g),
                         lattice_offset=h, tight=tight,
                         generator_slacks=tuple(slacks))

    def hull_equations(self):
        """Integer equations (a, b) with a @ x == b on the affine hull: the
        canonical basis of the integer kernel of the hull basis, which is
        the kernel lattice the facet lift reduces modulo."""
        if self._hull_equations is None:
            anchor = self.hull_lattice.anchor
            self._hull_equations = tuple((a, dot(a, anchor)) for a in self._lift_data()[2].basis)
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

        When every ambient coordinate of the generators spans at most one
        step (max - min <= 1), the lattice points are the generators, and
        no scan runs: every integer point of P lies in the generators'
        bounding box, whose integer points are all vertices of the box; a
        vertex of the box that lies in P is a vertex of P, hence a
        generator.  The generators are in the declared lattice and sorted
        already, and their hull coordinates are known.  This covers 0/1
        polytopes such as the boundary, cut and Birkhoff models.

        Otherwise the scan runs depth-first over the hull-lattice
        coordinates z_0, ..., z_{dim-1}, where P is full dimensional and
        every integer z is a lattice point.  Each node bounds its coordinate
        by the generators' box in z and by the interval every facet leaves
        it, given the coordinates fixed above and the box below, and loops
        over that interval only.  A facet is decided at the node of its last
        nonzero coefficient, so every leaf is a lattice point of P, kept with
        its z for ``lattice_point_hull_coords``.  The hull basis is in row
        HNF with positive pivots, so the ambient point is lex increasing in
        z and the scan finds the points in lex order.
        """
        if self._lattice_points is None:
            if all(max(c) - min(c) <= 1 for c in zip(*self.generators)):
                self._lattice_points = self.generators
                self._lattice_point_coords = self._pts_m
            else:
                found = self._scan_lattice_points()
                self._lattice_points = tuple(p for p, _ in found)
                self._lattice_point_coords = tuple(z for _, z in found)
        return self._lattice_points

    def _scan_lattice_points(self):
        """(point, hull-lattice coordinates) of every lattice point, in lex order."""
        if self.dim == 0:
            return [(self.generators[0], ())]
        lows = [min(c) for c in zip(*self._pts_m)]
        highs = [max(c) for c in zip(*self._pts_m)]
        facets = [(f.lattice_normal, f.lattice_offset) for f in self.facets()]
        # Node i fixes z_i to v.  For a facet g.z >= h, let s be its sum over
        # the coordinates fixed above and hi the largest value of its sum over
        # the box of the ones below.  Then g_i * v >= h - s - hi, a term
        # t = (s + k) // d: v <= t for an upper term, v >= -t for a lower one
        # (a negative d turns the floor into a ceiling).  At the node of the
        # facet's last nonzero coefficient hi is 0, so the term decides it.
        # The ambient point moves along each basis row's nonzero entries.
        rest = [0] * len(facets)
        nodes = []
        for i in range(self.dim - 1, -1, -1):
            terms, updates = [], []
            for idx, (g, h) in enumerate(facets):
                c = g[i]
                if c:
                    terms.append((idx, rest[idx] - h, abs(c), c < 0))
                    rest[idx] += max(c * lows[i], c * highs[i])
                    updates.append((idx, c))
            moves = [(j, c) for j, c in enumerate(self.hull_lattice.basis[i]) if c]
            nodes.append((terms, updates, moves))
        nodes.reverse()
        out = []
        point = list(self.hull_lattice.anchor)
        sums = [0] * len(facets)
        last = self.dim - 1

        def rec(i, head):
            terms, updates, moves = nodes[i]
            vlo, vhi = lows[i], highs[i]
            for idx, k, d, upper in terms:
                t = (sums[idx] + k) // d
                if upper:
                    if t < vhi:
                        vhi = t
                elif -t > vlo:
                    vlo = -t
                if vlo > vhi:
                    return
            for j, c in moves:
                point[j] += c * vlo
            if i == last:
                for v in range(vlo, vhi + 1):
                    out.append((tuple(point), head + (v,)))
                    for j, c in moves:
                        point[j] += c
                for j, c in moves:
                    point[j] -= c * (vhi + 1)
                return
            for idx, c in updates:
                sums[idx] += c * vlo
            rec(i + 1, head + (vlo,))
            for v in range(vlo + 1, vhi + 1):
                for idx, c in updates:
                    sums[idx] += c
                for j, c in moves:
                    point[j] += c
                rec(i + 1, head + (v,))
            for idx, c in updates:
                sums[idx] -= c * vhi
            for j, c in moves:
                point[j] -= c * vhi

        rec(0, ())
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
        return self.configuration().lattice

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
