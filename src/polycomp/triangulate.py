"""Pulling triangulations, normalized volumes, and the unimodularity checks.

A pulling triangulation of an ordered point list is built recursively: if the
points are affinely independent they form one simplex; otherwise the first
point is coned over the pulling triangulations of the facets of the hull that
do not contain it, each facet keeping the induced ordering.

Volumes are normalized against the affine lattice spanned by the point list
itself, so a simplex is unimodular exactly when its edge determinant is +-1
in those coordinates.  Every triangulation of one point set has the same
normalized volume V, and every cell adds at least 1 to it, so a pulling
triangulation is unimodular exactly when it has V cells:
``each_pulling_unimodular`` takes determinants for the first ordering only
and decides every later one by counting cells.

``all_pulling_unimodular`` asks whether every ordering gives a unimodular
triangulation by a recursion over faces, not over orderings (De Loera,
Rambau & Santos, "Triangulations", 2010): a cone cell's volume is the
lattice height of its apex over the facet below it times the base cell's
volume, so every pulling triangulation of a face is unimodular exactly when
every point of the face lies at height 0 or 1 over each of its facets and
every facet passes in turn.  Heights are measured in each face's saturated
lattice Z^d ∩ aff(F), in point-lattice coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .linalg import (AffineLattice, determinant, dot, hermite_normal_form, identity_matrix, rref,
                     saturate_rows, solve_fraction_free, vsub)
from .polytope import _facets_dd, face_intersections, inclusion_maximal


@dataclass(frozen=True)
class Triangulation:
    """Simplices as index tuples into the point list that was triangulated."""

    simplices: tuple
    point_order: tuple

    def __len__(self):
        return len(self.simplices)


def pulling_triangulation_of(config, order):
    """Pulling triangulation of a PointConfiguration induced by an ordering.

    ``order`` is a permutation of ``range(len(config))``.  The recursion over
    faces is memoized per face (the set of its points), which is valid because
    the induced ordering of a face is a function of the global one.
    """
    order = tuple(order)
    if sorted(order) != list(range(len(config))):
        raise ValueError("order must be a permutation of all point indices")
    rank = {idx: pos for pos, idx in enumerate(order)}
    memo = {}

    def pull(key):
        cells = memo.get(key)
        if cells is not None:
            return cells
        subs = config.facet_subsets(key)
        if subs is None:
            cells = (tuple(sorted(key)),)
        else:
            first = min(key, key=rank.__getitem__)
            out = []
            for facet_pts in subs:
                if first not in facet_pts:
                    for sigma in pull(facet_pts):
                        out.append(tuple(sorted((first,) + sigma)))
            cells = tuple(out)
        memo[key] = cells
        return cells

    simplices = pull(frozenset(range(len(config))))
    return Triangulation(simplices=simplices, point_order=order)


def pulling_triangulation(polytope, order):
    """Pulling triangulation of the polytope's lattice points."""
    return pulling_triangulation_of(polytope.configuration(), order)


def normalized_volume(simplex_points, lattice):
    """|det| of the simplex edge vectors in the lattice's basis coordinates.

    The simplex must be full dimensional for the lattice (lattice.dim + 1
    points); value 1 means unimodular.
    """
    pts = [tuple(p) for p in simplex_points]
    if len(pts) != lattice.dim + 1:
        raise ValueError("simplex is degenerate for this lattice")
    edges = [lattice.difference_coords(vsub(p, pts[0])) for p in pts[1:]]
    if any(e is None for e in edges):
        raise ValueError("simplex edges leave the lattice")
    vol = abs(determinant(edges))
    if vol == 0:
        raise ValueError("simplex is degenerate for this lattice")
    return vol


def _cell_volume(coords, cell):
    """|det| of the cell's edge vectors over ``coords``: its normalized volume."""
    return abs(determinant([vsub(coords[i], coords[cell[0]]) for i in cell[1:]]))


def triangulation_volumes(polytope, triangulation):
    """Normalized volume of each simplex, against the lattice-point lattice."""
    coords = polytope.configuration().coords
    return [_cell_volume(coords, cell) for cell in triangulation.simplices]


def is_unimodular(polytope, triangulation):
    """(all simplices unimodular?, first offending simplex or None)."""
    coords = polytope.configuration().coords
    bad = next((c for c in triangulation.simplices if _cell_volume(coords, c) != 1), None)
    return bad is None, bad


def each_pulling_unimodular(config, orders):
    """Yield, per ordering in ``orders``, whether its pulling triangulation of
    ``config`` is unimodular over ``config.coords``.

    The cell volumes of the first ordering sum to the normalized volume V of
    conv(config), which every triangulation of the point set shares, since
    its cells tile that hull.  A cell is a full-dimensional lattice simplex,
    so its volume is an integer of at least 1, and a triangulation has at
    most V cells, with equality exactly when every cell has volume 1.  Each
    ordering is therefore decided by its cell count; determinants are taken
    for the first ordering only.
    """
    volume = None
    for order in orders:
        cells = pulling_triangulation_of(config, order).simplices
        if volume is None:
            volume = sum(_cell_volume(config.coords, cell) for cell in cells)
        yield len(cells) == volume


def total_normalized_volume(polytope):
    """Normalized volume of the polytope, without any pulling machinery.

    Cones the first point over the facets that avoid it: the pyramid over a
    facet has volume (lattice height of the apex) x (facet volume in the
    facet's induced lattice).  Serves as the independent check that simplex
    volumes of any pulling triangulation sum correctly.
    """
    def rec(pts):
        base = pts[0]
        diffs = [vsub(p, base) for p in pts[1:]]
        sat = saturate_rows(diffs, len(base))
        if not sat:
            return 1
        local_lat = AffineLattice(tuple([0] * len(base)), tuple(sat))
        local = [local_lat.difference_coords(vsub(p, base)) for p in pts]
        d = len(sat)
        if len(local) == d + 1:
            return abs(determinant([vsub(p, local[0]) for p in local[1:]]))
        total = 0
        for g, h, tight, _ in _facets_dd(local, d):
            height = dot(g, local[0]) - h
            if height:
                total += height * rec([local[i] for i in sorted(tight)])
        return total

    return rec(polytope.configuration().coords)


# -- affine symmetries ------------------------------------------------------


class _SymmetrySearch:
    """Backtracking search for affine symmetries of a configuration's points.

    A symmetry maps the points' lattice onto itself and permutes the facets,
    whose normals are primitive on it, so it preserves every slack.  The
    sorted slacks of a point, and of an ordered pair, are matching invariants.
    """

    def __init__(self, config):
        self.coords = config.coords
        self.n = len(self.coords)
        self.coord_set = set(self.coords)
        self.slack = list(zip(*(slacks for _, (_, slacks, _) in config.facets())))
        self.single = [tuple(sorted(s)) for s in self.slack]
        self._pair_cache = {}

    def pair_sig(self, i, j):
        key = (i, j)
        sig = self._pair_cache.get(key)
        if sig is None:
            sig = tuple(sorted(zip(self.slack[i], self.slack[j])))
            self._pair_cache[key] = sig
        return sig

    def frame_from(self, start):
        """Affinely independent lattice points starting at index ``start``.

        The first independent differences, in index order, are the pivot
        columns of one elimination of the differences as columns.
        """
        rest = [i for i in range(self.n) if i != start]
        diffs = [vsub(self.coords[i], self.coords[start]) for i in rest]
        _, pivots, _ = rref(list(zip(*diffs)))
        return [start] + [rest[c] for c in pivots]

    def _verify(self, frame, images):
        base = self.coords[frame[0]]
        ibase = self.coords[images[0]]
        rows = [vsub(self.coords[f], base) for f in frame[1:]]
        img_rows = [vsub(self.coords[i], ibase) for i in images[1:]]
        solved = solve_fraction_free(rows, img_rows)
        if solved is None:
            return False
        x, d = solved
        dim = len(base)
        mapped = set()
        for z in self.coords:
            v = vsub(z, base)
            w = [sum(v[i] * x[i][j] for i in range(dim)) for j in range(dim)]
            if any(t % d for t in w):
                return False
            mapped.add(tuple(t // d + b for t, b in zip(w, ibase)))
        return mapped == self.coord_set

    def maps_to(self, frame, target):
        """Is there an affine symmetry with frame[0] |-> target?"""
        if self.single[target] != self.single[frame[0]]:
            return False
        images = [target]

        def extend(t):
            if t == len(frame):
                return self._verify(frame, images)
            for cand in range(self.n):
                if cand in images or self.single[cand] != self.single[frame[t]]:
                    continue
                if all(
                    self.pair_sig(images[s], cand) == self.pair_sig(frame[s], frame[t])
                    for s in range(t)
                ):
                    images.append(cand)
                    if extend(t + 1):
                        return True
                    images.pop()
            return False

        return extend(1)


def lattice_point_orbits(polytope):
    """Orbits of the lattice points under the affine symmetry group.

    Symmetries are found by solving for affine maps from frame-point
    correspondences on ``polytope.configuration()``; reachability under the
    group is an equivalence, so the returned sorted index lists partition
    the points.
    """
    config = polytope.configuration()
    n = len(config)
    if n == config.lattice.dim + 1:
        # a simplex on exactly its lattice points: the full symmetric group acts
        return [list(range(n))]
    search = _SymmetrySearch(config)
    orbits = []
    unassigned = set(range(n))
    while unassigned:
        i = min(unassigned)
        frame = search.frame_from(i)
        orbit = {i}
        for target in sorted(unassigned - {i}):
            if search.maps_to(frame, target):
                orbit.add(target)
        orbits.append(sorted(orbit))
        unassigned -= orbit
    return orbits


def transitive_symmetry_shortcut(polytope):
    """Decide compressedness in one triangulation when symmetry allows it.

    Returns "compressed", "not-compressed", or "inapplicable" when no group
    transitive on the lattice points was found.  Under a transitive group,
    if one point lies at lattice height 2 or more over some facet, every
    point lies that high over some facet, and pulling it first gives a cell
    of volume 2 or more, so no pulling triangulation is unimodular.
    Otherwise every facet has width one, and concluding that every pulling
    triangulation is unimodular uses the facet-width characterization of
    compressed polytopes.  The shortcut is therefore not an independent
    oracle for that theorem; ``all_pulling_unimodular`` is.  It stays as the
    one-triangulation answer that ``repro`` uses.
    """
    orbits = lattice_point_orbits(polytope)
    if len(orbits) != 1:
        return "inapplicable"
    config = polytope.configuration()
    ok = next(each_pulling_unimodular(config, [range(len(config))]))
    return "compressed" if ok else "not-compressed"


def all_pulling_unimodular(polytope):
    """Whether every pulling triangulation of the lattice points is unimodular.

    Decided by a recursion over the faces of the polytope, never over
    orderings, so the answer is exact for any number of points.  A face F
    passes when every point of F lies at lattice height 0 or 1 over each
    facet G of F, and every G passes in turn; a point passes.

    Why it is exact: when v comes first in an ordering, the pulling
    triangulation of F cones v over the pulling triangulations of the
    facets G of F that avoid v, each under the induced ordering.  A cone
    cell has normalized volume (height of v over G in F's lattice) x
    (volume of its base cell in G's lattice), the identity that
    ``total_normalized_volume`` sums.  Every ordering of G is induced by an
    ordering of F that starts at a point off G, and every point off G comes
    first in some ordering, so every pulling triangulation of F is
    unimodular exactly when all those heights are 1 and every pulling
    triangulation of every G is unimodular.  For a simplex face this says
    that its normalized volume is 1.

    Heights and volumes are measured in the saturated lattice Z^d ∩ aff(F)
    of ``polytope.configuration().coords``, never by the gcd over F's own
    points, under which an empty simplex face of volume 2 would pass its
    own check.  The configuration's facets H come with their slacks, and a
    facet G of F is F ∩ T(H) for some H (Kaibel & Pfetsch 2002).  Each face
    carries a basis of its lattice, tracked from the top down: on F's
    basis, H's normal takes values w whose gcd c generates its values on
    F's lattice, so the points of F must have slack 0 or c, and G's basis
    is a kernel basis of w times F's basis.  The HNF of w as a column is
    ``U @ w == (c, 0, ..., 0)`` with U unimodular (w != 0, as G is a proper
    face), so U's other rows are such a basis.  Each face is visited at
    most once per call (memoized by its point set), and the first failing
    height ends the search.
    """
    config = polytope.configuration()
    incidences = config.facets()
    verdicts = {}  # face point bitmask -> passes; lives for this call only

    def passes(mask, basis):
        points = [i for i in range(len(config)) if mask >> i & 1]
        _, labels = face_intersections(mask, incidences)
        split = [(sub, labels[sub]) for sub in inclusion_maximal(labels)]
        for _, (g, slacks, _) in split:
            positive = {slacks[i] for i in points}
            positive.discard(0)
            if len(positive) != 1:
                return False
            # the gcd c of g on F's basis divides every slack on F, so a
            # slack of 1 is c without computing it
            (s,) = positive
            if s != 1 and s != gcd(*(dot(g, row) for row in basis)):
                return False
        for sub, (g, _, _) in split:
            verdict = verdicts.get(sub)
            if verdict is None:
                kernel = hermite_normal_form([[dot(g, row)] for row in basis])[1][1:]
                columns = list(zip(*basis))
                sub_basis = [[dot(y, col) for col in columns] for y in kernel]
                verdict = verdicts[sub] = passes(sub, sub_basis)
            if not verdict:
                return False
        return True

    return passes((1 << len(config)) - 1, identity_matrix(config.lattice.dim))
