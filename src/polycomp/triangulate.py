"""Pulling triangulations, normalized volumes, and the ordering searches.

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
and decides every later one by counting cells.  ``all_pulling_unimodular``
runs it over every ordering below a configurable cap; above the cap a
vertex-transitive symmetry group lets a single ordering decide for all of
them, and there is an explicitly probabilistic sampling escape hatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

from .linalg import determinant, dot, matrix_rank, solve_fraction_free, vsub
from .polytope import PointConfiguration

DEFAULT_ORDERING_CAP = 9


class OrderingCapExceeded(RuntimeError):
    """Full ordering enumeration was requested beyond the configured cap."""


@dataclass(frozen=True)
class Triangulation:
    """Simplices as index tuples into the point list that was triangulated."""

    simplices: tuple
    point_order: tuple

    def __len__(self):
        return len(self.simplices)


def pulling_triangulation_of(config, order):
    """Pulling triangulation of config.points induced by the given ordering.

    ``order`` is a permutation of ``range(len(config))``.  The recursion over
    faces is memoized per face (the set of its points), which is valid because
    the induced ordering of a face is a function of the global one.
    """
    if not isinstance(config, PointConfiguration):
        config = PointConfiguration(config)
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


def _volume_coords(polytope):
    lat = polytope.point_lattice()
    return [lat.coords(p) for p in polytope.lattice_points()]


def _cell_volume(coords, cell):
    """|det| of the cell's edge vectors over ``coords``: its normalized volume."""
    return abs(determinant([vsub(coords[i], coords[cell[0]]) for i in cell[1:]]))


def triangulation_volumes(polytope, triangulation):
    """Normalized volume of each simplex, against the lattice-point lattice."""
    coords = _volume_coords(polytope)
    return [_cell_volume(coords, cell) for cell in triangulation.simplices]


def is_unimodular(polytope, triangulation):
    """(all simplices unimodular?, first offending simplex or None)."""
    coords = _volume_coords(polytope)
    bad = next((c for c in triangulation.simplices if _cell_volume(coords, c) != 1), None)
    return bad is None, bad


def each_pulling_unimodular(config, coords, orders):
    """Yield, per ordering in ``orders``, whether its pulling triangulation of
    ``config`` is unimodular over the integer lattice coordinates ``coords``.

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
            volume = sum(_cell_volume(coords, cell) for cell in cells)
        yield len(cells) == volume


def total_normalized_volume(polytope):
    """Normalized volume of the polytope, without any pulling machinery.

    Cones the first point over the facets that avoid it: the pyramid over a
    facet has volume (lattice height of the apex) x (facet volume in the
    facet's induced lattice).  Serves as the independent check that simplex
    volumes of any pulling triangulation sum correctly.
    """
    from .linalg import AffineLattice, saturate_rows
    from .polytope import _facets_fulldim

    lat = polytope.point_lattice()
    zpts = [lat.coords(p) for p in polytope.lattice_points()]

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
        for g, h, tight, _ in _facets_fulldim(local, d):
            height = dot(g, local[0]) - h
            if height:
                total += height * rec([local[i] for i in sorted(tight)])
        return total

    return rec(zpts)


# -- affine symmetries ------------------------------------------------------


def _point_invariants(polytope):
    """Per-point and per-pair facet-slack invariants of the lattice points.

    Affine symmetries permute facets and preserve each slack exactly (facet
    normals are primitive on the lattice), so the sorted slack multiset of a
    point, and of an ordered pair, are matching invariants.
    """
    pts = polytope.lattice_points()
    facets = polytope.facets()
    slack = [tuple(f.evaluate(p) for f in facets) for p in pts]
    single = [tuple(sorted(s)) for s in slack]
    return slack, single


class _SymmetrySearch:
    """Backtracking search for affine symmetries of the lattice-point set."""

    def __init__(self, polytope):
        self.polytope = polytope
        pts = polytope.lattice_points()
        self.n = len(pts)
        self.coords = [polytope.hull_lattice.coords(p) for p in pts]
        self.coord_set = set(self.coords)
        self.slack, self.single = _point_invariants(polytope)
        self._pair_cache = {}

    def pair_sig(self, i, j):
        key = (i, j)
        sig = self._pair_cache.get(key)
        if sig is None:
            sig = tuple(sorted(zip(self.slack[i], self.slack[j])))
            self._pair_cache[key] = sig
        return sig

    def frame_from(self, start):
        """Affinely independent lattice points starting at index ``start``."""
        order = [start] + [i for i in range(self.n) if i != start]
        frame = [start]
        rows = []
        for i in order[1:]:
            cand = rows + [vsub(self.coords[i], self.coords[start])]
            if matrix_rank(cand) > len(rows):
                rows = cand
                frame.append(i)
                if len(rows) == self.polytope.dim:
                    break
        return frame

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
    correspondences; reachability under the group is an equivalence, so the
    returned sorted index lists partition the points.
    """
    pts = polytope.lattice_points()
    n = len(pts)
    if n == polytope.dim + 1:
        # a simplex on exactly its lattice points: the full symmetric group acts
        return [list(range(n))]
    search = _SymmetrySearch(polytope)
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

    If the affine symmetry group is transitive on the lattice points, either
    every pulling triangulation is unimodular or none is, so a single run
    settles the question.  Returns "compressed", "not-compressed", or
    "inapplicable" when no transitive group was found.
    """
    orbits = lattice_point_orbits(polytope)
    if len(orbits) != 1:
        return "inapplicable"
    order = tuple(range(len(polytope.lattice_points())))
    ok = next(each_pulling_unimodular(polytope.configuration(), _volume_coords(polytope), [order]))
    return "compressed" if ok else "not-compressed"


def all_pulling_unimodular(
    polytope,
    cap=DEFAULT_ORDERING_CAP,
    allow_sampling=False,
    samples=2000,
    seed=0,
):
    """Whether every pulling triangulation of the lattice points is unimodular.

    Below the cap all orderings are enumerated, reduced by symmetry: only one
    first point per orbit needs trying, with all orderings of the rest.
    Above the cap a transitive symmetry group decides with one triangulation;
    otherwise ``allow_sampling`` checks random orderings only (so True is not
    a certificate) or OrderingCapExceeded is raised.  Either way the
    orderings go through ``each_pulling_unimodular``: the first one's cell
    volumes sum to the normalized volume V, and a later ordering is
    unimodular exactly when its triangulation has V cells.
    """
    k = len(polytope.lattice_points())
    if k <= cap:
        orders = (
            (first,) + tail
            for first in (orbit[0] for orbit in lattice_point_orbits(polytope))
            for tail in permutations([i for i in range(k) if i != first])
        )
    else:
        verdict = transitive_symmetry_shortcut(polytope)
        if verdict != "inapplicable":
            return verdict == "compressed"
        if not allow_sampling:
            raise OrderingCapExceeded(
                f"{k} lattice points exceed the ordering cap {cap}; no transitive "
                "symmetry was found and sampling was not allowed"
            )
        rng = random.Random(seed)
        base = list(range(k))
        orders = (rng.shuffle(base) or tuple(base) for _ in range(samples))
    return all(each_pulling_unimodular(polytope.configuration(), _volume_coords(polytope), orders))
