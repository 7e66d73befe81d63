"""Facet-level profiles, the compressedness certificate, and the cube embedding.

A lattice polytope is compressed exactly when, for every facet, the lattice
points of the polytope sit on at most one hyperplane strictly beyond the
facet: the facet "levels".  Levels are reported in the normalization where
the facet normal is primitive on the polytope's lattice, so they are always
integers.  A second-level witness pair is the seed for the LP/IP gap
construction in the bounds module.

A polytope whose lattice points are its generators reads each facet's
slacks from facet enumeration.  Otherwise the hull coordinates of the
lattice points are packed once into one big integer per coordinate, and
each facet's slacks come from one linear combination of those integers.

Certified-compressed polytopes embed into a unit cube: sending a point to its
vector of scaled facet slacks is an affine map under which the polytope
becomes a 0/1 polytope that is a full cube section.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from operator import lt, sub

from .linalg import dot, rref
from .polytope import LatticePolytope
from .simplex import solve_box_program


@dataclass(frozen=True)
class FacetLevelProfile:
    """Positive lattice levels realized beyond one facet, with witnesses."""

    facet: object
    levels: tuple
    witnesses: tuple

    def __post_init__(self):
        levels = self.levels
        if levels and levels[0] <= 0:
            raise ValueError("levels must be positive")
        if not all(map(lt, levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if len(self.witnesses) != len(levels):
            raise ValueError("there must be one witness per level")


@dataclass(frozen=True)
class Violation:
    """Two distinct positive levels beyond one facet (high first)."""

    facet: object
    high_level: int
    low_level: int
    high_witness: tuple
    low_witness: tuple


@dataclass(frozen=True)
class CompressedCertificate:
    verdict: bool
    profiles: tuple
    violation: Violation | None


# struct codes by field width; a width without one is packed and unpacked
# through int.to_bytes and int.from_bytes
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack(values, k):
    """One int whose k-byte fields hold the non-negative ``values`` <
    2**(8*k), value i weighing 2**(8*k*i).  The packing is linear, and
    ``_unpack`` inverts it."""
    code = _CODES.get(k)
    if code is None:
        data = b"".join(v.to_bytes(k, "little") for v in values)
    else:
        data = struct.pack(f"<{len(values)}{code}", *values)
    return int.from_bytes(data, "little")


def _unpack(number, n, k):
    """The n k-byte fields of ``number``, as packed by ``_pack``."""
    data = number.to_bytes(n * k, "little")
    code = _CODES.get(k)
    if code is None:
        return [int.from_bytes(data[i:i + k], "little") for i in range(0, n * k, k)]
    return struct.unpack(f"<{n}{code}", data)


def _columns(polytope):
    """The hull-lattice coordinates of the lattice points, packed once for
    all facets; None when every lattice point is a generator, because then
    each facet carries its slacks from enumeration.

    Each coordinate column is shifted by its minimum and packed by ``_pack``
    into one int.  Returns the packed columns, the minima, the packing of
    all ones and the field width k: the least of 1, 2, 4 and 8 bytes, or the
    exact byte count past 8, that holds both the largest column span and the
    largest generator slack over all facets.
    """
    if polytope.lattice_points() == polytope.generators:
        return None
    columns = tuple(zip(*polytope.lattice_point_hull_coords()))
    low = tuple(map(min, columns))
    top = max(
        max(map(sub, map(max, columns), low)),
        max(max(f.generator_slacks) for f in polytope.facets()),
    )
    need = (top.bit_length() + 7) // 8
    k = next((w for w in (1, 2, 4, 8) if w >= need), need)
    packed = tuple(_pack([v - m for v in column], k) for column, m in zip(columns, low))
    return packed, low, _pack([1] * len(columns[0]), k), k


def _profile(polytope, facet, columns):
    """The positive levels of the lattice points over one of the polytope's
    own facets, with the lex-first point at each level.

    The slacks are the facet's ``generator_slacks`` when ``columns`` is
    None.  Otherwise they come from one packed product: with z = m + c for
    the column minima m, the slack ``g . z - h`` of every point is a field
    of ``sum(g_c * C_c) + (g . m - h) * ONES`` over the packed columns C_c
    with g_c nonzero.  The sum is exact field by field: every lattice point
    of P meets every facet, so its slack is at least 0, and a linear
    function on P is largest at a generator, so the slack is at most the
    largest generator slack, which fits in a field.  The fields are
    therefore the base-2**(8k) digits of the sum, with no carries, and one
    ``to_bytes`` reads them all.
    """
    pts = polytope.lattice_points()
    if columns is None:
        slacks = facet.generator_slacks
    else:
        packed, low, ones, k = columns
        g = facet.lattice_normal
        total = (dot(g, low) - facet.lattice_offset) * ones
        for gc, column in zip(g, packed):
            if gc:
                total += gc * column
        slacks = _unpack(total, len(pts), k)
    # reversed, so the lex-first point at each slack is the one kept
    first = dict(zip(reversed(slacks), reversed(pts)))
    # the facet's own generators give the least slack, 0
    levels = tuple(sorted(first)[1:])
    return FacetLevelProfile(
        facet=facet, levels=levels, witnesses=tuple(map(first.__getitem__, levels))
    )


def facet_levels(polytope, facet):
    """Profile of one facet: the distinct positive slack levels over the
    lattice points, measured with the lattice-primitive normal."""
    facets = polytope.facets()
    if facet not in facets:
        raise ValueError("facet does not belong to the polytope")
    return _profile(polytope, facets[facets.index(facet)], _columns(polytope))


def is_compressed(polytope):
    """Certificate that every facet sees at most one positive lattice level.

    The lattice points are compared with the generators, and their hull
    coordinates packed into columns, once for all facets.  On failure the
    violation reports the lexicographically first offending facet with
    witnesses for its extreme levels.
    """
    columns = _columns(polytope)
    profiles = []
    violation = None
    for facet in polytope.facets():
        profile = _profile(polytope, facet, columns)
        profiles.append(profile)
        if violation is None and len(profile.levels) >= 2:
            violation = Violation(
                facet=facet,
                high_level=profile.levels[-1],
                low_level=profile.levels[0],
                high_witness=profile.witnesses[-1],
                low_witness=profile.witnesses[0],
            )
    return CompressedCertificate(
        verdict=violation is None, profiles=tuple(profiles), violation=violation
    )


@dataclass(frozen=True)
class CubeEmbedding:
    """The affine map x -> ((a_i . x - b_i) / m_i) over the facet list."""

    normals: tuple
    offsets: tuple
    levels: tuple

    def apply(self, point):
        values = []
        for a, b, m in zip(self.normals, self.offsets, self.levels):
            v = Fraction(dot(a, point) - b, m)
            values.append(int(v) if v.denominator == 1 else v)
        return tuple(values)


def cube_embedding(polytope):
    """Embed a compressed polytope as a 0/1 polytope via scaled facet slacks.

    Returns (map, image polytope).  The map is injective on lattice points
    and sends them onto the image's lattice points, which is what makes the
    image a faithful replacement for the original.
    """
    cert = is_compressed(polytope)
    if not cert.verdict:
        raise ValueError("cube embedding is only defined for compressed polytopes")
    normals = []
    offsets = []
    levels = []
    for profile in cert.profiles:
        facet = profile.facet
        # the lift scales: evaluate(p) == s * lattice_slack(z) with s > 0, so
        # the largest ambient slack is attained at the highest level's witness
        normals.append(facet.normal)
        offsets.append(facet.offset)
        levels.append(facet.evaluate(profile.witnesses[-1]))
    emb = CubeEmbedding(tuple(normals), tuple(offsets), tuple(levels))
    images = [emb.apply(p) for p in polytope.lattice_points()]
    if len(set(images)) != len(images):
        raise ValueError("embedding failed to separate lattice points")
    image = LatticePolytope(images)
    return emb, image


def zero_one_points_of_affine_hull(polytope):
    """All 0/1 vectors satisfying the polytope's affine-hull equations.

    Enumerates only the free coordinates of the reduced equation system, so
    the cost is 2^dim rather than 2^ambient.
    """
    n = polytope.ambient_dim
    eqs = polytope.hull_equations()
    reduced, pivots, d = rref([list(a) + [b] for a, b in eqs])
    if any(c == n for c in pivots):
        return []
    free = [j for j in range(n) if j not in pivots]
    out = []
    for mask in range(2 ** len(free)):
        point = [None] * n
        for k, j in enumerate(free):
            point[j] = mask >> k & 1
        ok = True
        for row, c in zip(reduced, pivots):
            v = row[-1] - sum(row[j] * point[j] for j in free)
            if v != 0 and v != d:
                ok = False
                break
            point[c] = v // d
        if ok:
            out.append(tuple(point))
    return sorted(out)


def verify_cube_section(polytope):
    """Whether the polytope equals (unit cube) ∩ (its own affine hull).

    Checks three exact conditions: all generators are 0/1; the 0/1 points of
    the affine hull are exactly the polytope's lattice points; and every
    facet inequality is valid on the whole cube section (an exact LP per
    facet), which rules out fractional vertices outside the polytope.
    """
    n = polytope.ambient_dim
    if any(x not in (0, 1) for p in polytope.generators for x in p):
        return False
    cube_pts = zero_one_points_of_affine_hull(polytope)
    if set(cube_pts) != set(polytope.lattice_points()):
        return False
    eqs = polytope.hull_equations()
    eq_rows = [a for a, _ in eqs]
    eq_rhs = [b for _, b in eqs]
    for facet in polytope.facets():
        res = solve_box_program(eq_rows, eq_rhs, facet.normal, n, maximize=False)
        if res.status != "optimal" or res.value < facet.offset:
            return False
    return True
