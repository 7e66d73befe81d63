import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycomp import polytope
from polycomp.cutpoly import complete_graph, cut_polytope
from polycomp.linalg import (
    AffineLattice,
    dot,
    hnf_basis,
    integer_kernel,
    matrix_rank,
    rref,
    standard_lattice,
    vsub,
)
from polycomp.margins import boundary_of_simplex, marginal_matrix, marginal_polytope
from polycomp.polytope import (
    LatticePolytope,
    PointConfiguration,
    _facets_dd,
    affine_hull_equations,
    face_of,
    facet_enumeration,
    sublattice_through,
)
from polycomp.triangulate import (all_pulling_unimodular, pulling_triangulation_of,
                                  transitive_symmetry_shortcut)

from conftest import _facets_bruteforce, birkhoff, lattice_points_by_box, small_polytopes

UNIT_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
CUT_K3 = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def as_ineq_set(facets):
    return {(f.normal, f.offset) for f in facets}


def test_unit_square_facets():
    facets = facet_enumeration(UNIT_SQUARE)
    assert as_ineq_set(facets) == {
        ((1, 0), 0),
        ((0, 1), 0),
        ((-1, 0), -1),
        ((0, -1), -1),
    }


def test_segment_facets():
    facets = facet_enumeration([(0,), (2,)])
    assert as_ineq_set(facets) == {((1,), 0), ((-1,), -2)}


def test_cut_k3_is_a_simplex_with_four_facets():
    facets = facet_enumeration(CUT_K3)
    assert len(facets) == 4
    for f in facets:
        assert len(f.tight) == 3


def test_facets_are_valid_and_tight_on_enough_points():
    for pts in (UNIT_SQUARE, CUT_K3, [(0, 0), (3, 0), (0, 3)]):
        poly = LatticePolytope(pts)
        for f in poly.facets():
            slacks = [f.evaluate(p) for p in poly.generators]
            assert all(s >= 0 for s in slacks)
            tight_pts = [p for p, s in zip(poly.generators, slacks) if s == 0]
            assert len(tight_pts) >= poly.dim
            base = tight_pts[0]
            assert matrix_rank([vsub(p, base) for p in tight_pts[1:]]) == poly.dim - 1


def random_point_set(rng):
    dim = rng.randint(1, 4)
    count = rng.randint(dim + 1, 8)
    pts = {tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(count)}
    return sorted(pts)


def test_dd_matches_bruteforce_oracle():
    rng = random.Random(12345)
    checked = 0
    while checked < 40:
        pts = random_point_set(rng)
        if len(pts) < 2:
            continue
        poly = LatticePolytope(pts)
        z = [poly.hull_lattice.coords(p) for p in poly.generators]
        assert _facets_dd(z, poly.dim) == _facets_bruteforce(z, poly.dim)
        checked += 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(-2, 2)] * dim), min_size=dim + 1, max_size=dim + 5, unique=True)))
def test_dd_matches_bruteforce_on_random_point_sets(points):
    # whole (normal, offset, tight, slacks) lists: a ray found twice would
    # show up as a repeated facet
    dim = len(points[0])
    assume(matrix_rank([vsub(p, points[0]) for p in points[1:]]) == dim)
    assert _facets_dd(points, dim) == _facets_bruteforce(points, dim)


def test_dd_on_zero_one_cube():
    cube = [tuple(bits) for bits in product((0, 1), repeat=4)]
    facets = _facets_dd(cube, 4)
    assert len(facets) == 8
    assert facets == _facets_bruteforce(cube, 4)


def hull_coords(poly):
    return [poly.hull_lattice.coords(p) for p in poly.generators]


# Degenerate inputs: many points on each facet, so rays stay tight at many
# constraints and live through many insertion steps.
@pytest.mark.parametrize("poly", [
    birkhoff(3),
    marginal_polytope(marginal_matrix(boundary_of_simplex(3), (2, 2, 2))),
    marginal_polytope(marginal_matrix(boundary_of_simplex(3), (2, 2, 3))),
], ids=["birkhoff-b3", "bd-222", "bd-223"])
def test_dd_matches_bruteforce_on_degenerate_models(poly):
    assert len(poly.generators) <= 12
    z = hull_coords(poly)
    assert _facets_dd(z, poly.dim) == _facets_bruteforce(z, poly.dim)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 1)] * 5), min_size=2, max_size=12, unique=True))
def test_dd_matches_bruteforce_on_zero_one_point_sets(points):
    # subsets of the 5-cube's vertices: every point is a vertex, and the
    # facets of a low-dimensional hull hold many of them
    poly = LatticePolytope(points)
    z = hull_coords(poly)
    assert _facets_dd(z, poly.dim) == _facets_bruteforce(z, poly.dim)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(3, 4).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(0, 2)] * dim), min_size=dim + 6, max_size=14, unique=True)))
def test_dd_matches_bruteforce_on_crowded_point_sets_out_of_order(points):
    # points of a small box in the order drawn: many of them land on or
    # inside the cone built so far, so a constraint with no negative ray
    # must still record its tight rays for the pairs of later steps
    dim = len(points[0])
    assume(matrix_rank([vsub(p, points[0]) for p in points[1:]]) == dim)
    assert _facets_dd(points, dim) == _facets_bruteforce(points, dim)


@pytest.mark.parametrize("poly, count", [
    (cut_polytope(complete_graph(5)), 56),
    (cut_polytope(complete_graph(6)), 368),
    (birkhoff(4), 16),
], ids=["cut-k5", "cut-k6", "birkhoff-b4"])
def test_dd_facet_counts_from_the_literature(poly, count):
    # Deza & Laurent, "Geometry of Cuts and Metrics": Cut(K5) has 56 facets
    # and Cut(K6) 368; B4 has one facet x_ij >= 0 per entry
    assert len(_facets_dd(hull_coords(poly), poly.dim)) == count


class RecordingConfiguration(PointConfiguration):
    """A configuration that remembers every face a triangulation splits."""

    def __init__(self, points):
        super().__init__(points)
        self.visited = set()

    def facet_subsets(self, key):
        self.visited.add(frozenset(key))
        return super().facet_subsets(key)


def cut_vectors(n):
    edges = list(combinations(range(n), 2))
    return sorted({
        tuple(int(bool(mask >> i & 1) != bool(mask >> j & 1)) for i, j in edges)
        for mask in range(2 ** n)
    })


def lifted(points, rng):
    """The points under a random injective integer affine map into a higher
    ambient space: the same configuration on other pivot coordinates."""
    dim = len(points[0])
    ambient = dim + rng.randint(1, 3)
    while True:
        m = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(ambient)]
        if matrix_rank(m) == dim:
            break
    shift = [rng.randint(-3, 3) for _ in range(ambient)]
    return [tuple(dot(row, p) + c for row, c in zip(m, shift)) for p in points]


def random_configuration(seed):
    """A full-dimensional non-simplex point set in dims 1-4, entries -2..2,
    lifted into a higher ambient space for odd seeds."""
    rng = random.Random(seed)
    while True:
        dim = rng.randint(1, 4)
        count = rng.randint(dim + 2, dim + 5)
        pts = sorted({tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(count)})
        if len(pts) > dim + 1 and matrix_rank([vsub(p, pts[0]) for p in pts[1:]]) == dim:
            return lifted(pts, rng) if seed % 2 else pts


@pytest.mark.parametrize("points", [
    [(0,), (1,), (2,)],
    LatticePolytope([(0, 0), (3, 0), (0, 3)], lattice=standard_lattice(2)).lattice_points(),
    cut_vectors(4),
    [tuple(int(perm[i] == j) for i in range(3) for j in range(3))
     for perm in permutations(range(3))],
] + [random_configuration(seed) for seed in range(40)],
    ids=["segment", "dilated-triangle", "cut-k4", "birkhoff-b3"]
    + [f"random-{seed}" for seed in range(40)])
def test_dd_matches_bruteforce_on_pulling_face_splits(points):
    # every face that pulling triangulations under a few orderings split,
    # against brute force on the face's own pivot projection, in its order
    assert len(points) <= 12
    config = RecordingConfiguration(points)
    rng = random.Random(len(points))
    order = list(range(len(points)))
    for _ in range(3):
        pulling_triangulation_of(config, order)
        rng.shuffle(order)
    compared = 0
    for key in config.visited:
        ordered = sorted(key)
        base = points[ordered[0]]
        _, pivots, _ = rref([vsub(points[i], base) for i in ordered[1:]])
        if len(pivots) == len(ordered) - 1:
            assert config.facet_subsets(key) is None
            continue
        projected = [tuple(points[i][c] for c in pivots) for i in ordered]
        expected = tuple(
            frozenset(ordered[i] for i in tight)
            for _, _, tight, _ in _facets_bruteforce(projected, len(pivots))
        )
        assert config.facet_subsets(key) == expected
        compared += 1
    assert compared >= 1


def test_one_double_description_per_configuration(monkeypatch):
    points = cut_polytope(complete_graph(5)).lattice_points()
    calls = []

    def counted(*args):
        calls.append(args)
        return _facets_dd(*args)

    monkeypatch.setattr(polytope, "_facets_dd", counted)
    triangulation = pulling_triangulation_of(PointConfiguration(points), range(len(points)))
    assert len(triangulation) > 1
    assert len(calls) == 1

    # the symmetry search and the face recursion read the configuration's
    # description too, not the polytope's lifted facets
    def unexpected(self):
        raise AssertionError("LatticePolytope.facets was called")

    monkeypatch.setattr(LatticePolytope, "facets", unexpected)
    calls.clear()
    b3 = birkhoff(3)
    assert transitive_symmetry_shortcut(b3) == "compressed"
    assert all_pulling_unimodular(b3) is True
    assert len(calls) == 1


def test_facet_subsets_rejects_non_faces():
    # the diagonals are simplices, and the rectangle has facets, but none is a face
    with pytest.raises(ValueError):
        PointConfiguration(UNIT_SQUARE).facet_subsets({0, 3})
    cube = list(product((0, 1), repeat=3))
    rectangle = [cube.index(p) for p in [(0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)]]
    with pytest.raises(ValueError):
        PointConfiguration(cube).facet_subsets(rectangle)


def test_zero_dimensional_polytope_has_no_facets():
    assert _facets_dd([(), ()], 0) == []
    assert LatticePolytope([(1, 2)]).facets() == ()


def test_dd_rejects_rank_deficient_rows():
    with pytest.raises(ValueError):
        _facets_dd([(0, 0), (1, 1), (2, 2)], 2)


def prime_factors(n):
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


LIFT_CORPUS = {
    "cut-k4-in-ZE": lambda: cut_polytope(complete_graph(4)),
    "index-2-sublattice": lambda: LatticePolytope([(0, 0), (2, 0), (0, 2), (1, 1), (3, 1)]),
    # a facet whose residual shares a factor 2 with an image pivot 4
    "index-8-sublattice": lambda: LatticePolytope([(0, 0), (2, -2), (0, 4), (-2, -2)]),
    # the lift's denominator is 4, larger than every scale
    "auto-index-4": lambda: LatticePolytope([(0, 0), (2, 0), (0, 2)]),
    "bd-2-2-3": lambda: marginal_polytope(marginal_matrix(boundary_of_simplex(3), (2, 2, 3))),
    "birkhoff-b3": lambda: LatticePolytope(
        [tuple(int(perm[i] == j) for i in range(3) for j in range(3))
         for perm in permutations(range(3))]),
}


def check_lifted_facets(poly):
    """Each lifted normal a solves basis @ a == s * g for the least s > 0
    that puts s * g into the image lattice of the basis map, and a is in
    canonical form modulo the integer kernel of that map: at the pivot c of
    each of the kernel's HNF rows, 0 <= a[c] < row[c].  Returns the scales."""
    basis = poly.hull_lattice.basis
    columns = [tuple(row[j] for row in basis) for j in range(poly.ambient_dim)]
    image = AffineLattice((0,) * poly.dim, tuple(hnf_basis(columns)))
    pivots = [(next(c for c, x in enumerate(row) if x), row)
              for row in integer_kernel([list(row) for row in basis])]
    scales = set()
    for facet in poly.facets():
        g = facet.lattice_normal
        image_of_a = [dot(row, facet.normal) for row in basis]
        c = next(j for j, x in enumerate(g) if x)
        s = image_of_a[c] // g[c]
        assert s > 0
        assert image_of_a == [s * x for x in g]
        assert image.contains(tuple(s * x for x in g))
        for p in prime_factors(s):
            assert not image.contains(tuple(s // p * x for x in g))
        assert all(0 <= facet.normal[c] < row[c] for c, row in pivots)
        assert facet.offset == s * facet.lattice_offset + dot(facet.normal,
                                                               poly.hull_lattice.anchor)
        scales.add(s)
    return scales


def hull_equations_reference(poly):
    """(a, a @ p0) over the integer kernel of the generator differences, or
    over the identity when every difference is zero."""
    p0 = poly.generators[0]
    diffs = [d for d in (vsub(p, p0) for p in poly.generators[1:]) if any(d)]
    covectors = integer_kernel(diffs) if diffs else [
        tuple(int(i == j) for j in range(poly.ambient_dim)) for i in range(poly.ambient_dim)]
    return tuple((a, dot(a, p0)) for a in covectors)


@pytest.mark.parametrize("name", sorted(LIFT_CORPUS))
def test_lifted_facets_are_minimal_integer_solutions(name):
    poly = LIFT_CORPUS[name]()
    scales = check_lifted_facets(poly)
    expected_scales = {"index-2-sublattice": {1, 2}, "index-8-sublattice": {2, 4},
                       "auto-index-4": {2}}
    if name in expected_scales:
        assert scales == expected_scales[name]
    assert poly.hull_equations() == hull_equations_reference(poly)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_polytopes())
def test_lifted_facets_and_hull_equations_on_small_polytopes(poly):
    check_lifted_facets(poly)
    assert poly.hull_equations() == hull_equations_reference(poly)


def test_hull_equations_of_one_point():
    poly = LatticePolytope([(3, -1, 2)])
    assert poly.hull_equations() == hull_equations_reference(poly)
    assert poly.hull_equations() == (((1, 0, 0), 3), ((0, 1, 0), -1), ((0, 0, 1), 2))


def test_lattice_points_segment_with_explicit_lattice():
    ambient = AffineLattice((0,), ((1,),))
    poly = LatticePolytope([(0,), (2,)], lattice=ambient)
    assert poly.lattice_points() == ((0,), (1,), (2,))


def test_lattice_points_segment_auto_lattice():
    poly = LatticePolytope([(0,), (2,)])
    assert poly.lattice_points() == ((0,), (2,))


def test_lattice_points_unit_square():
    poly = LatticePolytope(UNIT_SQUARE)
    assert poly.lattice_points() == tuple(sorted(UNIT_SQUARE))


def test_lattice_points_dilated_triangle():
    poly = LatticePolytope([(0, 0), (3, 0), (0, 3)], lattice=standard_lattice(2))
    pts = poly.lattice_points()
    assert len(pts) == 10
    assert all(x >= 0 and y >= 0 and x + y <= 3 for x, y in pts)


def test_lattice_points_dilated_triangle_auto_lattice():
    # with the generators' own lattice only the three corners remain
    poly = LatticePolytope([(0, 0), (3, 0), (0, 3)])
    assert poly.lattice_points() == ((0, 0), (0, 3), (3, 0))


def test_lattice_points_supersets_generators_and_satisfy_facets():
    rng = random.Random(777)
    for _ in range(20):
        pts = random_point_set(rng)
        poly = LatticePolytope(pts)
        lattice_pts = poly.lattice_points()
        assert set(poly.generators) <= set(lattice_pts)
        for p in lattice_pts:
            assert all(f.evaluate(p) >= 0 for f in poly.facets())
            assert poly.hull_lattice.contains(p)


@settings(derandomize=True, max_examples=800, deadline=None)
@given(small_polytopes() | small_polytopes(side=1) | small_polytopes(side=2))
def test_lattice_points_match_bounding_box_oracle(poly):
    # completeness as well as soundness, in lex order; the scan runs in hull
    # coordinates, where every integer point is a lattice point, so it never
    # asks the hull lattice about a candidate, and the hull coordinates it
    # keeps are the lattice's own.  The 0/1 draws (side 1), unless an
    # embedding widens their box, take the no-scan rule instead; the side-2
    # draws sit just past it
    poly.facets()
    asked = []
    solve = AffineLattice.difference_coords

    def recording(lattice, vec):
        if lattice is poly.hull_lattice:
            asked.append(vec)
        return solve(lattice, vec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AffineLattice, "difference_coords", recording)
        points = poly.lattice_points()
    assert asked == []
    assert points == lattice_points_by_box(poly)
    assert poly.lattice_point_hull_coords() == tuple(poly.hull_lattice.coords(p) for p in points)


def test_lattice_points_match_oracle_on_balls():
    # the integer points of the balls of radius 4 and 8, whose many facets
    # all bound the scan: 68 facets and 257 points in a box of 729, and 188
    # facets and 2,109 points in a box of 4,913
    for radius, facets, count in ((4, 68, 257), (8, 188, 2109)):
        r = range(-radius, radius + 1)
        poly = LatticePolytope([p for p in product(r, repeat=3) if dot(p, p) <= radius ** 2])
        assert len(poly.facets()) == facets
        assert poly.lattice_points() == lattice_points_by_box(poly)
        assert len(poly.lattice_points()) == count


@pytest.mark.parametrize("lattice, count", [
    (standard_lattice(4), 22),
    (AffineLattice((0, 0, 0, 0), ((1, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))), 10),
])
def test_lattice_points_of_an_embedded_triangle_with_non_unit_pivots(lattice, count):
    # a triangle in Z^4 with two hull equations, whose hull basis in HNF has
    # the pivot 3 in its first row, and in the second row too on the
    # declared index-3 lattice, which keeps only the points whose second
    # coordinate is a multiple of 3
    poly = LatticePolytope([(0, 0, 0, 0), (9, 0, 9, 3), (0, 9, 18, -9)], lattice=lattice)
    assert len(poly.hull_equations()) == 2
    assert poly.hull_lattice.basis[0][0] == 3
    points = poly.lattice_points()
    assert points == lattice_points_by_box(poly)
    assert len(points) == count
    assert poly.lattice_point_hull_coords() == tuple(poly.hull_lattice.coords(p) for p in points)


def test_cut_k6_lattice_points_are_its_32_cuts():
    poly = cut_polytope(complete_graph(6))
    assert poly.lattice_points() == lattice_points_by_box(poly)
    assert len(poly.lattice_points()) == 32


@pytest.mark.parametrize("kind", ["auto", "ambient", "index-2"])
def test_zero_one_generators_are_the_lattice_points_without_a_scan(kind):
    # a 0/1 cube shifted to the corner (4, -1, 0), less one vertex, and
    # embedded in 4-space by a fourth coordinate 5 - x
    cube = [p for p in product((4, 5), (-1, 0), (0, 1)) if p != (5, 0, 1)]
    if kind == "index-2":
        cube = [p for p in cube if sum(p) % 2 == 1]
    pts = [p + (5 - p[0],) for p in cube]
    lattice = {
        "auto": None,
        "ambient": standard_lattice(4),
        "index-2": AffineLattice(pts[0], ((2, 0, 0, -2), (1, 1, 0, -1), (1, 0, 1, -1))),
    }[kind]
    poly = LatticePolytope(pts, lattice=lattice)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LatticePolytope, "_scan_lattice_points", None)
        assert poly.lattice_points() == poly.generators
    assert poly.lattice_point_hull_coords() == tuple(
        poly.hull_lattice.coords(p) for p in poly.generators)
    assert poly.lattice_points() == lattice_points_by_box(poly)


def test_non_full_dimensional_polytope():
    # a segment embedded diagonally in the plane, with the ambient lattice:
    # the induced lattice on the hull picks up the midpoint
    poly = LatticePolytope([(0, 0), (2, 2)], lattice=standard_lattice(2))
    assert poly.dim == 1
    assert poly.hull_equations() == (((1, -1), 0),)
    assert poly.lattice_points() == ((0, 0), (1, 1), (2, 2))
    assert len(poly.facets()) == 2
    auto = LatticePolytope([(0, 0), (2, 2)])
    assert auto.lattice_points() == ((0, 0), (2, 2))


def test_declared_lattice_must_contain_generators():
    with pytest.raises(ValueError):
        LatticePolytope([(0, 0), (1, 1)], lattice=AffineLattice((0, 0), ((2, 0), (0, 2))))


@pytest.mark.parametrize("bad", [Fraction(3, 2), 2.5])
def test_non_integer_coordinates_raise_type_error(bad):
    # int() would silently truncate, e.g. [(1/2,), (1,)] to the segment [0, 1]
    with pytest.raises(TypeError):
        LatticePolytope([(bad, 0), (1, 1)])
    with pytest.raises(TypeError):
        PointConfiguration([(0, 0), (bad, 1)])


def test_vertices_of_dilated_triangle():
    poly = LatticePolytope([(0, 0), (3, 0), (0, 3), (1, 1)])
    assert poly.vertices() == ((0, 0), (0, 3), (3, 0))


def test_face_of_square_edge():
    poly = LatticePolytope(UNIT_SQUARE)
    facet = next(f for f in poly.facets() if f.normal == (1, 0))
    face = face_of(poly, [facet])
    assert face.generators == ((0, 0), (0, 1))
    assert face.dim == 1


def test_face_of_cut_k3_facet_is_triangle():
    poly = LatticePolytope(CUT_K3)
    face = face_of(poly, [poly.facets()[0]])
    assert face.dim == 2
    assert len(face.generators) == 3


def test_face_of_all_facets_of_simplex_is_empty():
    poly = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    assert face_of(poly, poly.facets()) is None


def test_face_of_rejects_foreign_inequality():
    poly = LatticePolytope(UNIT_SQUARE)
    other = facet_enumeration([(0, 0), (3, 0), (0, 3)])[0]
    with pytest.raises(ValueError):
        face_of(poly, [other])


def test_face_keeps_induced_lattice():
    ambient = AffineLattice((0, 0), ((1, 0), (0, 1)))
    poly = LatticePolytope([(0, 0), (2, 0), (0, 2), (2, 2)], lattice=ambient)
    facet = next(f for f in poly.facets() if f.normal == (1, 0))
    face = face_of(poly, [facet])
    # the edge from (0,0) to (0,2) keeps the ambient-induced lattice point (0,1)
    assert face.lattice_points() == ((0, 0), (0, 1), (0, 2))


def test_sublattice_through():
    ambient = AffineLattice((0, 0), ((1, 0), (0, 1)))
    sub = sublattice_through(ambient, [(0, 0), (2, 2)])
    assert sub.basis == ((1, 1),)
    assert sub.contains((3, 3))
    assert not sub.contains((1, 2))


def test_affine_hull_equations_of_birkhoff_like_slice():
    eqs = affine_hull_equations([(1, 0), (0, 1)])
    assert eqs == (((1, 1), 1),)


def test_facet_subsets_simplex_returns_none():
    assert PointConfiguration([(0, 0), (1, 0), (0, 1)]).facet_subsets(range(3)) is None


def test_facet_subsets_square():
    subs = PointConfiguration(UNIT_SQUARE).facet_subsets(range(4))
    assert sorted(tuple(sorted(s)) for s in subs) == [
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 3),
    ]


def test_facet_subsets_match_on_embedded_configuration():
    # same square, embedded in 3-space on a tilted plane
    embedded = [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)]
    subs = PointConfiguration(embedded).facet_subsets(range(4))
    assert sorted(tuple(sorted(s)) for s in subs) == [
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 3),
    ]


def test_contains():
    poly = LatticePolytope([(0, 0), (3, 0), (0, 3)])
    assert poly.contains((1, 1))
    assert not poly.contains((2, 2))
    seg = LatticePolytope([(0, 0), (2, 2)])
    assert seg.contains((1, 1))
    assert not seg.contains((1, 0))
