import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycomp.triangulate as triangulate
from polycomp.linalg import AffineLattice, affine_lattice_of, standard_lattice, vsub
from polycomp.polytope import LatticePolytope, PointConfiguration
from polycomp.triangulate import (
    OrderingCapExceeded,
    all_pulling_unimodular,
    each_pulling_unimodular,
    is_unimodular,
    lattice_point_orbits,
    normalized_volume,
    pulling_triangulation,
    pulling_triangulation_of,
    total_normalized_volume,
    transitive_symmetry_shortcut,
    triangulation_volumes,
)

from conftest import birkhoff, per_cell_unimodular

SEGMENT = LatticePolytope([(0,), (1,), (2,)])  # lattice Z, points 0,1,2
SQUARE = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])


def cut_vectors(n, edges):
    cuts = set()
    for mask in range(2 ** n):
        s = {i + 1 for i in range(n) if mask >> i & 1}
        cuts.add(tuple(1 if (a in s) != (b in s) else 0 for a, b in edges))
    return sorted(cuts)


def cut_polytope_raw(n, edges):
    return LatticePolytope(cut_vectors(n, edges), lattice=standard_lattice(len(edges)))


def test_pulling_segment_natural_order():
    tri = pulling_triangulation(SEGMENT, (0, 1, 2))
    assert tri.simplices == ((0, 2),)


def test_pulling_segment_middle_first():
    tri = pulling_triangulation(SEGMENT, (1, 0, 2))
    assert sorted(tri.simplices) == [(0, 1), (1, 2)]


def test_pulling_simplex_is_itself():
    simplex = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    tri = pulling_triangulation(simplex, (2, 0, 1))
    assert tri.simplices == ((0, 1, 2),)


def test_pulling_requires_permutation():
    with pytest.raises(ValueError):
        pulling_triangulation(SEGMENT, (0, 1))
    with pytest.raises(ValueError):
        pulling_triangulation(SEGMENT, (0, 1, 1))


def test_normalized_volume_examples():
    z1 = standard_lattice(1)
    assert normalized_volume([(0,), (2,)], z1) == 2
    two_z = AffineLattice((0,), ((2,),))
    assert normalized_volume([(0,), (2,)], two_z) == 1
    z2 = standard_lattice(2)
    assert normalized_volume([(0, 0), (1, 0), (0, 1)], z2) == 1


def test_normalized_volume_rejects_degenerate():
    z2 = standard_lattice(2)
    with pytest.raises(ValueError):
        normalized_volume([(0, 0), (1, 0)], z2)
    with pytest.raises(ValueError):
        normalized_volume([(0, 0), (1, 0), (2, 0)], z2)


def test_is_unimodular_segment_orders():
    bad = pulling_triangulation(SEGMENT, (0, 1, 2))
    ok, witness = is_unimodular(SEGMENT, bad)
    assert not ok and witness == (0, 2)
    good = pulling_triangulation(SEGMENT, (1, 0, 2))
    ok, witness = is_unimodular(SEGMENT, good)
    assert ok and witness is None


def test_is_unimodular_trivial_simplex():
    simplex = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    tri = pulling_triangulation(simplex, (0, 1, 2))
    assert is_unimodular(simplex, tri) == (True, None)


def test_all_pulling_segment_false():
    assert all_pulling_unimodular(SEGMENT) is False


def test_all_pulling_square_true():
    assert all_pulling_unimodular(SQUARE) is True


def test_all_pulling_cut_k3_true():
    k3 = cut_polytope_raw(3, [(1, 2), (1, 3), (2, 3)])
    assert all_pulling_unimodular(k3) is True


def test_volume_conservation_every_ordering():
    for poly in (SEGMENT, SQUARE):
        total = total_normalized_volume(poly)
        k = len(poly.lattice_points())
        for order in permutations(range(k)):
            tri = pulling_triangulation(poly, order)
            assert sum(triangulation_volumes(poly, tri)) == total


def test_total_volume_dilated_triangle():
    poly = LatticePolytope([(0, 0), (2, 0), (0, 2)], lattice=standard_lattice(2))
    assert total_normalized_volume(poly) == 4


def test_triangulation_cells_cover_without_overlap():
    rng = random.Random(31337)
    poly = SQUARE
    pts = poly.lattice_points()
    tri = pulling_triangulation(poly, (3, 0, 1, 2))

    def barycentric_membership(cell, q):
        # solve q = sum l_i v_i, sum l_i = 1 exactly
        from polycomp.linalg import solve_rational

        verts = [pts[i] for i in cell]
        rows = [[Fraction(v[j]) for v in verts] for j in range(2)]
        rows.append([Fraction(1)] * len(verts))
        sol = solve_rational(rows, list(q) + [Fraction(1)])
        if sol is None:
            return None
        if any(l < 0 for l in sol):
            return None
        return "interior" if all(l > 0 for l in sol) else "boundary"

    for _ in range(50):
        q = (Fraction(rng.randint(0, 100), 100), Fraction(rng.randint(0, 100), 100))
        kinds = [barycentric_membership(cell, q) for cell in tri.simplices]
        hits = [k for k in kinds if k is not None]
        assert len(hits) >= 1  # covering
        assert sum(1 for k in kinds if k == "interior") <= 1  # disjoint interiors


def test_ratio_law_on_segment():
    # facet z >= 0 of the segment sees points at heights 1 and 2; the cones
    # over the same facet cell have volumes in that exact ratio
    lat = SEGMENT.point_lattice()
    vol_m = normalized_volume([(2,), (0,)], lat)
    vol_m_prime = normalized_volume([(1,), (0,)], lat)
    assert Fraction(vol_m, vol_m_prime) == Fraction(2, 1)


def test_ratio_law_on_cut_c5():
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    poly = cut_polytope_raw(5, edges)
    pts = poly.lattice_points()
    # pick a facet realizing two distinct positive lattice levels
    target = None
    for f in poly.facets():
        levels = {}
        for i, p in enumerate(pts):
            s = f.evaluate(p)
            if s > 0:
                levels.setdefault(s, i)
        if len(levels) >= 2:
            target = (f, levels)
            break
    assert target is not None
    facet, levels = target
    m, m_prime = max(levels), min(levels)
    p_m, p_m_prime = levels[m], levels[m_prime]
    face_idx = sorted(i for i, p in enumerate(pts) if facet.evaluate(p) == 0)
    sub = [i for i in range(len(pts)) if i in face_idx]
    config = poly.configuration()
    induced = [i for i in range(len(pts)) if i in sub]
    order = induced + [i for i in range(len(pts)) if i not in sub]
    # pulling triangulation of the facet, with its induced ordering
    rank = {idx: pos for pos, idx in enumerate(order)}
    lat = poly.point_lattice()
    coords = [lat.coords(p) for p in pts]

    def pull(key):
        subs = config.facet_subsets(key)
        if subs is None:
            return [tuple(sorted(key))]
        first = min(key, key=rank.__getitem__)
        cells = []
        for t in subs:
            if first not in t:
                for sigma in pull(t):
                    cells.append(tuple(sorted((first,) + sigma)))
        return cells

    for sigma in pull(frozenset(face_idx)):
        vol_hi = abs_det([vsub(coords[i], coords[p_m]) for i in sigma])
        vol_lo = abs_det([vsub(coords[i], coords[p_m_prime]) for i in sigma])
        assert Fraction(vol_hi, vol_lo) == Fraction(m, m_prime)


def abs_det(rows):
    from polycomp.linalg import determinant

    return abs(determinant(rows))


def test_shortcut_cut_k5_not_compressed():
    edges = list(combinations(range(1, 6), 2))
    poly = cut_polytope_raw(5, edges)
    assert transitive_symmetry_shortcut(poly) == "not-compressed"


def test_shortcut_birkhoff_b3_compressed():
    assert transitive_symmetry_shortcut(birkhoff(3)) == "compressed"


def test_shortcut_inapplicable():
    poly = LatticePolytope([(0, 0), (1, 0), (0, 1), (2, 2)])
    assert transitive_symmetry_shortcut(poly) == "inapplicable"


def test_orbits_partition_points():
    poly = LatticePolytope([(0, 0), (1, 0), (0, 1), (2, 2)])
    orbits = lattice_point_orbits(poly)
    flat = sorted(i for orbit in orbits for i in orbit)
    assert flat == list(range(len(poly.lattice_points())))
    assert len(orbits) > 1


def test_cap_exceeded_without_symmetry():
    # 10 lattice points, no transitive symmetry, cap forced low
    poly = LatticePolytope([(0, 0), (3, 0), (0, 3)], lattice=standard_lattice(2))
    with pytest.raises(OrderingCapExceeded):
        all_pulling_unimodular(poly, cap=4)


def test_sampling_flag_finds_segment_violation():
    assert all_pulling_unimodular(SEGMENT, cap=2, allow_sampling=True) is False


def test_all_pulling_matches_exhaustive_on_small_cases():
    cases = [
        SEGMENT,
        SQUARE,
        LatticePolytope([(0, 0), (2, 0), (0, 2)], lattice=standard_lattice(2)),
        LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
    ]
    for poly in cases:
        k = len(poly.lattice_points())
        expected = True
        for order in permutations(range(k)):
            tri = pulling_triangulation(poly, order)
            ok, _ = is_unimodular(poly, tri)
            if not ok:
                expected = False
                break
        assert all_pulling_unimodular(poly) == expected


def test_pulling_of_point_sublist():
    # pulling triangulation over an explicit point list (not all lattice points)
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    tri = pulling_triangulation_of(pts, (0, 1, 2, 3))
    assert len(tri.simplices) == 2
    for cell in tri.simplices:
        assert 0 in cell


@st.composite
def _configurations(draw):
    """Small point sets, either as drawn or as all lattice points of their hull."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, 2)] * dim)
    pts = draw(st.lists(point, min_size=2, max_size=6, unique=True))
    if draw(st.booleans()):
        hull = LatticePolytope(pts, lattice=standard_lattice(dim)).lattice_points()
        if len(hull) <= 9:
            pts = list(hull)
    return pts


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_configurations(), st.randoms(use_true_random=False))
def test_search_matches_per_cell_determinants(pts, rng):
    lattice = affine_lattice_of(pts)
    coords = [lattice.coords(p) for p in pts]
    config = PointConfiguration(pts)
    orders = [tuple(rng.sample(range(len(pts)), len(pts))) for _ in range(6)]
    expected = [
        per_cell_unimodular(coords, pulling_triangulation_of(config, o).simplices)
        for o in orders
    ]
    assert list(each_pulling_unimodular(config, coords, orders)) == expected


def test_search_takes_determinants_for_its_first_ordering_only(monkeypatch):
    calls = []
    det = triangulate.determinant
    monkeypatch.setattr(triangulate, "determinant", lambda m: calls.append(m) or det(m))

    # every ordering of the square is visited: one orbit, 3! tails
    assert all_pulling_unimodular(SQUARE) is True
    assert len(calls) == len(pulling_triangulation(SQUARE, (0, 1, 2, 3)))

    triangle = LatticePolytope([(0, 0), (2, 0), (0, 2)], lattice=standard_lattice(2))
    lattice = triangle.point_lattice()
    coords = [lattice.coords(p) for p in triangle.lattice_points()]
    orders = list(permutations(range(len(coords))))
    calls.clear()
    verdicts = list(each_pulling_unimodular(triangle.configuration(), coords, orders))
    assert len(verdicts) == len(orders) and True in verdicts and False in verdicts
    assert len(calls) == len(pulling_triangulation(triangle, orders[0]))
