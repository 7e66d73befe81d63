from itertools import combinations, product

import pytest
from hypothesis import given, settings

from polycomp.compressed import (
    FacetLevelProfile,
    _columns,
    cube_embedding,
    facet_levels,
    is_compressed,
    verify_cube_section,
    zero_one_points_of_affine_hull,
)
from polycomp.linalg import dot, standard_lattice
from polycomp.polytope import LatticePolytope
from polycomp.triangulate import all_pulling_unimodular

from conftest import birkhoff, small_polytopes


def cut_polytope_raw(n, edges):
    cuts = set()
    for mask in range(2 ** n):
        s = {i + 1 for i in range(n) if mask >> i & 1}
        cuts.add(tuple(1 if (a in s) != (b in s) else 0 for a, b in edges))
    return LatticePolytope(sorted(cuts), lattice=standard_lattice(len(edges)))


SEGMENT_012 = LatticePolytope([(0,), (1,), (2,)])
SEGMENT_02_Z = LatticePolytope([(0,), (2,)], lattice=standard_lattice(1))
CUBE3 = LatticePolytope([tuple(b) for b in product((0, 1), repeat=3)])


def test_facet_levels_segment():
    facet = next(f for f in SEGMENT_012.facets() if f.normal == (1,))
    profile = facet_levels(SEGMENT_012, facet)
    assert profile.levels == (1, 2)
    assert profile.witnesses == ((1,), (2,))


def test_facet_level_profile_rejects_invalid_levels():
    facet = SEGMENT_012.facets()[0]
    for levels in ((2, 1), (1, 1), (0, 1), (-1,), (1, 3, 2)):
        with pytest.raises(ValueError):
            FacetLevelProfile(facet=facet, levels=levels, witnesses=((0,),) * len(levels))
    for witnesses in ((), ((1,),), ((1,), (2,), (0,))):
        with pytest.raises(ValueError):
            FacetLevelProfile(facet=facet, levels=(1, 2), witnesses=witnesses)
    profile = FacetLevelProfile(facet=facet, levels=(1, 2), witnesses=((1,), (2,)))
    assert profile.levels == (1, 2)
    assert FacetLevelProfile(facet=facet, levels=(), witnesses=()).levels == ()


def test_facet_levels_birkhoff_b3_all_single():
    poly = birkhoff(3)
    for facet in poly.facets():
        profile = facet_levels(poly, facet)
        assert profile.levels == (1,)


def test_facet_levels_rejects_foreign_facet():
    other = SEGMENT_02_Z.facets()[0]
    with pytest.raises(ValueError):
        facet_levels(CUBE3, other)


def test_pentagonal_facet_of_cut_k5_has_levels_two_and_six():
    edges = list(combinations(range(1, 6), 2))
    poly = cut_polytope_raw(5, edges)
    b = {1: 1, 2: 1, 3: 1, 4: -1, 5: -1}
    normal = tuple(-b[i] * b[j] for i, j in edges)  # -sum b_i b_j x_ij >= 0
    facet = next(f for f in poly.facets() if f.normal == normal)
    assert facet.offset == 0
    profile = facet_levels(poly, facet)
    assert profile.levels == (2, 6)


def test_is_compressed_cube():
    cert = is_compressed(CUBE3)
    assert cert.verdict is True
    assert cert.violation is None
    assert all(p.levels == (1,) for p in cert.profiles)


def test_is_compressed_segment_with_ambient_lattice():
    cert = is_compressed(SEGMENT_02_Z)
    assert cert.verdict is False
    v = cert.violation
    assert v.facet.normal == (-1,) or v.facet.normal == (1,)
    assert (v.high_level, v.low_level) == (2, 1)


def test_is_compressed_cut_k5_false():
    edges = list(combinations(range(1, 6), 2))
    cert = is_compressed(cut_polytope_raw(5, edges))
    assert cert.verdict is False
    assert cert.violation.high_level > cert.violation.low_level > 0


def test_violation_iff_some_profile_has_two_levels():
    for poly in (CUBE3, SEGMENT_012, SEGMENT_02_Z):
        cert = is_compressed(poly)
        has_multi = any(len(p.levels) >= 2 for p in cert.profiles)
        assert cert.verdict == (not has_multi)
        assert (cert.violation is not None) == has_multi


def test_equivalence_with_pulling_oracle_on_small_corpus():
    corpus = [
        SEGMENT_012,
        SEGMENT_02_Z,
        CUBE3,
        LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)]),
        LatticePolytope([(0, 0), (2, 0), (0, 2)]),
        LatticePolytope([(0, 0), (2, 0), (0, 2)], lattice=standard_lattice(2)),
        LatticePolytope([(0, 0), (1, 0), (0, 1), (2, 2)]),
        birkhoff(3),
    ]
    for poly in corpus:
        assert is_compressed(poly).verdict == all_pulling_unimodular(poly), poly


def assert_profiles_match_recount(poly):
    cert = is_compressed(poly)
    assert [p.facet for p in cert.profiles] == list(poly.facets())
    pts = poly.lattice_points()
    coords = poly.lattice_point_hull_coords()
    for profile in cert.profiles:
        facet = profile.facet
        slacks = [dot(facet.lattice_normal, z) - facet.lattice_offset for z in coords]
        levels = sorted({s for s in slacks if s > 0})
        assert list(profile.levels) == levels
        assert list(profile.witnesses) == [pts[slacks.index(m)] for m in levels]
        assert facet_levels(poly, facet) == profile


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_polytopes() | small_polytopes(side=2))
def test_profiles_match_a_recount_by_dot_products(poly):
    # the scan path, and the generator-slack path on the same points
    assert_profiles_match_recount(poly)
    again = LatticePolytope(poly.lattice_points(), lattice=poly.lattice)
    assert again.lattice_points() == again.generators
    assert_profiles_match_recount(again)


@pytest.mark.parametrize("r, width", [
    (2**7 - 1, 1), (2**7, 2), (2**15 - 1, 2), (2**15, 4), (2**31 - 1, 4), (2**31, 8),
    (2**63 - 1, 8), (2**63, 9), (2**64, 9), (2**75, 10),
])
def test_profiles_match_a_recount_at_every_field_width(r, width):
    # (1, 0, 0) is a lattice point but not a generator, so the slacks come
    # from the packed columns; the largest slack is 2r, at (2, 0, 0) over
    # the facet through the origin, (0, 1, 0) and (1, 1, r), so the cases
    # sit on both sides of each field width
    poly = LatticePolytope([(0, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, r)],
                           lattice=standard_lattice(3))
    assert len(poly.lattice_points()) == 5
    assert _columns(poly)[-1] == width
    assert_profiles_match_recount(poly)


@pytest.mark.parametrize("n, width", [(126, 1), (127, 2)])
def test_the_column_span_also_sets_the_field_width(n, width):
    # every slack is at most 2, but the first column spans 2n + 2
    poly = LatticePolytope([(0, 0), (2 * n, 2), (2 * n + 2, 2)], lattice=standard_lattice(2))
    assert len(poly.lattice_points()) == 6
    assert _columns(poly)[-1] == width
    assert_profiles_match_recount(poly)


def test_compressed_implies_every_lattice_point_is_vertex():
    for poly in (CUBE3, birkhoff(3), LatticePolytope([(0, 0), (2, 0), (0, 2)])):
        cert = is_compressed(poly)
        if cert.verdict:
            assert set(poly.lattice_points()) == set(poly.vertices())


def test_cube_embedding_square_is_a_square_cube_section():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    emb, image = cube_embedding(square)
    # one 0/1 coordinate per facet: each original coordinate shows up as
    # itself and its complement, so the image is C2 up to lattice isomorphism
    assert image.ambient_dim == 4
    assert image.dim == 2
    assert len(image.generators) == 4
    for p in square.lattice_points():
        q = emb.apply(p)
        assert sorted(q) == sorted([p[0], p[1], 1 - p[0], 1 - p[1]])
    assert verify_cube_section(image)


def test_cube_embedding_birkhoff_b3():
    poly = birkhoff(3)
    emb, image = cube_embedding(poly)
    assert len(image.generators) == 6
    assert image.ambient_dim == 9
    assert all(x in (0, 1) for p in image.generators for x in p)
    assert verify_cube_section(image)


def test_cube_embedding_dilated_triangle_in_own_lattice():
    poly = LatticePolytope([(0, 0), (2, 0), (0, 2)])
    emb, image = cube_embedding(poly)
    assert all(x in (0, 1) for p in image.generators for x in p)
    assert verify_cube_section(image)


def test_cube_embedding_refused_on_noncompressed():
    with pytest.raises(ValueError):
        cube_embedding(SEGMENT_02_Z)


def test_cube_embedding_is_lattice_bijection():
    for poly in (CUBE3, birkhoff(3), LatticePolytope([(0, 0), (2, 0), (0, 2)])):
        emb, image = cube_embedding(poly)
        images = [emb.apply(p) for p in poly.lattice_points()]
        assert len(set(images)) == len(images)
        assert set(images) == set(image.lattice_points())


def test_verify_cube_section_c2():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert verify_cube_section(square)


def test_verify_cube_section_diagonal():
    diag = LatticePolytope([(0, 0), (1, 1)])
    assert verify_cube_section(diag)


def test_verify_cube_section_rejects_partial_section():
    # the affine hull of a 2-point subset of a triangle's vertices picks up
    # a third 0/1 point of the hull plane; leaving it out must fail
    tri = LatticePolytope([(0, 0, 1), (0, 1, 0)])
    assert verify_cube_section(tri)
    plane = LatticePolytope([(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert verify_cube_section(plane)
    # non-0/1 vertices fail immediately
    assert not verify_cube_section(LatticePolytope([(0, 0), (2, 0)]))


def test_zero_one_points_of_affine_hull_birkhoff_image():
    poly = birkhoff(3)
    _, image = cube_embedding(poly)
    pts = zero_one_points_of_affine_hull(image)
    assert len(pts) == 6
    assert set(pts) == set(image.generators)


def test_compressed_iff_embedding_round_trip_on_corpus():
    corpus = [
        CUBE3,
        LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)]),
        birkhoff(3),
        LatticePolytope([(0, 0), (2, 0), (0, 2)]),
        cut_polytope_raw(3, [(1, 2), (1, 3), (2, 3)]),
    ]
    for poly in corpus:
        cert = is_compressed(poly)
        if cert.verdict:
            _, image = cube_embedding(poly)
            assert verify_cube_section(image)
