"""Acceptance suite: every criterion exact, timed against its stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All value checks are exact (rational arithmetic); the only
tolerances are the runtime ceilings.
"""

import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations, product

from polycomp.bounds import gap_witness, lp_ip_equal_all, pull_first_unimodular
from polycomp.compressed import cube_embedding, is_compressed, verify_cube_section
from polycomp.cutpoly import (
    Graph,
    complete_graph,
    cut_compressed,
    cut_polytope,
    cut_semimetric,
    cycle_facet_levels,
    cycle_graph,
    path_graph,
)
from polycomp.margins import (
    SimplicialComplex,
    boundary_of_simplex,
    boundary_simplex_classifier,
    covariance_check,
    graph_complex,
    marginal_matrix,
    marginal_polytope,
)
from polycomp.polytope import LatticePolytope
from polycomp.triangulate import all_pulling_unimodular

from conftest import birkhoff


class criterion:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, number, limit_seconds, label):
        self.number = number
        self.limit = limit_seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:>2} {status}  {self.label}  [{elapsed:.1f}s]")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.1f}s)"
            )
        return False


def connected_graphs_up_to_iso(n):
    """All connected simple graphs on exactly n vertices, one per iso class."""
    slots = list(combinations(range(1, n + 1), 2))
    perms = list(permutations(range(1, n + 1)))
    seen = set()
    out = []
    for mask in range(2 ** len(slots)):
        edges = tuple(e for k, e in enumerate(slots) if mask >> k & 1)
        g = Graph(n, edges)
        adj = g.adjacency()
        stack, reached = [1], {1}
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != n:
            continue
        canon = min(
            tuple(sorted((min(p[a - 1], p[b - 1]), max(p[a - 1], p[b - 1])) for a, b in edges))
            for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(g)
    return out


def all_graphs_up_to_iso(n):
    slots = list(combinations(range(1, n + 1), 2))
    perms = list(permutations(range(1, n + 1)))
    seen = set()
    out = []
    for mask in range(2 ** len(slots)):
        edges = tuple(e for k, e in enumerate(slots) if mask >> k & 1)
        canon = min(
            tuple(sorted((min(p[a - 1], p[b - 1]), max(p[a - 1], p[b - 1])) for a, b in edges))
            for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(Graph(n, edges))
    return out


def test_criterion_1_pentagonal_facet_values():
    with criterion(1, 10, "pentagonal facet values and Cut(K5) profile"):
        k5 = complete_graph(5)
        b = {1: 1, 2: 1, 3: 1, 4: -1, 5: -1}

        def form(subset):
            cv = cut_semimetric(k5, subset)
            return sum(b[i] * b[j] * x for (i, j), x in zip(k5.edges, cv.coords))

        assert form({1, 2, 3}) == -6
        assert form({1, 2}) == -2
        cert = is_compressed(cut_polytope(k5))
        assert cert.verdict is False
        assert any(len(p.levels) >= 2 for p in cert.profiles)


def test_criterion_2_oracle_equivalence_small_graphs():
    with criterion(2, 600, "classifier vs pulling oracle vs certifier, <=5 vertices"):
        counts = {}
        for n in range(2, 6):
            graphs = connected_graphs_up_to_iso(n)
            counts[n] = len(graphs)
            for g in graphs:
                poly = cut_polytope(g)
                classifier = cut_compressed(g)
                certifier = is_compressed(poly).verdict
                oracle = all_pulling_unimodular(poly)
                assert classifier == certifier == oracle, (g, classifier, certifier, oracle)
        assert counts == {2: 1, 3: 2, 4: 6, 5: 21}


def test_criterion_3_cycle_level_counts():
    with criterion(3, 60, "cycle-inequality level counts, even exact / odd flagged"):
        for c in (4, 6, 8):
            rep = cycle_facet_levels(c, [(1, 2)])
            assert len(rep.levels) == c // 2 - 1
            assert rep.matches_stated_count
        for c in (3, 5, 7):
            rep = cycle_facet_levels(c, [(1, 2)])
            assert len(rep.levels) == (c + 1) // 2 - 1
            assert not rep.matches_stated_count
            assert cut_compressed(cycle_graph(c)) == (c <= 4)
        for c in (4, 6, 8):
            assert cut_compressed(cycle_graph(c)) == (c <= 4)


def test_criterion_4_birkhoff_condition_two():
    with criterion(4, 300, "Birkhoff B3 and B4 certified via facet levels"):
        for n, vertices in ((3, 6), (4, 24)):
            poly = birkhoff(n)
            assert len(poly.lattice_points()) == vertices
            cert = is_compressed(poly)
            assert cert.verdict is True
            assert all(len(p.levels) == 1 for p in cert.profiles)


def test_criterion_5_boundary_of_simplex_table():
    with criterion(5, 600, "boundary-of-simplex classifier vs brute certifier"):
        cases = [
            (3, (3, 3, 3), True),
            (3, (3, 3, 5), True),
            (3, (2, 2, 2), True),
            (3, (2, 2, 3), True),
            (3, (2, 2, 4), True),
            (3, (3, 4, 4), False),
            (4, (2, 3, 3, 3), False),
        ]
        for n, d, expected in cases:
            assert boundary_simplex_classifier(n, d) == expected, (n, d)
            columns = 1
            for x in d:
                columns *= x
            if columns > 200:
                continue  # criterion allows skipping brute force above 200 columns
            model = marginal_matrix(boundary_of_simplex(n), d)
            cert = is_compressed(marginal_polytope(model))
            assert cert.verdict == expected, (n, d, cert.verdict)


EXAMPLE_MATRIX = [[1, 1, 1, 1, 1], [0, 0, 1, 2, 3], [1, 0, 0, 0, 0]]


def test_criterion_6_example_matrix():
    with criterion(6, 60, "no unimodular pulling, yet first cell LP=IP on sweep"):
        for i in range(5):
            assert pull_first_unimodular(EXAMPLE_MATRIX, i) is False
        sweep = lp_ip_equal_all(EXAMPLE_MATRIX, budget=5, cells=[0])
        assert sweep.holds, sweep.counterexample


def test_criterion_7_lp_ip_both_directions():
    with criterion(7, 60, "decomposable margins LP=IP; segment gap witness 1/2 > 0"):
        path = SimplicialComplex(3, ((1, 2), (2, 3)))
        model = marginal_matrix(path, (2, 2, 2))
        sweep = lp_ip_equal_all([list(r) for r in model.matrix], budget=4)
        assert sweep.holds, sweep.counterexample
        witness = gap_witness([[1, 1, 1], [0, 1, 2]])
        assert witness is not None
        assert witness.rhs == (1, 1)
        assert witness.lp_value == Fraction(1, 2)
        assert witness.ip_value == 0


def test_criterion_8_covariance_map():
    with criterion(8, 60, "binary margins match apexed cut polytopes, <=4 nodes"):
        total = 0
        for n in range(1, 5):
            for g in all_graphs_up_to_iso(n):
                assert covariance_check(graph_complex(g)), g
                total += 1
        assert total == 1 + 2 + 4 + 11


def test_criterion_9_cube_embedding_round_trip():
    with criterion(9, 60, "cube embedding bijective and a full cube section"):
        corpus = [
            LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)]),
            LatticePolytope([tuple(bits) for bits in product((0, 1), repeat=3)]),
            LatticePolytope([(0,), (2,)]),
            LatticePolytope([(0, 0), (2, 0), (0, 2)]),
            birkhoff(3),
            birkhoff(4),
            cut_polytope(complete_graph(3)),
            cut_polytope(path_graph(3)),
            cut_polytope(cycle_graph(4)),
            cut_polytope(complete_graph(4)),
        ]
        for poly in corpus:
            cert = is_compressed(poly)
            assert cert.verdict, "corpus must be compressed"
            emb, image = cube_embedding(poly)
            images = [emb.apply(p) for p in poly.lattice_points()]
            assert len(set(images)) == len(images)
            assert set(images) == set(image.lattice_points())
            assert verify_cube_section(image)


def test_criterion_10_repro_determinism():
    with criterion(10, 600, "repro --all twice is byte-identical"):
        cmd = [sys.executable, "-m", "polycomp.cli", "repro", "--all"]
        first = subprocess.run(cmd, capture_output=True, timeout=240)
        second = subprocess.run(cmd, capture_output=True, timeout=240)
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip().endswith(b"checks passed")
