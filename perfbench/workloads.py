"""Seeded inputs and per-pass operation lists of the four benchmark workloads.

Inputs are built here in plain Python, never through polycomp, so the program
under test receives only the generated JSON files.  A seeded family draws its
members from a fixed pool of ``POOL`` instances, and the recorded outputs in
``golden.json`` cover every pool member; the seed picks which members a run
uses.  Fixed instances (the named models of each workload)
appear in every run.

An operation is one CLI subcommand (``Op.command``) or, where polycomp has no
subcommand for it, one public library call (``lib:<function>``).  Probes are
operations with a known defect at the time the benchmark was written; they
run apart from the timed passes and are judged by the CLI contract instead of
a recorded output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

POOL = 32


@dataclass(frozen=True)
class Op:
    key: str  # names the input, not the seed: the golden.json key
    command: str  # CLI subcommand, or "lib:<function>"
    flag: str  # option that names the input file
    payload: object  # JSON document written to the input file; a str is written as is
    args: tuple = ()  # further CLI arguments, or the library call's extra ones


@dataclass(frozen=True)
class Probe:
    op: Op
    expect: object  # "error": exit 2 with a one-line message; else (exit, field, value)
    time_limit: float


# -- generators ----------------------------------------------------------------


def marginal_matrix(facets, d):
    """0/1 matrix of the hierarchical model: rows (facet, margin cell), columns cells."""
    cells = list(product(*[range(x) for x in d]))
    rows = []
    for facet in facets:
        axes = [v - 1 for v in facet]
        for margin in product(*[range(d[a]) for a in axes]):
            rows.append([1 if tuple(c[a] for a in axes) == margin else 0 for c in cells])
    return rows


def columns_polytope(matrix):
    return {"points": [list(col) for col in zip(*matrix)], "lattice": "auto"}


def boundary_facets(n):
    return [list(f) for f in combinations(range(1, n + 1), n - 1)]


def cycle_edges(n):
    return [[i, i % n + 1] for i in range(1, n + 1)]


def cut_polytope(n, edges):
    """Cut vectors of a graph on 1..n in the ambient lattice Z^E."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    pts = set()
    for mask in range(2 ** (n - 1)):
        side = {v for v in range(2, n + 1) if mask >> (v - 2) & 1}
        pts.add(tuple(int((i in side) != (j in side)) for i, j in edges))
    return {"points": [list(p) for p in sorted(pts)], "lattice": "ambient"}


def complete_edges(n):
    return [list(e) for e in combinations(range(1, n + 1), 2)]


def birkhoff(n):
    pts = []
    for perm in permutations(range(n)):
        mat = [0] * (n * n)
        for i, j in enumerate(perm):
            mat[i * n + j] = 1
        pts.append(mat)
    return {"points": pts, "lattice": "auto"}


def grid_graph(rows, cols):
    def idx(i, j):
        return i * cols + j + 1

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append([idx(i, j), idx(i, j + 1)])
            if i + 1 < rows:
                edges.append([idx(i, j), idx(i + 1, j)])
    return {"n": rows * cols, "edges": edges}


def wheel_graph(spokes):
    hub = spokes + 1
    return {"n": hub, "edges": cycle_edges(spokes) + [[v, hub] for v in range(1, hub)]}


def graphs_on_four_vertices():
    """One labelled graph per isomorphism class on 4 vertices with at least one
    edge, named by the edge mask over the lexicographic vertex pairs."""
    pairs = [tuple(e) for e in complete_edges(4)]
    seen = set()
    for mask in range(1, 64):
        edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
        canon = min(
            tuple(sorted(tuple(sorted((p[i - 1], p[j - 1]))) for i, j in edges))
            for p in permutations(range(1, 5))
        )
        if canon not in seen:
            seen.add(canon)
            yield mask, [list(e) for e in edges]


def random_polytope(dim, index):
    """A jittered cross-polytope of dimension 4 or 5 in a box of side <= 16:
    1,000-5,000 lattice points but only 10-12 generators, so the lattice
    scan and the level profiles do the work, not facet enumeration."""
    rng = random.Random(f"randpoly{dim}/{index}")
    radii = (6, 8) if dim == 4 else (5, 7)
    center = [8] * dim
    pts = set()
    for axis in range(dim):
        for sign in (1, -1):
            p = [c + rng.randint(-1, 1) for c in center]
            p[axis] = center[axis] + sign * rng.randint(*radii)
            pts.add(tuple(p))
    for _ in range(2):
        pts.add(tuple(c + rng.randint(-3, 3) for c in center))
    return {"points": [list(p) for p in sorted(pts)], "lattice": "ambient"}


def random_order(label, index, size):
    order = list(range(size))
    random.Random(f"{label}/{index}").shuffle(order)
    return ",".join(map(str, order))


def random_graph(index, relabel=None):
    """Pool graph ``index``, its vertices renamed by a permutation drawn from
    ``relabel`` when given.  cut-classify's output is invariant under the
    renaming, so one recorded output covers every seed, while the order in
    which the minor search meets the vertices changes."""
    rng = random.Random(f"graph/{index}")
    n = rng.randint(6, 10)
    p = rng.uniform(0.35, 0.75)
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    name = list(range(n + 1))
    if relabel is not None:
        name[1:] = relabel.sample(range(1, n + 1), n)
    return {"n": n, "edges": [sorted((name[i], name[j])) for i, j in edges]}


def random_model(index):
    """A hierarchical model built to reach one outcome of the cascade: each
    of its six rules, or no rule at all."""
    rng = random.Random(f"model/{index}")
    rule = index % 7
    if rule == 0:  # decomposable: a chain of overlapping simplices
        n = rng.randint(3, 6)
        facets = [[v, v + 1] for v in range(1, n)]
        d = [rng.randint(2, 4) for _ in range(n)]
    elif rule == 1:  # reducible: two triangle boundaries glued at vertex 3
        n = 5
        facets = [[1, 2], [1, 3], [2, 3], [3, 4], [3, 5], [4, 5]]
        d = [2, 2, rng.randint(2, 5), 2, 2]
    elif rule == 2:  # cone over a triangle boundary
        n = 4
        facets = [[1, 2, 4], [1, 3, 4], [2, 3, 4]]
        d = [rng.randint(2, 4) for _ in range(4)]
    elif rule == 3:  # boundary of a simplex
        n = rng.randint(3, 5)
        facets = boundary_facets(n)
        d = [rng.randint(2, 5) for _ in range(n)]
    elif rule == 4:  # binary graph model on a cycle with a random chord
        n = rng.randint(5, 8)
        facets = cycle_edges(n)
        if rng.random() < 0.5:
            facets.append([1, rng.randint(3, n - 1)])
        d = [2] * n
    elif rule == 5:  # the certifier fallback: a 4-cycle with one ternary table
        n = 4
        facets = cycle_edges(4)
        d = [2, 2, 2, 2]
        d[rng.randrange(4)] = 3
    else:  # no rule decides: a 4-cycle whose table exceeds the certifier's cap
        n = 4
        facets = cycle_edges(4)
        d = [rng.randint(5, 6) for _ in range(4)]
    return {"n": n, "facets": facets, "d": d}


def random_rhs(label, matrix, index):
    """A right-hand side that is a sum of 2-4 columns, and a 1-based cell."""
    rng = random.Random(f"{label}/{index}")
    cols = list(zip(*matrix))
    rhs = [0] * len(matrix)
    for _ in range(rng.randint(2, 4)):
        rhs = [r + c for r, c in zip(rhs, rng.choice(cols))]
    return ",".join(map(str, rhs)), str(rng.randint(1, len(cols)))


# -- workloads ------------------------------------------------------------------

EXAMPLE = [[1, 1, 1, 1, 1], [0, 0, 1, 2, 3], [1, 0, 0, 0, 0]]
SEGMENT = [[1, 1, 1], [0, 1, 2]]
C5_BINARY = marginal_matrix(cycle_edges(5), [2] * 5)
BD333 = marginal_matrix(boundary_facets(3), [3, 3, 3])
PATH222 = marginal_matrix([[1, 2], [2, 3]], [2, 2, 2])
K5_POINTS = 16  # lattice points of Cut(K5)

# how many members of each seeded family one pass uses
PER_PASS = {
    "randpoly4": 3,
    "order-k5": 1,
    "rhs-c5": 6,
    "rhs-bd333": 6,
    "graph": POOL,  # all of them, each relabelled by the seed
    "model": 12,
}


def family_op(family, index, rng=None):
    """Pool member ``index`` of a seeded family, as an operation; ``rng``
    relabels the graphs of the ``graph`` family."""
    if family == "randpoly4":
        return Op(f"certify/randpoly4-{index}", "certify", "--polytope",
                  random_polytope(4, index))
    if family == "order-k5":
        order = random_order("order-k5", index, K5_POINTS)
        return Op(f"triangulate/k5-{index}", "triangulate", "--polytope",
                  cut_polytope(5, complete_edges(5)), ("--order", order))
    if family == "rhs-c5":
        b, cell = random_rhs("rhs-c5", C5_BINARY, index)
        return Op(f"bounds/c5-{index}", "bounds", "--matrix", {"matrix": C5_BINARY},
                  ("--b", b, "--cell", cell))
    if family == "rhs-bd333":
        b, cell = random_rhs("rhs-bd333", BD333, index)
        return Op(f"bounds/bd333-{index}", "bounds", "--matrix", {"matrix": BD333},
                  ("--b", b, "--cell", cell))
    if family == "graph":
        return Op(f"cut-classify/graph-{index}", "cut-classify", "--graph",
                  random_graph(index, rng))
    if family == "model":
        return Op(f"margin-classify/model-{index}", "margin-classify", "--model",
                  random_model(index))
    raise ValueError(f"unknown family {family!r}")


def fixed_ops(workload):
    if workload == "certify":
        models = [
            ("bd333", boundary_facets(3), [3, 3, 3]),
            ("bd334", boundary_facets(3), [3, 3, 4]),
            ("bd235", boundary_facets(3), [2, 3, 5]),
            ("c4-2333", cycle_edges(4), [2, 3, 3, 3]),
        ]
        ops = [Op(f"certify/{name}", "certify", "--polytope",
                  columns_polytope(marginal_matrix(facets, d)))
               for name, facets, d in models]
        ops.append(Op("certify/cut-k6", "certify", "--polytope",
                      cut_polytope(6, complete_edges(6))))
        ops.append(Op("certify/b4", "certify", "--polytope", birkhoff(4)))
        # one dimension-5 polytope in every pass: its profile output is the
        # largest of the workload and sets the pass's peak memory, which a
        # seeded draw would make vary from seed to seed
        ops.append(Op("certify/randpoly5-0", "certify", "--polytope", random_polytope(5, 0)))
        return ops
    if workload == "triangulate":
        return [Op("shortcut/b4", "lib:transitive_symmetry_shortcut", "--polytope", birkhoff(4))]
    if workload == "sweep":
        return [
            Op("sweep/path222-b3", "sweep", "--matrix", {"matrix": PATH222}, ("--budget", "3")),
            Op("sweep/example-c1-b5", "sweep", "--matrix", {"matrix": EXAMPLE},
               ("--cells", "1", "--budget", "5")),
            Op("gap-witness/segment", "gap-witness", "--matrix", {"matrix": SEGMENT}),
            Op("gap-witness/c5", "gap-witness", "--matrix", {"matrix": C5_BINARY}),
        ]
    if workload == "classify":
        graphs = [("grid-2x5", grid_graph(2, 5)), ("grid-3x3", grid_graph(3, 3)),
                  ("wheel-7", wheel_graph(7)), ("wheel-8", wheel_graph(8))]
        ops = [Op(f"cut-classify/{name}", "cut-classify", "--graph", g) for name, g in graphs]
        ops += [Op(f"all-pulling/cut4-{name}", "lib:all_pulling_unimodular", "--graph",
                   {"n": 4, "edges": edges}) for name, edges in graphs_on_four_vertices()]
        ops += [Op(f"pull-first/example-{i}", "lib:pull_first_unimodular", "--matrix",
                   {"matrix": EXAMPLE}, (i,)) for i in range(5)]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


FAMILIES = {
    "certify": ("randpoly4",),
    "triangulate": ("order-k5",),
    "sweep": ("rhs-c5", "rhs-bd333"),
    "classify": ("graph", "model"),
}
WORKLOADS = tuple(FAMILIES)


def pass_ops(workload, seed):
    """The operations of one pass: the fixed instances, then the pool
    members the seed draws.  Every pass of a run is the same."""
    rng = random.Random(f"{workload}/{seed}")
    ops = list(fixed_ops(workload))
    for family in FAMILIES[workload]:
        picks = rng.sample(range(POOL), PER_PASS[family])
        ops += [family_op(family, i, rng) for i in picks]
    return ops


def probes(workload):
    """Operations that break the CLI contract at the time of writing."""
    if workload == "certify":
        # a unit square translated by 4301-digit JSON integers, written as
        # text because this interpreter's own int-string limit is 4300 digits
        low, high = "7" * 4301, "7" * 4300 + "8"
        square = ", ".join(f"[{x}, {y}]" for x in (low, high) for y in (low, high))
        op = Op("probe/huge-square", "certify", "--polytope",
                '{"points": [' + square + '], "lattice": "auto"}')
        return [Probe(op, (0, "verdict", True), 10.0)]
    if workload == "sweep":
        op = Op("probe/sweep-negative-budget", "sweep", "--matrix", {"matrix": EXAMPLE},
                ("--budget", "-1"))
        return [Probe(op, "error", 10.0)]
    if workload == "classify":
        return [
            Probe(Op("probe/grid-3x4", "cut-classify", "--graph", grid_graph(3, 4)),
                  (1, "compressed", False), 2.0),
            Probe(Op("probe/model-d1", "margin-classify", "--model",
                     {"n": 2, "facets": [[1, 2]], "d": [1, 3]}), "error", 10.0),
        ]
    return []


def all_pool_ops(workload):
    """Every operation a run of the workload can perform, for recording."""
    ops = list(fixed_ops(workload))
    for family in FAMILIES[workload]:
        ops += [family_op(family, i) for i in range(POOL)]
    return ops
