"""Hierarchical-model marginal matrices and compressedness classification.

A model is a simplicial complex on table axes plus a size vector d: each
inclusion-maximal face names a released margin of a d_1 x ... x d_n table.
The marginal matrix A maps a table (one column per cell) to the stacked
margins; the marginal polytope is the hull of A's columns.

Classification runs a cascade of closed-form rules before falling back to
the generic facet-level certifier: decomposable and reducible complexes are
compressed by gluing, cones inherit from their base, boundaries of simplices
and binary graph models have complete characterizations, and the verdict
always names the rule that produced it.  "unknown" is a legitimate outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from operator import index

from .compressed import is_compressed
from .cutpoly import Graph, cut_polytope, cut_vectors, has_minor, max_induced_cycle
from .linalg import rref, solve_fraction_free
from .polytope import LatticePolytope

DEFAULT_COLUMN_CAP = 512


@dataclass(frozen=True)
class SimplicialComplex:
    """Inclusion-maximal faces of a complex on ground set 1..n."""

    n: int
    facets: tuple

    def __post_init__(self):
        clean = sorted({tuple(sorted(set(f))) for f in self.facets})
        if not clean:
            raise ValueError("a complex needs at least one facet")
        for f in clean:
            if not f:
                raise ValueError("empty facets are not allowed")
            if f[0] < 1 or f[-1] > self.n:
                raise ValueError(f"facet {f} leaves the ground set")
        for a, b in combinations(clean, 2):
            if set(a) <= set(b) or set(b) <= set(a):
                raise ValueError("facets must be pairwise incomparable")
        covered = set(chain.from_iterable(clean))
        if covered != set(range(1, self.n + 1)):
            raise ValueError("every ground-set element must lie in some facet")
        object.__setattr__(self, "facets", tuple(clean))

    def faces(self):
        """All faces (subsets of facets), the empty face included."""
        out = set()
        for f in self.facets:
            for r in range(len(f) + 1):
                out.update(combinations(f, r))
        return sorted(out, key=lambda s: (len(s), s))

    def is_simplex(self):
        return len(self.facets) == 1


def graph_complex(graph):
    """The complex of a graph: edges plus singletons for isolated vertices."""
    facets = list(graph.edges)
    seen = set(chain.from_iterable(graph.edges))
    facets += [(v,) for v in range(1, graph.n + 1) if v not in seen]
    return SimplicialComplex(graph.n, tuple(facets))


def boundary_of_simplex(n):
    """All (n-1)-subsets of [n]."""
    return SimplicialComplex(n, tuple(combinations(range(1, n + 1), n - 1)))


def induced_subcomplex(complex_, vertices):
    """Faces inside the vertex set, relabeled to 1..|W| in increasing order."""
    keep = sorted(set(vertices))
    if not keep:
        raise ValueError("induced subcomplex needs vertices")
    relabel = {v: k + 1 for k, v in enumerate(keep)}
    pieces = [tuple(relabel[v] for v in f if v in relabel) for f in complex_.facets]
    pieces = [p for p in pieces if p]
    maximal = [
        p for p in pieces if not any(set(p) < set(q) for q in pieces)
    ]
    return SimplicialComplex(len(keep), tuple(maximal))


@dataclass(frozen=True)
class MarginalModel:
    """A complex, table sizes, and the 0/1 matrix taking tables to margins."""

    complex: SimplicialComplex
    d: tuple
    matrix: tuple
    rows: tuple  # (facet, margin cell) per matrix row
    cells: tuple  # full table cell per matrix column

    @property
    def column_count(self):
        return len(self.cells)

    def columns(self):
        m = self.matrix
        return [tuple(m[i][j] for i in range(len(m))) for j in range(len(self.cells))]


def marginal_matrix(complex_, d):
    """Build the marginal model for a complex and table-size vector.

    Rows are indexed by (facet, margin cell) and columns by table cells, both
    in lexicographic order; the column of a cell has a single 1 in each
    facet's block, at the row whose margin cell agrees with it.
    """
    d = tuple(map(index, d))
    if len(d) != complex_.n:
        raise ValueError("d must assign a size to every ground-set element")
    if any(x < 1 for x in d):
        raise ValueError("table sizes must be positive")
    cells = list(product(*[range(x) for x in d]))
    rows = []
    matrix = []
    for facet in complex_.facets:
        axes = [v - 1 for v in facet]
        for margin_cell in product(*[range(d[a]) for a in axes]):
            rows.append((facet, margin_cell))
            row = [
                1 if tuple(cell[a] for a in axes) == margin_cell else 0
                for cell in cells
            ]
            matrix.append(tuple(row))
    return MarginalModel(
        complex=complex_,
        d=d,
        matrix=tuple(matrix),
        rows=tuple(rows),
        cells=tuple(cells),
    )


def marginal_polytope(model):
    """Hull of the marginal matrix columns (they are exactly its vertices)."""
    return LatticePolytope(model.columns())


# -- reducibility -----------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    separator: tuple
    part1_vertices: tuple
    part2_vertices: tuple
    part1: SimplicialComplex
    part2: SimplicialComplex


def _component_split(complex_, separator):
    """Components of the facets not inside the separator, sharing off-separator
    vertices; fewer than two components means the separator does not split."""
    s = set(separator)
    rest = [f for f in complex_.facets if not set(f) <= s]
    comps = []
    for f in rest:
        hot = set(f) - s
        merged = [c for c in comps if c & hot]
        if merged:
            new = set().union(*merged) | set(f)
            comps = [c for c in comps if not (c & hot)] + [new]
        else:
            comps.append(set(f))
    return comps


def decompositions(complex_):
    """All proper decompositions (separator face, vertex split)."""
    out = []
    for sep in complex_.faces():
        comps = _component_split(complex_, sep)
        if len(comps) < 2:
            continue
        for mask in range(1, 2 ** len(comps) - 1):
            if not mask & 1:
                continue  # fix the first component on the left: kills mirrors
            left = set(sep)
            right = set(sep)
            for k, comp in enumerate(comps):
                (left if mask >> k & 1 else right).update(comp)
            out.append(
                Decomposition(
                    separator=tuple(sep),
                    part1_vertices=tuple(sorted(left)),
                    part2_vertices=tuple(sorted(right)),
                    part1=induced_subcomplex(complex_, left),
                    part2=induced_subcomplex(complex_, right),
                )
            )
    return out


def is_reducible(complex_):
    """First proper decomposition (Δ1, S, Δ2) with Δ1 ∩ Δ2 = 2^S, or None."""
    decs = decompositions(complex_)
    return decs[0] if decs else None


def is_decomposable(complex_, _memo=None):
    """Recursively reducible down to simplices."""
    if _memo is None:
        _memo = {}
    key = (complex_.n, complex_.facets)
    if key in _memo:
        return _memo[key]
    if complex_.is_simplex():
        _memo[key] = True
        return True
    result = False
    for dec in decompositions(complex_):
        if is_decomposable(dec.part1, _memo) and is_decomposable(dec.part2, _memo):
            result = True
            break
    _memo[key] = result
    return result


# -- closed-form classifiers --------------------------------------------------


def boundary_simplex_classifier(n, d):
    """Compressedness of the boundary-of-a-simplex model, in closed form."""
    d = tuple(map(index, d))
    if n < 3 or len(d) != n:
        raise ValueError("the boundary model needs n >= 3 sizes")
    if sum(1 for x in d if x > 2) <= 2:
        return True
    s = sorted(d)
    return n == 3 and s[0] == 3 and s[1] == 3


def is_graph_complex(complex_):
    return all(len(f) <= 2 for f in complex_.facets)


def complex_graph(complex_):
    """The graph with the complex's 1-dimensional facets as edges."""
    if not is_graph_complex(complex_):
        raise ValueError("the complex is not a graph (a facet has 3+ vertices)")
    edges = tuple(f for f in complex_.facets if len(f) == 2)
    return Graph(complex_.n, edges)


def tilde_graph(complex_):
    """Append an apex vertex n+1 joined to every node of a graph complex."""
    g = complex_graph(complex_)
    apex = g.n + 1
    edges = g.edges + tuple((v, apex) for v in range(1, g.n + 1))
    return Graph(apex, edges)


def binary_graph_classifier(complex_):
    """Compressedness of a binary graph model: no K4 minor, induced cycles <= 4."""
    g = complex_graph(complex_)
    return not has_minor(g, "K4") and max_induced_cycle(g) <= 4


def covariance_check(complex_, d=None):
    """Verify the affine bijection between a binary graph model's polytope and
    the cut polytope of its apexed graph.

    Matches vertex counts and dimensions, then solves for the affine map from
    a spanning frame of vertex correspondences (cell <-> the cut of its
    support) and verifies it on every vertex pair.
    """
    complex_graph(complex_)  # reject non-graph complexes before building anything
    if d is None:
        d = (2,) * complex_.n
    if any(x != 2 for x in d):
        raise ValueError("the covariance map needs binary table sizes")
    model = marginal_matrix(complex_, d)
    margin_poly = marginal_polytope(model)
    tilde = tilde_graph(complex_)
    cut_poly = cut_polytope(tilde)
    if len(margin_poly.generators) != 2 ** complex_.n:
        return False
    if len(cut_poly.generators) != 2 ** complex_.n:
        return False
    if margin_poly.dim != cut_poly.dim:
        return False

    pairs = []
    cut_index = {cv.subset: cv.coords for cv in cut_vectors(tilde)}
    for cell, col in zip(model.cells, model.columns()):
        support = frozenset(v + 1 for v, bit in enumerate(cell) if bit)
        cut = cut_index.get(support)
        if cut is None:
            cut = cut_index[frozenset(range(1, tilde.n + 1)) - support]
        pairs.append((cut, col))

    # solve an affine map cut -> column from an affinely spanning frame: the
    # first independent (1, cut) rows are the pivot columns of one elimination
    _, pivots, _ = rref(list(zip(*((1,) + cut for cut, _ in pairs))))
    rows = [(1,) + pairs[c][0] for c in pivots]
    solved = solve_fraction_free(rows, [pairs[c][1] for c in pivots])
    if solved is None:
        return False
    x, d = solved
    for cut, col in pairs:
        vec = (1,) + cut
        for j in range(len(col)):
            if sum(x[k][j] * vec[k] for k in range(len(vec))) != d * col[j]:
                return False
    return True


def cone_model(complex_, d, apex_size):
    """Model of the cone: every facet gains a fresh apex vertex of given size."""
    if apex_size < 1:
        raise ValueError("the apex axis needs a positive size")
    apex = complex_.n + 1
    facets = tuple(f + (apex,) for f in complex_.facets)
    cone = SimplicialComplex(apex, facets)
    return marginal_matrix(cone, tuple(d) + (apex_size,))


def cone_apexes(complex_):
    """Vertices contained in every facet."""
    common = set(complex_.facets[0])
    for f in complex_.facets[1:]:
        common &= set(f)
    return sorted(common)


# -- classification cascade ---------------------------------------------------


@dataclass(frozen=True)
class MarginVerdict:
    verdict: str  # "true" | "false" | "unknown"
    rule: str


def margins_compressed(complex_, d):
    """Classify whether the marginal polytope of (complex, d) is compressed.

    Decision cascade, in order: decomposable; reducible with both parts true;
    cone over a classified base (inherits either way); boundary of a simplex;
    binary graph; generic certifier on at most ``DEFAULT_COLUMN_CAP`` cells.
    The returned rule is the first that decided.
    """
    d = tuple(map(index, d))
    if len(d) != complex_.n or any(x < 2 for x in d):
        raise ValueError("d must assign a size >= 2 to every vertex")

    if is_decomposable(complex_):
        return MarginVerdict("true", "decomposable")

    for dec in decompositions(complex_):
        d1 = tuple(d[v - 1] for v in dec.part1_vertices)
        d2 = tuple(d[v - 1] for v in dec.part2_vertices)
        c1 = margins_compressed(dec.part1, d1)
        if c1.verdict != "true":
            continue
        c2 = margins_compressed(dec.part2, d2)
        if c2.verdict == "true":
            return MarginVerdict("true", "reducible")

    apexes = cone_apexes(complex_)
    if apexes and complex_.n > 1:
        v = apexes[0]
        base_vertices = [u for u in range(1, complex_.n + 1) if u != v]
        base = induced_subcomplex(complex_, base_vertices)
        base_d = tuple(d[u - 1] for u in base_vertices)
        sub = margins_compressed(base, base_d)
        if sub.verdict in ("true", "false"):
            return MarginVerdict(sub.verdict, f"cone({sub.rule})")

    if complex_.n >= 3 and complex_.facets == boundary_of_simplex(complex_.n).facets:
        ok = boundary_simplex_classifier(complex_.n, d)
        return MarginVerdict("true" if ok else "false", "boundary-of-simplex")

    if is_graph_complex(complex_) and all(x == 2 for x in d):
        ok = binary_graph_classifier(complex_)
        return MarginVerdict("true" if ok else "false", "binary-graph")

    columns = 1
    for x in d:
        columns *= x
    if columns <= DEFAULT_COLUMN_CAP:
        model = marginal_matrix(complex_, d)
        cert = is_compressed(marginal_polytope(model))
        return MarginVerdict("true" if cert.verdict else "false", "certifier")

    return MarginVerdict("unknown", "no closed-form rule; columns exceed cap")
