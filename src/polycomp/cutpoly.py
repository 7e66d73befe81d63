"""Cut polytopes of graphs and the compressed-cut-polytope classifier.

Cut vectors are 0/1 edge indicators of vertex bipartitions; their hull is the
cut polytope.  For graphs with no K5 minor the polytope is cut out by box
inequalities together with one inequality per (induced cycle, odd edge
subset), and whether the polytope is compressed reduces to two combinatorial
graph conditions: no K5 minor and no induced cycle longer than four.

``has_minor`` decides K4 and K5 minors from classical structure, and searches
only where the structure gives no answer:

- reduction: deleting vertices of degree <= 1 and suppressing vertices of
  degree 2 keeps a K_k minor for k >= 4 (the argument is in ``has_minor``);
- Dirac (1952): a graph of minimum degree >= 3 has a K4 minor, so the K4
  test is Duffin's series-parallel reduction;
- Mader (1968): a graph with n >= 5 vertices and m >= 3n - 5 edges has a
  K5 minor;
- Wagner (1937), with Kuratowski: a planar graph has no K5 minor.  Planarity
  is the path addition of Demoucron, Malgrange & Pertuiset (1964), run on
  each biconnected block.

What is left, a nonplanar block below Mader's bound, goes to a branch-set
search with a fixed node budget, which refuses with ``ValueError`` rather
than run without bound.  ``chordless_cycles`` and every graph routine here
use explicit stacks, so no recursion depth grows with the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import index

from .linalg import matrix_rank, standard_lattice, vsub
from .polytope import FacetIneq, LatticePolytope

DEFAULT_CUT_VERTEX_CAP = 7

_MINOR_ORDER = {"K4": 4, "K5": 5}

# nodes of the branch-set search on one nonplanar core, about 5 s of
# CPython 3.11; every search on the benchmark's graphs stops below 100,000
MINOR_SEARCH_BUDGET = 1_000_000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n with lexicographic edge order."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise ValueError("loops are not allowed")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge {e} leaves the vertex range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"multi-edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    def adjacency(self):
        adj = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def edge_index(self):
        return {e: k for k, e in enumerate(self.edges)}


def complete_graph(n):
    return Graph(n, tuple(combinations(range(1, n + 1), 2)))

def cycle_graph(n):
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph(n, tuple(edges))

def path_graph(n):
    return Graph(n, tuple((i, i + 1) for i in range(1, n)))


@dataclass(frozen=True)
class CutVector:
    """The 0/1 edge vector of a vertex subset: 1 on edges leaving the subset."""

    subset: frozenset
    coords: tuple


def cut_semimetric(graph, subset):
    s = frozenset(subset)
    for v in s:
        if not 1 <= v <= graph.n:
            raise ValueError(f"vertex {v} outside 1..{graph.n}")
    coords = tuple(1 if (i in s) != (j in s) else 0 for i, j in graph.edges)
    return CutVector(subset=s, coords=coords)


def cut_vectors(graph):
    """All distinct cut vectors, lex sorted (S and its complement coincide)."""
    seen = {}
    for mask in range(2 ** graph.n):
        s = frozenset(v for v in range(1, graph.n + 1) if mask >> (v - 1) & 1)
        cv = cut_semimetric(graph, s)
        if cv.coords not in seen:
            seen[cv.coords] = cv
    return [seen[c] for c in sorted(seen)]


def cut_polytope(graph):
    """Convex hull of the cut vectors, in the ambient edge lattice Z^E."""
    if graph.n > DEFAULT_CUT_VERTEX_CAP:
        raise ValueError(
            f"{graph.n} vertices exceed the cut enumeration cap {DEFAULT_CUT_VERTEX_CAP}")
    pts = [cv.coords for cv in cut_vectors(graph)]
    return LatticePolytope(pts, lattice=standard_lattice(len(graph.edges)))


def has_minor(graph, minor):
    """Whether the graph contains the complete graph K_k as a minor.

    ``minor`` is "K4", "K5" or an integer k >= 0.  The answer is exact; the
    pipeline is the one in the module docstring.

    1. K0 is a minor of every graph, K1 needs a vertex, K2 an edge and K3 a
       cycle, which is what is left after deleting leaves.
    2. For k >= 4, reduce: delete vertices of degree <= 1 and suppress
       vertices of degree 2 (remove v, join its two neighbours, drop a
       parallel edge).  Neither step changes whether a K_k minor exists.
       A branch set holding a vertex of degree <= 2 must touch k - 1 >= 3
       other sets, so it is not that vertex alone; a leaf is then a leaf of
       its set, adjacent to nothing else, and can be dropped.  A degree-2
       vertex v with neighbours a, b that sits in a set B shares it with a
       or b, say a; B - v stays connected through the new edge ab, and an
       edge vb to another set becomes ab.  Conversely the reduced graph is
       a minor of the graph (contract va, or delete v when ab is an edge).
    3. K4: a nonempty reduced graph has minimum degree >= 3 and so a K4
       minor (Dirac 1952); the reduction is Duffin's series-parallel test.
    4. k >= 5: K_k is 2-connected, so a K_k minor lies in one biconnected
       block, and each block is reduced and split again until it is a
       single block.  A block with m >= 3n - 5 edges has a K5 minor
       (Mader 1968), and a planar block has no K5 minor (Wagner 1937), so
       no K_k for k >= 5.  Only nonplanar blocks below Mader's bound, the
       cores, reach the branch-set search.

    The search visits at most ``MINOR_SEARCH_BUDGET`` nodes per core and
    raises ``ValueError`` naming the core's size when that is not enough.
    """
    k = _MINOR_ORDER[minor] if isinstance(minor, str) else index(minor)
    if k < 0:
        raise ValueError(f"minor order {k} is negative")
    adj = graph.adjacency()
    if k <= 1:
        return graph.n >= k
    if k == 2:
        return bool(graph.edges)
    if k <= 4:
        _reduce(adj, suppress=k == 4)
        return bool(adj)
    pieces = [adj]
    while pieces:
        piece = pieces.pop()
        _reduce(piece, suppress=True)
        blocks = _blocks(piece)
        if len(blocks) > 1:
            pieces.extend(_subgraph(piece, b) for b in blocks if len(b) >= k)
            continue
        n = len(piece)
        m = sum(len(nbrs) for nbrs in piece.values()) // 2
        if n < k or m < k * (k - 1) // 2:
            continue
        if k == 5 and m >= 3 * n - 5:
            return True
        if not _planar_block(piece) and _branch_set_search(piece, k):
            return True
    return False


def _reduce(adj, suppress):
    """Delete vertices of degree <= 1 and, when ``suppress``, suppress those
    of degree 2, until none is left; works in place on the adjacency."""
    work = list(adj)
    while work:
        v = work.pop()
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) > (2 if suppress else 1):
            continue
        del adj[v]
        for w in nbrs:
            adj[w].discard(v)
            work.append(w)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)


def _subgraph(adj, vertices):
    return {v: adj[v] & vertices for v in vertices}


def _blocks(adj):
    """Vertex sets of the biconnected blocks with at least two vertices,
    bridges included (Hopcroft-Tarjan, with an explicit stack)."""
    number = {}
    low = {}
    blocks = []
    for root in adj:
        if root in number:
            continue
        number[root] = low[root] = len(number)
        visited = [root]
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for w in nbrs:
                if w not in number:
                    number[w] = low[w] = len(number)
                    visited.append(w)
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent:
                    low[v] = min(low[v], number[w])
            else:
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= number[parent]:
                    block = {parent}
                    while True:
                        w = visited.pop()
                        block.add(w)
                        if w == v:
                            break
                    blocks.append(block)
    return blocks


def _planar_block(adj):
    """Whether a biconnected graph is planar, by the path addition of
    Demoucron, Malgrange & Pertuiset (1964).

    Start from an embedded cycle with its two faces.  Every fragment (a
    chord of the embedded part, or a component of the rest with its edges
    to it) must fit in a face that holds all its attachment vertices.
    Embed a path through a fragment that fits one face only, else through
    any fragment, splitting that face in two; the graph is nonplanar
    exactly when some fragment fits no face.
    """
    n = len(adj)
    m = sum(len(nbrs) for nbrs in adj.values()) // 2
    if n < 5:
        return True
    if m > 3 * n - 6:
        return False
    cycle = _cycle(adj)
    embedded = set(cycle)
    used = {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
    faces = [cycle, list(cycle)]
    while True:
        best = None
        for attach, inner in _fragments(adj, embedded, used):
            fits = [f for f in faces if attach <= set(f)]
            if not fits:
                return False
            if best is None or len(fits) < len(best[2]):
                best = (attach, inner, fits)
                if len(fits) == 1:
                    break
        if best is None:
            return True
        attach, inner, fits = best
        path = _fragment_path(adj, attach, inner)
        face = fits[0]
        faces.remove(face)
        i = face.index(path[0])
        face = face[i:] + face[:i]
        j = face.index(path[-1])
        faces.append(face[: j + 1] + path[-2:0:-1])
        faces.append(path[:-1] + face[j:])
        embedded.update(path)
        used.update(frozenset(e) for e in zip(path, path[1:]))


def _cycle(adj):
    """Some cycle of a graph that has one, as a vertex list (depth-first)."""
    root = next(iter(adj))
    path = [root]
    depth = {root: 0}
    stack = [iter(adj[root])]
    while stack:
        for w in stack[-1]:
            if w in depth:
                if depth[w] < len(path) - 2:
                    return path[depth[w]:]
                continue
            depth[w] = len(path)
            path.append(w)
            stack.append(iter(adj[w]))
            break
        else:
            stack.pop()
            path.pop()
    raise RuntimeError("a biconnected block has no cycle")


def _fragments(adj, embedded, used):
    """The fragments of the graph relative to its embedded part, as
    (attachment set, inner vertex set); a chord has no inner vertices."""
    for v in embedded:
        for w in adj[v]:
            if w in embedded and v < w and frozenset((v, w)) not in used:
                yield {v, w}, set()
    seen = set()
    for v in adj:
        if v in embedded or v in seen:
            continue
        inner = {v}
        attach = set()
        stack = [v]
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w in embedded:
                    attach.add(w)
                elif w not in inner:
                    inner.add(w)
                    stack.append(w)
        seen |= inner
        yield attach, inner


def _fragment_path(adj, attach, inner):
    """A path through a fragment between two of its attachments."""
    if not inner:
        return sorted(attach)
    a = min(attach)
    start = next(x for x in adj[a] if x in inner)
    parent = {start: a}
    queue = [start]
    for x in queue:
        b = next((w for w in adj[x] if w in attach and w != a), None)
        if b is not None:
            path = [b, x]
            while path[-1] != a:
                path.append(parent[path[-1]])
            return path[::-1]
        for w in adj[x]:
            if w in inner and w not in parent:
                parent[w] = x
                queue.append(w)
    raise RuntimeError("a fragment of a biconnected block has one attachment")


def _branch_set_search(adj, k):
    """Whether some k disjoint connected vertex sets are pairwise adjacent.

    Every vertex goes to one of k branch sets or to none; sets open in
    vertex order, which kills the labeling symmetry.  The depth-first
    search keeps its choices on an explicit stack and visits at most
    ``MINOR_SEARCH_BUDGET`` nodes.  The vertex order is ``_refined_order``,
    so where the first model lies, and with it the search's cost, depends
    on the graph and not on how its vertices are numbered.
    """
    verts = _refined_order(adj)
    n = len(verts)
    group = [0] * n
    opened = [0] * (n + 1)
    choice = [0] * (n + 1)
    nodes = 0
    i = 0
    while i >= 0:
        if i == n:
            if opened[n] == k and _is_model(adj, verts, group, k):
                return True
            i -= 1
            continue
        limit = min(opened[i] + 1, k)
        c = choice[i]
        if c > limit or k - opened[i] > n - i:
            choice[i] = 0
            i -= 1
            continue
        nodes += 1
        if nodes > MINOR_SEARCH_BUDGET:
            m = sum(len(nbrs) for nbrs in adj.values()) // 2
            raise ValueError(
                f"K{k} minor search gave up after {MINOR_SEARCH_BUDGET} nodes "
                f"on a nonplanar core with {n} vertices and {m} edges"
            )
        choice[i] = c + 1
        group[i] = c if c < limit else -1
        opened[i + 1] = max(opened[i], group[i] + 1)
        i += 1
    return False


def _refined_order(adj):
    """The vertices sorted by colour refinement from their degrees, lowest
    first, ties between vertices of one colour class by label.

    A colour is refined by the sorted colours of the neighbours until the
    number of classes stops growing; the classes and their order do not
    depend on the labels.  The search varies its last vertices fastest, so
    with low degrees first the high-degree vertices, the likely branch-set
    centres, are the ones it tries in every role soonest.
    """
    colour = {v: len(nbrs) for v, nbrs in adj.items()}
    classes = len(set(colour.values()))
    while True:
        signature = {v: (colour[v], tuple(sorted(colour[w] for w in adj[v]))) for v in adj}
        rank = {s: r for r, s in enumerate(sorted(set(signature.values())))}
        colour = {v: rank[signature[v]] for v in adj}
        if len(rank) == classes:
            return sorted(adj, key=lambda v: (colour[v], v))
        classes = len(rank)


def _is_model(adj, verts, group, k):
    sets = [set() for _ in range(k)]
    for v, g in zip(verts, group):
        if g >= 0:
            sets[g].add(v)
    for s in sets:
        stack = [next(iter(s))]
        reached = {stack[0]}
        while stack:
            for w in adj[stack.pop()]:
                if w in s and w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != len(s):
            return False
    return all(
        any(adj[v] & sets[b] for v in sets[a]) for a, b in combinations(range(k), 2)
    )


def chordless_cycles(graph):
    """All induced cycles, each as a vertex tuple starting at its minimum.

    DFS over chordless paths, on an explicit stack: a path may only be
    extended by a vertex whose single adjacency into the path is its
    endpoint, and it closes the moment the start vertex becomes adjacent.
    ``inside[w]`` counts the path's internal vertices adjacent to w, so a
    chord is one lookup.
    """
    adj = graph.adjacency()
    ordered = {v: sorted(nbrs) for v, nbrs in adj.items()}
    inside = dict.fromkeys(adj, 0)
    found = {}
    for a, b in graph.edges:
        path = [a, b]
        members = {a, b}
        stack = [iter(ordered[b])]
        while stack:
            for w in stack[-1]:
                if w <= a or w in members or inside[w]:
                    continue
                if a in adj[w]:
                    cycle = (*path, w)
                    key = frozenset(
                        (min(x, y), max(x, y))
                        for x, y in zip(cycle, cycle[1:] + cycle[:1])
                    )
                    found.setdefault(key, cycle)
                    continue
                for u in adj[path[-1]]:
                    inside[u] += 1
                path.append(w)
                members.add(w)
                stack.append(iter(ordered[w]))
                break
            else:
                stack.pop()
                members.discard(path.pop())
                if stack:
                    for u in adj[path[-1]]:
                        inside[u] -= 1
    return sorted(found.values(), key=lambda c: (len(c), c))


def max_induced_cycle(graph):
    """Length of the longest induced cycle, or 0 for a forest."""
    cycles = chordless_cycles(graph)
    return max((len(c) for c in cycles), default=0)


def cut_compressed(graph):
    """Graph-level criterion for the cut polytope being compressed."""
    return not has_minor(graph, "K5") and max_induced_cycle(graph) <= 4


def cycle_inequality(graph, cycle_edges, odd_subset):
    """Ambient form of sum_F x - sum_{C-F} x <= |F| - 1 as (normal, offset >=)."""
    index = graph.edge_index()
    normal = [0] * len(graph.edges)
    for e in cycle_edges:
        normal[index[e]] = 1 if e in odd_subset else -1
    # rewrite lhs <= |F|-1 as (-lhs) >= 1-|F|
    return tuple(-x for x in normal), 1 - len(odd_subset)


def k5free_facets(graph):
    """Complete facet list of the cut polytope of a K5-minor-free graph.

    Box inequalities 0 <= x_e <= 1 plus one inequality per induced cycle and
    odd subset of its edges; everything is filtered down to the inequalities
    that are actually facet defining on the cut vectors, so the result is
    irredundant and comparable to a generic facet enumeration.
    """
    if has_minor(graph, "K5"):
        raise ValueError("the facet description requires a K5-minor-free graph")
    m = len(graph.edges)
    pts = [cv.coords for cv in cut_vectors(graph)]
    dim = matrix_rank([vsub(p, pts[0]) for p in pts[1:]])

    candidates = []
    for k in range(m):
        lo = [0] * m
        lo[k] = 1
        candidates.append((tuple(lo), 0))
        hi = [0] * m
        hi[k] = -1
        candidates.append((tuple(hi), -1))
    for cycle in chordless_cycles(graph):
        edges = [
            (min(x, y), max(x, y)) for x, y in zip(cycle, cycle[1:] + cycle[:1])
        ]
        for r in range(1, len(edges) + 1, 2):
            for odd in combinations(edges, r):
                candidates.append(cycle_inequality(graph, edges, set(odd)))

    facets = []
    seen = set()
    for normal, offset in candidates:
        if (normal, offset) in seen:
            continue
        seen.add((normal, offset))
        slacks = [sum(a * x for a, x in zip(normal, p)) - offset for p in pts]
        if any(s < 0 for s in slacks):
            continue
        tight = [i for i, s in enumerate(slacks) if s == 0]
        if not tight:
            continue
        base = pts[tight[0]]
        if matrix_rank([vsub(pts[i], base) for i in tight[1:]]) == dim - 1:
            facets.append(
                FacetIneq(
                    normal=normal,
                    offset=offset,
                    lattice_normal=normal,
                    lattice_offset=offset,
                    tight=frozenset(tight),
                )
            )
    facets.sort(key=lambda f: (f.normal, f.offset))
    return facets


@dataclass(frozen=True)
class CycleLevelReport:
    """Observed positive slack levels of one cycle inequality over all cuts."""

    cycle_length: int
    odd_subset: tuple
    levels: tuple
    stated_count: int  # floor(c/2) - 1
    matches_stated_count: bool


def cycle_facet_levels(cycle_length, odd_subset):
    """Distinct positive slacks of a cycle inequality over all cuts of the cycle.

    For even cycles the count is floor(c/2) - 1; direct enumeration shows odd
    cycles of length >= 5 attain ceil(c/2) - 1 values, and the report flags
    the mismatch rather than hiding it.
    """
    c = cycle_length
    graph = cycle_graph(c)
    odd = {(min(i, j), max(i, j)) for i, j in odd_subset}
    cycle_edges = set(graph.edges)
    if not odd <= cycle_edges:
        raise ValueError("odd subset must consist of edges of the cycle")
    if len(odd) % 2 != 1:
        raise ValueError("the edge subset must have odd size")
    normal, offset = cycle_inequality(graph, graph.edges, odd)
    levels = set()
    for cv in cut_vectors(graph):
        s = sum(a * x for a, x in zip(normal, cv.coords)) - offset
        if s > 0:
            levels.add(s)
    stated = c // 2 - 1
    return CycleLevelReport(
        cycle_length=c,
        odd_subset=tuple(sorted(odd)),
        levels=tuple(sorted(levels)),
        stated_count=stated,
        matches_stated_count=len(levels) == stated,
    )


def edge_contract(graph, edge):
    """Contract an edge: merge its endpoints, drop loops and parallel edges."""
    i, j = min(edge), max(edge)
    if (i, j) not in graph.edges:
        raise ValueError(f"{edge} is not an edge")

    def relabel(v):
        if v == j:
            v = i
        return v - 1 if v > j else v

    new_edges = set()
    for a, b in graph.edges:
        x, y = relabel(a), relabel(b)
        if x != y:
            new_edges.add((min(x, y), max(x, y)))
    return Graph(graph.n - 1, tuple(sorted(new_edges)))


def induced_subgraph(graph, vertices):
    """Subgraph induced on the given vertices, relabeled to 1..|W| in order."""
    keep = sorted(set(vertices))
    if any(not 1 <= v <= graph.n for v in keep):
        raise ValueError("vertices outside range")
    relabel = {v: k + 1 for k, v in enumerate(keep)}
    new_edges = [
        (relabel[a], relabel[b]) for a, b in graph.edges if a in relabel and b in relabel
    ]
    return Graph(len(keep), tuple(new_edges))
