"""Constructors shared by several test modules."""

from itertools import permutations

from polycomp.polytope import LatticePolytope


def birkhoff(n):
    """The Birkhoff polytope B_n: the n x n permutation matrices, flattened."""
    pts = []
    for perm in permutations(range(n)):
        mat = [0] * (n * n)
        for i, j in enumerate(perm):
            mat[i * n + j] = 1
        pts.append(tuple(mat))
    return LatticePolytope(pts)
