"""Constructors and references shared by several test modules."""

from itertools import permutations

from polycomp.linalg import determinant, vsub
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


def per_cell_unimodular(coords, cells):
    """Reference verdict: every cell's edge determinant over coords is +-1."""
    return all(
        abs(determinant([vsub(coords[i], coords[cell[0]]) for i in cell[1:]])) == 1
        for cell in cells
    )
