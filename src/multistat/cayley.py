"""Cayley configurations and mixed decorated simplices.

For a system of ``d`` sparse equations in ``d`` unknowns with supports
``A_1, ..., A_d`` in ``Z^d``, the Cayley configuration places block ``i`` at
``A_i x {e_i}`` in ``Z^{2d}``.  Its matrix keeps the ``d`` coordinate rows
and the ``d`` block-indicator rows (the all-ones row is their sum and is
dropped).  A *mixed* ``(2d-1)``-simplex picks exactly two points from every
block; it is mixed-decorated when the two picked coefficients of each
equation have opposite signs.  Every mixed-decorated simplex occurring in a
regular subdivision of the Cayley configuration contributes one positive
zero, obtained from a binomial system solved exactly in logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import points as pts_mod
from . import ratlin
from .decoration import IndeterminateSign, _sign

__all__ = [
    "CayleyConfiguration",
    "cayley_configuration",
    "enumerate_mixed_simplices",
    "exponent_matrix",
    "is_mixed_decorated",
    "solve_binomial",
    "mixed_joint_cone",
    "mixed_positive_solution",
]


@dataclass
class CayleyConfiguration:
    blocks: list  # list of d lists of d-tuples
    points: list  # lifted 2d-tuples, block by block
    matrix: list  # 2d x n rational matrix (coordinates + block indicators)
    offsets: list  # starting global index of each block
    d: int
    n: int

    def block_of(self, idx):
        for i in range(self.d - 1, -1, -1):
            if idx >= self.offsets[i]:
                return i
        raise IndexError(idx)

    def local_index(self, idx):
        return idx - self.offsets[self.block_of(idx)]


def cayley_configuration(blocks):
    """Build the Cayley configuration of ``d`` supports in ``Z^d``."""
    d = len(blocks)
    if d == 0:
        raise ValueError("need at least one block")
    for b in blocks:
        if any(len(p) != d for p in b):
            raise ValueError("every block must live in Z^d with d = number of blocks")
        if len(b) < 2:
            raise ValueError("every block needs at least two points")
    lifted = []
    offsets = []
    for i, b in enumerate(blocks):
        offsets.append(len(lifted))
        for p in b:
            lifted.append(tuple(int(x) for x in p) + tuple(int(i == k) for k in range(d)))
    if len(set(lifted)) != len(lifted):
        raise ValueError("duplicate points within a block")
    n = len(lifted)
    matrix = [[p[r] for p in lifted] for r in range(2 * d)]
    cay = CayleyConfiguration(
        [list(map(tuple, b)) for b in blocks], lifted, matrix, offsets, d, n
    )
    if ratlin.rank(matrix) != 2 * d:
        raise ValueError("Cayley matrix must have full rank 2d")
    if not enumerate_mixed_simplices(cay, first_only=True):
        raise ValueError("configuration admits no mixed simplex")
    return cay


def enumerate_mixed_simplices(cay, first_only=False):
    """All mixed (2d-1)-simplices: two points per block, lifted points
    linearly independent (equivalently the difference matrix of
    :func:`exponent_matrix` is invertible)."""
    pair_sets = []
    for i, b in enumerate(cay.blocks):
        off = cay.offsets[i]
        pair_sets.append([(off + a, off + b_) for a, b_ in combinations(range(len(b)), 2)])
    out = []
    for choice in product(*pair_sets):
        idx = tuple(sorted(i for pair in choice for i in pair))
        sub = [[cay.matrix[r][j] for j in idx] for r in range(2 * cay.d)]
        if ratlin.determinant(sub) != 0:
            if first_only:
                return [idx]
            out.append(idx)
    return sorted(out)


def _block_pairs(cay, simplex):
    """Split a mixed simplex into its per-block index pairs (ascending)."""
    pairs = [[] for _ in range(cay.d)]
    for j in simplex:
        pairs[cay.block_of(j)].append(j)
    if any(len(p) != 2 for p in pairs):
        raise ValueError("not a mixed simplex: need exactly two points per block")
    return [tuple(sorted(p)) for p in pairs]


def exponent_matrix(cay, simplex):
    """Rows ``a_{j1} - a_{j2}`` (first d coordinates), one per block."""
    rows = []
    for j1, j2 in _block_pairs(cay, simplex):
        rows.append(tuple(cay.points[j1][k] - cay.points[j2][k] for k in range(cay.d)))
    return rows


def is_mixed_decorated(cay, coeffs, simplex):
    """Whether the two coefficients picked in every block have strictly
    opposite signs.  ``coeffs[i]`` lists equation ``i``'s coefficients over
    the points of block ``i``.  Float signs use a relative threshold and
    raise :class:`IndeterminateSign` when too close to zero."""
    for i, (j1, j2) in enumerate(_block_pairs(cay, simplex)):
        c1 = coeffs[i][cay.local_index(j1)]
        c2 = coeffs[i][cay.local_index(j2)]
        scale = max(abs(float(c1)), abs(float(c2)), *(abs(float(c)) for c in coeffs[i]))
        s1 = _sign(c1, scale) if isinstance(c1, float) else _sign(c1)
        s2 = _sign(c2, scale) if isinstance(c2, float) else _sign(c2)
        if s1 == 0 or s2 == 0 or s1 == s2:
            return False
    return True


def solve_binomial(M, beta):
    """Positive solution of ``x^{M_i} = beta_i`` with ``beta_i > 0``:
    solve ``M log x = log beta``.  Verifies the round trip to 1e-12."""
    Mf = np.array([[float(x) for x in row] for row in M], dtype=float)
    b = np.array([math.log(float(x)) for x in beta])
    u = np.linalg.solve(Mf, b)
    x = np.exp(u)
    for row, bi in zip(Mf, beta):
        val = float(np.prod(x ** row))
        if abs(val - float(bi)) > 1e-12 * max(1.0, abs(float(bi))):
            raise ArithmeticError("binomial round trip failed")
    return x


def mixed_positive_solution(cay, coeffs, simplex):
    """The positive zero of the binomial square subsystem supported on a
    mixed-decorated simplex: equation ``i`` reduces to
    ``c_{i,j1} x^{a_{j1}} + c_{i,j2} x^{a_{j2}} = 0``."""
    if not is_mixed_decorated(cay, coeffs, simplex):
        raise ValueError("simplex is not mixed-decorated")
    M = exponent_matrix(cay, simplex)
    beta = []
    for i, (j1, j2) in enumerate(_block_pairs(cay, simplex)):
        c1 = float(coeffs[i][cay.local_index(j1)])
        c2 = float(coeffs[i][cay.local_index(j2)])
        beta.append(-c2 / c1)
    return solve_binomial(M, beta)


def mixed_joint_cone(cay, simplices, normals=None):
    """Heights on the Cayley points selecting every mixed simplex at once;
    ``normals[s]``, when given, are the cone normals of ``s``."""
    return pts_mod.joint_cone(cay, simplices, normals)
