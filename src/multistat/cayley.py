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

import functools
from dataclasses import dataclass
from itertools import combinations, product

from . import ratlin

__all__ = [
    "CayleyConfiguration",
    "cayley_configuration",
    "enumerate_mixed_simplices",
    "mixed_decorated",
]


@dataclass
class CayleyConfiguration:
    blocks: list  # list of d lists of d-tuples
    points: list  # lifted 2d-tuples, block by block
    matrix: list  # 2d x n rational matrix (coordinates + block indicators)
    offsets: list  # starting global index of each block
    d: int
    n: int

    @functools.cached_property
    def minor(self):
        """The :func:`ratlin.minors` memo of ``matrix``; a deep copy shares it."""
        return ratlin.minors(self.matrix)

    def block_of(self, idx):
        for i in range(self.d - 1, -1, -1):
            if idx >= self.offsets[i]:
                return i
        raise IndexError(idx)


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
    linearly independent (equivalently the rows ``a_{j1} - a_{j2}`` of the
    picked pairs are).  Blocks occupy consecutive index ranges, so a mixed
    simplex lists its pairs in block order, block ``i``'s at positions
    ``2i`` and ``2i+1``, and the simplices come in lexicographic order."""
    pair_sets = []
    for i, b in enumerate(cay.blocks):
        off = cay.offsets[i]
        pair_sets.append([(off + a, off + b_) for a, b_ in combinations(range(len(b)), 2)])
    out = []
    for choice in product(*pair_sets):
        idx = sum(choice, ())
        if cay.minor(idx) != 0:
            if first_only:
                return [idx]
            out.append(idx)
    return out


def mixed_decorated(cay, coeffs, simplices):
    """Per mixed simplex ``s`` of ``cay``: whether the two points it picks
    from every block ``i``, ``s[2i]`` and ``s[2i+1]``, have coefficients of
    strictly opposite signs in ``coeffs[i]`` (equation ``i``'s, over block
    ``i``'s points).  Each sign is exact, a float's too, and decided once,
    when first needed."""
    signs = {}

    def sign(i, j):
        if j not in signs:
            c = coeffs[i][j - cay.offsets[i]]
            signs[j] = (c > 0) - (c < 0)
        return signs[j]

    def decorated(s):
        for i in range(cay.d):
            s1, s2 = sign(i, s[2 * i]), sign(i, s[2 * i + 1])
            if s1 == 0 or s2 == 0 or s1 == s2:
                return False
        return True

    return [decorated(s) for s in simplices]
