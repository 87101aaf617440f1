import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multistat import cayley, points, ratlin
from multistat.cayley import cayley_configuration, enumerate_mixed_simplices
from oracles import (
    block_pairs,
    cone_contains,
    elimination_cone_normals,
    exponent_matrix,
    fraction_determinant,
    in_cone,
    is_mixed_decorated,
    mixed_positive_solution,
    solve_binomial,
)

# Cayley blocks of the hybrid kinase steady-state system
HK_BLOCKS = [
    [(1, 0), (1, 1), (1, 2), (0, 0)],
    [(0, 1), (1, 1), (1, 2), (0, 0)],
]
# mixed simplices drawn in the worked example (0-based global indices)
HK_MIXED = [(2, 3, 4, 7), (2, 3, 5, 7), (0, 3, 5, 7)]

# a reference description by eight cone normals of the joint mixed cone
HK_MIXED_NORMALS = [
    (1, 0, -1, 0, 2, 0, 0, -2),
    (0, 1, -1, 0, 1, 0, 0, -1),
    (0, 0, -1, 1, 0, 0, 1, -1),
    (0, 0, -1, 1, 1, 1, 0, -2),
    (1, 0, 1, -2, 0, -2, 0, 2),
    (0, 1, 0, -1, 0, -1, 0, 1),
    (1, 0, 0, -1, 1, -1, 0, 0),
    (1, 0, 0, -1, 0, -2, 1, 1),
]


def hk_coeffs(k=(1, 1, 2, 1, 1, 1), T=(Fraction(7, 4), 1)):
    k1, k2, k3, k4, k5, k6 = (Fraction(x) for x in k)
    T1, T2 = (Fraction(x) for x in T)
    C13 = k5 * (1 / k2 + 1 / k3)
    C14 = k4 * k5 / k3 * (1 / k1 + 1 / k2)
    C23 = k5 / k6
    C24 = k4 * k5 / (k3 * k6)
    return [
        [Fraction(1), C13, C14, -T1],
        [Fraction(1), C23, C24, -T2],
    ]


def test_cayley_configuration_shape():
    cay = cayley_configuration(HK_BLOCKS)
    assert cay.d == 2 and cay.n == 8
    assert cay.points[0] == (1, 0, 1, 0)
    assert cay.points[4] == (0, 1, 0, 1)
    assert len(cay.matrix) == 4
    assert ratlin.rank(cay.matrix) == 4
    # the all-ones row is the sum of the indicator rows
    ones = [sum(cay.matrix[r][j] for r in range(2, 4)) for j in range(8)]
    assert ones == [1] * 8


def test_enumerate_mixed_simplices():
    cay = cayley_configuration(HK_BLOCKS)
    simps = enumerate_mixed_simplices(cay)
    for s in HK_MIXED:
        assert s in simps
    # independence matches invertibility of the difference matrix
    for s in simps:
        M = exponent_matrix(cay, s)
        assert fraction_determinant(M) != 0
    # and each excluded two-per-block choice has singular difference matrix
    from itertools import product

    pairs1 = list(combinations(range(4), 2))
    for p1, p2 in product(pairs1, pairs1):
        idx = tuple(sorted([p1[0], p1[1], 4 + p2[0], 4 + p2[1]]))
        rows = [
            [HK_BLOCKS[0][p1[0]][k] - HK_BLOCKS[0][p1[1]][k] for k in range(2)],
            [HK_BLOCKS[1][p2[0]][k] - HK_BLOCKS[1][p2[1]][k] for k in range(2)],
        ]
        singular = fraction_determinant(rows) == 0
        assert (idx in simps) == (not singular)


def test_mixed_decoration_any_positive_constants():
    cay = cayley_configuration(HK_BLOCKS)
    rng = random.Random(13)
    for _ in range(25):
        k = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(6)]
        T = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
        coeffs = hk_coeffs(k, T)
        for s in HK_MIXED:
            assert is_mixed_decorated(cay, coeffs, s)


def test_mixed_decoration_rejects_same_sign_pair():
    cay = cayley_configuration(HK_BLOCKS)
    coeffs = hk_coeffs()
    # pair {(1,0),(1,1)} in block 1 has two positive coefficients
    assert not is_mixed_decorated(cay, coeffs, (0, 1, 4, 7))


def reference_is_mixed_decorated(cay, coeffs, simplex):
    """The one-simplex check before signs were decided once per call."""
    for i, (j1, j2) in enumerate(block_pairs(cay, simplex)):
        s1 = Fraction(coeffs[i][j1 - cay.offsets[i]]).numerator
        s2 = Fraction(coeffs[i][j2 - cay.offsets[i]]).numerator
        if s1 == 0 or s2 == 0 or (s1 > 0) == (s2 > 0):
            return False
    return True


# exact signs, zeros, and floats, tiny ones too, each decided exactly
COEFF = st.one_of(st.integers(-2, 2).map(Fraction),
                  st.sampled_from([1.0, -2.5, 0.0, 1e-12, -3e-10, 4e-9]))


@settings(max_examples=200)
@given(st.lists(st.lists(COEFF, min_size=4, max_size=4), min_size=2, max_size=2))
def test_memoized_signs_match_the_one_simplex_check(coeffs):
    cay = cayley_configuration(HK_BLOCKS)
    simplices = enumerate_mixed_simplices(cay)
    expected = [reference_is_mixed_decorated(cay, coeffs, s) for s in simplices]
    assert cayley.mixed_decorated(cay, coeffs, simplices) == expected
    assert [is_mixed_decorated(cay, coeffs, s) for s in simplices] == expected


def test_mixed_cone_matches_reference_normals():
    cay = cayley_configuration(HK_BLOCKS)
    cone = points.joint_cone(cay, HK_MIXED)
    # two-way inclusion checked by exact LP
    for m in HK_MIXED_NORMALS:
        assert cone_contains(cone.normals, m)
    for m in cone.normals:
        assert cone_contains(HK_MIXED_NORMALS, m)
    h = cone.interior_point()
    assert h is not None and in_cone(cone, h)


def test_mixed_cone_normals_annihilated_by_cayley_matrix():
    cay = cayley_configuration(HK_BLOCKS)
    cone = points.joint_cone(cay, HK_MIXED)
    for m in cone.normals:
        for row in cay.matrix:
            assert sum(a * x for a, x in zip(row, m)) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=2, max_size=4, unique=True),
    min_size=d, max_size=d)), st.randoms(use_true_random=False))
def test_mixed_cone_normals_are_the_eliminated_normals(blocks, rng):
    try:
        cay = cayley_configuration(blocks)
    except ValueError:
        assume(False)
    for s in enumerate_mixed_simplices(cay):
        shuffled = rng.sample(s, len(s))
        got = points.cone_normals(cay, shuffled)
        assert got == elimination_cone_normals(cay.matrix, shuffled)
        assert all(type(x) is int for m in got for x in m)


def test_solve_binomial_roundtrip_random():
    rng = random.Random(17)
    for _ in range(200):
        d = rng.randint(1, 3)
        while True:
            M = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if fraction_determinant(M) != 0:
                break
        beta = [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(d)]
        x = solve_binomial(M, beta)
        assert np.all(x > 0)
        for row, b in zip(M, beta):
            assert abs(np.prod(x ** np.array(row, dtype=float)) - float(b)) <= 1e-12 * max(1.0, float(b))


def test_mixed_positive_solution_solves_subsystem():
    cay = cayley_configuration(HK_BLOCKS)
    coeffs = hk_coeffs()
    for s in HK_MIXED:
        x = mixed_positive_solution(cay, coeffs, s)
        assert np.all(x > 0)
        # the picked binomial of each equation vanishes at x
        for i, pair in enumerate([[j for j in s if cay.block_of(j) == b] for b in range(2)]):
            total = 0.0
            for j in pair:
                a = cay.points[j][:2]
                c = coeffs[i][j - cay.offsets[i]]
                total += float(c) * float(np.prod(x ** np.array(a, dtype=float)))
            assert abs(total) < 1e-10


def test_cayley_validation_errors():
    with pytest.raises(ValueError):
        cayley_configuration([[(0, 0)], [(0, 0), (1, 1)]])  # block too small
    # a single 1-d block with two points is a legitimate configuration
    assert cayley_configuration([[(0,), (1,)]]).n == 2
    with pytest.raises(ValueError):
        # rank-deficient: both blocks on one line
        cayley_configuration([[(0, 0), (1, 0)], [(0, 0), (1, 0)]])
