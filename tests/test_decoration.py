import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistat import decoration, points
from multistat.decoration import (
    IndeterminateSign,
    find_decorated,
    is_decorated,
    positively_spanning,
)
from multistat.messi import assemble_region_system
from multistat.networks import hybrid_kinase, mixed_phosphorylation, phosphorylation
from multistat.points import PointConfiguration
from oracles import (
    affine_shares_facet,
    contains_simplex,
    restricted_positive_solution,
    spanning_kernel_vector,
)

HK_POINTS = [(1, 0), (0, 1), (1, 1), (1, 2), (0, 0)]


def hk_C(k, T):
    k1, k2, k3, k4, k5, k6 = (Fraction(x) for x in k)
    T1, T2 = (Fraction(x) for x in T)
    return [
        [Fraction(1), Fraction(0), k5 * (1 / k2 + 1 / k3), k4 * k5 / k3 * (1 / k1 + 1 / k2), -T1],
        [Fraction(0), Fraction(1), k5 / k6, k4 * k5 / (k3 * k6), -T2],
    ]


def test_positively_spanning_examples():
    assert positively_spanning([[1, 0, -1], [0, 1, -1]])
    assert not positively_spanning([[1, 0, 1], [0, 1, 1]])
    # zero minor -> not spanning
    assert not positively_spanning([[1, 0, 0], [0, 1, -1]])


def test_spanning_kernel_vector_is_in_kernel_and_one_signed():
    rng = random.Random(2)
    for _ in range(300):
        d = rng.randint(1, 3)
        M = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d + 1)] for _ in range(d)]
        v = spanning_kernel_vector(M)
        for row in M:
            assert sum(a * x for a, x in zip(row, v)) == 0
        if positively_spanning(M):
            assert all(x != 0 for x in v)
            assert len({x > 0 for x in v}) == 1


def test_scaling_invariance():
    rng = random.Random(4)
    for _ in range(500):
        d = rng.randint(1, 3)
        M = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d + 1)] for _ in range(d)]
        base = positively_spanning(M)
        rs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(d)]
        cs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(d + 1)]
        scaled = [[rs[i] * M[i][j] * cs[j] for j in range(d + 1)] for i in range(d)]
        assert positively_spanning(scaled) == base


def test_float_indeterminate_raises():
    with pytest.raises(IndeterminateSign):
        positively_spanning([[1.0, 0.0, 1e-16], [0.0, 1.0, -1.0]])


def test_float_agrees_with_exact():
    rng = random.Random(6)
    for _ in range(300):
        d = rng.randint(1, 3)
        M = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d + 1)] for _ in range(d)]
        Mf = [[float(x) for x in row] for row in M]
        try:
            got = positively_spanning(Mf)
        except IndeterminateSign:
            continue
        assert got == positively_spanning(M)


def test_hk_decoration_interval_case():
    cfg = PointConfiguration(HK_POINTS)
    C = hk_C((1, 1, 2, 1, 1, 1), (Fraction(7, 4), 1))
    # condition values for the three drawn simplices
    assert is_decorated(C, (0, 2, 4))  # T1 k2 k3 - T2 k2 k6 - T2 k3 k6 = 1/2 > 0
    assert is_decorated(C, (2, 3, 4))  # k1 < k3 given the other two
    assert is_decorated(C, (1, 3, 4))  # T1 k1 k2 - T2 k1 k6 - T2 k2 k6 = -1/4 < 0
    report = find_decorated(cfg, C)
    best = report.best
    assert best.simplices == [(0, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert best.height is not None
    sub = points.regular_subdivision(cfg, best.height)
    for s in best.simplices:
        assert contains_simplex(sub, s)


def test_hk_decoration_outside_interval():
    cfg = PointConfiguration(HK_POINTS)
    C = hk_C((1, 1, 2, 1, 1, 1), (3, 1))
    assert not is_decorated(C, (1, 3, 4))  # condition value 1 > 0
    report = find_decorated(cfg, C)
    assert len(report.best.simplices) < 3


def test_hk_facet_pairs():
    cfg = PointConfiguration(HK_POINTS)
    C = hk_C((1, 1, 2, 1, 1, 1), (Fraction(7, 4), 1))
    report = find_decorated(cfg, C)
    assert ((0, 2, 4), (2, 3, 4)) in report.facet_pairs
    assert ((1, 3, 4), (2, 3, 4)) in report.facet_pairs


def test_restricted_positive_solution_hk():
    cfg = PointConfiguration(HK_POINTS)
    C = hk_C((1, 1, 2, 1, 1, 1), (Fraction(7, 4), 1))
    x = restricted_positive_solution(cfg, C, (0, 2, 4))
    # closed form: x4 + (3/2) x4 x5 = 7/4, x4 x5 = 1  ->  x4 = 1/4, x5 = 4
    assert np.allclose(x, [0.25, 4.0], rtol=1e-12)


def test_restricted_positive_solution_rejects_undecorated():
    cfg = PointConfiguration(HK_POINTS)
    C = hk_C((1, 1, 2, 1, 1, 1), (3, 1))
    with pytest.raises(ValueError):
        restricted_positive_solution(cfg, C, (1, 3, 4))


# ---------------------------------------------------------------------------
# find_decorated's one memo of minors against a per-simplex oracle
# ---------------------------------------------------------------------------

NETWORKS = {
    "hk": hybrid_kinase,
    "phospho:2": lambda: phosphorylation(2),
    "phospho:3": lambda: phosphorylation(3),
    "mixed-phospho": mixed_phosphorylation,
}
RATIONAL = st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=40)


def per_simplex_decoration(cfg, C):
    """The decorated and the indeterminate simplices, each simplex decided
    on its own: exact signed minors by :func:`oracles.spanning_kernel_vector`,
    or for a float ``C`` numpy's determinant of every submatrix, each sign
    decided against 1e-9 times the largest of the simplex's minors."""
    decorated, indeterminate = [], []
    for s in points.enumerate_simplices(cfg):
        sub = [[row[j] for j in s] for row in C]
        if isinstance(C[0][0], float):
            v = [(-1) ** i * np.linalg.det(np.delete(np.array(sub), i, axis=1))
                 for i in range(len(s))]
            scale = max(abs(x) for x in v) or 1.0
            if any(abs(x) <= 1e-9 * scale for x in v):
                indeterminate.append(s)
                continue
        else:
            v = spanning_kernel_vector(sub)
        if all(x > 0 for x in v) or all(x < 0 for x in v):
            decorated.append(s)
    return decorated, indeterminate


@pytest.mark.parametrize("name", sorted(NETWORKS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_find_decorated_matches_the_per_simplex_oracle(name, data):
    net, part = NETWORKS[name]()
    kappa = {r.rate_name: data.draw(RATIONAL, label=r.rate_name) for r in net.reactions}
    totals = [data.draw(RATIONAL, label="T%d" % i) for i in range(1, len(part))]
    r = assemble_region_system(net, part, kappa, totals)
    for C in (r.C, [[float(x) for x in row] for row in r.C]):
        report = find_decorated(r.cfg, C)
        assert (report.decorated, report.indeterminate) == per_simplex_decoration(r.cfg, C)
        assert report.facet_pairs == [
            (s1, s2) for s1, s2 in combinations(report.decorated, 2)
            if affine_shares_facet(r.cfg, s1, s2)]
