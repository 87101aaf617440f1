import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistat import points
from multistat.decoration import find_decorated, is_decorated, positively_spanning
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


def test_float_agrees_with_exact():
    rng = random.Random(6)
    for _ in range(300):
        d = rng.randint(1, 3)
        Mf = [[rng.randint(-4, 4) / rng.randint(1, 3) for _ in range(d + 1)] for _ in range(d)]
        v = spanning_kernel_vector([[Fraction(x) for x in row] for row in Mf])
        assert positively_spanning(Mf) == (all(x > 0 for x in v) or all(x < 0 for x in v))
    # a minor of 1e-16 is small, not zero
    assert positively_spanning([[1.0, 0.0, -1e-16], [0.0, 1.0, -1.0]])


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
    """The decorated simplices, each simplex decided on its own by the
    exact signed minors of :func:`oracles.spanning_kernel_vector`."""
    decorated = []
    for s in points.enumerate_simplices(cfg):
        v = spanning_kernel_vector([[row[j] for j in s] for row in C])
        if all(x > 0 for x in v) or all(x < 0 for x in v):
            decorated.append(s)
    return decorated


@pytest.mark.parametrize("name", sorted(NETWORKS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_find_decorated_matches_the_per_simplex_oracle(name, data):
    net, part = NETWORKS[name]()
    kappa = {r.rate_name: data.draw(RATIONAL, label=r.rate_name) for r in net.reactions}
    totals = [data.draw(RATIONAL, label="T%d" % i) for i in range(1, len(part))]
    r = assemble_region_system(net, part, kappa, totals)
    report = find_decorated(r.cfg, r.C)
    assert report.decorated == per_simplex_decoration(r.cfg, r.C)
    assert report.facet_pairs == [
        (s1, s2) for s1, s2 in combinations(report.decorated, 2)
        if affine_shares_facet(r.cfg, s1, s2)]


# ---------------------------------------------------------------------------
# float totals are read as the rationals they are
# ---------------------------------------------------------------------------

def _phospho2_acceptance_kappa():
    net, _ = phosphorylation(2)
    return dict({r.rate_name: 1 for r in net.reactions}, kcat1=2)


# log2 of each rate, in reaction order: kon0, koff0, kcat0, lon0, loff0, lcat0,
# then the same for sites 1 and 2
PHOSPHO3_LOG2_KAPPA = [6, -1, -3, -6, 4, -3, 3, -2, -2, -4, 6, 4, 5, -5, -6, -1, 5, -4]


def _phospho3_kappa():
    net, _ = phosphorylation(3)
    return {r.rate_name: Fraction(2) ** e for r, e in zip(net.reactions, PHOSPHO3_LOG2_KAPPA)}


@pytest.mark.parametrize("n,kappa,totals,best", [
    (2, _phospho2_acceptance_kappa(), [1.0, 1.0, 3.0], 3),
    (3, _phospho3_kappa(), [13.911943762286851, 15.021790446515373, 16.85755671186738], 3),
])
def test_float_totals_decorate_as_their_exact_values(n, kappa, totals, best):
    """The whole report (dataclass equality, every field) is the same."""
    net, part = phosphorylation(n)

    def decor(T):
        r = assemble_region_system(net, part, kappa, T)
        return find_decorated(r.cfg, r.C)

    got = decor(totals)
    assert got == decor([Fraction(t) for t in totals])
    assert len(got.best.simplices) == best
