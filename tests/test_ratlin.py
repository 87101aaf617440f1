import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from multistat import ratlin
from multistat.decoration import _opposed, _sum_interior
from oracles import cone_contains, fourier_motzkin_feasible, fraction_determinant


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        sub = [[Fraction(r[k]) for k in range(n) if k != j] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * cofactor_det(sub)
    return total


def full_minor(rows):
    return ratlin.minors(rows)(tuple(range(len(rows))))


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert full_minor(m) == cofactor_det(m)


def test_determinant_singular():
    assert full_minor([[1, 2], [2, 4]]) == 0
    assert full_minor([]) == 1


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.lists(st.fractions(-6, 6, max_denominator=5),
                                  min_size=r + 2, max_size=r + 2), min_size=r, max_size=r))))
def test_minors_are_the_fraction_determinants(case):
    # integer rows: every maximal minor, memoized or not, is the determinant;
    # rational rows: one positive multiple of it across all column sets
    r, rows = case
    ints = [[x.numerator for x in row] for row in rows]
    minor, scaled = ratlin.minors(ints), ratlin.minors(rows)
    ratios = set()
    for cols in combinations(range(r + 2), r):
        det = fraction_determinant([[row[j] for j in cols] for row in ints])
        got = minor(cols)
        assert type(got) is int and got == det and minor(cols) == got  # the memo's answer
        det = fraction_determinant([[row[j] for j in cols] for row in rows])
        assert type(scaled(cols)) is int and (scaled(cols) == 0) == (det == 0)
        if det:
            ratios.add(scaled(cols) / det)
    assert len(ratios) <= 1 and all(q > 0 for q in ratios)


def test_kernel_basis_convention():
    # single row (1, 1): free column 2 gives (-1, 1)
    assert ratlin.kernel_basis([[1, 1]]) == [[Fraction(-1), Fraction(1)]]


def test_kernel_basis_hybrid_support_matrix():
    # support matrix of the hybrid kinase steady-state system
    A = [[1, 1, 1, 1, 1], [1, 0, 1, 1, 0], [0, 1, 1, 2, 0]]
    ker = ratlin.kernel_basis(A)
    assert ker == [
        [Fraction(1), Fraction(0), Fraction(-2), Fraction(1), Fraction(0)],
        [Fraction(-1), Fraction(-1), Fraction(1), Fraction(0), Fraction(1)],
    ]
    # both reference cone normals lie in the kernel
    for v in [(1, 0, -2, 1, 0), (0, 1, 1, -1, -1)]:
        for row in A:
            assert sum(a * x for a, x in zip(row, v)) == 0


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        ker = ratlin.kernel_basis(M)
        assert len(ker) == n - ratlin.rank(M)
        for v in ker:
            for row in M:
                assert sum(Fraction(a) * x for a, x in zip(row, v)) == 0


def test_primitive():
    assert ratlin.primitive([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert ratlin.primitive([0, 0]) == (0, 0)
    assert ratlin.primitive([Fraction(-1, 2), Fraction(1, 2)]) == (-1, 1)


def test_strict_feasible_simple_cone():
    h = ratlin.strict_feasible([(1, 0), (0, 1)])
    assert h is not None and h[0] > 0 and h[1] > 0


def test_strict_feasible_empty_cone():
    assert ratlin.strict_feasible([(1, 0), (-1, 0)]) is None
    assert ratlin.strict_feasible([(1, 1), (-1, -1)]) is None


def test_strict_feasible_rejects_non_interior_optimum(monkeypatch):
    # slack s = 1 but h = u - 1 = 0 lies on the boundary of the cone
    def boundary_point(A, b, c):
        x = [Fraction(1)] * len(c)
        return "optimal", x, Fraction(-1)

    monkeypatch.setattr(ratlin, "solve_standard_lp", boundary_point)
    with pytest.raises(ratlin.LPError):
        ratlin.strict_feasible([(1, 0), (0, 1)])


def test_strict_feasible_matches_fourier_motzkin():
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(1, 6)
        normals = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        if any(all(x == 0 for x in m) for m in normals):
            continue
        lp = ratlin.strict_feasible(normals) is not None
        fm = fourier_motzkin_feasible(normals)
        assert lp == fm, (normals, lp, fm)


@st.composite
def small_cones(draw):
    """Up to 7 integer normals in at most 5 variables, entries in [-3, 3]."""
    n = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    normals = draw(st.lists(vec, min_size=1, max_size=7))
    # negated multiples of some normals, so that opposed pairs are common
    picks = draw(st.lists(st.sampled_from(normals), max_size=7 - len(normals)))
    normals += [tuple(-2 * x for x in m) for m in picks]
    return draw(st.permutations(normals)), draw(st.integers(0, 7))


@settings(max_examples=300)
@given(small_cones())
def test_growth_tiers_and_fast_lp_agree_with_fourier_motzkin(cone):
    normals, split = cone
    fm = fourier_motzkin_feasible(normals)
    prim = list(dict.fromkeys(tuple(int(x) for x in ratlin.primitive(m)) for m in normals))
    family = dict.fromkeys(prim[:split])
    new = [m for m in prim[split:] if m not in family]
    if _opposed(family, new):
        assert not fm
    if _sum_interior(prim, [sum(col) for col in zip(*prim)]):
        assert fm
    h = ratlin.strict_feasible_fast(normals)
    assert (h is not None) == fm
    if h is not None:
        assert all(sum(a * x for a, x in zip(m, h)) > 0 for m in normals)


def test_growth_tiers_decide_known_cones():
    assert _opposed({(1, 0): None, (0, 1): None}, [(-1, 0)])
    assert not _opposed({(1, 0): None}, [(0, -1)])
    assert _sum_interior([(1, 0), (0, 1)], [1, 1])
    # feasible (h = (1, -1/2) works) but the sum (2, 0) is not interior
    assert not _sum_interior([(1, 0), (0, -1), (1, 1)], [2, 0])


def _fake_linprog(n, marginals):
    """A HiGHS stand-in reporting an optimal slack of 0 with the given duals."""
    import numpy as np

    res = SimpleNamespace(success=True, x=[0.0] * (n + 1),
                          ineqlin=SimpleNamespace(marginals=np.array(marginals)))
    return lambda *args, **kwargs: res


def _spy_exact(monkeypatch):
    calls = []
    exact = ratlin.strict_feasible

    def spy(normals):
        calls.append(normals)
        return exact(normals)

    monkeypatch.setattr(ratlin, "strict_feasible", spy)
    return calls


def test_fast_lp_unverified_rejection_falls_back_to_exact(monkeypatch):
    import scipy.optimize

    calls = _spy_exact(monkeypatch)
    # a float "infeasible" for a feasible cone: the duals certify nothing
    monkeypatch.setattr(scipy.optimize, "linprog", _fake_linprog(2, [-1.0, 0.0]))
    h = ratlin.strict_feasible_fast([(1, 0), (0, 1)])
    assert len(calls) == 1
    assert h is not None and h[0] > 0 and h[1] > 0
    # duals whose support carries no Gordan vector are not trusted either
    monkeypatch.setattr(scipy.optimize, "linprog", _fake_linprog(2, [-0.5, -0.5, 0.0]))
    assert ratlin.strict_feasible_fast([(1, 0), (0, 1), (1, 1)]) is not None
    assert len(calls) == 2


def test_gordan_certificate_check():
    # kernel of dimension 2 on the support: decided by the small exact LP
    assert ratlin._gordan_certified([(1, 0), (-1, 0), (0, 1), (0, -1)], [1.0] * 4)
    # kernel (1, 1, -1) is not one-signed; a trivial kernel certifies nothing
    assert not ratlin._gordan_certified([(1, 0), (0, 1), (1, 1)], [1.0] * 3)
    assert not ratlin._gordan_certified([(1, 0), (0, 1)], [1.0, 1.0])
    # zero duals leave the support
    assert ratlin._gordan_certified([(1, 5), (-1, -5), (0, 1)], [1.0, 1.0, 0.0])
    assert not ratlin._gordan_certified([(1, 5), (-1, -5), (0, 1)], [1.0, 0.0, 0.0])


def test_fast_lp_clean_dual_certificate_skips_exact(monkeypatch):
    calls = _spy_exact(monkeypatch)
    assert ratlin.strict_feasible_fast([(1, 0, 1), (-2, 0, -2), (0, 1, 0)]) is None
    # support of size 3 in a plane: y = (1, 1, 1) for the three normals
    assert ratlin.strict_feasible_fast([(1, 0), (-1, 1), (0, -1), (1, 1)]) is None
    assert ratlin.strict_feasible_fast([(1, 0), (-1, 0)]) is None
    assert calls == []


def test_lp_feasible():
    # x >= 1, -x >= -2  -> feasible
    pt = ratlin.lp_feasible([[1], [-1]], [1, -2])
    assert pt is not None and 1 <= pt[0] <= 2
    # x >= 1, -x >= 0 -> infeasible
    assert ratlin.lp_feasible([[1], [-1]], [1, 0]) is None


def test_cone_contains():
    normals = [(1, 0), (0, 1)]
    assert cone_contains(normals, (1, 1))
    assert not cone_contains(normals, (-1, 2))


def test_solve_lp_optimal_value():
    # min -x - y st x + y <= 1, x,y >= 0 -> optimum -1
    A = [[1, 1, 1]]
    status, x, obj = ratlin.solve_standard_lp(A, [1], [-1, -1, 0])
    assert status == "optimal"
    assert obj == -1


def test_solve_lp_infeasible_and_unbounded():
    status, *_ = ratlin.solve_standard_lp([[1, 1]], [-1], [0, 0])
    # rows are sign-normalized, so this is x + y = -1 -> x+y>=0 infeasible
    assert status == "infeasible"
    status, *_ = ratlin.solve_standard_lp([[1, -1]], [0], [-1, 0])
    assert status == "unbounded"
