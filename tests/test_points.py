import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multistat import points
from multistat.points import PointConfiguration
from oracles import (
    affine_shares_facet,
    circuit_relation,
    cone_contains,
    contains_simplex,
    elimination_cone_normals,
    extend_height,
    in_cone,
    interpolant_subdivision,
    simplex_cone,
)


HK_POINTS = [(1, 0), (0, 1), (1, 1), (1, 2), (0, 0)]
HK_D1 = (0, 2, 4)
HK_D2 = (2, 3, 4)
HK_D3 = (1, 3, 4)

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]

# triangulation of a triangle around an inner triangle that admits no
# height function (classical non-regular example)
WHIRL_POINTS = [(0, 0), (4, 0), (0, 4), (1, 1), (1, 2), (2, 1)]
WHIRL_CELLS = [
    (0, 1, 3),
    (1, 2, 5),
    (0, 2, 4),
    (0, 3, 4),
    (1, 3, 5),
    (2, 4, 5),
    (3, 4, 5),
]


def hk():
    return PointConfiguration(HK_POINTS)


def test_configuration_validation():
    with pytest.raises(ValueError):
        PointConfiguration([(0, 0), (1, 1), (0, 0)])  # duplicate
    with pytest.raises(ValueError):
        PointConfiguration([(0, 0), (1, 1), (2, 2), (3, 3)])  # collinear
    with pytest.raises(ValueError):
        PointConfiguration([(0, 0), (1, 0)])  # too few


def test_build_matrix():
    cfg = hk()
    assert cfg.matrix == [
        [1, 1, 1, 1, 1],
        [1, 0, 1, 1, 0],
        [0, 1, 1, 2, 0],
    ]


def test_enumerate_simplices_hk():
    cfg = hk()
    simps = points.enumerate_simplices(cfg)
    # 10 triples minus the collinear {(1,0),(1,1),(1,2)}
    assert len(simps) == 9
    assert (0, 2, 3) not in simps
    assert simps == sorted(simps)
    for s in (HK_D1, HK_D2, HK_D3):
        assert s in simps


def shares_facet(cfg, s1, s2):
    return points.shares_facet(s1, s2, points.cone_normals(cfg, s1))


def test_shares_facet():
    cfg = hk()
    assert shares_facet(cfg, HK_D1, HK_D2)
    assert shares_facet(cfg, HK_D2, HK_D3)
    assert not shares_facet(cfg, HK_D1, HK_D3)  # they share only the vertex 4
    assert not shares_facet(cfg, HK_D1, HK_D1)


def test_shares_facet_requires_opposite_sides():
    cfg = PointConfiguration([(0, 0), (1, 0), (0, 1), (2, 1)])
    # triangles 012 and 013 share edge {0,1}; apexes (0,1) and (2,1) on same side
    assert not shares_facet(cfg, (0, 1, 2), (0, 1, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 3)] * d), min_size=d + 2, max_size=7, unique=True)))
def test_shares_facet_matches_the_affine_functional(pts):
    try:
        cfg = PointConfiguration(pts)
    except ValueError:
        assume(False)
    simps = points.enumerate_simplices(cfg)
    for s1 in simps:
        normals = points.cone_normals(cfg, s1)
        for s2 in simps:
            assert points.shares_facet(s1, s2, normals) == affine_shares_facet(cfg, s1, s2)


def test_circuit_square():
    cfg = PointConfiguration(SQUARE)
    circ = circuit_relation(cfg, (0, 1, 2, 3))
    assert circ.is_circuit
    assert circ.relation == (1, -1, -1, 1)
    plus, minus = circ.triangulations()
    assert sorted(plus) == [(0, 1, 2), (1, 2, 3)]
    assert sorted(minus) == [(0, 1, 3), (0, 2, 3)]


def test_circuit_with_zero_entry_not_circuit():
    cfg = hk()
    circ = circuit_relation(cfg, (0, 2, 3, 4))  # three collinear points
    assert not circ.is_circuit
    assert circ.relation == (1, -2, 1, 0)
    with pytest.raises(ValueError):
        circ.triangulations()


def test_circuit_two_triangulations_are_regular_and_induced_by_relation():
    cfg = PointConfiguration(SQUARE)
    circ = circuit_relation(cfg, (0, 1, 2, 3))
    plus, minus = circ.triangulations()
    sub_plus = points.regular_subdivision(cfg, list(circ.relation))
    assert sorted(sub_plus.cells) == sorted(plus)
    sub_minus = points.regular_subdivision(cfg, [-x for x in circ.relation])
    assert sorted(sub_minus.cells) == sorted(minus)


def test_simplex_cone_normals_in_kernel():
    cfg = hk()
    for s in points.enumerate_simplices(cfg):
        cone = simplex_cone(cfg, s)
        assert len(cone.normals) == cfg.n - cfg.d - 1
        for m in cone.normals:
            for row in cfg.matrix:
                assert sum(a * x for a, x in zip(row, m)) == 0
            # positive on the coordinate outside the simplex
            (i,) = [k for k, x in enumerate(m) if x != 0 and k not in s][:1]
            assert m[i] > 0


def test_hk_joint_cone_matches_reference_normals():
    cfg = hk()
    cone = points.joint_cone(cfg, [HK_D1, HK_D2, HK_D3])
    reference = [(1, 0, -2, 1, 0), (0, 1, 1, -1, -1)]
    for m in reference:
        assert cone_contains(cone.normals, m)
    for m in cone.normals:
        assert cone_contains(reference, m)
    h = cone.interior_point()
    assert h is not None
    assert in_cone(cone, h)
    # the height of the drawn triangulation lies in the cone
    assert in_cone(cone, [1, 1, 0, 0, 0])


def test_regular_subdivision_hk_height():
    cfg = hk()
    sub = points.regular_subdivision(cfg, [1, 1, 0, 0, 0])
    assert sorted(sub.cells) == sorted([HK_D1, HK_D2, HK_D3])
    for s in (HK_D1, HK_D2, HK_D3):
        assert contains_simplex(sub, s)


def test_regular_subdivision_zero_height_single_cell():
    cfg = hk()
    sub = points.regular_subdivision(cfg, [0] * 5)
    assert sub.cells == [(0, 1, 2, 3, 4)]


def test_regular_subdivision_marks_interior_points():
    # heights flat on a segment: the midpoint is marked in the cell
    cfg = PointConfiguration([(0, 0), (2, 0), (1, 0), (0, 1)])
    sub = points.regular_subdivision(cfg, [0, 0, 0, 0])
    assert sub.cells == [(0, 1, 2, 3)]
    assert not contains_simplex(sub, (0, 1, 3))


def test_whirl_is_a_triangulation_but_not_regular():
    cfg = PointConfiguration(WHIRL_POINTS)

    def area2(c):
        (x1, y1), (x2, y2), (x3, y3) = (cfg.points[i] for i in c)
        return abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))

    assert sum(area2(c) for c in WHIRL_CELLS) == 16  # covers the hull
    ok, h = points.is_regular(cfg, WHIRL_CELLS)
    assert not ok and h is None


def test_whirl_opposite_rotation_also_not_regular():
    cfg = PointConfiguration(WHIRL_POINTS)
    cells = [
        (0, 1, 5),
        (1, 2, 4),
        (0, 2, 3),
        (0, 3, 5),
        (1, 4, 5),
        (2, 3, 4),
        (3, 4, 5),
    ]
    ok, _ = points.is_regular(cfg, cells)
    assert not ok


def test_is_regular_hk():
    cfg = hk()
    ok, h = points.is_regular(cfg, [HK_D1, HK_D2, HK_D3])
    assert ok
    sub = points.regular_subdivision(cfg, h)
    for s in (HK_D1, HK_D2, HK_D3):
        assert contains_simplex(sub, s)


def test_extend_height_hk():
    cfg = hk()
    h = extend_height(cfg, HK_D1, HK_D2)
    sub = points.regular_subdivision(cfg, h)
    assert contains_simplex(sub, HK_D1)
    assert contains_simplex(sub, HK_D2)


def test_extend_height_random_configurations():
    rng = random.Random(23)
    trials = 0
    while trials < 40:
        n = rng.randint(4, 7)
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(0, 4), rng.randint(0, 4)))
        try:
            cfg = PointConfiguration(sorted(pts))
        except ValueError:
            continue
        simps = points.enumerate_simplices(cfg)
        pairs = [
            (s1, s2)
            for s1, s2 in combinations(simps, 2)
            if shares_facet(cfg, s1, s2)
        ]
        if not pairs:
            continue
        s1, s2 = pairs[rng.randrange(len(pairs))]
        h = extend_height(cfg, s1, s2)
        sub = points.regular_subdivision(cfg, h)
        assert contains_simplex(sub, s1), (cfg.points, s1, s2, h, sub.cells)
        assert contains_simplex(sub, s2), (cfg.points, s1, s2, h, sub.cells)
        trials += 1


def test_random_heights_induced_subdivision_lies_in_joint_cone():
    rng = random.Random(5)
    cfg = hk()
    for _ in range(60):
        h = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cfg.n)]
        sub = points.regular_subdivision(cfg, h)
        simplex_cells = [c for c in sub.cells if len(c) == cfg.d + 1]
        if simplex_cells:
            cone = points.joint_cone(cfg, simplex_cells)
            assert in_cone(cone, h)
        # cells cover all indices by construction; check pairwise marked sets
        for c in sub.cells:
            assert len(c) >= cfg.d + 1


CONFIGURATIONS = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-2, 3)] * d), min_size=d + 2, max_size=7, unique=True))


def configuration(pts):
    try:
        return PointConfiguration(pts)
    except ValueError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(CONFIGURATIONS, st.randoms(use_true_random=False))
def test_cone_normals_are_the_eliminated_normals(pts, rng):
    # every simplex, its vertices shuffled: the circuits read off the minors
    # equal the normals solved by elimination in that vertex order
    cfg = configuration(pts)
    for s in points.enumerate_simplices(cfg):
        shuffled = rng.sample(s, len(s))
        got = points.cone_normals(cfg, shuffled)
        assert got == points.cone_normals(cfg, s)
        assert got == elimination_cone_normals(cfg.matrix, shuffled)
        assert all(type(x) is int for m in got for x in m)


@settings(max_examples=150, deadline=None)
@given(CONFIGURATIONS, st.data())
def test_regular_subdivision_is_the_interpolant_subdivision(pts, data):
    cfg = configuration(pts)
    h = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                           min_size=cfg.n, max_size=cfg.n))
    assert points.regular_subdivision(cfg, h) == interpolant_subdivision(cfg, h)
