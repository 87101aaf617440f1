"""End-to-end acceptance suite.

Each test pins a full user-visible behavior: the hybrid-kinase and
phosphorylation certifications, the mixed-simplex cone, the regularity
oracle, the structured-elimination values, and the randomized property
suites with their stated tolerances and runtime budgets.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from multistat import cayley, decoration, messi, ratlin, witness
from multistat.decoration import is_decorated
from multistat.messi import (
    MessiError,
    assemble_region_system,
    rescale_back,
    steady_state_parametrization,
)
from multistat.networks import (
    hybrid_kinase,
    michaelis_menten,
    mixed_phosphorylation,
    phosphorylation,
)
from multistat.points import PointConfiguration, is_regular, joint_cone, regular_subdivision
from multistat.ratlin import kernel_basis
from multistat.witness import (
    DeformedSystem,
    certify_multistationarity,
    exclusion_boxes,
    newton_solve_many,
    validate_root_set,
)
import oracles
from oracles import (
    build_G2,
    cone_contains,
    enumerate_tree_sum,
    intermediate_coefficients,
    layer_sets,
    phi_map,
    restricted_positive_solution,
    solve_binomial,
    tree_sum,
)

HK_KAPPA = dict(k1=1, k2=1, k3=2, k4=1, k5=1, k6=1)


def phospho_kappa(n):
    k = {}
    for i in range(n):
        k.update({f"kon{i}": 1, f"koff{i}": 1, f"kcat{i}": 1,
                  f"lon{i}": 1, f"loff{i}": 1, f"lcat{i}": 1})
    k["kcat1"] = 2
    return k


# ---------------------------------------------------------------------------
# 1. hybrid kinase end to end
# ---------------------------------------------------------------------------

def test_acceptance_1_hybrid_kinase_end_to_end():
    start = time.monotonic()
    net, part = hybrid_kinase()
    totals = [Fraction(7, 4), Fraction(1)]
    decor, report = certify_multistationarity(net, part, HK_KAPPA, totals)

    # (a) the largest realizable family is exactly the three simplices
    # {x4, x4x5, 1}, {x5, x4x5^2, 1}, {x4x5, x4x5^2, 1}
    pts = report.region.cfg.points
    expected = [
        tuple(sorted(pts.index(p) for p in cell))
        for cell in (
            [(0, 1), (1, 2), (0, 0)],
            [(1, 0), (1, 1), (0, 0)],
            [(1, 1), (1, 2), (0, 0)],
        )
    ]
    assert decor.best.simplices == sorted(expected)

    # (b) at least three distinct certified roots at some scheduled t*
    assert report.status == "success"
    assert len(report.roots) >= 3
    for r in report.roots:
        assert r.residual < 1e-10
        assert r.sigma_ratio > 1e-8
    for i, a in enumerate(report.roots):
        for b in report.roots[i + 1:]:
            assert a.distinct_from(b)

    # (c) the rescaled constants differ only in k4 and k5
    changed = {
        k for k, v in report.kappa_bar.items()
        if abs(v - float(HK_KAPPA[k])) > 1e-9
    }
    assert changed == {"k4", "k5"}

    # (d) every mapped root satisfies the conservation laws at kappa_bar
    laws = net.conservation_laws()
    for vec in report.species_roots:
        vals = [vec[sp] for sp in net.species]
        assert all(v > 0 for v in vals)
        for law, T in zip(laws, totals):
            total = sum(float(l) * v for l, v in zip(law, vals))
            assert abs(total - float(T)) < 1e-8 * max(float(T), 1.0)

    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. hybrid kinase negative control
# ---------------------------------------------------------------------------

def test_acceptance_2_hybrid_kinase_negative_control():
    start = time.monotonic()
    net, part = hybrid_kinase()
    region = assemble_region_system(net, part, HK_KAPPA, [Fraction(3), 1])
    pts = region.cfg.points
    # the simplex {x5, x4x5^2, 1}; its decoration reduces to the exact
    # inequality T1*k1*k2 - T2*k6*(k1 + k2) < 0, which T = (3, 1) violates
    simplex = tuple(sorted(pts.index(p) for p in [(0, 1), (1, 2), (0, 0)]))
    k = {s: Fraction(v) for s, v in HK_KAPPA.items()}
    expr = (Fraction(3) * k["k1"] * k["k2"]
            - Fraction(1) * k["k6"] * (k["k1"] + k["k2"]))
    assert expr >= 0
    assert not is_decorated(region.C, simplex)
    decor = decoration.find_decorated(region.cfg, region.C)
    assert len(decor.best.simplices) < 3
    assert time.monotonic() - start < 1.0


def test_acceptance_2_inequality_matches_decoration_exactly():
    # the reduced inequality above is equivalent to the decoration test of
    # that simplex for arbitrary positive rate constants and totals
    net, part = hybrid_kinase()
    rng = random.Random(12)
    for _ in range(50):
        k = {s: Fraction(rng.randint(1, 9), rng.randint(1, 9))
             for s in HK_KAPPA}
        T = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
        region = assemble_region_system(net, part, k, T)
        pts = region.cfg.points
        simplex = tuple(sorted(pts.index(p) for p in [(0, 1), (1, 2), (0, 0)]))
        expr = T[0] * k["k1"] * k["k2"] - T[1] * k["k6"] * (k["k1"] + k["k2"])
        assert is_decorated(region.C, simplex) == (expr < 0)


# ---------------------------------------------------------------------------
# 3. phosphorylation cascades
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_acceptance_3_phosphorylation(n):
    start = time.monotonic()
    net, part = phosphorylation(n)
    kappa = phospho_kappa(n)
    totals = [1, 1, 3]  # enzyme, phosphatase, substrate
    decor, report = certify_multistationarity(net, part, kappa, totals)

    pts = report.region.cfg.points
    delta1 = tuple(sorted(pts.index(p) for p in
                          [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    delta2 = tuple(sorted(pts.index(p) for p in
                          [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, -1)]))
    assert delta1 in decor.decorated
    assert delta2 in decor.decorated
    assert (delta1, delta2) in decor.facet_pairs
    assert joint_cone(report.region.cfg, [delta1, delta2]).interior_point() is not None

    assert report.status == "success"
    assert len(report.roots) >= 2
    for r in report.roots:
        assert r.residual < 1e-10
        assert r.sigma_ratio > 1e-8

    allowed = {f"kon{i}" for i in range(n)} | {f"lon{i}" for i in range(n)}
    changed = {
        k for k, v in report.kappa_bar.items()
        if abs(v - float(kappa[k])) > 1e-9
    }
    assert changed <= allowed

    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 4. the mixed-simplex cone on the doubled support
# ---------------------------------------------------------------------------

HK_BLOCKS = [
    [(1, 0), (1, 1), (1, 2), (0, 0)],
    [(0, 1), (1, 1), (1, 2), (0, 0)],
]
HK_MIXED_SIMPLICES = [(2, 3, 4, 7), (2, 3, 5, 7), (0, 3, 5, 7)]
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


def test_acceptance_4_mixed_cone_equality():
    start = time.monotonic()
    cay = cayley.cayley_configuration(HK_BLOCKS)
    cone = joint_cone(cay, HK_MIXED_SIMPLICES)
    # same feasible set as the reference list of eight normals: every
    # inequality of each description holds throughout the other cone
    for m in HK_MIXED_NORMALS:
        assert cone_contains(cone.normals, m)
    for m in cone.normals:
        assert cone_contains(HK_MIXED_NORMALS, m)
    # both interiors are nonempty and cross-satisfy the other description
    h1 = ratlin.strict_feasible(cone.normals)
    h2 = ratlin.strict_feasible(HK_MIXED_NORMALS)
    for m in HK_MIXED_NORMALS:
        assert sum(Fraction(a) * b for a, b in zip(m, h1)) > 0
    for m in cone.normals:
        assert sum(Fraction(a) * b for a, b in zip(m, h2)) > 0
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 5. regularity oracle
# ---------------------------------------------------------------------------

def test_acceptance_5_regularity_oracle():
    start = time.monotonic()
    # the spiral-like triangulation admits no height function
    whirl = PointConfiguration([(0, 0), (4, 0), (0, 4), (1, 1), (1, 2), (2, 1)])
    whirl_cells = [(0, 1, 3), (1, 2, 5), (0, 2, 4), (0, 3, 4),
                   (1, 3, 5), (2, 4, 5), (3, 4, 5)]
    ok, h = is_regular(whirl, whirl_cells)
    assert not ok and h is None

    # the three-cell triangulation is regular with an explicit height
    cfg = PointConfiguration([(1, 0), (0, 1), (1, 1), (1, 2), (0, 0)])
    cells = [(0, 2, 4), (1, 3, 4), (2, 3, 4)]
    ok, h = is_regular(cfg, cells)
    assert ok and h is not None
    got = regular_subdivision(cfg, h)
    assert sorted(got.cells) == sorted(cells)
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 6. structured elimination values
# ---------------------------------------------------------------------------

def test_acceptance_6_elimination_machinery():
    start = time.monotonic()
    # Michaelis-Menten: the intermediate coefficient is exactly
    # kon / (koff + kcat) for arbitrary rational rates
    net, part = michaelis_menten()
    rng = random.Random(3)
    for _ in range(20):
        kon = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        koff = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        kcat = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        mu = intermediate_coefficients(net, part, dict(kon=kon, koff=koff, kcat=kcat))
        assert mu["ES0"][0] == kon / (koff + kcat)

    # mixed network: block dependency layers
    net2, part2 = mixed_phosphorylation()
    g2 = build_G2(net2, part2, {f"k{i}": 1 for i in range(1, 11)})
    assert layer_sets(g2["GE"], len(part2) - 1) == [[1, 2], [3]]

    # Matrix-Tree minors equal explicit spanning-tree enumeration on the
    # collapsed graph of every built-in network with intermediates
    cases = [
        (hybrid_kinase(), HK_KAPPA),
        (michaelis_menten(), dict(kon=3, koff=2, kcat=5)),
        (phosphorylation(2), phospho_kappa(2)),
        (mixed_phosphorylation(), {f"k{i}": Fraction(i, 2) for i in range(1, 11)}),
    ]
    for (net3, part3), kappa in cases:
        if not part3[0]:
            continue
        nodes, weights = oracles._collapsed_graph(net3, part3, kappa)
        for root in nodes:
            assert tree_sum(nodes, weights, root) == enumerate_tree_sum(
                nodes, weights, root)
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 7. property suites
# ---------------------------------------------------------------------------

def test_acceptance_7i_decoration_scaling_invariance():
    # positive row and column scalings never change the decoration verdict
    rng = random.Random(71)
    cases = 0
    while cases < 10_000:
        d = rng.randint(1, 3)
        C = [[Fraction(rng.randint(-6, 6)) for _ in range(d + 1)]
             for _ in range(d)]
        simplex = tuple(range(d + 1))
        try:
            base = decoration.positively_spanning(C)
        except Exception:
            continue
        rows = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(d)]
        cols = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(d + 1)]
        scaled = [[rows[i] * cols[j] * C[i][j] for j in range(d + 1)]
                  for i in range(d)]
        assert decoration.positively_spanning(scaled) == base
        cases += 1


def test_acceptance_7ii_phi_map_identity():
    rng = random.Random(72)
    pool = [
        PointConfiguration([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]),
        PointConfiguration([(0,), (1,), (2,), (5,)]),
        PointConfiguration([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                            (1, 1, 1), (2, 1, 0)]),
    ]
    kernels = [kernel_basis(cfg.matrix) for cfg in pool]
    for case in range(1000):
        i = case % len(pool)
        cfg, kernel = pool[i], kernels[i]
        alpha = [math.exp(rng.uniform(-3, 3)) for _ in range(cfg.d + 1)]
        t = rng.uniform(1e-4, 1.0)
        h = [rng.uniform(-3, 3) for _ in range(cfg.n)]
        gamma = phi_map(cfg, alpha, t, h)
        for m in kernel:
            lhs = sum(float(mi) * math.log(g) for mi, g in zip(m, gamma))
            rhs = sum(float(mi) * hi for mi, hi in zip(m, h)) * math.log(t)
            assert abs(lhs - rhs) < 1e-10


def test_acceptance_7iii_restricted_roots_vs_exclusion_oracle():
    # the square subsystem on a decorated simplex has exactly one positive
    # root; the closed form agrees with an adaptive bisection sweep
    cfg = PointConfiguration([(1, 0), (0, 1), (1, 1), (1, 2), (0, 0)])
    rng = random.Random(73)
    checked = 0
    while checked < 12:
        C = [[Fraction(rng.randint(-5, 5)) for _ in range(5)] for _ in range(2)]
        decor = decoration.find_decorated(cfg, C)
        for simplex in decor.decorated[:2]:
            x = restricted_positive_solution(cfg, C, simplex)
            restricted = [
                [C[i][j] if j in simplex else Fraction(0) for j in range(5)]
                for i in range(2)
            ]
            system = DeformedSystem(cfg, restricted, [0.0] * 5, 1.0)
            roots = []
            for lo, hi in exclusion_boxes(system, max_depth=24):
                (root,) = newton_solve_many(
                    system, [np.exp(0.5 * (np.array(lo) + np.array(hi)))], ["seed"])
                if root is not None and all(root.distinct_from(r) for r in roots):
                    roots.append(root)
            assert len(roots) == 1
            assert float(np.max(np.abs(roots[0].x - x))) < 1e-8 * max(
                1.0, float(np.max(np.abs(x))))
            checked += 1


def test_acceptance_7iv_binomial_round_trip():
    rng = random.Random(74)
    done = 0
    while done < 1000:
        d = rng.randint(1, 4)
        M = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        if oracles.fraction_determinant(M) == 0:
            continue
        x_true = np.array([math.exp(rng.uniform(-2, 2)) for _ in range(d)])
        beta = [float(np.prod(x_true ** np.array(row))) for row in M]
        x = solve_binomial(M, beta)
        assert float(np.max(np.abs(x - x_true))) < 1e-12 * max(
            1.0, float(np.max(np.abs(x_true))))
        done += 1


def test_acceptance_7v_rescaling_postcondition():
    # for every built-in network with a region system: 100 random column
    # scalings either rescale exactly (postcondition to 1e-9) or are
    # refused with a structured error -- never silently wrong; the rate
    # structure is derived once per network, so 300 rescalings take well
    # under 3 s (about 10 s when every call re-probed the rates)
    start = time.monotonic()
    cases = [
        (hybrid_kinase(), HK_KAPPA, [Fraction(7, 4), 1]),
        (phosphorylation(2), phospho_kappa(2), [1, 1, 3]),
        (mixed_phosphorylation(), {f"k{i}": 1 for i in range(1, 11)}, [1, 1, 3]),
    ]
    rng = random.Random(75)
    for (net, part), kappa, totals in cases:
        region = assemble_region_system(net, part, kappa, totals)
        succeeded = 0
        for _ in range(100):
            gamma = [2.0 ** rng.uniform(-3, 3) for _ in region.cfg.points]
            try:
                res = rescale_back(region, gamma)
            except MessiError:
                continue
            assert res.residual < 1e-9
            succeeded += 1
        if net.name != "mixed_phosphorylation":
            assert succeeded == 100
    assert time.monotonic() - start < 3.0


def test_acceptance_7vi_parametrization_residual():
    cases = [
        (hybrid_kinase(), HK_KAPPA),
        (phosphorylation(2), phospho_kappa(2)),
        (phosphorylation(3), phospho_kappa(3)),
        (mixed_phosphorylation(), {f"k{i}": Fraction(i, 3) for i in range(1, 11)}),
    ]
    rng = random.Random(76)
    for (net, part), kappa in cases:
        param = steady_state_parametrization(net, part, kappa)
        polys = net.mass_action_system(kappa)
        for _ in range(100):
            x = [math.exp(rng.uniform(-2, 2)) for _ in param.chosen]
            vals = param.evaluate(x)
            point = [float(vals[sp]) for sp in net.species]
            f = oracles.evaluate(polys, point)
            for i, fi in enumerate(f):
                scale = max(
                    abs(float(c)) * math.prod(xj ** e for xj, e in zip(point, m))
                    for m, c in polys[i].items()
                )
                assert abs(fi) < 1e-9 * max(scale, 1e-30)
