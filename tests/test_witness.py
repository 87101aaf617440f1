import collections
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multistat.decoration import find_decorated
from multistat.messi import assemble_region_system, rescale_back
from multistat.networks import hybrid_kinase, phosphorylation
from multistat.points import PointConfiguration, joint_cone
from multistat.ratlin import kernel_basis
from multistat import witness
import oracles
from oracles import count_positive_roots, phi_map
from multistat.witness import (
    DeformedSystem,
    certify_multistationarity,
    newton_solve_many,
    validate_root_set,
    witness_search,
)

HK_KAPPA = dict(k1=1, k2=1, k3=2, k4=1, k5=1, k6=1)
HK_TOTALS = [Fraction(7, 4), 1]


def phospho_kappa(n):
    k = {}
    for i in range(n):
        k.update({f"kon{i}": 1, f"koff{i}": 1, f"kcat{i}": 1,
                  f"lon{i}": 1, f"loff{i}": 1, f"lcat{i}": 1})
    k["kcat1"] = 2
    return k


def hk_region():
    net, part = hybrid_kinase()
    return net, part, assemble_region_system(net, part, HK_KAPPA, HK_TOTALS)


# ---------------------------------------------------------------------------
# coefficient scaling map
# ---------------------------------------------------------------------------

def test_phi_map_trivial_cases():
    cfg = PointConfiguration([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
    assert phi_map(cfg, [1, 1, 1], 0.5, [0] * 5) == [1.0] * 5
    h = [0, 1, 0, 0, 0]
    gamma = phi_map(cfg, [1, 1, 1], 0.5, h)
    assert gamma == [1.0, 0.5, 1.0, 1.0, 1.0]


def test_phi_map_kernel_identity():
    cfg = PointConfiguration([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
    kernel = kernel_basis(cfg.matrix)
    rng = random.Random(4)
    for _ in range(200):
        alpha = [math.exp(rng.uniform(-2, 2)) for _ in range(3)]
        t = rng.uniform(0.01, 1.0)
        h = [rng.uniform(-2, 2) for _ in range(5)]
        gamma = phi_map(cfg, alpha, t, h)
        for m in kernel:
            lhs = sum(float(mi) * math.log(g) for mi, g in zip(m, gamma))
            rhs = sum(float(mi) * hi for mi, hi in zip(m, h)) * math.log(t)
            assert abs(lhs - rhs) < 1e-10


def test_phi_map_rejects_bad_inputs():
    cfg = PointConfiguration([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
    with pytest.raises(ValueError):
        phi_map(cfg, [1, -1, 1], 0.5, [0] * 5)
    with pytest.raises(ValueError):
        phi_map(cfg, [1, 1, 1], 0.0, [0] * 5)


# ---------------------------------------------------------------------------
# deformed systems and Newton certification
# ---------------------------------------------------------------------------

def test_deformed_at_t_one_is_base_system():
    _, _, region = hk_region()
    h = [1, 1, 0, 0, 0]
    system = DeformedSystem(region.cfg, region.C, h, 1.0)
    rng = random.Random(2)
    for _ in range(20):
        x = [rng.uniform(0.2, 4.0) for _ in range(2)]
        u = np.log(x)
        f, _ = system.residual_jacobian(u)
        for i, row in enumerate(region.C):
            terms = [float(c) * x[0] ** a[0] * x[1] ** a[1]
                     for c, a in zip(row, region.cfg.points)]
            top = max(abs(v) for v in terms)
            assert abs(f[i] - sum(terms) / top) < 1e-12


def test_coefficients_outside_the_double_range_keep_their_magnitude():
    cfg = PointConfiguration([(0,), (1,), (2,), (3,)])
    C = [[Fraction(-7, 4), Fraction(1, 10 ** 400), Fraction(3, 10 ** 330) * 10 ** 700, 1]]
    system = DeformedSystem(cfg, C, [0, 0, 0, 0], 1.0)
    assert list(system.sign[0]) == [-1, 1, 1, 1]
    # in range: the float logarithm, as before; outside: from the integers
    assert system.logmag[0, 0] == math.log(1.75) and system.logmag[0, 3] == 0.0
    assert system.logmag[0, 1] == pytest.approx(-400 * math.log(10), rel=1e-15)
    assert system.logmag[0, 2] == pytest.approx(math.log(3) + 370 * math.log(10), rel=1e-15)


def test_newton_univariate():
    cfg = PointConfiguration([(0,), (1,), (2,)])
    system = DeformedSystem(cfg, [[-2, 1, 0]], [0, 0, 0], 1.0)
    (root,) = newton_solve_many(system, [[1.0]], ["seed"])
    assert root is not None
    assert root.x[0] == pytest.approx(2.0, abs=1e-12)
    assert root.residual < 1e-10
    assert root.sigma_ratio > 1e-8


# the ways one seed's iteration can end
EXITS = ("non-finite seed", "non-finite residual", "converged", "singular Jacobian",
         "non-finite step", "stalled", "zero step", "MAX_ITER")


def reference_newton(system, seed, basin):
    """The one-seed damped Newton loop that ``newton_solve_many`` stacks:
    Armijo backtracking from ``lam = 1`` by halving while ``lam > 1e-8``.
    Returns the certified root or None, and how the iteration ended."""
    u = np.log(np.asarray(seed, dtype=float))
    if not np.all(np.isfinite(u)):
        return None, "non-finite seed"
    step = np.inf
    for _ in range(witness.MAX_ITER):
        f, J = system.residual_jacobian(u)
        res = float(np.max(np.abs(f)))
        if not math.isfinite(res):
            return None, "non-finite residual"
        if res < witness.RESIDUAL_TOL and step < witness.STEP_TOL:
            how = "converged"
            break
        try:
            du = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            return None, "singular Jacobian"
        if not np.all(np.isfinite(du)):
            return None, "non-finite step"
        lam = 1.0
        while lam > 1e-8:
            trial = u + lam * du
            new_res = oracles.residual(system, trial)
            if new_res <= (1 - 1e-4 * lam) * res or new_res < witness.RESIDUAL_TOL:
                u = trial
                step = lam * float(np.max(np.abs(du)))
                break
            lam *= 0.5
        else:
            if res < witness.RESIDUAL_TOL:
                how = "stalled"
                break
            return None, "stalled"
        if step == 0.0:
            how = "zero step"
            break
    else:
        how = "MAX_ITER"
    f, J = system.residual_jacobian(u)
    res = float(np.max(np.abs(f)))
    if not res < witness.RESIDUAL_TOL:
        return None, how
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[0] == 0 or sv[-1] <= witness.SINGULAR_TOL * sv[0]:
        return None, how
    return witness.CertifiedRoot(
        x=np.exp(u), log_x=u.copy(), residual=res, sigma_min=float(sv[-1]),
        sigma_ratio=float(sv[-1] / sv[0]), basin=basin,
    ), how


def same_root(a, b):
    if a is None or b is None:
        return a is b
    return (a.log_x.tobytes() == b.log_x.tobytes() and a.x.tobytes() == b.x.tobytes()
            and (a.residual, a.sigma_min, a.sigma_ratio, a.basin)
            == (b.residual, b.sigma_min, b.sigma_ratio, b.basin))


@st.composite
def systems_and_seeds(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 2, d + 4))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * d),
                           min_size=n, max_size=n, unique=True))
    try:
        cfg = PointConfiguration(points)
    except ValueError:
        assume(False)
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    # a row without terms is not evaluable; unit coefficients put exact
    # roots at x = 1, where the residual can vanish exactly
    rows = {"drawn": st.lists(coeff, min_size=n, max_size=n),
            "unit": st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
            "zero": st.just([0] * n)}
    C = [draw(rows[draw(st.sampled_from(["drawn"] * 4 + ["unit"] * 2 + ["zero"]))])
         for _ in range(d)]
    h = [draw(st.integers(-3, 3)) for _ in range(n)]
    t = draw(st.one_of(st.just(1.0), st.floats(1e-12, 1.0)))
    # moderate seeds converge or stall; far ones make a single monomial
    # dominate every row (singular Jacobians) or overflow the iteration,
    # and at -740 the other monomials are subnormal, so the step overflows
    log_coord = st.one_of(st.floats(-15, 15), st.just(0.0),
                          st.sampled_from([-740.0, -700.0, 650.0, 709.0]))
    seeds = draw(st.lists(st.lists(log_coord, min_size=d, max_size=d).map(np.exp),
                          min_size=1, max_size=10))
    seeds += [np.full(d, np.inf), np.zeros(d)]
    return DeformedSystem(cfg, C, h, t), seeds


def plain_system(points, C):
    return DeformedSystem(PointConfiguration(points), C, [0] * len(points), 1.0)


NEAR_MINUS_ONE = Fraction(-1) + Fraction(2, 10 ** 11)
SUBNORMAL = Fraction(1, 10 ** 321)

# seeded exits that random draws reach rarely
RARE_EXITS = [
    # zero step: x = 1 is an exact root, so f and the step vanish exactly
    (plain_system([(0,), (1,), (2,)], [[-1, 1, 0]]), [np.array([1.0])]),
    # non-finite step: at x = e^-740 every term but the constant is
    # subnormal, and so is the Jacobian
    (plain_system([(0,), (1,), (2,)], [[3, 1, -2]]), [np.exp([-740.0])]),
    # MAX_ITER: the only root, (1, 0), lies on the boundary of the positive
    # orthant, and the iterates approach it without end (x - 1 is summed
    # before y, so the residual keeps the vanishing y term)
    (plain_system([(1, 0), (0, 0), (0, 1), (1, 1)], [[1, -1, 1, 0], [1, -1, -1, 0]]),
     [np.array([2.0, 0.5])]),
    # non-finite step at a certified residual: at x = (1, 1) each row is
    # 1e-11 off a double root, so its large terms cancel exactly in the
    # Jacobian and only a subnormal term of the other coordinate is left
    (plain_system([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)],
                  [[NEAR_MINUS_ONE, 2, -1, SUBNORMAL, 0], [NEAR_MINUS_ONE, SUBNORMAL, 0, 2, -1]]),
     [np.ones(2)]),
    # MAX_ITER by an exact 2-cycle: a region system of hk at t = 2^-8 whose
    # iterates alternate, bit for bit, between two points at a residual of
    # 7e-16 with steps of 1.4e-14 after 10 iterations
    (DeformedSystem(PointConfiguration([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]),
                    [[Fraction(-17, 8), 0, 1, 1, Fraction(39, 40)],
                     [-1, 1, 0, Fraction(4, 7), Fraction(3, 7)]],
                    [Fraction(-1, 2), 1, 1, Fraction(1, 2), 1], 2.0 ** -8),
     [np.array([4.531583637600819, 33.98208328942561])]),
    # MAX_ITER by a crawl, damped on every iteration: a lattice seed of an
    # hk region system at t = 2^-7 that creeps along at a residual near 1
    # with step lengths of 2^-14 to 2^-11
    (DeformedSystem(PointConfiguration([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]),
                    [[Fraction(-7, 4), 0, 1, Fraction(35, 24), Fraction(5, 4)],
                     [-1, 1, 0, Fraction(7, 8), Fraction(7, 12)]],
                    [Fraction(-1, 2), 1, 1, Fraction(1, 2), 1], 2.0 ** -7),
     [np.array([1049240.7560076464, 1.0374798123479299e-06])]),
]


def test_stacked_newton_matches_one_seed_at_a_time():
    exits = collections.Counter()

    @settings(max_examples=100)
    @given(systems_and_seeds())
    @example(RARE_EXITS[0])
    @example(RARE_EXITS[1])
    @example(RARE_EXITS[2])
    @example(RARE_EXITS[3])
    @example(RARE_EXITS[4])
    @example(RARE_EXITS[5])
    def check(case):
        system, seeds = case
        basins = ["seed %d" % i for i in range(len(seeds))]
        with np.errstate(all="ignore"):
            together = newton_solve_many(system, seeds, basins)
            for seed, basin, root in zip(seeds, basins, together):
                assert same_root(root, newton_solve_many(system, [seed], [basin])[0])
                alone, how = reference_newton(system, seed, basin)
                assert same_root(root, alone)
                exits[how] += 1

    check()
    # every exit is reached, by the seeded examples at least
    assert all(exits[e] > 0 for e in EXITS), exits


def test_a_non_finite_step_at_a_certified_residual_fails():
    system, seeds = RARE_EXITS[3]
    f, J = system.residual_jacobian(np.log(seeds[0]))
    # certifiable where it stands: residual below the bound, Jacobian
    # well conditioned (but subnormal), so only the step rejects it
    sv = np.linalg.svd(J, compute_uv=False)
    assert np.abs(f).max() < witness.RESIDUAL_TOL and sv[-1] > witness.SINGULAR_TOL * sv[0]
    with np.errstate(all="ignore"):
        assert not np.isfinite(np.linalg.solve(J, -f)).all()
        assert newton_solve_many(system, seeds, ["seed"]) == [None]
        assert reference_newton(system, seeds[0], "seed") == (None, "non-finite step")


# seeds of -2 + x = 0 that Newton certifies after exactly k iterations
LAST_ITERATION_SEEDS = {1: 2.000001, 2: 2.001, 3: 2.1, 4: 3.0, 5: 5.0, 6: 10.0}


@pytest.mark.parametrize("max_iter", sorted(LAST_ITERATION_SEEDS))
def test_a_seed_is_certified_on_the_last_allowed_iteration(monkeypatch, max_iter):
    system = plain_system([(0,), (1,), (2,)], [[-2, 1, 0]])
    seed = np.array([LAST_ITERATION_SEEDS[max_iter]])
    for allowed, certified in [(max_iter, True), (max_iter - 1, False)]:
        monkeypatch.setattr(witness, "MAX_ITER", allowed)
        root = newton_solve_many(system, [seed], ["seed"])[0]
        alone, how = reference_newton(system, seed, "seed")
        assert (root is not None) == certified and how == "MAX_ITER"
        assert same_root(root, alone)


@pytest.mark.parametrize("max_iter", [12, 13, 30, 31, 200, 201])
def test_a_seed_in_an_exact_two_cycle_stops_where_max_iter_would(monkeypatch, max_iter):
    system, seeds = RARE_EXITS[4]
    iterations = []
    newton_steps = witness._newton_steps
    monkeypatch.setattr(witness, "MAX_ITER", max_iter)
    monkeypatch.setattr(witness, "_newton_steps",
                        lambda J, f: iterations.append(len(J)) or newton_steps(J, f))
    root = newton_solve_many(system, seeds, ["seed"])[0]
    alone, how = reference_newton(system, seeds[0], "seed")
    assert how == "MAX_ITER" and root is not None
    assert same_root(root, alone)
    # the cycle is caught on its second point, long before MAX_ITER
    assert len(iterations) == 11
    # the two points of the cycle differ: the parity of MAX_ITER picks one
    monkeypatch.setattr(witness, "MAX_ITER", max_iter + 1)
    other = newton_solve_many(system, seeds, ["seed"])[0]
    assert other.log_x.tobytes() != root.log_x.tobytes()


def test_an_all_damped_stack_evaluates_the_whole_ladder_once_per_iteration(monkeypatch):
    system, seeds = RARE_EXITS[5]
    # certified after 10 full steps
    undamped = np.array([0.1, 1000.0])
    ladder = len(witness.ARMIJO_LADDER)
    shapes = []
    newton_steps, terms = witness._newton_steps, DeformedSystem._scaled_term_values
    monkeypatch.setattr(witness, "_newton_steps",
                        lambda J, f: shapes.append("step") or newton_steps(J, f))
    monkeypatch.setattr(DeformedSystem, "_scaled_term_values",
                        lambda self, u, which=None: shapes.append(np.shape(u)) or terms(self, u, which))
    # until every live seed's last step was damped: the full step, then the
    # rest of the ladder for the crawler; after that one whole ladder
    for stack, two_call in [(seeds, 1), (seeds + [undamped], 10)]:
        shapes.clear()
        roots = newton_solve_many(system, stack, ["seed"] * len(stack))
        assert shapes[0] == (len(stack), 2)
        iterations = []
        for shape in shapes[1:]:
            if shape == "step":
                iterations.append([])
            else:
                iterations[-1].append(shape)
        assert iterations == ([[(len(stack), 2), (1, ladder - 1, 2)]] * two_call
                              + [[(1, ladder, 2)]] * (witness.MAX_ITER - two_call))
        assert roots[0] is None and (len(stack) == 1 or roots[1] is not None)
        for root, seed in zip(roots, stack):
            assert same_root(root, reference_newton(system, seed, "seed")[0])


def test_armijo_bound_is_the_per_call_expression_bit_for_bit():
    bound = witness.ARMIJO_BOUND
    assert bound.tobytes() == (1 - 1e-4 * witness.ARMIJO_LADDER).tobytes()
    assert bound[1:].tobytes() == (1 - 1e-4 * witness.ARMIJO_LADDER[1:]).tobytes()
    for lam, b in zip(witness.ARMIJO_LADDER, bound):
        assert float(b).hex() == (1 - 1e-4 * float(lam)).hex()
    assert float(bound[0]).hex() == (1 - 1e-4 * 1.0).hex()


def test_newton_steps_are_nan_rows_at_singular_jacobians():
    rng = np.random.default_rng(3)
    J, f = rng.normal(size=(7, 3, 3)), rng.normal(size=(7, 3))
    J[1] = 0.0
    J[4] = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    J[5, 2] = 2 * J[5, 0]
    singular = [1, 4, 5]
    # regular, but its step overflows: np.linalg.solve returns inf quietly
    J[6] = np.diag([1e-310, 1.0, 1.0])
    for i in singular:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(J[i], -f[i])
    with np.errstate(all="raise"):
        du = witness._newton_steps(J, f)
        assert list(np.flatnonzero(np.isnan(du).any(axis=1))) == singular
        assert np.isnan(du[singular]).all()
        for i in sorted(set(range(len(J))) - set(singular)):
            assert du[i].tobytes() == np.linalg.solve(J[i], -f[i]).tobytes()
    assert np.isinf(du[6, 0])


def test_stacked_evaluation_marks_failed_points():
    cfg = PointConfiguration([(0,), (1,), (2,)])
    system = DeformedSystem(cfg, [[-2, 1, 0]], [0, 0, 0], 1.0)
    u = np.array([[0.0], [np.inf], [1.0]])
    with np.errstate(invalid="ignore"):
        f, J = system.residual_jacobian(u)
        res = oracles.residual(system, u)
    assert np.isnan(f[1]).all() and np.isnan(J[1]).all() and np.isnan(res[1])
    for k in (0, 2):
        f1, J1 = system.residual_jacobian(u[k])
        assert f1.tobytes() == f[k].tobytes() and J1.tobytes() == J[k].tobytes()
        assert oracles.residual(system, u[k]) == res[k]


def test_lattice_seeds_first_coordinate_fastest():
    seeds = witness._lattice_seeds(2, random.Random(0))
    assert len(seeds) == 25
    pinned = {
        0: [1.0713123264686784e-06, 1.0529448741933434e-06],
        1: [0.0009842398281481603, 9.529273130654804e-07],
        2: [1.0022574885726185, 9.811664377330515e-07],
        5: [1.0850462111846701e-06, 0.0010009378106331322],
        24: [949066.1154273698, 1098019.4424259497],
    }
    for i, x in pinned.items():
        assert seeds[i].tolist() == x
    plain = witness._lattice_seeds(2, None)
    assert plain[1].tolist() == pytest.approx([1e-3, 1e-6])
    assert plain[5].tolist() == pytest.approx([1e-6, 1e-3])


def test_no_roots_when_coefficients_share_a_sign():
    cfg = PointConfiguration([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
    C = [[1, 2, 1, 1, 3], [2, 1, 1, 4, 1]]
    system = DeformedSystem(cfg, C, [0] * 5, 0.5)
    assert count_positive_roots(system) == []


def hk_system_and_family(t=2.0 ** -7):
    _, _, region = hk_region()
    family = find_decorated(region.cfg, region.C).best
    system = DeformedSystem(
        region.cfg, region.C, [float(v) for v in family.height], t
    )
    return region, system, family


def test_rerun_from_certified_root_reproduces_it():
    _, system, family = hk_system_and_family()
    roots = count_positive_roots(system, family)
    assert len(roots) >= 3
    for r in roots:
        (again,) = newton_solve_many(system, [r.x], ["seed"])
        assert again is not None
        assert float(np.max(np.abs(again.log_x - r.log_x))) < 1e-12


def test_duplicate_basins_are_merged():
    _, system, family = hk_system_and_family()
    roots = count_positive_roots(system, family)
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            assert a.distinct_from(b)


# ---------------------------------------------------------------------------
# exclusion sweep (two variables)
# ---------------------------------------------------------------------------

def test_exclusion_confirms_root_count():
    _, system, family = hk_system_and_family()
    roots = count_positive_roots(system, family)
    assert len(roots) == 3
    missed, unresolved = validate_root_set(system, roots)
    assert missed == []
    assert unresolved == []


@st.composite
def two_variable_sweeps(draw):
    n = draw(st.integers(4, 7))
    points = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=n, max_size=n, unique=True))
    try:
        cfg = PointConfiguration(points)
    except ValueError:
        assume(False)
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    C = [[draw(coeff) for _ in range(n)] for _ in range(2)]
    h = [draw(st.integers(-3, 3)) for _ in range(n)]
    t = draw(st.one_of(st.just(1.0), st.floats(1e-300, 1.0),
                       st.integers(1, 60).map(lambda k: 2.0 ** -k)))
    depth = draw(st.integers(0, 16))
    if any(all(c == 0 for c in row) for row in C):
        # a row without terms excludes nothing: 2^depth boxes survive
        depth = min(depth, 8)
    lo = hi = None
    if draw(st.booleans()):  # a refinement call on one box
        lo = [draw(st.floats(-20, 20)) for _ in range(2)]
        hi = [a + draw(st.floats(1e-6, 40)) for a in lo]
    return DeformedSystem(cfg, C, h, t), lo, hi, depth


@settings(max_examples=150)
@given(two_variable_sweeps())
def test_level_sweep_matches_the_depth_first_sweep(case):
    system, lo, hi, depth = case
    got = witness.exclusion_boxes(system, lo, hi, depth)
    want = oracles.exclusion_boxes(system, lo, hi, depth)
    # the same boxes in the same order, bit for bit
    assert len(got) == len(want)
    assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


def test_exclusion_rejects_other_dimensions():
    net, part = phosphorylation(2)
    region = assemble_region_system(net, part, phospho_kappa(2), [1, 1, 3])
    system = DeformedSystem(region.cfg, region.C, [0] * region.cfg.n, 0.5)
    with pytest.raises(ValueError):
        validate_root_set(system, [])


# ---------------------------------------------------------------------------
# positive-scaling equivalence
# ---------------------------------------------------------------------------

def test_scaled_system_roots_map_across():
    region, system, family = hk_system_and_family()
    h = [float(v) for v in family.height]
    t = 2.0 ** -7
    roots = count_positive_roots(system, family)
    assert len(roots) == 3
    rng = random.Random(8)
    alpha = [math.exp(rng.uniform(-1, 1)) for _ in range(3)]
    # scaling the columns by alpha^{(1, a_j)} shifts every root by 1/alpha
    Cs = []
    for row in region.C:
        Cs.append([
            float(c) * alpha[0] * alpha[1] ** a[0] * alpha[2] ** a[1]
            for c, a in zip(row, region.cfg.points)
        ])
    scaled = DeformedSystem(region.cfg, Cs, h, t)
    for r in roots:
        mapped = r.x / np.array(alpha[1:])
        (again,) = newton_solve_many(scaled, [mapped], ["seed"])
        assert again is not None
        assert float(np.max(np.abs(again.log_x - np.log(mapped)))) < 1e-10


# ---------------------------------------------------------------------------
# the decreasing-t search
# ---------------------------------------------------------------------------

def test_witness_search_hk():
    net, part, region = hk_region()
    decor = find_decorated(region.cfg, region.C)
    best = decor.best
    assert best.simplices == [(0, 1, 4), (0, 2, 3), (0, 3, 4)]
    report = witness_search(
        region.cfg, region.C, best,
        region=region,
    )
    assert report.status == "success"
    assert report.t_star == 2.0 ** -7
    assert len(report.roots) >= 3
    assert report.gamma == [report.t_star ** float(v) for v in report.height]
    changed = {k for k, v in report.kappa_bar.items()
               if abs(v - float(HK_KAPPA[k])) > 1e-9}
    assert changed == {"k4", "k5"}
    # the schedule log records every visited t
    assert [t for t, _ in report.log] == [2.0 ** -s for s in range(1, 8)]
    assert all(isinstance(s, dict) for s in report.species_roots)


def test_witness_search_exhausted_budget():
    _, _, region = hk_region()
    decor = find_decorated(region.cfg, region.C)
    report = witness_search(region.cfg, region.C, decor.best, budget=3)
    assert report.status == "exhausted"
    assert report.t_star is None
    assert report.roots == []
    assert len(report.log) == 3


def test_witness_search_requires_height():
    _, _, region = hk_region()
    decor = find_decorated(region.cfg, region.C)
    family = decor.best
    bad = type(family)(family.simplices, None, family.cone)
    with pytest.raises(ValueError):
        witness_search(region.cfg, region.C, bad)


def test_mapped_roots_satisfy_conservation_laws():
    net, part, region = hk_region()
    decor = find_decorated(region.cfg, region.C)
    report = witness_search(
        region.cfg, region.C, decor.best,
        region=region,
    )
    laws = net.conservation_laws()
    for vec in report.species_roots:
        vals = [vec[sp] for sp in net.species]
        for law, T in zip(laws, HK_TOTALS):
            total = sum(float(l) * v for l, v in zip(law, vals))
            assert abs(total - float(T)) < 1e-8 * max(float(T), 1.0)


def test_witness_search_rejects_a_budget_past_the_smallest_double():
    _, _, region = hk_region()
    family = find_decorated(region.cfg, region.C).best
    assert witness_search(region.cfg, region.C, family, budget=1074).t_star == 2.0 ** -7
    with pytest.raises(ValueError, match="at most 1074"):
        witness_search(region.cfg, region.C, family, budget=1075)
    with pytest.raises(ValueError, match="at most 1074"):
        witness.mixed_witness_search(region.cfg, region.C,
                                     witness.mixed_decoration(region.cfg, region.C), budget=1075)


def test_a_stack_of_systems_evaluates_as_each_system():
    _, system, family = hk_system_and_family()
    ts = [2.0 ** -k for k in (1, 7, 300)]
    stack = DeformedSystem(system.cfg, system.C, family.height, ts)
    u = np.log(np.array([[1.5, 0.25], [2.0, 3.0], [0.125, 7.0]]))
    f, J = stack.residual_jacobian(u, [2, 0, 1])
    for k, (t, row) in enumerate(zip(ts, [1, 2, 0])):
        one = DeformedSystem(system.cfg, system.C, family.height, t)
        assert stack.logmag[k].tobytes() == one.logmag.tobytes()
        f1, J1 = one.residual_jacobian(u[row])
        assert f1.tobytes() == f[row].tobytes() and J1.tobytes() == J[row].tobytes()


def test_the_schedule_stacks_1_2_4_steps_up_to_half_a_newton_block(monkeypatch):
    stacks = []
    solve = witness.newton_solve_many

    def spy(system, seeds, basins, which=None):
        stacks.append((len(seeds), len(set(which))))
        return solve(system, seeds, basins, which)

    monkeypatch.setattr(witness, "newton_solve_many", spy)
    _, _, region = hk_region()
    report = witness_search(region.cfg, region.C, find_decorated(region.cfg, region.C).best)
    # t* = 2^-7: steps 1 | 2, 3 | 4..7, each of 3 simplex and 25 lattice seeds
    assert report.t_star == 2.0 ** -7
    assert stacks == [(28, 1), (56, 2), (112, 4)]
    # in three variables one step has 125 lattice seeds: no step is speculative
    stacks.clear()
    _, report = certify_multistationarity(*phosphorylation(2), phospho_kappa(2), [1, 1, 3])
    assert len(stacks) == len(report.log) and all(k == 1 for _, k in stacks)


def reference_schedule(cfg, C, family, H, seeds_of, budget, rng):
    """The decreasing-t search one step at a time, as the stacked schedule
    must reproduce it: t*, the roots at t* and the log."""
    log = []
    for step in range(1, budget + 1):
        t = 2.0 ** -step
        system = DeformedSystem(cfg, C, H, t)
        pairs = [(b, s) for b, s in seeds_of(system) if s is not None]
        pairs += [("lattice %d" % i, s)
                  for i, s in enumerate(witness._lattice_seeds(cfg.d, rng))]
        roots = []
        for root in newton_solve_many(system, [s for _, s in pairs], [b for b, _ in pairs]):
            if root is not None and all(root.distinct_from(r) for r in roots):
                roots.append(root)
        log.append((t, len(roots)))
        if len(roots) >= len(family.simplices):
            return t, roots, log
    return None, [], log


def assert_same_search(report, family, reference):
    t_star, roots, log = reference
    assert report.status == ("exhausted" if t_star is None else "success")
    assert (report.t_star, report.log, report.family.simplices) == (t_star, log, family.simplices)
    assert len(report.roots) == len(roots)
    for a, b in zip(report.roots, roots):
        assert (a.x.tobytes(), a.log_x.tobytes(), a.basin) == (b.x.tobytes(), b.log_x.tobytes(),
                                                               b.basin)


RATE = st.builds(Fraction, st.integers(1, 24), st.integers(1, 24))
# within a factor 4/6..8/6 of the acceptance values, where hk has families of 3
NEAR = st.builds(Fraction, st.integers(4, 8), st.just(6))
SCHEDULE_BUDGET = st.one_of(st.integers(1, 6), st.just(60))
NETWORKS = {"hk": (hybrid_kinase(), HK_KAPPA, HK_TOTALS),
            "phospho:2": (phosphorylation(2), phospho_kappa(2), [1, 1, 3])}


@st.composite
def network_inputs(draw, name):
    (net, part), kappa, totals = NETWORKS[name]
    if draw(st.booleans()):
        kappa = {k: v * draw(NEAR) for k, v in kappa.items()}
        totals = [v * draw(NEAR) for v in totals]
    else:
        kappa = {k: draw(RATE) for k in kappa}
        totals = [draw(RATE) for _ in totals]
    return net, part, kappa, totals, draw(SCHEDULE_BUDGET), draw(st.integers(0, 2 ** 32))


@pytest.mark.parametrize("name, examples", [("hk", 30), ("phospho:2", 5)])
def test_stacked_schedule_equals_the_step_by_step_one(name, examples):
    @settings(max_examples=examples)
    @given(network_inputs(name))
    def check(case):
        net, part, kappa, totals, budget, seed = case
        decor, report = certify_multistationarity(net, part, kappa, totals, budget=budget,
                                                  rng=random.Random(seed))
        family = decor.best
        if family is None:
            assert report is None
            return
        region = report.region
        reference = reference_schedule(
            region.cfg, region.C, family, [float(v) for v in family.height],
            lambda system: [("simplex %s" % (tuple(s),), witness._simplex_seed(system, s))
                            for s in family.simplices], budget, random.Random(seed))
        assert_same_search(report, family, reference)
        if report.status == "success":
            gamma = [report.t_star ** float(v) for v in family.height]
            kappa_bar = rescale_back(region, gamma).kappa_bar
            assert report.kappa_bar == kappa_bar

    check()


@pytest.mark.parametrize("name, examples", [("hk", 8), ("phospho:2", 4)])
def test_stacked_mixed_schedule_equals_the_step_by_step_one(name, examples):
    @settings(max_examples=examples)
    @given(network_inputs(name))
    def check(case):
        net, part, kappa, totals, budget, seed = case
        region = assemble_region_system(net, part, kappa, totals)
        mixed = witness.mixed_decoration(region.cfg, region.C)
        family = mixed.best
        assume(family is not None)
        report = witness.mixed_witness_search(region.cfg, region.C, mixed, budget=budget,
                                              rng=random.Random(seed))
        H = np.zeros((len(region.C), region.cfg.n))
        for g, hj in enumerate(family.height):
            H[mixed.cayley.block_of(g), mixed.columns[g]] = float(hj)
        reference = reference_schedule(
            region.cfg, region.C, family, H,
            lambda system: [("mixed simplex %s" % (tuple(s),),
                             witness._mixed_simplex_seed(system, mixed, s))
                            for s in family.simplices], budget, random.Random(seed))
        assert_same_search(report, family, reference)

    check()


def test_certify_pipeline_small_total_ratio():
    # outside the multistationarity window the best family is a single
    # simplex; the report still certifies what it found and claims no more
    net, part = hybrid_kinase()
    decor, report = certify_multistationarity(
        net, part, HK_KAPPA, [Fraction(3), 1], budget=10
    )
    assert len(decor.best.simplices) < 3
    assert report.status == "success"
    assert len(report.roots) == len(decor.best.simplices)


def test_certify_pipeline_phospho():
    net, part = phosphorylation(2)
    decor, report = certify_multistationarity(
        net, part, phospho_kappa(2), [1, 1, 3]
    )
    pts = report.region.cfg.points
    delta1 = tuple(sorted(pts.index(p) for p in
                          [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    delta2 = tuple(sorted(pts.index(p) for p in
                          [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, -1)]))
    assert delta1 in decor.decorated and delta2 in decor.decorated
    assert (delta1, delta2) in decor.facet_pairs
    assert report.status == "success"
    assert len(report.roots) >= 2
    changed = {k for k, v in report.kappa_bar.items()
               if abs(v - float(phospho_kappa(2)[k])) > 1e-9}
    assert changed <= {"kon0", "kon1", "lon0", "lon1"}
