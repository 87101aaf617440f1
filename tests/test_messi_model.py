"""The cached MESSI model against the per-kappa probing it replaced, its
cache key, its read-only fields, and the structured errors of rates and
column scalings."""

import dataclasses
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistat import messi, witness
from multistat.cli import main
from multistat.messi import (
    MessiError,
    assemble_region_system,
    classify_complexes,
    messi_model,
    rescale_back,
    steady_state_parametrization,
)
from multistat.networks import (
    Network,
    hybrid_kinase,
    mixed_phosphorylation,
    parse_network,
    phosphorylation,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
HK_KAPPA = dict(k1=1, k2=1, k3=2, k4=1, k5=1, k6=1)


def phospho_kappa(n):
    k = {}
    for i in range(n):
        k.update({f"kon{i}": 1, f"koff{i}": 1, f"kcat{i}": 1,
                  f"lon{i}": 1, f"loff{i}": 1, f"lcat{i}": 1})
    k["kcat1"] = 2
    return k


# ---------------------------------------------------------------------------
# references: the per-kappa probe and the rescaling built on it
# ---------------------------------------------------------------------------

def reference_reactant_core_complexes(net, partition):
    intermediate, core, _ = classify_complexes(net, partition)
    out = []
    for r in net.reactions:
        if r.source in core and r.source not in out:
            out.append(r.source)
    return out


def reference_probe(net, partition, kappa, totals, chosen, active):
    """Probe every reactant core complex with an exact factor of 2 at
    ``kappa``: the base system, the exponent of each active column per
    uniformly scaling complex, and those complexes.  A complex scales
    uniformly only if it leaves every chosen column unchanged."""
    kappa_exact = {k: Fraction(v) for k, v in net.rates(kappa).items()}
    base = assemble_region_system(net, partition, kappa_exact, totals, chosen)
    unit_cols = base.chosen_columns()
    probes = []
    names = []
    for y in reference_reactant_core_complexes(net, partition):
        k2 = dict(kappa_exact)
        for r in net.reactions:
            if r.source == y:
                k2[r.rate_name] = kappa_exact[r.rate_name] * 2
        scaled = assemble_region_system(net, partition, k2, totals, chosen)
        if scaled.cfg.points != base.cfg.points:
            continue
        evec = {}
        uniform = True
        for j in [*active, *unit_cols]:
            ratios = set()
            for a in range(len(base.C)):
                c0, c1 = base.C[a][j], scaled.C[a][j]
                if (c0 == 0) != (c1 == 0):
                    uniform = False
                    break
                if c0 != 0:
                    ratios.add(c1 / c0)
            if not uniform or len(ratios) > 1:
                uniform = False
                break
            if not ratios:
                evec[j] = 0
                continue
            (r,) = ratios
            num, den = r.numerator, r.denominator
            if (num & (num - 1)) or (den & (den - 1)):
                uniform = False
                break
            evec[j] = num.bit_length() - den.bit_length()
            if j in unit_cols and evec[j] != 0:
                uniform = False
                break
        if uniform:
            probes.append(evec)
            names.append(y)
    return base, probes, names


def reference_rescale_back(net, partition, kappa, totals, gamma, region, probe=None):
    """Rescaling by probing at ``kappa`` itself; ``probe`` passes in the
    result of :func:`reference_probe`, which does not depend on ``gamma``.
    Returns (kappa_bar, multipliers, chosen_scale, gamma_effective,
    residual)."""
    chosen = region.chosen
    cols = region.cfg.points
    n = len(cols)
    if len(gamma) != n:
        raise MessiError("need one scale per column")
    gamma = [float(g) for g in gamma]
    const = region.constant_column
    unit_cols = region.chosen_columns()
    gtil = [g / gamma[const] for g in gamma]
    gscale = {sp: gtil[unit_cols[a]] for a, sp in enumerate(chosen)}
    ghat = []
    for j, e in enumerate(cols):
        val = gtil[j]
        for a in range(len(chosen)):
            val *= gtil[unit_cols[a]] ** (-e[a])
        ghat.append(val)
    active = [j for j in range(n) if j != const and j not in unit_cols]
    if probe is None:
        probe = reference_probe(net, partition, kappa, totals, chosen, active)
    base, probes, names = probe
    if not probes and any(abs(math.log(ghat[j])) > 1e-12 for j in active):
        raise MessiError("no reactant complex scales the region system")
    E = np.array([[p[j] for p in probes] for j in active], dtype=float)
    rhs = np.array([math.log(ghat[j]) for j in active])
    if E.size:
        sol, *_ = np.linalg.lstsq(E, rhs, rcond=None)
        res = E @ sol - rhs
        if np.max(np.abs(res), initial=0.0) > 1e-9:
            raise MessiError("column scaling is not realizable by rate rescaling")
    else:
        sol = np.zeros(0)
    multipliers = {y: math.exp(s) for y, s in zip(names, sol)}
    kbar = {k: float(v) for k, v in net.rates(kappa).items()}
    for y, ell in multipliers.items():
        for r in net.reactions:
            if r.source == y:
                kbar[r.rate_name] *= ell
    scaled = assemble_region_system(net, partition, kbar, totals, chosen)
    if scaled.cfg.points != base.cfg.points:
        raise MessiError("rescaled system changed support")
    worst = 0.0
    for a in range(len(base.C)):
        for j in range(n):
            want = float(base.C[a][j]) * ghat[j]
            got = float(scaled.C[a][j])
            scale = max(abs(want), abs(got), 1e-300)
            worst = max(worst, abs(want - got) / scale)
    if worst > 1e-9:
        raise MessiError(
            "column scaling is not realizable by rate rescaling "
            "(postcondition residual %g)" % worst
        )
    return kbar, multipliers, gscale, ghat, worst


def active_columns(region):
    unit_cols = region.chosen_columns()
    return [j for j in range(region.cfg.n)
            if j != region.constant_column and j not in unit_cols]


# ---------------------------------------------------------------------------
# the model's exponents against the probe
# ---------------------------------------------------------------------------

NETWORKS = {
    "hk": hybrid_kinase,
    "phospho:2": lambda: phosphorylation(2),
    "phospho:3": lambda: phosphorylation(3),
    "mixed-phospho": mixed_phosphorylation,
}


@pytest.mark.parametrize("name", sorted(NETWORKS))
@settings(max_examples=15)
@given(data=st.data())
def test_model_exponents_equal_the_probe(name, data):
    net, part = NETWORKS[name]()
    rate = st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=40)
    kappa = {r.rate_name: data.draw(rate, label=r.rate_name)
             for r in net.reactions}
    totals = [1] * (len(part) - 1)
    region = assemble_region_system(net, part, kappa, totals)
    active = active_columns(region)
    _, probes, names = reference_probe(net, part, kappa, totals, region.chosen, active)
    model_names, exponents = messi_model(net, part, region.chosen).rescale_exponents
    assert list(model_names) == names
    for j in active:
        assert exponents[region.cfg.points[j]] == tuple(p[j] for p in probes)


def test_rescale_matches_the_probe_on_the_7v_scalings():
    # the gamma sets of test_acceptance_7v: same draws, same order
    cases = [
        (hybrid_kinase(), HK_KAPPA, [Fraction(7, 4), 1]),
        (phosphorylation(2), phospho_kappa(2), [1, 1, 3]),
        (mixed_phosphorylation(), {f"k{i}": 1 for i in range(1, 11)}, [1, 1, 3]),
    ]
    rng = random.Random(75)
    verdicts = {}
    for (net, part), kappa, totals in cases:
        region = assemble_region_system(net, part, kappa, totals)
        probe = reference_probe(net, part, kappa, totals, region.chosen,
                                active_columns(region))
        accepted = 0
        for _ in range(100):
            gamma = [2.0 ** rng.uniform(-3, 3) for _ in region.cfg.points]
            try:
                want = reference_rescale_back(net, part, kappa, totals, gamma, region, probe)
            except MessiError:
                with pytest.raises(MessiError):
                    rescale_back(region, gamma)
                continue
            res = rescale_back(region, gamma)
            got = (res.kappa_bar, res.multipliers, res.chosen_scale,
                   res.gamma_effective, res.residual)
            assert repr(got) == repr(want)
            assert res.region.cfg.points == region.cfg.points
            accepted += 1
        verdicts[net.name] = accepted
    assert verdicts["hybrid_kinase"] == verdicts["phosphorylation_2"] == 100
    # the generic scalings of mixed_phosphorylation have no preimage
    assert verdicts["mixed_phosphorylation"] < 100


def test_rescale_assembles_only_the_postcondition(monkeypatch):
    net, part = hybrid_kinase()
    totals = [Fraction(7, 4), 1]
    region = assemble_region_system(net, part, HK_KAPPA, totals)
    gamma = [2.0 ** v for v in (0, 3, 1, 0, 0)]
    want = rescale_back(region, gamma)
    calls = []
    real = messi.assemble_region_system
    monkeypatch.setattr(messi, "assemble_region_system",
                        lambda *a, **k: calls.append(a[2:4]) or real(*a, **k))
    rescale_back(region, gamma)
    # at the rescaled rates and the region's own totals
    assert calls == [(want.kappa_bar, totals)]
    # a region assembled at float rates holds the same exact rates
    calls.clear()
    float_kappa = {k: float(v) for k, v in HK_KAPPA.items()}
    res = rescale_back(real(net, part, float_kappa, [1.75, 1.0]), gamma)
    assert calls == [(want.kappa_bar, [1.75, 1.0])]
    assert res.kappa_bar == want.kappa_bar


# ---------------------------------------------------------------------------
# the parametrization over Q(kappa) against the route at each kappa
# ---------------------------------------------------------------------------

COMPILED = {
    **NETWORKS,
    "phospho:4": lambda: phosphorylation(4),
    "phospho:5": lambda: phosphorylation(5),
}
POSITIVE_RATE = st.one_of(
    st.fractions(min_value=Fraction(1, 10 ** 9), max_value=10 ** 9, max_denominator=10 ** 9),
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([1e-300, 1e300]),
)


def route_at(net, partition, rates):
    """The route over Q at the exact ``rates``, verified there: what the
    parametrization was before it was derived once per structure."""
    param, polys = messi._route(net, partition, messi_model(net, partition).chosen, rates)
    messi._verify_parametrization(net, param, polys)
    return param


def listed(terms):
    return [(sp, list(poly.items())) for sp, poly in terms.items()]


def fresh(net):
    """``net`` with every rate renamed, so that its structure has no cached
    model yet."""
    return Network(list(net.species), [dataclasses.replace(r, rate_name=r.rate_name + "_y")
                                       for r in net.reactions], name=net.name)


@pytest.mark.parametrize("name", sorted(COMPILED))
@settings(max_examples=12)
@given(data=st.data())
def test_compiled_parametrization_is_the_route_at_kappa(name, data):
    net, part = COMPILED[name]()
    kappa = {r.rate_name: data.draw(POSITIVE_RATE, label=r.rate_name) for r in net.reactions}
    totals = [data.draw(st.fractions(min_value=Fraction(1, 100), max_value=100))
              for _ in part[1:]]
    want = route_at(net, part, {k: Fraction(v) for k, v in kappa.items()})
    got = steady_state_parametrization(net, part, kappa)
    assert got == want and listed(got.terms) == listed(want.terms)
    assert all(type(c) is Fraction for poly in got.terms.values() for c in poly.values())
    region = assemble_region_system(net, part, kappa, totals)
    reference = assemble_region_system(net, part, kappa, totals, param=want)
    assert region.C == reference.C
    assert region.cfg.points == reference.cfg.points
    assert region.column_symbols == reference.column_symbols


def test_a_warm_call_at_a_new_kappa_runs_no_route(monkeypatch):
    net, part = phosphorylation(3)
    net = fresh(net)
    kappa = {k + "_y": v for k, v in phospho_kappa(3).items()}
    calls = []
    for name in ("_substitution_route", "_verify_parametrization"):
        monkeypatch.setattr(messi, name, lambda *a, f=getattr(messi, name), name=name:
                            calls.append(name) or f(*a))
    mass_action = Network.mass_action_system
    monkeypatch.setattr(Network, "mass_action_system",
                        lambda *a: calls.append("mass_action_system") or mass_action(*a))
    cold = steady_state_parametrization(net, part, kappa)
    assert sorted(calls) == ["_substitution_route", "_verify_parametrization",
                             "mass_action_system"]
    calls.clear()
    warm = steady_state_parametrization(net, part, dict(kappa, kon0_y=Fraction(7, 3)))
    assemble_region_system(net, part, dict(kappa, lcat1_y=0.25), [1, 1, 3])
    assert calls == [] and warm.terms != cold.terms


def test_a_tampered_coefficient_fails_the_verification_over_q_kappa(monkeypatch):
    net, part = phosphorylation(2)
    net = fresh(net)
    kappa = {k + "_y": v for k, v in phospho_kappa(2).items()}
    route = messi._substitution_route

    def tampered(*args):
        known = route(*args)
        poly = known["ES1"]
        (e, c), = poly.items()
        poly[e] = c * 2
        return known

    monkeypatch.setattr(messi, "_substitution_route", tampered)
    with pytest.raises(MessiError, match="parametrization residual"):
        steady_state_parametrization(net, part, kappa)
    monkeypatch.undo()
    # a failed derivation is not cached
    assert steady_state_parametrization(net, part, kappa) == route_at(
        net, part, {k: Fraction(v) for k, v in kappa.items()})


def test_a_vanishing_factor_of_both_signs_runs_the_route_at_kappa(monkeypatch):
    # mixed-phospho with its reactions and species reordered still passes
    # validate_partition, but its route forms k2*k6 - k3*k5 on the way
    net, part = mixed_phosphorylation()
    by_name = {r.rate_name: r for r in net.reactions}
    net = Network(["S0", "FS2", "F", "E", "FS1", "ES1", "S1", "ES0", "S2"],
                  [by_name["k%d" % i] for i in (9, 10, 1, 5, 4, 3, 2, 7, 6, 8)], name=net.name)
    assert messi_model(net, part).violations == ()
    factors, _, route = messi_model(net, part).compiled
    mixed = [poly for poly in factors.polys[:route] if min(poly.values()) < 0]
    assert [sorted(c for c in poly.values()) for poly in mixed] == [[-1, 1]]
    calls = []
    monkeypatch.setattr(messi, "_substitution_route",
                        lambda *a, f=messi._substitution_route: calls.append(a) or f(*a))
    for kappa, runs in [({k: 1 for k in by_name}, 1), ({**{k: 1 for k in by_name}, "k2": 2}, 0)]:
        calls.clear()
        got = steady_state_parametrization(net, part, kappa)
        assert len(calls) == runs
        want = route_at(net, part, {k: Fraction(v) for k, v in kappa.items()})
        assert got == want and listed(got.terms) == listed(want.terms)


# ---------------------------------------------------------------------------
# the cache key and read-only fields
# ---------------------------------------------------------------------------

def test_same_structure_shares_one_model():
    net, part = hybrid_kinase()
    other, _ = hybrid_kinase()
    assert messi_model(net, part) is messi_model(other, part)
    assert messi_model(net, part).chosen == ("X4", "X5")
    assert messi_model(net, part, ("X1", "X5")) is not messi_model(net, part)


def test_same_name_other_reactions_gets_its_own_model():
    net, part = hybrid_kinase()
    # same name and species, but X6 -> X5 becomes X6 -> X4, across blocks
    last = net.reactions[-1]
    other = Network(list(net.species), net.reactions[:-1] + [
        dataclasses.replace(last, target=(("X4", 1),))], name=net.name)
    a, b = messi_model(net, part), messi_model(other, part)
    assert a is not b and a.violations == ()
    assert b.violations
    with pytest.raises(MessiError, match="invalid species partition"):
        steady_state_parametrization(other, part, HK_KAPPA)
    with pytest.raises(MessiError, match="not conserved"):
        b.laws
    assert a.laws == ((1, 1, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1))
    assert steady_state_parametrization(net, part, HK_KAPPA).chosen == ("X4", "X5")


def test_mutated_reaction_list_gets_its_own_model():
    net, part = phosphorylation(2)
    before = messi_model(net, part)
    laws = before.laws
    r = net.reactions[0]
    net.reactions[0] = dataclasses.replace(r, rate_name=r.rate_name + "_renamed")
    after = messi_model(net, part)
    assert after is not before
    assert after.net.reactions[0].rate_name == r.rate_name + "_renamed"
    # the earlier model keeps the reactions it was built from
    assert before.net.reactions[0] == r
    assert before.laws is laws and after.laws == laws
    kappa = phospho_kappa(2)
    want = steady_state_parametrization(*phosphorylation(2), kappa).terms
    kappa[r.rate_name + "_renamed"] = kappa.pop(r.rate_name)
    assert steady_state_parametrization(net, part, kappa).terms == want


def test_invalid_partition_raises_on_every_call():
    net, part = hybrid_kinase()
    bad = [["X1"], ["X2", "X3", "X4"], ["X5", "X6"]]
    missing = [[], ["X1", "X2", "X3", "X4"], ["X5"]]
    for _ in range(3):
        with pytest.raises(MessiError, match="invalid species partition"):
            steady_state_parametrization(net, bad, HK_KAPPA)
        with pytest.raises(MessiError, match="invalid species partition"):
            assemble_region_system(net, bad, HK_KAPPA, [1, 1])
        with pytest.raises(MessiError, match="missing from partition"):
            steady_state_parametrization(net, missing, HK_KAPPA)


def test_empty_core_block_is_a_structured_error():
    net, part, _ = parse_network(
        "species: X1 X2\npartition: 0: ; 1: X1 X2 ; 2:\n"
        "reaction: X1 -> X2 ; k1 = 1\nreaction: X2 -> X1 ; k2 = 1\n")
    with pytest.raises(MessiError, match="one chosen species per core block"):
        steady_state_parametrization(net, part)


def test_cached_fields_cannot_be_mutated():
    net, part = hybrid_kinase()
    region = assemble_region_system(net, part, HK_KAPPA, [Fraction(7, 4), 1])
    with pytest.raises(TypeError):
        region.laws[0][0] = 99
    model = messi_model(net, part)
    assert region.laws is model.laws
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.violations = ("x",)
    with pytest.raises(AttributeError):
        model.net.reactions.append(model.net.reactions[0])
    with pytest.raises(TypeError):
        model.sources[next(iter(model.sources), ())] = ()
    with pytest.raises(TypeError):
        model.rescale_exponents[1][(0, 0)] = ()


def test_exponents_are_derived_on_first_rescale_only():
    net, part = phosphorylation(2)
    # rename every rate so that this structure has no cached model yet
    net = Network(list(net.species), [dataclasses.replace(r, rate_name=r.rate_name + "_x")
                                      for r in net.reactions], name=net.name)
    kappa = {k + "_x": v for k, v in phospho_kappa(2).items()}
    region = assemble_region_system(net, part, kappa, [1, 1, 3])
    model = messi_model(net, part)
    assert "rescale_exponents" not in vars(model)
    gamma = [1.0] * region.cfg.n
    rescale_back(region, gamma)
    assert "rescale_exponents" in vars(model)


# ---------------------------------------------------------------------------
# rates and scalings that are not positive and finite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [-1, 0, Fraction(-1, 2), float("nan"), float("inf"), -0.0])
def test_rates_must_be_positive_and_finite(bad):
    net, part = hybrid_kinase()
    kappa = dict(HK_KAPPA, k6=bad)
    with pytest.raises(MessiError, match="rate k6 = .* is not positive and finite"):
        steady_state_parametrization(net, part, kappa)
    with pytest.raises(MessiError, match="rate k6"):
        assemble_region_system(net, part, kappa, [Fraction(7, 4), 1])


@pytest.mark.parametrize("bad", [0, -1, Fraction(-7, 4), float("nan"), float("inf"), -0.0])
def test_totals_must_be_positive_and_finite(bad):
    net, part = hybrid_kinase()
    with pytest.raises(MessiError, match="total T2 = .* is not positive and finite"):
        assemble_region_system(net, part, HK_KAPPA, [Fraction(7, 4), bad])
    with pytest.raises(MessiError, match="total T1 = "):
        witness.certify_multistationarity(net, part, HK_KAPPA, [bad, 1])


@pytest.mark.parametrize("command", ["analyze", "witness", "mixed-analyze"])
@pytest.mark.parametrize("T, total", [("0,0", "T1 = 0"), ("-7/4,1", "T1 = -7/4"),
                                      ("7/4,-0.0", "T2 = 0")])
def test_cli_refuses_a_total_that_is_not_positive(command, T, total, capsys):
    assert main([command, "--builtin", "hk", "--k", "1,1,2,1,1,1", "--T=" + T]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: total %s is not positive and finite\n" % total


@pytest.mark.parametrize("T", ["nan,1", "inf,1", "1,-inf"])
def test_cli_reads_no_total_that_is_not_finite(T, capsys):
    # the number parser reads exact rationals only, so NaN and infinity
    # stop as malformed input before any total is checked
    assert main(["witness", "--builtin", "hk", "--k", "1,1,2,1,1,1", "--T=" + T]) == 2
    assert "not a number" in capsys.readouterr().err


@pytest.mark.parametrize("k, rate", [("-1,1,2,1,1,1", "k1"), ("1,1,2,1,1,0", "k6")])
def test_cli_refuses_a_rate_that_is_not_positive(k, rate, capsys):
    assert main(["witness", "--builtin", "hk", "--k=" + k, "--T", "7/4,1"]) == 3
    err = capsys.readouterr().err
    assert "rate %s = " % rate in err and "not positive and finite" in err


def test_cli_rescale_past_the_float_range_is_a_structured_error(capsys):
    assert main(["witness", "--builtin", "hk", "--k", "1,1,2,1,1,1e400",
                 "--T", "7/4,1", "--quiet"]) == 3
    assert "float range" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["1,1,2,1,1,1e-400", "1,1,1e400,1,1,1", "1,1,2,1,1e-400,1"])
def test_cli_rates_outside_the_double_range_end_in_a_documented_exit(k):
    # a region coefficient beyond the float range neither raises nor is
    # rounded to zero and dropped
    assert main(["witness", "--builtin", "hk", "--k", k, "--T", "7/4,1", "--quiet"]) in (0, 3, 4)
    net, part = hybrid_kinase()
    kappa = {"k%d" % i: Fraction(v) for i, v in enumerate(k.split(","), 1)}
    region = assemble_region_system(net, part, kappa, [Fraction(7, 4), 1])
    system = witness.DeformedSystem(region.cfg, region.C, [0] * region.cfg.n, 1.0)
    assert ((system.sign != 0) == (np.array(region.C) != 0)).all()
    assert np.isfinite(system.logmag[system.sign != 0]).all()


@pytest.mark.parametrize("entry", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("column", [0, 1, 4])
def test_rescale_refuses_a_scale_that_is_not_positive_and_finite(entry, column):
    net, part = hybrid_kinase()
    totals = [Fraction(7, 4), 1]
    region = assemble_region_system(net, part, HK_KAPPA, totals)
    gamma = [1.0] * region.cfg.n
    gamma[column] = entry
    with pytest.raises(MessiError, match="column scale %d" % column):
        rescale_back(region, gamma)


@pytest.mark.parametrize("gamma", [
    [1e-200, 1e200, 1.0, 1.0, 1.0],  # the normalized scales overflow
    [1.0, 1.0, 1e300, 1e-300, 1.0],  # and underflow
    [1.0, 1.0, 1.0, 1e-300, 1e300],  # the multipliers leave the float range
])
def test_rescale_outside_the_float_range_is_a_structured_error(gamma):
    net, part = hybrid_kinase()
    totals = [Fraction(7, 4), 1]
    region = assemble_region_system(net, part, HK_KAPPA, totals)
    with pytest.raises(MessiError):
        rescale_back(region, gamma)


# ---------------------------------------------------------------------------
# golden reports
# ---------------------------------------------------------------------------

GOLDEN = {
    "witness-hk.json": ["witness", "--builtin", "hk", "--k", "1,1,2,1,1,1", "--T", "7/4,1"],
    "witness-phospho2.json": ["witness", "--builtin", "phospho:2",
                              "--k", "1,1,1,1,1,1,1,1,2,1,1,1", "--T", "1,1,3"],
    "witness-mixed-hk.json": ["witness", "--mixed", "--builtin", "hk",
                              "--k", "1,1,2,1,1,1", "--T", "7/4,1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_witness_report_bytes_are_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.delenv("MULTISTAT_SEED", raising=False)
    out = tmp_path / name
    assert main([*GOLDEN[name], "--quiet", "--out", str(out)]) == 0
    with open(os.path.join(DATA, name), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_a_complex_that_changes_a_chosen_column_is_no_rescaling_direction():
    # the rates out of S0 + E and out of S1 + E change the coefficient of a
    # chosen column of mixed-phospho, which the rescaling must keep; so only
    # F + S2 scales it, and a generic scaling is refused before the
    # postcondition
    net, part = mixed_phosphorylation()
    region = assemble_region_system(net, part, {f"k{i}": 1 for i in range(1, 11)}, [1, 1, 3])
    assert region.model.rescale_exponents[0] == ((("F", 1), ("S2", 1)),)
    rng = random.Random(75)
    for _ in range(100):
        gamma = [2.0 ** rng.uniform(-3, 3) for _ in region.cfg.points]
        with pytest.raises(MessiError) as exc:
            rescale_back(region, gamma)
        assert str(exc.value) == "column scaling is not realizable by rate rescaling"
