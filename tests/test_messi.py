import json
import math
import os
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistat import messi
from multistat.messi import (
    MessiError,
    assemble_region_system,
    default_chosen,
    messi_model,
    rescale_back,
    steady_state_parametrization,
)
from multistat.networks import (
    hybrid_kinase,
    michaelis_menten,
    mixed_phosphorylation,
    phosphorylation,
)
import oracles
from oracles import (
    build_G1,
    build_G2,
    enumerate_tree_sum,
    intermediate_coefficients,
    layer_sets,
    s_toric_check,
    tree_sum,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
HK_KAPPA = dict(k1=1, k2=1, k3=2, k4=1, k5=1, k6=1)
MIXED_KAPPA = {f"k{i}": Fraction(i, 3) for i in range(1, 11)}


def phospho_kappa(n):
    k = {}
    for i in range(n):
        k.update({f"kon{i}": 1, f"koff{i}": 1, f"kcat{i}": 1,
                  f"lon{i}": 1, f"loff{i}": 1, f"lcat{i}": 1})
    k["kcat1"] = 2
    return k


ALL_BUILTINS = [
    hybrid_kinase(),
    michaelis_menten(),
    phosphorylation(2),
    mixed_phosphorylation(),
]

NETWORKS = {
    "hk": hybrid_kinase,
    "phospho:2": lambda: phosphorylation(2),
    "phospho:3": lambda: phosphorylation(3),
    "phospho:5": lambda: phosphorylation(5),
    "mixed-phospho": mixed_phosphorylation,
}


# ---------------------------------------------------------------------------
# partition validation and complex classification
# ---------------------------------------------------------------------------

def test_builtin_partitions_valid():
    for net, part in ALL_BUILTINS:
        assert messi_model(net, part).violations == ()


def test_invalid_partition_reported():
    net, part = hybrid_kinase()
    # moving a core species into the intermediate block breaks the
    # singleton-complex requirement for intermediates
    bad = [["X1"], ["X2", "X3", "X4"], ["X5", "X6"]]
    assert messi_model(net, bad).violations
    with pytest.raises(MessiError):
        steady_state_parametrization(net, bad, HK_KAPPA)


# ---------------------------------------------------------------------------
# spanning-tree sums
# ---------------------------------------------------------------------------

def test_tree_sum_matches_enumeration_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 5)
        nodes = list(range(n))
        weights = {}
        for u in nodes:
            for v in nodes:
                if u != v and rng.random() < 0.6:
                    weights[(u, v)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        root = rng.choice(nodes)
        assert tree_sum(nodes, weights, root) == enumerate_tree_sum(nodes, weights, root)


def test_tree_sum_matches_enumeration_on_builtin_collapsed_graphs():
    rng = random.Random(5)
    for net, part in ALL_BUILTINS:
        if not part[0]:
            continue
        kappa = {r.rate_name: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 for r in net.reactions}
        nodes, weights = oracles._collapsed_graph(net, part, kappa)
        for root in nodes:
            assert tree_sum(nodes, weights, root) == enumerate_tree_sum(
                nodes, weights, root
            )


def test_michaelis_menten_intermediate_value():
    net, part = michaelis_menten()
    kappa = dict(kon=3, koff=2, kcat=5)
    mu = intermediate_coefficients(net, part, kappa)
    val, src = mu["ES0"]
    # one intermediate: its coefficient is kon / (koff + kcat)
    assert val == Fraction(3, 7)
    assert dict(src) == {"S0": 1, "E": 1}
    edges, _ = build_G1(net, part, kappa)
    # single collapsed transition S0+E -> S1+E with rate kcat * mu
    ((edge, tau),) = edges.items()
    assert tau == Fraction(15, 7)


def test_mixed_phospho_intermediate_values():
    net, part = mixed_phosphorylation()
    kappa = {r.rate_name: 1 for r in net.reactions}
    mu = intermediate_coefficients(net, part, kappa)
    assert {sp: v for sp, (v, _) in mu.items()} == {
        "ES0": Fraction(1, 2),
        "ES1": Fraction(1, 2),
        "FS1": Fraction(1, 2),
        "FS2": Fraction(1, 2),
    }


@pytest.mark.parametrize("name", ["phospho:2", "phospho:3", "mixed-phospho"])
@settings(max_examples=10)
@given(data=st.data())
def test_compiled_intermediates_are_the_matrix_tree_coefficients(name, data):
    # each intermediate's term is mu(kappa) * x^source, with the source
    # complex expanded over the chosen coordinates
    net, part = NETWORKS[name]()
    kappa = {r.rate_name: data.draw(RATIONAL_RATE) for r in net.reactions}
    p = steady_state_parametrization(net, part, kappa)
    mu = intermediate_coefficients(net, part, kappa)
    assert sorted(mu) == sorted(part[0])
    for sp, (value, source) in mu.items():
        want = {(0,) * len(p.chosen): value}
        for s, e in source:
            for _ in range(e):
                want = messi._tmul(want, p.terms[s])
        assert p.terms[sp] == want


# ---------------------------------------------------------------------------
# association graph, block dependencies, structural conditions
# ---------------------------------------------------------------------------

def test_hk_fails_structural_conditions():
    net, part = hybrid_kinase()
    out = s_toric_check(net, part, HK_KAPPA)
    assert out["valid_partition"]
    # two association edges share the same endpoints, so the toric
    # structural conditions do not hold on this network
    assert not (out.get("parallel_free", False) and out.get("unique_simple_paths", False))
    assert out["quotient_condition"] == "not verified"


def test_phospho_passes_structural_conditions():
    net, part = phosphorylation(2)
    out = s_toric_check(net, part, phospho_kappa(2))
    assert out["valid_partition"]
    assert out["unique_intermediate_sources"]
    assert out["parallel_free"]
    assert out["weakly_reversible"]
    assert out["unique_simple_paths"]
    assert out["quotient_condition"] == "verified"


def test_mixed_phospho_layer_sets():
    net, part = mixed_phosphorylation()
    g2 = build_G2(net, part, {r.rate_name: 1 for r in net.reactions})
    layers = layer_sets(g2["GE"], len(part) - 1)
    assert layers == [[1, 2], [3]]


def test_layer_sets_cycle_detected():
    with pytest.raises(MessiError):
        layer_sets({(1, 2), (2, 1)}, 2)


# the structural verdicts, recorded while they were computed with networkx
S_TORIC = {
    "hk": (HK_KAPPA, dict(
        valid_partition=True, unique_intermediate_sources=True, parallel_free=False,
        weakly_reversible=True, unique_simple_paths=False,
        quotient_condition="not verified")),
    "phospho:2": (phospho_kappa(2), dict(
        valid_partition=True, unique_intermediate_sources=True, parallel_free=True,
        weakly_reversible=True, unique_simple_paths=True, quotient_condition="verified")),
    "phospho:3": (phospho_kappa(3), dict(
        valid_partition=True, unique_intermediate_sources=True, parallel_free=True,
        weakly_reversible=True, unique_simple_paths=True, quotient_condition="verified")),
    "mixed-phospho": (MIXED_KAPPA, dict(
        valid_partition=True, unique_intermediate_sources=True, parallel_free=True,
        weakly_reversible=True, unique_simple_paths=True, quotient_condition="verified")),
}


@pytest.mark.parametrize("name", sorted(S_TORIC))
def test_s_toric_check_is_pinned(name):
    kappa, want = S_TORIC[name]
    assert s_toric_check(*NETWORKS[name](), kappa) == want


def digraphs(max_nodes=6):
    def with_edges(n):
        edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        return st.sets(edge.filter(lambda e: e[0] != e[1])).map(lambda edges: (n, edges))
    return st.integers(1, max_nodes).flatmap(with_edges)


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_graph_helpers_match_brute_force(graph):
    n, edges = graph
    adj = {v: {b for a, b in edges if a == v} for v in range(n)}
    # transitive closure
    reach = set(edges) | {(v, v) for v in range(n)}
    for w in range(n):
        for u in range(n):
            for v in range(n):
                if (u, w) in reach and (w, v) in reach:
                    reach.add((u, v))
    assert oracles._strongly_connected(adj) == (len(reach) == n * n)

    def simple_paths(u, v):
        # every ordering of every subset of the other nodes as the interior
        others = [w for w in range(n) if w not in (u, v)]
        return sum(all(e in edges for e in zip((u, *mid), (*mid, v)))
                   for k in range(len(others) + 1) for mid in permutations(others, k))

    counts = {(u, v): simple_paths(u, v) for u, v in permutations(range(n), 2)}
    for (u, v), count in counts.items():
        assert oracles._count_simple_paths(adj, u, v) == min(count, 2)
    assert oracles._unique_simple_paths(adj) == all(c == 1 for c in counts.values())


# ---------------------------------------------------------------------------
# steady-state parametrization
# ---------------------------------------------------------------------------

def test_hk_parametrization_values():
    net, part = hybrid_kinase()
    p = steady_state_parametrization(net, part, HK_KAPPA)
    assert p.chosen == ("X4", "X5")
    assert p.terms["X1"] == {(1, 2): Fraction(1, 2)}
    assert p.terms["X2"] == {(1, 2): Fraction(1, 2), (1, 1): Fraction(1)}
    assert p.terms["X3"] == {(1, 1): Fraction(1, 2)}
    assert p.terms["X6"] == {(1, 2): Fraction(1, 2), (1, 1): Fraction(1)}


def test_phospho_parametrization_values():
    net, part = phosphorylation(2)
    p = steady_state_parametrization(net, part, phospho_kappa(2))
    assert p.chosen == ("S0", "E", "F")
    assert p.terms["S1"] == {(1, 1, -1): Fraction(1)}
    assert p.terms["S2"] == {(1, 2, -2): Fraction(4, 3)}
    assert p.terms["ES0"] == {(1, 1, 0): Fraction(1, 2)}
    assert p.terms["ES1"] == {(1, 2, -1): Fraction(1, 3)}
    assert p.terms["FS1"] == {(1, 1, 0): Fraction(1, 2)}
    assert p.terms["FS2"] == {(1, 2, -1): Fraction(2, 3)}


def test_parametrization_zeros_mass_action_exactly():
    rng = random.Random(11)
    cases = [
        (hybrid_kinase(), HK_KAPPA),
        (phosphorylation(2), phospho_kappa(2)),
        (phosphorylation(3), phospho_kappa(3)),
        (mixed_phosphorylation(), MIXED_KAPPA),
    ]
    for (net, part), kappa in cases:
        p = steady_state_parametrization(net, part, kappa)
        polys = net.mass_action_system(kappa)
        for _ in range(20):
            x = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(len(p.chosen))]
            vals = p.evaluate(x)
            point = [vals[sp] for sp in net.species]
            f = [
                sum(c * math.prod(xi**e for xi, e in zip(point, mono))
                    for mono, c in poly.items())
                for poly in polys
            ]
            assert all(fi == 0 for fi in f)


def substituted(net, param, kappa):
    """The mass-action polynomials at ``kappa`` with every species replaced
    by its parametrization, as polynomials in the chosen coordinates."""
    m = len(param.chosen)
    for poly in net.mass_action_system(kappa):
        total = {}
        for mono, c in poly.items():
            term = {(0,) * m: c}
            for sp, e in zip(net.species, mono):
                for _ in range(e):
                    term = messi._tmul(term, param.terms[sp])
            total = messi._tadd(total, term)
        yield total


def test_parametrization_reproduces_the_recorded_monomial_terms():
    # terms of the former cycle flux-balance route, three seeded exact
    # rate vectors per network
    with open(os.path.join(DATA, "monomial-route-terms.json")) as fh:
        cases = json.load(fh)
    assert len(cases) == 12
    for case in cases:
        net, part = NETWORKS[case["network"]]()
        kappa = {k: Fraction(v) for k, v in case["kappa"].items()}
        p = steady_state_parametrization(net, part, kappa)
        assert list(p.chosen) == case["chosen"]
        assert p.terms == {sp: {tuple(e): Fraction(c) for e, c in terms}
                           for sp, terms in case["terms"].items()}


RATIONAL_RATE = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)
FLOAT_RATE = st.floats(min_value=-60, max_value=60).map(lambda t: 2.0 ** t)


@pytest.mark.parametrize("name", ["hk", "phospho:2", "phospho:3", "mixed-phospho"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_parametrization_zeros_the_exact_system_at_random_rates(name, data):
    net, part = NETWORKS[name]()
    rate = data.draw(st.sampled_from([RATIONAL_RATE, FLOAT_RATE]))
    kappa = {r.rate_name: data.draw(rate) for r in net.reactions}
    p = steady_state_parametrization(net, part, kappa)
    exact = {k: Fraction(v) for k, v in kappa.items()}
    assert p.rates == exact
    assert all(isinstance(c, Fraction) for poly in p.terms.values() for c in poly.values())
    assert not any(substituted(net, p, exact))


def test_default_chosen():
    net, part = hybrid_kinase()
    assert default_chosen(net, part) == ("X4", "X5")
    with pytest.raises(MessiError):
        steady_state_parametrization(net, part, HK_KAPPA, chosen=("X3", "X4"))


# ---------------------------------------------------------------------------
# conservation laws and the region system
# ---------------------------------------------------------------------------

def test_hk_block_conservation_laws():
    net, part = hybrid_kinase()
    assert messi_model(net, part).laws == ((1, 1, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1))


def test_phospho_laws_include_fed_intermediates():
    net, part = phosphorylation(2)
    laws = messi_model(net, part).laws
    idx = net.index
    # blocks in partition order: E, F, substrate; the substrate law counts
    # every intermediate, the enzyme laws only those they feed
    e_law, f_law, sub = laws
    assert all(sub[idx[s]] == 1 for s in ("S0", "S1", "S2", "ES0", "ES1", "FS1", "FS2"))
    assert e_law[idx["E"]] == 1 and e_law[idx["ES0"]] == 1 and e_law[idx["FS1"]] == 0
    assert f_law[idx["F"]] == 1 and f_law[idx["FS1"]] == 1 and f_law[idx["ES0"]] == 0


def test_hk_region_system_matrix():
    net, part = hybrid_kinase()
    region = assemble_region_system(
        net, part, HK_KAPPA, [Fraction(7, 4), Fraction(1)]
    )
    assert region.cfg.points == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
    assert region.C == [
        [Fraction(-7, 4), 0, 1, Fraction(3, 2), 1],
        [Fraction(-1), 1, 0, 1, Fraction(1, 2)],
    ]
    assert region.constant_column == 0
    assert region.chosen_columns() == [2, 1]


def test_region_rows_vanish_at_steady_states():
    net, part = phosphorylation(2)
    kappa = phospho_kappa(2)
    p = steady_state_parametrization(net, part, kappa)
    rng = random.Random(3)
    x = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(3)]
    vals = p.evaluate(x)
    # choose totals so that x is a steady state of the constrained system
    laws = messi_model(net, part).laws
    totals = [sum(l[i] * vals[sp] for i, sp in enumerate(net.species)) for l in laws]
    region = assemble_region_system(net, part, kappa, totals, param=p)
    for row in region.C:
        val = sum(
            c * math.prod(float(xi) ** e for xi, e in zip(x, pt))
            for c, pt in zip(row, region.cfg.points)
        )
        assert abs(val) < 1e-9


# ---------------------------------------------------------------------------
# rescaling the region system back into rate constants
# ---------------------------------------------------------------------------

def test_hk_rescaling_changes_two_rates():
    net, part = hybrid_kinase()
    totals = [Fraction(7, 4), Fraction(1)]
    region = assemble_region_system(net, part, HK_KAPPA, totals)
    t = 2.0 ** -10
    height = {(0, 0): 0, (0, 1): 3, (1, 0): 1, (1, 1): 0, (1, 2): 0}
    gamma = [t ** height[pt] for pt in region.cfg.points]
    res = rescale_back(region, gamma)
    changed = {k for k, v in res.kappa_bar.items() if abs(v - HK_KAPPA[k]) > 1e-9}
    assert changed == {"k4", "k5"}
    assert res.kappa_bar["k4"] == pytest.approx(t ** -3)
    assert res.kappa_bar["k5"] == pytest.approx(t ** -4)
    assert res.chosen_scale["X4"] == pytest.approx(t)
    assert res.chosen_scale["X5"] == pytest.approx(t ** 3)
    assert res.residual < 1e-9


def test_phospho_rescaling_changes_only_binding_rates():
    net, part = phosphorylation(2)
    kappa = phospho_kappa(2)
    totals = [3, 1, 1]
    region = assemble_region_system(net, part, kappa, totals)
    rng = random.Random(17)
    gamma = [2.0 ** rng.uniform(-4, 4) for _ in region.cfg.points]
    res = rescale_back(region, gamma)
    changed = {k for k, v in res.kappa_bar.items() if abs(v - kappa[k]) > 1e-9}
    assert changed <= {"kon0", "kon1", "lon0", "lon1"}
    assert res.residual < 1e-9


def test_rescaling_postcondition_random():
    cases = [
        (hybrid_kinase(), HK_KAPPA, [Fraction(7, 4), 1]),
        (phosphorylation(2), phospho_kappa(2), [3, 1, 1]),
    ]
    rng = random.Random(23)
    for (net, part), kappa, totals in cases:
        region = assemble_region_system(net, part, kappa, totals)
        for _ in range(10):
            gamma = [2.0 ** rng.uniform(-3, 3) for _ in region.cfg.points]
            res = rescale_back(region, gamma)
            assert res.residual < 1e-9
            # independent check: rebuild the system at the new rates and
            # compare every coefficient against the scaled original
            reg2 = assemble_region_system(
                net, part, res.kappa_bar, totals, chosen=region.chosen
            )
            assert reg2.cfg.points == region.cfg.points
            for i in range(len(region.C)):
                for j in range(len(region.cfg.points)):
                    want = float(region.C[i][j]) * res.gamma_effective[j]
                    got = float(reg2.C[i][j])
                    scale = max(abs(want), abs(got), 1e-30)
                    assert abs(want - got) / scale < 1e-9


def test_unrealizable_scaling_rejected():
    # one column of this system merges species terms that respond
    # differently to rate changes, so a generic column scaling has no
    # preimage among the rate constants and must be refused
    net, part = mixed_phosphorylation()
    kappa = {f"k{i}": 1 for i in range(1, 11)}
    totals = [3, 1, 1]
    region = assemble_region_system(net, part, kappa, totals)
    rng = random.Random(23)
    gamma = [2.0 ** rng.uniform(-3, 3) for _ in region.cfg.points]
    with pytest.raises(MessiError, match="not realizable"):
        rescale_back(region, gamma)
