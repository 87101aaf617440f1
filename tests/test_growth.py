"""The shared family-growth routine against the loops it replaced."""

import copy
import functools
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from multistat import cayley, decoration, points, ratlin
from multistat.decoration import find_decorated, is_decorated
from multistat.messi import assemble_region_system
from multistat.networks import hybrid_kinase, mixed_phosphorylation, phosphorylation
from multistat.witness import mixed_decoration

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def phospho_kappa(n):
    k = {}
    for i in range(n):
        k.update({f"kon{i}": 1, f"koff{i}": 1, f"kcat{i}": 1,
                  f"lon{i}": 1, f"loff{i}": 1, f"lcat{i}": 1})
    k["kcat1"] = 2
    return k


@functools.cache
def region(name):
    if name == "hk":
        net, part = hybrid_kinase()
        kappa = dict(k1=1, k2=1, k3=2, k4=1, k5=1, k6=1)
        totals = [Fraction(7, 4), Fraction(1)]
    else:
        n = int(name.split(":")[1])
        net, part = phosphorylation(n)
        kappa, totals = phospho_kappa(n), [1, 1, 3]
    return assemble_region_system(net, part, kappa, totals)


def reference_find_decorated(cfg, C):
    """The growth loop of ``find_decorated`` before the shared routine: one
    exact LP on the freshly built joint cone per check."""
    decorated = [s for s in points.enumerate_simplices(cfg) if is_decorated(C, s)]
    families = []
    seen = set()
    for seed in decorated:
        family = [seed]
        for s in decorated:
            if s == seed:
                continue
            cone = points.joint_cone(cfg, family + [s])
            if cone.interior_point() is not None:
                family.append(s)
        key = tuple(sorted(family))
        if key in seen:
            continue
        seen.add(key)
        cone = points.joint_cone(cfg, family)
        families.append((sorted(family), cone.interior_point(), cone.normals))
    families.sort(key=lambda f: (-len(f[0]), f[0]))
    return families


def reference_mixed_families(cay, decorated):
    """The growth loop of ``mixed_decoration`` before the shared routine:
    one float LP on the concatenated cached normals per check."""
    normals = {s: points.cone_normals(cay, s) for s in decorated}
    families = []
    seen = set()
    for seed in decorated:
        family = [seed]
        for s in decorated:
            if s == seed:
                continue
            joint = []
            for f in family + [s]:
                joint.extend(normals[f])
            if ratlin.strict_feasible_fast(joint) is not None:
                family.append(s)
        key = tuple(sorted(family))
        if key in seen:
            continue
        seen.add(key)
        cone = points.joint_cone(cay, sorted(family))
        h = ratlin.strict_feasible_fast(cone.normals)
        if h is None:
            continue
        families.append((sorted(family), h, cone.normals))
    families.sort(key=lambda f: (-len(f[0]), f[0]))
    return families


@pytest.mark.parametrize("name", ["hk", "phospho:2", "phospho:3"])
def test_grow_families_matches_reference_loop(name):
    r = region(name)
    report = find_decorated(r.cfg, r.C)
    got = [(f.simplices, f.height, f.cone.normals) for f in report.families]
    assert got == reference_find_decorated(r.cfg, r.C)


@pytest.mark.parametrize("name", ["hk", "phospho:2"])
def test_mixed_growth_matches_reference_loop(name):
    r = region(name)
    report = mixed_decoration(r.cfg, r.C)
    got = [(f.simplices, f.height, f.cone.normals) for f in report.families]
    assert got == reference_mixed_families(report.cayley, report.decorated)


def test_exact_route_does_not_import_scipy_optimize():
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from multistat.decoration import find_decorated\n"
        "from multistat.messi import assemble_region_system\n"
        "from multistat.networks import hybrid_kinase\n"
        "net, part = hybrid_kinase()\n"
        "kappa = dict(k1=1, k2=1, k3=2, k4=1, k5=1, k6=1)\n"
        "r = assemble_region_system(net, part, kappa, [Fraction(7, 4), 1])\n"
        "assert len(find_decorated(r.cfg, r.C).best.simplices) == 3\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# Families and exact heights of ``find_decorated``, recorded from the
# Fraction-tableau LP; the exact LP must keep returning the same vertex.
PINNED = {
    "hk": [
        ([(0, 1, 4), (0, 2, 3), (0, 3, 4)],
         "-1/2 1 1 1/2 1"),
        ([(0, 1, 2)],
         "1 0 1 1 1"),
    ],
    "phospho:3": [
        ([(0, 1, 2, 3), (0, 2, 3, 7), (0, 2, 6, 7)],
         "0 1 -1 1 1 1 0 -1 1 1"),
        ([(0, 1, 2, 3), (0, 2, 3, 7), (0, 2, 7, 8)],
         "0 1 0 0 1 1 1 0 1 1"),
        ([(0, 1, 2, 4)],
         "1 1 1 1 0 1 1 1 1 1"),
        ([(0, 1, 2, 6)],
         "1 1 1 1 1 1 0 1 1 1"),
        ([(0, 1, 2, 8)],
         "1 0 1 1 1 1 1 1 1 1"),
    ],
    "phospho:5": [
        ([(0, 1, 2, 3), (0, 2, 3, 7), (0, 2, 6, 7)],
         "0 1 -1 1 1 1 0 -1 1 1 1 1 1 1"),
        ([(0, 1, 2, 3), (0, 2, 3, 7), (0, 2, 7, 8)],
         "1/2 1 -1/2 1 1 1 1 -1/2 5/8 1 1 1 1 1"),
        ([(0, 1, 2, 3), (0, 2, 3, 7), (0, 2, 7, 10)],
         "1/2 1 -1/2 1 1 1 1 -1/2 1 1 19/24 1 1 1"),
        ([(0, 1, 2, 3), (0, 2, 3, 7), (0, 2, 7, 12)],
         "0 1 0 0 1 1 1 0 1 1 1 1 1 1"),
        ([(0, 1, 2, 4)],
         "1 1 1 1 0 1 1 1 1 1 1 1 1 1"),
        ([(0, 1, 2, 6)],
         "1 1 1 1 1 1 0 1 1 1 1 1 1 1"),
        ([(0, 1, 2, 8)],
         "1 1 1 1 1 1 1 1 0 1 1 1 1 1"),
        ([(0, 1, 2, 10)],
         "1 1 1 1 1 1 1 1 1 1 0 1 1 1"),
        ([(0, 1, 2, 12)],
         "1 0 1 1 1 1 1 1 1 1 1 1 1 1"),
    ],
}


@pytest.mark.parametrize("name", ["hk", "phospho:3"])
def test_pinned_families_and_heights(name):
    r = region(name)
    got = [(f.simplices, f.height) for f in find_decorated(r.cfg, r.C).families]
    assert got == [(s, [Fraction(x) for x in h.split()]) for s, h in PINNED[name]]


def test_phospho5_growth_time_gate(monkeypatch):
    r = region("phospho:5")
    # an empty table, so the exact-LP path is what is timed
    monkeypatch.setattr(decoration, "_TABLES", {})
    start = time.perf_counter()
    report = find_decorated(r.cfg, r.C)
    elapsed = time.perf_counter() - start
    assert [(f.simplices, f.height) for f in report.families] == [
        (s, [Fraction(x) for x in h.split()]) for s, h in PINNED["phospho:5"]]
    assert len(report.families) == 9
    assert elapsed < 5.0, elapsed


# ---------------------------------------------------------------------------
# the per-configuration table behind find_decorated
# ---------------------------------------------------------------------------

NETWORKS = {
    "hk": hybrid_kinase,
    "phospho:2": lambda: phosphorylation(2),
    "phospho:3": lambda: phosphorylation(3),
    "mixed-phospho": mixed_phosphorylation,
}
RATIONAL = st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=40)


def cold_find_decorated(cfg, C):
    """``find_decorated`` on an empty table: everything computed afresh."""
    saved = decoration._TABLES
    decoration._TABLES = {}
    try:
        return find_decorated(cfg, C)
    finally:
        decoration._TABLES = saved


def contents(report):
    return (report.decorated, report.facet_pairs,
            [(f.simplices, f.height, f.cone.normals, f.cone.dim) for f in report.families])


# no shrinking: each shrink step runs a cold find_decorated, so a failure
# would take minutes to report
@pytest.mark.parametrize("name", sorted(NETWORKS))
@settings(max_examples=12, phases=[p for p in Phase if p is not Phase.shrink])
@given(data=st.data())
def test_table_report_equals_a_cold_report(name, data):
    net, part = NETWORKS[name]()
    kappa = {r.rate_name: data.draw(RATIONAL, label=r.rate_name) for r in net.reactions}
    totals = [data.draw(RATIONAL, label="T%d" % i) for i in range(1, len(part))]
    r = assemble_region_system(net, part, kappa, totals)
    assert contents(find_decorated(r.cfg, r.C)) == contents(cold_find_decorated(r.cfg, r.C))


def _cfg_and_C(net, part, kappa):
    r = assemble_region_system(net, part, kappa, [Fraction(7, 4), 1])
    return r.cfg, r.C


def test_new_rates_on_a_known_configuration_run_no_lp(monkeypatch):
    net, part = hybrid_kinase()
    kappa = dict(k1=1, k2=1, k3=2, k4=1, k5=1, k6=1)
    monkeypatch.setattr(decoration, "_TABLES", {})
    first = find_decorated(*_cfg_and_C(net, part, kappa))
    cfg, C = _cfg_and_C(net, part, dict(kappa, k1=Fraction(11, 10)))
    calls = []
    for owner, name in [(ratlin, "strict_feasible"), (points, "cone_normals"),
                        (points, "joint_cone"), (points, "enumerate_simplices"),
                        (decoration, "grow_families")]:
        monkeypatch.setattr(owner, name, lambda *a, _name=name, **k: calls.append(_name))
    second = find_decorated(cfg, C)
    assert calls == []
    assert second.decorated == first.decorated
    assert contents(second) == contents(first)


def test_mutating_a_report_leaves_the_next_one_unchanged():
    r = region("phospho:3")
    report = find_decorated(r.cfg, r.C)
    before = copy.deepcopy(contents(report))
    report.decorated.pop()
    report.facet_pairs.clear()
    for f in report.families:
        f.simplices.reverse()
        f.height[0] += 1
        f.cone.normals.pop()
    assert contents(find_decorated(r.cfg, r.C)) == before


# ---------------------------------------------------------------------------
# the mixed route in the same table
# ---------------------------------------------------------------------------

def cold_mixed_decoration(cfg, C):
    """``mixed_decoration`` on an empty table: everything computed afresh."""
    saved = decoration._TABLES
    decoration._TABLES = {}
    try:
        return mixed_decoration(cfg, C)
    finally:
        decoration._TABLES = saved


def mixed_contents(report):
    cay = report.cayley
    return (report.mixed, report.decorated, report.coeffs, report.columns,
            cay.blocks, cay.points, cay.matrix, cay.offsets,
            [(f.simplices, f.height, f.cone.normals, f.cone.dim) for f in report.families])


# no shrinking, as for the find_decorated twin above
@pytest.mark.parametrize("name", ["hk", "phospho:2", "mixed-phospho"])
@settings(max_examples=6, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(data=st.data())
def test_table_mixed_report_equals_a_cold_report(name, data):
    net, part = NETWORKS[name]()
    kappa = {r.rate_name: data.draw(RATIONAL, label=r.rate_name) for r in net.reactions}
    totals = [data.draw(RATIONAL, label="T%d" % i) for i in range(1, len(part))]
    r = assemble_region_system(net, part, kappa, totals)
    assert mixed_contents(mixed_decoration(r.cfg, r.C)) == mixed_contents(
        cold_mixed_decoration(r.cfg, r.C))


def test_new_rates_on_a_known_support_run_no_mixed_structure(monkeypatch):
    net, part = hybrid_kinase()
    kappa = dict(k1=1, k2=1, k3=2, k4=1, k5=1, k6=1)
    monkeypatch.setattr(decoration, "_TABLES", {})
    first = mixed_decoration(*_cfg_and_C(net, part, kappa))
    cfg, C = _cfg_and_C(net, part, dict(kappa, k1=Fraction(11, 10)))
    calls = []
    for owner, name in [(ratlin, "strict_feasible_fast"), (ratlin, "strict_feasible"),
                        (points, "cone_normals"), (points, "joint_cone"),
                        (cayley, "enumerate_mixed_simplices"),
                        (cayley, "cayley_configuration"), (decoration, "grow_families")]:
        monkeypatch.setattr(owner, name, lambda *a, _name=name, **k: calls.append(_name))
    second = mixed_decoration(cfg, C)
    assert calls == []
    assert second.coeffs != first.coeffs
    assert mixed_contents(second)[4:] == mixed_contents(first)[4:]
    assert (second.mixed, second.decorated) == (first.mixed, first.decorated)


def test_mutating_a_mixed_report_leaves_the_next_one_unchanged():
    r = region("phospho:2")
    report = mixed_decoration(r.cfg, r.C)
    before = copy.deepcopy(mixed_contents(report))
    report.mixed.pop()
    report.decorated.pop()
    report.coeffs[0].reverse()
    report.columns.reverse()
    cay = report.cayley
    cay.blocks[0].pop()
    cay.points.pop()
    cay.matrix[0].reverse()
    cay.offsets.reverse()
    for f in report.families:
        f.simplices.reverse()
        f.height[0] += 1
        f.cone.normals.pop()
    assert mixed_contents(mixed_decoration(r.cfg, r.C)) == before
