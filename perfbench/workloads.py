"""The benchmark's two workloads: seeded inputs, one timed operation per
input, and checks of each verdict that do not go through the code under
test where an independent route exists.

Every workload draws its inputs from ``seed`` alone, and every operation
gets its own lattice ``random.Random`` derived from the seed and the input
index, so repeating an input repeats its work exactly.
"""

import math
import random
from fractions import Fraction

import numpy as np

from multistat import messi, networks, witness


# the acceptance-test constants of phosphorylation(2): every rate 1 except
# kcat1 = 2, and totals of enzyme, phosphatase and substrate
PHOSPHO2_KAPPA = {"%s%d" % (name, i): 2 if (name, i) == ("kcat", 1) else 1
                  for i in range(2)
                  for name in ("kon", "koff", "kcat", "lon", "loff", "lcat")}
PHOSPHO_T = [1, 1, 3]
HK_KAPPA = [1, 1, 2, 1, 1, 1]


def _lattice_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------

HK_LAWS = [["X1", "X2", "X3", "X4"], ["X5", "X6"]]


def check_laws_conserved(net, laws):
    """Each law must be constant along every reaction (exact integers)."""
    problems = []
    for law in laws:
        members = set(law)
        for r in net.reactions:
            delta = (sum(c for sp, c in r.target if sp in members)
                     - sum(c for sp, c in r.source if sp in members))
            if delta:
                problems.append("law %s not conserved by %s" % (law, r.rate_name))
    return problems


def check_species_roots(net, laws, totals, kappa_bar, species_roots):
    """Substitute every concentration vector into the mass-action system at
    ``kappa_bar`` and into the conservation laws; roots must be positive
    and pairwise distinct."""
    problems = []
    polys = net.mass_action_system(kappa_bar)
    logs = []
    for k, vec in enumerate(species_roots):
        x = [float(vec[sp]) for sp in net.species]
        if not all(v > 0 and math.isfinite(v) for v in x):
            problems.append("root %d is not positive" % k)
            continue
        logs.append(np.log(x))
        for i, poly in enumerate(polys):
            terms = [float(c) * math.prod(xj ** e for xj, e in zip(x, mono))
                     for mono, c in poly.items()]
            scale = sum(abs(t) for t in terms)
            if abs(sum(terms)) > 1e-8 * scale:
                problems.append("root %d: d%s/dt = %g (scale %g)"
                                % (k, net.species[i], sum(terms), scale))
        for law, T in zip(laws, totals):
            total = sum(vec[sp] for sp in law)
            if abs(total - float(T)) > 1e-8 * max(abs(float(T)), 1.0):
                problems.append("root %d: total %g != %g" % (k, total, float(T)))
    problems += _distinct(logs)
    return problems


def _distinct(logs):
    for a in range(len(logs)):
        for b in range(a + 1, len(logs)):
            if np.max(np.abs(logs[a] - logs[b])) <= 1e-6:
                return ["roots %d and %d coincide" % (a, b)]
    return []


def decorated(C, simplex):
    """Whether the columns ``simplex`` of the two-row matrix ``C`` form a
    positively decorated simplex: the signed 2 x 2 minors left by dropping
    each column in turn are nonzero and share one sign (exact)."""
    (a, b, c), (d, e, f) = ([row[j] for j in simplex] for row in C)
    minors = [b * f - c * e, c * d - a * f, a * e - b * d]
    return all(m > 0 for m in minors) or all(m < 0 for m in minors)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def hk_region(kappa, totals):
    """Region system of the hybrid kinase, derived by hand for the chosen
    species (X4, X5); columns 1, x5, x4, x4*x5, x4*x5^2."""
    k1, k2, k3, k4, k5, k6 = (kappa["k%d" % i] for i in range(1, 7))
    return [
        [-totals[0], 0, 1, k5 / k3 + k5 / k2, k4 * k5 / k3 * (1 / k1 + 1 / k2)],
        [-totals[1], 1, 0, k5 / k6, k4 * k5 / (k3 * k6)],
    ]


# the three-simplex family {x4, x4x5, 1}, {x5, x4x5^2, 1}, {x4x5, x4x5^2, 1}
HK_TRIPLE = [(0, 2, 3), (0, 1, 4), (0, 3, 4)]


class HkScan:
    """A (kappa, T) scan on the hybrid kinase: certify, then the d = 2
    exclusion sweep.  Each pass holds HK_THREE points whose three-simplex
    family is decorated (p = 3) and HK_ONE points whose family is not, so
    the verdict mix, and with it the work, is the same for every seed."""

    name = "hk-scan"
    HK_THREE = 30
    HK_ONE = 50

    def __init__(self, seed):
        self.seed = seed
        self.net, self.part = networks.hybrid_kinase()
        rng = random.Random(seed)
        want = {True: self.HK_THREE, False: self.HK_ONE}
        self.inputs = []
        while want[True] or want[False]:
            kappa = {"k%d" % (j + 1): HK_KAPPA[j] * Fraction(rng.randint(4, 8), 6)
                     for j in range(6)}
            totals = [Fraction(rng.randint(10, 18), 8), Fraction(1)]
            three = all(decorated(hk_region(kappa, totals), s) for s in HK_TRIPLE)
            if want[three]:
                want[three] -= 1
                self.inputs.append((kappa, totals, three))
        rng.shuffle(self.inputs)

    def run(self, i):
        kappa, totals, _ = self.inputs[i]
        decor, report = witness.certify_multistationarity(
            self.net, self.part, kappa, totals, rng=_lattice_rng(self.seed, i))
        system = witness.DeformedSystem(
            report.region.cfg, report.region.C,
            [float(v) for v in report.height], report.t_star)
        missed, unresolved = witness.validate_root_set(system, report.roots)
        return decor, report, missed, unresolved

    def check(self, i, result):
        _, totals, three = self.inputs[i]
        _, report, missed, _ = result
        if report is None or report.status != "success":
            return ["no witness"]
        problems = check_laws_conserved(self.net, HK_LAWS)
        p = len(report.family.simplices)
        if (p == 3) != three:
            problems.append("family size %d, expected %s" % (p, 3 if three else "< 3"))
        if len(report.species_roots) < p:
            problems.append("%d roots for a family of %d" % (len(report.species_roots), p))
        if missed:
            problems.append("exclusion sweep found %d missed roots" % len(missed))
        return problems + check_species_roots(
            self.net, HK_LAWS, totals, report.kappa_bar, report.species_roots)

    def signature(self, result):
        _, report, missed, unresolved = result
        return (report.status, tuple(report.family.simplices), report.t_star,
                tuple(sorted(report.kappa_bar.items())),
                tuple(tuple(r.x) for r in report.roots), len(missed),
                tuple(unresolved))


class Phospho2Mixed:
    """The Cayley (mixed) route on the 2-site phosphorylation region system:
    mixed decoration, then the mixed witness search."""

    name = "phospho2-mixed"

    def __init__(self, seed):
        self.seed = seed
        net, part = networks.phosphorylation(2)
        self.region = messi.assemble_region_system(net, part, PHOSPHO2_KAPPA, PHOSPHO_T)
        self.inputs = [0]

    def run(self, i):
        cfg, C = self.region.cfg, self.region.C
        mixed = witness.mixed_decoration(cfg, C)
        return mixed, witness.mixed_witness_search(
            cfg, C, report=mixed, rng=_lattice_rng(self.seed, i))

    def check(self, i, result):
        mixed, report = result
        if report.status != "success":
            return ["no witness"]
        problems = []
        p = len(report.family.simplices)
        if len(report.roots) < p:
            problems.append("%d roots for a family of %d" % (len(report.roots), p))
        # residual of every root on the deformed system, evaluated here
        cfg, C = self.region.cfg, self.region.C
        logt = math.log(report.t_star)
        H = np.zeros((len(C), cfg.n))
        for g, h in enumerate(report.family.height):
            H[mixed.cayley.block_of(g), mixed.columns[g]] = float(h)
        A = np.array(cfg.points, dtype=float)
        for k, root in enumerate(report.roots):
            u = np.log(root.x)
            for i_row, row in enumerate(C):
                terms = [(float(c), math.log(abs(float(c))) + H[i_row, j] * logt + A[j] @ u)
                         for j, c in enumerate(row) if c != 0]
                top = max(w for _, w in terms)
                vals = [math.copysign(math.exp(w - top), c) for c, w in terms]
                if abs(sum(vals)) > 1e-8 * sum(abs(v) for v in vals):
                    problems.append("root %d misses equation %d" % (k, i_row))
        return problems + _distinct([np.log(r.x) for r in report.roots])

    def signature(self, result):
        mixed, report = result
        return (report.status, tuple(report.family.simplices), report.t_star,
                tuple(tuple(r.x) for r in report.roots))


WORKLOADS = {w.name: w for w in (HkScan, Phospho2Mixed)}
