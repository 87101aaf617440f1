"""Independent oracles that only the tests use: literal enumerations, the
affine relation of a circuit, and the depth-first exclusion sweep the
package's level-synchronous one must reproduce."""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from multistat.points import ConeDescription, cone_normals
from multistat.ratlin import kernel_basis, primitive


def fourier_motzkin_feasible(normals):
    """Feasibility of the strict homogeneous system ``<m_r, h> > 0``.

    Pure Fourier-Motzkin elimination; exponential in the number of
    variables, intended for small cross-checks only.
    """
    ineqs = {tuple(primitive(m)) for m in normals}
    if any(all(x == 0 for x in m) for m in ineqs):
        return False
    n = len(next(iter(ineqs))) if ineqs else 0
    for var in range(n):
        pos = [m for m in ineqs if m[var] > 0]
        neg = [m for m in ineqs if m[var] < 0]
        rest = [m for m in ineqs if m[var] == 0]
        new = set(rest)
        for p in pos:
            for q in neg:
                comb = [p[var] * q[j] - q[var] * p[j] for j in range(n)]
                comb[var] = Fraction(0)
                if all(x == 0 for x in comb):
                    return False  # p and q strictly conflict
                new.add(tuple(primitive(comb)))
        ineqs = new
    return True


def enumerate_tree_sum(nodes, weights, root):
    """Literal enumeration of spanning in-trees rooted at ``root``.
    Each non-root node picks one out-edge; the choice is a tree iff every
    node reaches the root.  Exponential; for cross-checks only."""
    out_edges = {v: [] for v in nodes}
    for (u, v), w in weights.items():
        if u != v and u in out_edges:
            out_edges[u].append((v, w))
    others = [v for v in nodes if v != root]
    total = Fraction(0)
    for choice in product(*(out_edges[v] for v in others)):
        succ = dict(zip(others, (v for v, _ in choice)))
        ok = True
        for v in others:
            seen = set()
            cur = v
            while cur != root:
                if cur in seen or cur not in succ:
                    ok = False
                    break
                seen.add(cur)
                cur = succ[cur]
            if not ok:
                break
        if ok:
            p = Fraction(1)
            for _, w in choice:
                p *= Fraction(w)
            total += p
    return total


@dataclass(frozen=True)
class Circuit:
    support: tuple
    relation: tuple  # affine relation, indexed like support
    positive: tuple  # indices into support with relation > 0
    negative: tuple
    is_circuit: bool  # all relation entries nonzero

    def triangulations(self):
        """The two triangulations of a circuit: for each sign class, the
        simplices obtained by dropping one point of that class."""
        if not self.is_circuit:
            raise ValueError("not a circuit (some relation entries vanish)")
        plus = [tuple(p for p in self.support if p != self.support[i]) for i in self.positive]
        minus = [tuple(p for p in self.support if p != self.support[i]) for i in self.negative]
        return plus, minus


def circuit_relation(cfg, support):
    """The (unique up to sign) affine relation on ``d+2`` points, normalized
    so the first nonzero entry is positive."""
    support = tuple(support)
    if len(support) != cfg.d + 2:
        raise ValueError("a circuit support has d+2 points")
    ker = kernel_basis(cfg.submatrix(support))
    if len(ker) != 1:
        raise ValueError("points do not affinely span R^d")
    lam = ker[0]
    first = next(x for x in lam if x != 0)
    if first < 0:
        lam = [-x for x in lam]
    lam = tuple(lam)
    pos = tuple(k for k, x in enumerate(lam) if x > 0)
    neg = tuple(k for k, x in enumerate(lam) if x < 0)
    return Circuit(support, lam, pos, neg, all(x != 0 for x in lam))


def simplex_cone(cfg, simplex):
    """Cone of heights whose regular subdivision has ``simplex`` as a cell
    with exactly its own vertices marked."""
    return ConeDescription(cone_normals(cfg.matrix, simplex), cfg.n)


def box_excludes(system, lo, hi):
    """True when interval bounds prove no root inside the log-box; one box
    at a time, in Python floats."""
    E = system.exponents
    for i in range(system.m):
        terms = []
        top = -np.inf
        for j in range(system.cfg.n):
            s = system.sign[i, j]
            if s == 0:
                continue
            wmin = system.logmag[i, j]
            wmax = system.logmag[i, j]
            for k in range(system.d):
                e = E[j, k]
                if e >= 0:
                    wmin += e * lo[k]
                    wmax += e * hi[k]
                else:
                    wmin += e * hi[k]
                    wmax += e * lo[k]
            terms.append((s, wmin, wmax))
            top = max(top, wmax)
        # scale the row by its largest term so the sums stay finite;
        # only the signs of the bounds matter
        low = 0.0
        high = 0.0
        for s, wmin, wmax in terms:
            if s > 0:
                low += math.exp(wmin - top)
                high += math.exp(wmax - top)
            else:
                low -= math.exp(wmax - top)
                high -= math.exp(wmin - top)
        if low > 0 or high < 0:
            return True
    return False


def exclusion_boxes(system, lo=None, hi=None, max_depth=16):
    """Depth-first adaptive rectangle subdivision, upper half first."""
    if lo is None:
        lo = [math.log(1e-8)] * 2
    if hi is None:
        hi = [math.log(1e8)] * 2
    stack = [(tuple(lo), tuple(hi), 0)]
    out = []
    while stack:
        lo, hi, depth = stack.pop()
        if box_excludes(system, lo, hi):
            continue
        if depth >= max_depth:
            out.append((lo, hi))
            continue
        k = 0 if hi[0] - lo[0] >= hi[1] - lo[1] else 1
        mid = 0.5 * (lo[k] + hi[k])
        a_hi = list(hi)
        a_hi[k] = mid
        b_lo = list(lo)
        b_lo[k] = mid
        stack.append((lo, tuple(a_hi), depth + 1))
        stack.append((tuple(b_lo), hi, depth + 1))
    return out
