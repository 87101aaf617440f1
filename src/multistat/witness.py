"""Certified positive roots of deformed sparse polynomial systems.

A coefficient matrix ``C`` over a point configuration defines the square
system ``f_i(x) = sum_j C[i][j] x^{a_j}``.  Deforming each column by
``t^{h_j}`` for a height ``h`` in the joint cone of a family of positively
decorated simplices makes each simplex contribute one nondegenerate
positive root for all small enough ``t``.  No computable threshold on
``t`` is available, so this module searches a geometric schedule and
*certifies* every root it reports: small scaled residual, Jacobian
smallest singular value bounded away from zero, and (in two variables) an
adaptive rectangle-exclusion sweep that bounds the risk of missed roots.
"""

from __future__ import annotations

import copy
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg import _umath_linalg

from . import cayley, decoration, messi

__all__ = [
    "DeformedSystem",
    "CertifiedRoot",
    "newton_solve_many",
    "exclusion_boxes",
    "validate_root_set",
    "WitnessReport",
    "witness_search",
    "certify_multistationarity",
]

RESIDUAL_TOL = 1e-10
STEP_TOL = 1e-14
SINGULAR_TOL = 1e-8
DISTINCT_TOL = 1e-6
MAX_ITER = 200
# backtracking step lengths 1, 1/2, ... > 1e-8; a smaller step makes no useful progress
ARMIJO_LADDER = 0.5 ** np.arange(27)
# Armijo's sufficient-decrease factor of each rung
ARMIJO_BOUND = 1 - 1e-4 * ARMIJO_LADDER
# seeds iterated together; bounds a line-search stack at 26 points per seed
NEWTON_BLOCK = 256
MAX_BUDGET = 1074  # the longest schedule: 2^-1075 is 0 in doubles


def _row_max(a):
    """``a.max(axis=-1)`` by elementwise maxima: exact, and fast on short rows."""
    top = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(top, a[..., j], out=top)
    return top


def _log_abs(c):
    """``log|c|`` of a nonzero coefficient, also for an exact one outside
    the double range (from its integer numerator and denominator)."""
    try:
        f = abs(float(c))
    except OverflowError:
        f = math.inf
    if 0 < f < math.inf:
        return math.log(f)
    c = Fraction(c)
    return math.log(abs(c.numerator)) - math.log(c.denominator)


class DeformedSystem:
    """The system ``sum_j C[i][j] t^{h_j} x^{a_j}`` in log coordinates.

    Coefficients are kept as (sign, log magnitude) pairs so the evaluation
    stays finite even when ``t^{h_j}`` leaves the double range; every
    residual is scaled row-wise by the largest term magnitude.  Evaluations
    take a point ``u`` of shape ``(d,)`` or a stack ``(k, d)`` of them.

    A sequence of values of ``t`` makes a stack of systems: ``logmag`` has
    shape ``(K, m, n)``, and evaluations take each point's system in ``which``.
    """

    def __init__(self, cfg, C, h, t):
        ts = [float(v) for v in t] if np.ndim(t) else [float(t)]
        if not all(0 < v <= 1 for v in ts):
            raise ValueError("t must lie in (0, 1]")
        self.t = ts if np.ndim(t) else ts[0]
        self.cfg = cfg
        self.C = C
        self.d = cfg.d
        self.m = len(C)
        # one height per column, or one per coefficient (mixed route)
        H = np.asarray(h, dtype=float)
        if H.ndim == 1:
            H = np.broadcast_to(H, (self.m, cfg.n))
        self.h = H
        self.exponents = np.array(cfg.points, dtype=float)
        sign = np.zeros((self.m, cfg.n))
        base = np.full((self.m, cfg.n), -np.inf)
        for i, row in enumerate(C):
            for j, c in enumerate(row):
                if c != 0:
                    sign[i, j], base[i, j] = (1.0 if c > 0 else -1.0), _log_abs(c)
        self.sign = sign
        # math.log: np.log may round differently
        logt = np.array([math.log(v) for v in ts])
        logmag = base + H * logt[:, None, None]
        self.logmag = logmag if np.ndim(t) else logmag[0]

    def scaled_terms(self, u, which=None):
        """Per-row term log-magnitudes ``log|c_ij t^{h_j}| + <a_j, u>``."""
        u = np.asarray(u, dtype=float)
        logmag = self.logmag if self.logmag.ndim == 2 else self.logmag[which]
        # one matrix-vector product per point: stacked points round as alone
        return logmag + np.matmul(self.exponents, u[..., None])[..., None, :, 0]

    def residual_jacobian(self, u, which=None):
        """Row-scaled residual vector and Jacobian at ``u = log x``.

        Each row is divided by its largest term magnitude, so a residual
        entry is the relative cancellation of that equation and the
        certificates are invariant under row and coordinate scalings.  A
        point with a row that has no finite largest term gets NaN values.
        """
        terms = self._scaled_term_values(u, which)
        return terms.sum(axis=-1), terms @ self.exponents

    def _scaled_term_values(self, u, which=None):
        w = self.scaled_terms(u, which)
        top = _row_max(w)[..., None]
        top[~np.isfinite(top)] = np.nan
        np.exp(np.subtract(w, top, out=w), out=w)  # in place: stacks can be large
        return np.multiply(self.sign, w, out=w)


@dataclass
class CertifiedRoot:
    x: np.ndarray  # positive coordinates
    log_x: np.ndarray
    residual: float  # max row-scaled residual
    sigma_min: float  # smallest singular value of the scaled Jacobian
    sigma_ratio: float  # sigma_min / largest singular value
    basin: str  # seed that produced the root

    def distinct_from(self, other):
        return float(np.abs(self.log_x - other.log_x).max()) > DISTINCT_TOL


def newton_solve_many(system, seeds, basins, which=None):
    """Damped Newton iteration in log coordinates from each positive seed.

    Armijo backtracking on the scaled residual keeps iterates finite;
    convergence requires both a tiny step and a certified residual.  Returns
    one entry per seed: its :class:`CertifiedRoot`, or ``None`` when the
    iteration diverges, stalls, or the final Jacobian fails the
    nondegeneracy test.  The seeds iterate together, ``NEWTON_BLOCK`` at a
    time, and each follows exactly the iteration it would follow alone; on
    a stack of systems ``which`` gives each seed's system.

    A step takes the first length of ``ARMIJO_LADDER`` that Armijo's test
    accepts: if every live seed's last step was damped, from one evaluation
    of the whole ladder (:func:`_ladder`), else from the full step and, for
    the seeds it fails, the rest of the ladder.  An accepted point keeps the
    residual and Jacobian that accepted it, and the certificate reuses the
    last ones.  A seed back, bit for bit, at its point of two steps before
    repeats that 2-cycle until ``MAX_ITER``; it stops at once, where
    ``MAX_ITER`` would.
    """
    which = np.zeros(len(seeds), dtype=int) if which is None else np.asarray(which)
    if len(seeds) > NEWTON_BLOCK:
        cut = NEWTON_BLOCK
        return (newton_solve_many(system, seeds[:cut], basins[:cut], which[:cut])
                + newton_solve_many(system, seeds[cut:], basins[cut:], which[cut:]))
    with np.errstate(divide="ignore"):  # a seed that underflowed to 0 stops as non-finite
        u = np.log(np.asarray(seeds, dtype=float).reshape(len(seeds), system.d))
    # the last point of every seed with its residual and Jacobian, written
    # when it stops; a failed seed gets a NaN residual
    end_u = u.copy()
    end_f = np.full((len(u), system.m), np.nan)
    end_J = np.zeros((len(u), system.m, system.d))
    ids = np.flatnonzero(np.isfinite(u).all(axis=1))
    u, which = u[ids], which[ids]
    f, J = system.residual_jacobian(u, which)
    res = _row_max(np.abs(f))
    prev, damped = np.full(u.shape, np.nan), np.zeros(ids.size, dtype=bool)
    live = np.isfinite(res)  # a seed that is not evaluable fails where it is
    for it in range(MAX_ITER):
        if not live.all():
            gone, keep = ids[~live], np.flatnonzero(live)
            end_u[gone], end_f[gone], end_J[gone] = u[~live], f[~live], J[~live]
            ids, which, prev, u, f, J, res, damped = (
                a[keep] for a in (ids, which, prev, u, f, J, res, damped))
        if ids.size == 0:
            break
        du = _newton_steps(J, f)
        ok = np.isfinite(du).all(axis=1)
        failed = not ok.all()
        if failed:  # evaluated harmlessly, then failed where it is
            du[~ok], f[~ok] = 0.0, np.nan
        if damped.all():
            lam, u_new, f_new, J_new, res_new = _ladder(system, u, du, res, which, 0)
        else:
            u_new = u + du
            f_new, J_new = system.residual_jacobian(u_new, which)
            res_new = _row_max(np.abs(f_new))
            lam = np.where(_sufficient(res_new, ARMIJO_BOUND[0], res), 1.0, 0.0)
            back = np.flatnonzero(ok & (lam == 0))
            if back.size:
                lam[back], u_new[back], f_new[back], J_new[back], res_new[back] = _ladder(
                    system, u[back], du[back], res[back], which[back], 1)
        if failed:
            lam[~ok] = 0.0
        step = lam * _row_max(np.abs(du))
        # stopped: no step length accepted, converged, or the step was zero
        stay = lam == 0
        live = ~stay & (step > 0) & ~((res_new < RESIDUAL_TOL) & (step < STEP_TOL))
        # a 2-cycle would run on to MAX_ITER, so it stops now: at the new
        # point if an even number of iterations is left, else where it is
        cycle = live & (u_new.view(np.int64) == prev.view(np.int64)).all(axis=1)
        live &= ~cycle
        if (MAX_ITER - it) % 2 == 0:
            stay |= cycle
        if stay.any():  # where it is, certified or not, unless its step failed
            u_new[stay], f_new[stay], J_new[stay] = u[stay], f[stay], J[stay]
        prev, u, f, J, res, damped = u, u_new, f_new, J_new, res_new, lam < 1
    # seeds still iterating after MAX_ITER steps are certified where they are
    end_u[ids], end_f[ids], end_J[ids] = u, f, J
    return _certify(end_u, end_f, end_J, basins)


def _newton_steps(J, f):
    """Solutions of ``J du = -f``, one per point of a stack, from the gufunc
    that ``np.linalg.solve`` calls; a singular ``J`` gives a NaN row."""
    # the settings of np.linalg.solve, except that a singular J is no error
    with np.errstate(all="ignore"):
        return _umath_linalg.solve(J, -f[..., None], signature="dd->d")[..., 0]


def _ladder(system, u, du, res, which, first):
    """For each seed, the first step length of ``ARMIJO_LADDER`` from rung
    ``first`` on that passes Armijo's test, or 0, and the point it reaches
    with its residual vector, Jacobian and max-norm residual, all from one
    evaluation of every rung.  A rung ``u + lam * du`` with ``lam = 1`` is
    the full step ``u + du``, the same doubles; a seed with no accepted
    rung gets the first rung's point."""
    lam = ARMIJO_LADDER[first:]
    trial = u[:, None, :] + lam[:, None] * du[:, None, :]
    terms = system._scaled_term_values(trial, which[:, None])
    f = terms.sum(axis=-1)
    new_res = _row_max(np.abs(f))
    accept = _sufficient(new_res, ARMIJO_BOUND[first:], res[:, None])
    rung = accept.argmax(axis=1)
    at = np.arange(len(u)) * len(lam) + rung  # flat index of each seed's rung
    passed, trial, f, terms, new_res = (
        a.reshape((-1,) + a.shape[2:])[at] for a in (accept, trial, f, terms, new_res))
    return np.where(passed, lam[rung], 0.0), trial, f, terms @ system.exponents, new_res


def _sufficient(new_res, bound, res):
    """Armijo's test with a rung's ``ARMIJO_BOUND``; a certified residual
    always passes."""
    return (new_res <= bound * res) | (new_res < RESIDUAL_TOL)


def _certify(u, f, J, basins):
    """Certified roots at the rows of ``u``, from their residuals ``f`` and
    Jacobians ``J``, else ``None``."""
    roots = [None] * len(u)
    res = _row_max(np.abs(f))
    idx = np.flatnonzero(res < RESIDUAL_TOL)
    for i, sv in zip(idx, np.linalg.svd(J[idx], compute_uv=False)):
        if sv[0] == 0 or sv[-1] <= SINGULAR_TOL * sv[0]:
            continue
        roots[i] = CertifiedRoot(
            x=np.exp(u[i]), log_x=u[i].copy(), residual=float(res[i]),
            sigma_min=float(sv[-1]), sigma_ratio=float(sv[-1] / sv[0]),
            basin=basins[i],
        )
    return roots


def _simplex_seed(system, simplex):
    """Closed-form positive root of the square subsystem supported on a
    decorated simplex of the deformed system, computed in logarithms."""
    idx = list(simplex)
    d = system.d
    # kernel vector of the deformed submatrix, solved in scaled doubles
    logs = system.logmag[:, idx]
    signs = system.sign[:, idx]
    scale = np.max(logs, axis=1, keepdims=True)
    sub = signs * np.exp(logs - scale)
    _, _, vt = np.linalg.svd(sub)
    v = vt[-1]
    if np.max(v) < -np.min(v):
        v = -v
    if np.any(v <= 0):
        return None
    M = np.zeros((d + 1, d + 1))
    rhs = np.zeros(d + 1)
    for k, j in enumerate(idx):
        M[k, :d] = system.exponents[j]
        M[k, d] = -1.0
        rhs[k] = math.log(v[k])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return None
    return np.exp(sol[:d])


def _lattice_seeds(d, rng):
    """A 5^d logarithmic lattice over [1e-6, 1e6]^d with a small jitter;
    the first coordinate varies fastest."""
    levels = np.linspace(math.log(1e-6), math.log(1e6), 5)
    seeds = []
    for idx in itertools.product(range(5), repeat=d):
        point = levels[list(reversed(idx))]
        if rng is not None:
            point = point + np.array([rng.uniform(-0.1, 0.1) for _ in range(d)])
        seeds.append(np.exp(point))
    return seeds


def _with_lattice(system, seeds, rng):
    """The ``(basin, seed or None)`` pairs that have a seed, then the lattice."""
    return [(b, s) for b, s in seeds if s is not None] + [
        ("lattice %d" % i, s) for i, s in enumerate(_lattice_seeds(system.d, rng))]


def _distinct(found):
    """The certified roots among ``found`` not within ``DISTINCT_TOL`` of an earlier one."""
    roots = []
    for root in found:
        if root is not None and all(root.distinct_from(r) for r in roots):
            roots.append(root)
    return roots


# ---------------------------------------------------------------------------
# rectangle exclusion (two variables)
# ---------------------------------------------------------------------------

def exclusion_boxes(system, lo=None, hi=None, max_depth=16):
    """Adaptive rectangle subdivision for two-variable systems.

    Returns the log-coordinate boxes that interval bounds could not
    exclude; every positive root inside the initial box lies in one of
    them.  Exponential worst case, so depth-limited.

    All boxes of one depth are tested at once, and each survivor is
    replaced by its upper half followed by its lower half; every returned
    box lies at ``max_depth``, so the list is in depth-first order, upper
    half first.  Each bound is ``log|c| + e_0 x_0 + e_1 x_1`` at the corner
    that minimizes or maximizes the term, and each row sums its terms in
    column order, scaled by its largest term so the sums stay finite; only
    the signs of the two sums matter.
    """
    if system.d != 2:
        raise ValueError("exclusion sweep is implemented for two variables")
    if lo is None:
        lo = [math.log(1e-8)] * 2
    if hi is None:
        hi = [math.log(1e8)] * 2
    box = np.array([[lo, hi]], dtype=float)  # (boxes, lo/hi, coordinate)
    E = system.exponents
    rising = E >= 0
    positive = system.sign > 0
    depth = 0
    with np.errstate(invalid="ignore"):  # a row without terms: NaN sums exclude nothing
        while len(box):
            # (boxes, min/max corner, term, coordinate), then bounds per row
            x = np.where(rising, box[:, :, None, :], box[:, ::-1, None, :]) * E
            w = system.logmag + x[:, :, None, :, 0] + x[:, :, None, :, 1]
            v = np.exp(w - _row_max(w[:, 1])[:, None, :, None])
            # lower and upper bound terms: a negative term bounds with the other corner
            s = np.cumsum(np.where(positive, v, -v[:, ::-1]), axis=-1)[..., -1]
            box = box[~((s[:, 0] > 0) | (s[:, 1] < 0)).any(axis=1)]
            if depth >= max_depth:
                break
            width = box[:, 1] - box[:, 0]
            k = (width[:, 0] < width[:, 1]).astype(int)
            at = np.arange(len(box))
            mid = 0.5 * (box[at, 0, k] + box[at, 1, k])
            box = np.repeat(box, 2, axis=0)
            box[2 * at, 0, k] = mid
            box[2 * at + 1, 1, k] = mid
            depth += 1
    return [(tuple(l), tuple(h)) for l, h in box.tolist()]


def _solve_boxes(system, boxes):
    """The centres of the log-boxes and Newton's result from each."""
    centres = np.exp([0.5 * (np.array(lo) + np.array(hi)) for lo, hi in boxes])
    return centres, newton_solve_many(system, centres, ["exclusion box"] * len(boxes))


def validate_root_set(system, roots):
    """Search every unexcluded box for roots the seeds may have missed.

    Newton is started from the center of each surviving box; any certified
    root distinct from the known ones is returned so the caller can fail
    loudly.  A box of the depth-16 sweep whose iteration does not converge
    is subdivided 14 levels further (interval bounds overestimate near a
    vanishing equation); only boxes that survive the refinement too are
    reported as unresolved.
    """
    boxes = exclusion_boxes(system)
    centres, found = _solve_boxes(system, boxes)
    refine = {}
    for b, ((lo, hi), centre, root) in enumerate(zip(boxes, centres, found)):
        width = max(hi[0] - lo[0], hi[1] - lo[1]) + 1e-3
        if root is None and not any(
                np.max(np.abs(np.log(centre) - r.log_x)) <= width for r in roots):
            refine[b] = exclusion_boxes(system, lo, hi, 14)
    sub = [box for subs in refine.values() for box in subs]
    sub_found = iter(_solve_boxes(system, sub)[1] if sub else ())
    missed, unresolved = [], []
    for b, root in enumerate(found):
        for box in refine.get(b, ()):
            sub_root = next(sub_found)
            if sub_root is None:
                unresolved.append(box)
            elif all(sub_root.distinct_from(r) for r in roots):
                missed.append(sub_root)
        if root is not None and all(root.distinct_from(r) for r in roots):
            missed.append(root)
    return missed, unresolved


# ---------------------------------------------------------------------------
# the decreasing-t search
# ---------------------------------------------------------------------------

@dataclass
class WitnessReport:
    status: str  # "success" or "exhausted"
    family: object  # decorated family driving the search
    height: list
    t_star: float  # deformation parameter of success, else None
    gamma: list  # t*^{h_j}, else None
    roots: list  # CertifiedRoot list at t*
    log: list  # (t, number of certified roots) per schedule step
    kappa_bar: dict = None  # rescaled rate constants (with a region system)
    chosen_scale: dict = None
    species_roots: list = None  # full concentration vectors at kappa_bar
    rescale: object = None


def witness_search(cfg, C, family, budget=60, rng=None, region=None):
    """Walk the geometric schedule ``t = 2^-1, ..., 2^-budget`` along the
    family's height ``h`` and stop at the first ``t`` whose certified-root
    count reaches the family size.

    Exhausting the schedule is inconclusive: the report never claims the
    required roots do not exist.  When ``(cfg, C)`` is the network
    ``region`` system, the success scalings ``gamma = t*^h`` are pushed back
    into rate constants and the roots are mapped to full concentration
    vectors.  ``rng`` (default ``random.Random(0)``) draws the lattice jitter.
    """
    h = family.height
    if h is None:
        raise ValueError("family has no realizable height")
    report = _schedule(cfg, C, family, list(h), h, budget, rng, "simplex", _simplex_seed)
    if report.status == "success" and region is not None:
        _attach_network(report, region)
    return report


def _schedule(cfg, C, family, height, H, budget, rng, label, seed_of):
    """The decreasing-t search of both routes: heights ``H`` per column or
    per coefficient, and at each step a seed ``seed_of(system, simplex)``
    per simplex of ``family``, then the lattice.  Steps run 1, 2, 4, ... at
    a time in one Newton stack of at most ``NEWTON_BLOCK // 2`` seeds and
    are judged in order; each draws its lattice jitter in step order, so
    the report is that of one step at a time (``rng`` may be read further)."""
    if budget > MAX_BUDGET:
        raise ValueError("budget must be at most %d: a smaller t is 0 in doubles" % MAX_BUDGET)
    rng = random.Random(0) if rng is None else rng
    p = len(family.simplices)
    most = max(1, NEWTON_BLOCK // 2 // (p + 5 ** cfg.d))
    log, first, k = [], 1, 1
    while first <= budget:
        ts = [2.0 ** -step for step in range(first, min(first + k, budget + 1))]
        stack = DeformedSystem(cfg, C, H, ts)
        seeds, which = [], []
        for i in range(len(ts)):
            system = copy.copy(stack)  # the step's own system
            system.t, system.logmag = ts[i], stack.logmag[i]
            pairs = _with_lattice(system, [("%s %s" % (label, tuple(s)), seed_of(system, s))
                                           for s in family.simplices], rng)
            seeds, which = seeds + pairs, which + [i] * len(pairs)
        found = newton_solve_many(stack, [s for _, s in seeds], [b for b, _ in seeds], which)
        for i, t in enumerate(ts):
            roots = _distinct(r for r, w in zip(found, which) if w == i)
            log.append((t, len(roots)))
            if len(roots) >= p:
                return WitnessReport("success", family, height, t,
                                     [t ** float(v) for v in height], roots, log)
        first, k = first + len(ts), min(2 * k, most)
    return WitnessReport("exhausted", family, height, None, None, [], log)


def _attach_network(report, region):
    """Push the witness scalings back into rate constants and map every
    certified root to a full concentration vector, re-validated against
    the conservation laws."""
    res = messi.rescale_back(region, report.gamma)
    report.rescale, report.kappa_bar, report.chosen_scale = res, res.kappa_bar, res.chosen_scale
    species = region.model.net.species
    species_roots = []
    for root in report.roots:
        xbar = [res.chosen_scale[sp] * float(v) for sp, v in zip(region.chosen, root.x)]
        vals = res.region.parametrization.evaluate(xbar)
        vec = [float(vals[sp]) for sp in species]
        for law, T in zip(region.laws, region.totals):
            total = sum(float(l) * v for l, v in zip(law, vec))
            if abs(total - float(T)) > 1e-8 * max(abs(float(T)), 1.0):
                raise ArithmeticError("mapped root violates a conservation law "
                                      "(got %g, expected %g)" % (total, float(T)))
        species_roots.append(dict(zip(species, vec)))
    report.species_roots = species_roots
    return report


# ---------------------------------------------------------------------------
# the mixed route
# ---------------------------------------------------------------------------

@dataclass
class MixedDecorationReport:
    cayley: object
    coeffs: list  # equation i's coefficients over block i's points
    columns: list  # global point index -> column of the region system
    mixed: list  # all mixed simplices
    decorated: list  # the mixed-decorated ones
    families: list  # DecoratedFamily list over the Cayley points, largest first

    @property
    def best(self):
        return self.families[0] if self.families else None


def mixed_decoration(cfg, C):
    """Cayley view of a square system: block ``i`` holds the support of
    equation ``i``; mixed simplices pick two points per block and are
    decorated when the picked coefficients have opposite signs.  All but the
    decoration is kept per tuple of blocks in :func:`decoration._table`,
    with float-accelerated LPs; the report holds copies."""
    blocks, coeffs, columns = [], [], []
    for row in C:
        support = [j for j, c in enumerate(row) if c != 0]
        blocks.append(tuple(cfg.points[j] for j in support))
        coeffs.append([row[j] for j in support])
        columns.extend(support)
    table = decoration._table(("cayley", tuple(blocks)), lambda: _mixed_table(blocks))
    decorated = [s for s, ok in zip(table.simplices, cayley.mixed_decorated(
        table.config, coeffs, table.simplices)) if ok]
    families = [decoration.DecoratedFamily(family, *table.cone(family))
                for family in map(sorted, table.grow(decorated))]
    families.sort(key=lambda f: (-len(f.simplices), f.simplices))
    return MixedDecorationReport(copy.deepcopy(table.config), coeffs, columns,
                                 list(table.simplices), decorated, families)


def _mixed_table(blocks):
    cay = cayley.cayley_configuration(blocks)
    return decoration._Table(cay, tuple(cayley.enumerate_mixed_simplices(cay)),
                             "strict_feasible_fast")


def _mixed_simplex_seed(system, report, simplex):
    """Positive root of the deformed binomial subsystem of a mixed
    simplex, solved in logarithms; block ``i``'s pair is ``simplex[2i:2i+2]``."""
    M, rhs = [], []
    for i in range(report.cayley.d):
        c1, c2 = report.columns[simplex[2 * i]], report.columns[simplex[2 * i + 1]]
        if system.sign[i, c1] == 0 or system.sign[i, c1] == system.sign[i, c2]:
            return None
        M.append(system.exponents[c1] - system.exponents[c2])
        rhs.append(system.logmag[i, c2] - system.logmag[i, c1])
    try:
        u = np.linalg.solve(np.array(M), np.array(rhs))
    except np.linalg.LinAlgError:
        return None
    return np.exp(u)


def mixed_witness_search(cfg, C, report, budget=60, rng=None):
    """Decreasing-t search along a per-coefficient height of the largest
    family of mixed-decorated simplices of ``report``, the
    :func:`mixed_decoration` of ``(cfg, C)``.

    The deformation scales every coefficient independently (one height per
    Cayley point), so no rate-constant pullback is attempted; the result
    certifies root counts of the deformed system itself.
    """
    family = report.best
    if family is None or family.height is None:
        raise ValueError("no realizable mixed-decorated family")
    # one height per coefficient of the region system
    H = np.zeros((len(C), cfg.n))
    for g, hj in enumerate(family.height):
        H[report.cayley.block_of(g), report.columns[g]] = float(hj)
    return _schedule(cfg, C, family, [float(v) for v in family.height], H, budget, rng,
                     "mixed simplex", lambda system, s: _mixed_simplex_seed(system, report, s))


def certify_multistationarity(net, partition, kappa, totals, chosen=None,
                              budget=60, rng=None):
    """Full pipeline from a network to a multistationarity witness.

    Parametrize the steady states, assemble the region system, enumerate
    positively decorated simplices, pick the largest jointly realizable
    family, deform along its interior height, and search the schedule.  On
    success the rescaled constants ``kappa_bar`` admit at least as many
    certified positive steady states as the family has simplices, each
    re-validated against the conservation laws.
    """
    region = messi.assemble_region_system(net, partition, kappa, totals, chosen)
    decor = decoration.find_decorated(region.cfg, region.C)
    best = decor.best
    if best is None:
        return decor, None
    report = witness_search(region.cfg, region.C, best, budget=budget, rng=rng, region=region)
    report.decoration = decor
    report.region = region
    return decor, report
