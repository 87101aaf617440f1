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

import itertools
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from . import cayley, decoration, messi, ratlin
from . import points as points_mod

__all__ = [
    "phi_map",
    "DeformedSystem",
    "CertifiedRoot",
    "newton_solve",
    "newton_solve_many",
    "count_positive_roots",
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
# seeds iterated together; bounds a line-search stack at 26 points per seed
NEWTON_BLOCK = 256
# the state of a seed in the iteration; a stopped seed is then certified
ITERATING, STOPPED, FAILED = range(3)


def phi_map(cfg, alpha, t, h):
    """Positive coefficient scalings ``gamma_j = alpha^{(1, a_j)} t^{h_j}``.

    ``alpha`` has ``d + 1`` positive entries; every vector ``m`` in the
    kernel of the configuration matrix satisfies
    ``gamma^m = t^{<m, h>}``, so all scalings produced this way deform the
    system inside the same height class.
    """
    alpha = [float(a) for a in alpha]
    if len(alpha) != cfg.d + 1 or any(a <= 0 for a in alpha):
        raise ValueError("need %d positive entries" % (cfg.d + 1))
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    gamma = []
    for j, a in enumerate(cfg.points):
        val = alpha[0]
        for k, e in enumerate(a):
            val *= alpha[k + 1] ** e
        gamma.append(val * t ** float(h[j]))
    return gamma


class DeformedSystem:
    """The system ``sum_j C[i][j] t^{h_j} x^{a_j}`` in log coordinates.

    Coefficients are kept as (sign, log magnitude) pairs so the evaluation
    stays finite even when ``t^{h_j}`` leaves the double range; every
    residual is scaled row-wise by the largest term magnitude.  Evaluations
    take a point ``u`` of shape ``(d,)`` or a stack ``(k, d)`` of them.
    """

    def __init__(self, cfg, C, h, t):
        if not 0 < t <= 1:
            raise ValueError("t must lie in (0, 1]")
        self.cfg = cfg
        self.C = C
        self.t = float(t)
        self.d = cfg.d
        self.m = len(C)
        # one height per column, or one per coefficient (mixed route)
        H = np.asarray(h, dtype=float)
        if H.ndim == 1:
            H = np.broadcast_to(H, (self.m, cfg.n))
        self.h = H
        logt = math.log(self.t) if self.t != 1.0 else 0.0
        self.exponents = np.array(cfg.points, dtype=float)
        sign = np.zeros((self.m, cfg.n))
        logmag = np.full((self.m, cfg.n), -np.inf)
        for i, row in enumerate(C):
            for j, c in enumerate(row):
                c = float(c)
                if c == 0:
                    continue
                sign[i, j] = 1.0 if c > 0 else -1.0
                logmag[i, j] = math.log(abs(c)) + H[i, j] * logt
        self.sign = sign
        self.logmag = logmag

    def scaled_terms(self, u):
        """Per-row term log-magnitudes ``log|c_ij t^{h_j}| + <a_j, u>``."""
        u = np.asarray(u, dtype=float)
        # one matrix-vector product per point: stacked points round as alone
        return self.logmag + np.matmul(self.exponents, u[..., None])[..., None, :, 0]

    def residual_jacobian(self, u):
        """Row-scaled residual vector and Jacobian at ``u = log x``.

        Each row is divided by its largest term magnitude, so a residual
        entry is the relative cancellation of that equation and the
        certificates are invariant under row and coordinate scalings.  A
        point with a row that has no finite largest term gets NaN values.
        """
        terms = self._scaled_term_values(u)
        return terms.sum(axis=-1), terms @ self.exponents

    def residual(self, u):
        """Max-norm of the row-scaled residual per point; NaN if not evaluable."""
        res = np.max(np.abs(self._scaled_term_values(u).sum(axis=-1)), axis=-1)
        return float(res) if res.ndim == 0 else res

    def _scaled_term_values(self, u):
        w = self.scaled_terms(u)
        top = np.max(w, axis=-1, keepdims=True)
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
        return float(np.max(np.abs(self.log_x - other.log_x))) > DISTINCT_TOL


def newton_solve(system, seed, basin="seed"):
    """:func:`newton_solve_many` for a single seed."""
    return newton_solve_many(system, [seed], [basin])[0]


def newton_solve_many(system, seeds, basins):
    """Damped Newton iteration in log coordinates from each positive seed.

    Armijo backtracking on the scaled residual keeps iterates finite;
    convergence requires both a tiny step and a certified residual.  Returns
    one entry per seed: its :class:`CertifiedRoot`, or ``None`` when the
    iteration diverges, stalls, or the final Jacobian fails the
    nondegeneracy test.  The seeds iterate together, ``NEWTON_BLOCK`` at a
    time, and each follows exactly the iteration it would follow alone.
    """
    if len(seeds) > NEWTON_BLOCK:
        return (newton_solve_many(system, seeds[:NEWTON_BLOCK], basins[:NEWTON_BLOCK])
                + newton_solve_many(system, seeds[NEWTON_BLOCK:], basins[NEWTON_BLOCK:]))
    u = np.log(np.asarray(seeds, dtype=float).reshape(len(seeds), system.d))
    step = np.full(len(u), np.inf)
    state = np.where(np.all(np.isfinite(u), axis=1), ITERATING, FAILED)
    for _ in range(MAX_ITER):
        idx = np.flatnonzero(state == ITERATING)
        if idx.size == 0:
            break
        f, J = system.residual_jacobian(u[idx])
        res = np.max(np.abs(f), axis=1)
        state[idx[(res < RESIDUAL_TOL) & (step[idx] < STEP_TOL)]] = STOPPED
        state[idx[~np.isfinite(res)]] = FAILED
        go = state[idx] == ITERATING
        idx, res, du = idx[go], res[go], _newton_steps(J[go], f[go])
        ok = np.all(np.isfinite(du), axis=1)
        state[idx[~ok]] = FAILED
        idx, res, du = idx[ok], res[ok], du[ok]
        rung = _first_accepted(system, u[idx], du, res)
        # no step length accepted: done if already certified, else stalled
        stuck = rung < 0
        state[idx[stuck]] = np.where(res[stuck] < RESIDUAL_TOL, STOPPED, FAILED)
        idx, du, lam = idx[~stuck], du[~stuck], ARMIJO_LADDER[rung[~stuck]]
        u[idx] = u[idx] + lam[:, None] * du
        step[idx] = lam * np.max(np.abs(du), axis=1)
        state[idx[step[idx] == 0.0]] = STOPPED
    # seeds still iterating after MAX_ITER steps are certified where they are
    return _certify(system, u, state != FAILED, basins)


def _newton_steps(J, f):
    """Solutions of ``J du = -f``; a stack holding a singular ``J`` is
    solved one system at a time, with NaN rows for the singular ones."""
    try:
        return np.linalg.solve(J, -f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(J) == 1:
            return np.full(f.shape, np.nan)
        return np.concatenate([_newton_steps(J[i:i + 1], f[i:i + 1]) for i in range(len(J))])


def _first_accepted(system, u, du, res):
    """Index into ``ARMIJO_LADDER`` of the step length that backtracking
    from ``lam = 1`` accepts first, or -1.  Every point tries ``lam = 1``;
    the rest of the ladder is evaluated at once for the points that fail."""
    rung = np.full(len(u), -1)
    todo = np.arange(len(u))
    for lo, hi in ((0, 1), (1, len(ARMIJO_LADDER))):
        if todo.size == 0:
            break
        lam = ARMIJO_LADDER[lo:hi]
        trial = u[todo, None, :] + lam[:, None] * du[todo, None, :]
        new_res = system.residual(trial.reshape(-1, u.shape[1])).reshape(trial.shape[:2])
        accept = (new_res <= (1 - 1e-4 * lam) * res[todo, None]) | (new_res < RESIDUAL_TOL)
        hit = accept.any(axis=1)
        rung[todo[hit]] = lo + accept[hit].argmax(axis=1)
        todo = todo[~hit]
    return rung


def _certify(system, u, finished, basins):
    """Certified roots at the rows ``finished`` of ``u``, else ``None``."""
    roots = [None] * len(u)
    idx = np.flatnonzero(finished)
    if idx.size == 0:
        return roots
    f, J = system.residual_jacobian(u[idx])
    res = np.max(np.abs(f), axis=1)
    small = res < RESIDUAL_TOL
    idx, res = idx[small], res[small]
    for i, r, sv in zip(idx, res, np.linalg.svd(J[small], compute_uv=False)):
        if sv[0] == 0 or sv[-1] <= SINGULAR_TOL * sv[0]:
            continue
        roots[i] = CertifiedRoot(
            x=np.exp(u[i]), log_x=u[i].copy(), residual=float(r),
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


def _distinct_roots(system, seeds, rng):
    """Distinct roots from the ``(basin, seed or None)`` pairs, then the lattice."""
    seeds = [(b, s) for b, s in seeds if s is not None] + [
        ("lattice %d" % i, s) for i, s in enumerate(_lattice_seeds(system.d, rng))]
    roots = []
    for root in newton_solve_many(system, [s for _, s in seeds], [b for b, _ in seeds]):
        if root is not None and all(root.distinct_from(r) for r in roots):
            roots.append(root)
    return roots


def count_positive_roots(system, family=None, rng=None):
    """Distinct certified positive roots found from decorated-subsystem
    seeds plus a logarithmic lattice; deduplicated by log-coordinate
    max-norm, earlier seeds win ties."""
    simplices = family.simplices if family is not None else []
    return _distinct_roots(
        system, [("simplex %s" % (tuple(s),), _simplex_seed(system, s)) for s in simplices], rng)


# ---------------------------------------------------------------------------
# rectangle exclusion (two variables)
# ---------------------------------------------------------------------------

def _box_excludes(system, lo, hi):
    """True when interval bounds prove no root inside the log-box."""
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
    """Adaptive rectangle subdivision for two-variable systems.

    Returns the log-coordinate boxes that interval bounds could not
    exclude; every positive root inside the initial box lies in one of
    them.  Exponential worst case, so depth-limited.
    """
    if system.d != 2:
        raise ValueError("exclusion sweep is implemented for two variables")
    if lo is None:
        lo = [math.log(1e-8)] * 2
    if hi is None:
        hi = [math.log(1e8)] * 2
    stack = [(tuple(lo), tuple(hi), 0)]
    out = []
    while stack:
        lo, hi, depth = stack.pop()
        if _box_excludes(system, lo, hi):
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


def _solve_boxes(system, boxes):
    """The centres of the log-boxes and Newton's result from each."""
    centres = np.exp([0.5 * (np.array(lo) + np.array(hi)) for lo, hi in boxes])
    return centres, newton_solve_many(system, centres, ["exclusion box"] * len(boxes))


def validate_root_set(system, roots, max_depth=16, refine_depth=14):
    """Search every unexcluded box for roots the seeds may have missed.

    Newton is started from the center of each surviving box; any certified
    root distinct from the known ones is returned so the caller can fail
    loudly.  A box whose iteration does not converge is subdivided further
    (interval bounds overestimate near a vanishing equation); only boxes
    that survive the refinement too are reported as unresolved.
    """
    boxes = exclusion_boxes(system, max_depth=max_depth)
    centres, found = _solve_boxes(system, boxes)
    refine = {}
    for b, ((lo, hi), centre, root) in enumerate(zip(boxes, centres, found)):
        width = max(hi[0] - lo[0], hi[1] - lo[1]) + 1e-3
        if root is None and not any(
                np.max(np.abs(np.log(centre) - r.log_x)) <= width for r in roots):
            refine[b] = exclusion_boxes(system, lo, hi, refine_depth)
    sub_found = iter(_solve_boxes(system, [box for subs in refine.values() for box in subs])[1])
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
    kappa_bar: dict = None  # rescaled rate constants (network context)
    chosen_scale: dict = None
    species_roots: list = None  # full concentration vectors at kappa_bar
    rescale: object = None


def witness_search(cfg, C, family, h=None, budget=60, rng=None, context=None):
    """Walk the geometric schedule ``t = 2^-1, ..., 2^-budget`` and stop at
    the first ``t`` whose certified-root count reaches the family size.

    Exhausting the schedule is inconclusive: the report never claims the
    required roots do not exist.  With a network ``context`` the success
    scalings ``gamma = t*^h`` are pushed back into rate constants and the
    roots are mapped to full concentration vectors.
    """
    if h is None:
        h = family.height
    if h is None:
        raise ValueError("family has no realizable height")
    hf = [float(v) for v in h]
    if rng is None:
        rng = _default_rng()
    p = len(family.simplices)
    log = []
    for step in range(1, budget + 1):
        t = 2.0 ** -step
        system = DeformedSystem(cfg, C, hf, t)
        roots = count_positive_roots(system, family, rng)
        log.append((t, len(roots)))
        if len(roots) >= p:
            report = WitnessReport(
                status="success", family=family, height=list(h),
                t_star=t, gamma=[t ** v for v in hf], roots=roots, log=log,
            )
            if context is not None:
                _attach_network(report, context)
            return report
    return WitnessReport(
        status="exhausted", family=family, height=list(h),
        t_star=None, gamma=None, roots=[], log=log,
    )


def _default_rng():
    seed = os.environ.get("MULTISTAT_SEED")
    return random.Random(int(seed)) if seed is not None else random.Random(0)


def _attach_network(report, context):
    """Push the witness scalings back into rate constants and map every
    certified root to a full concentration vector, re-validated against
    the conservation laws."""
    net, partition, kappa, totals, region = context
    res = messi.rescale_back(
        net, partition, kappa, totals, report.gamma, region=region
    )
    report.rescale = res
    report.kappa_bar = res.kappa_bar
    report.chosen_scale = res.chosen_scale
    param_bar = messi.steady_state_parametrization(
        net, partition, res.kappa_bar, chosen=region.chosen, verify=False
    )
    laws = region.laws
    species_roots = []
    for root in report.roots:
        xbar = [
            res.chosen_scale[sp] * float(v)
            for sp, v in zip(region.chosen, root.x)
        ]
        vals = param_bar.evaluate(xbar)
        vec = [float(vals[sp]) for sp in net.species]
        for law, T in zip(laws, totals):
            total = sum(float(l) * v for l, v in zip(law, vec))
            if abs(total - float(T)) > 1e-8 * max(abs(float(T)), 1.0):
                raise ArithmeticError(
                    "mapped root violates a conservation law "
                    "(got %g, expected %g)" % (total, float(T))
                )
        species_roots.append(dict(zip(net.species, vec)))
    report.species_roots = species_roots
    return report


# ---------------------------------------------------------------------------
# the mixed route
# ---------------------------------------------------------------------------

@dataclass
class MixedFamily:
    simplices: list  # jointly realizable mixed-decorated simplices
    height: list  # interior point of the joint cone, one entry per point
    cone: object


@dataclass
class MixedDecorationReport:
    cayley: object
    coeffs: list  # equation i's coefficients over block i's points
    columns: list  # global point index -> column of the region system
    mixed: list  # all mixed simplices
    decorated: list  # the mixed-decorated ones
    families: list  # MixedFamily list, largest first

    @property
    def best(self):
        return self.families[0] if self.families else None


def mixed_decoration(cfg, C):
    """Cayley view of a square system: block ``i`` holds the support of
    equation ``i``; mixed simplices pick two points per block and are
    decorated when the picked coefficients have opposite signs."""
    blocks, coeffs, columns = [], [], []
    for row in C:
        support = [j for j, c in enumerate(row) if float(c) != 0.0]
        blocks.append([cfg.points[j] for j in support])
        coeffs.append([row[j] for j in support])
        columns.extend(support)
    cay = cayley.cayley_configuration(blocks)
    mixed = cayley.enumerate_mixed_simplices(cay)
    decorated = [s for s in mixed if cayley.is_mixed_decorated(cay, coeffs, s)]
    normals = {s: points_mod.cone_normals(cay.matrix, s) for s in decorated}
    families = []
    for family in decoration.grow_families(decorated, normals, ratlin.strict_feasible_fast):
        family = sorted(family)
        cone = cayley.mixed_joint_cone(cay, family, normals)
        h = ratlin.strict_feasible_fast(cone.normals)
        if h is None:
            raise ratlin.LPError("no height for the certified mixed family %s" % (family,))
        families.append(MixedFamily(family, h, cone))
    families.sort(key=lambda f: (-len(f.simplices), f.simplices))
    return MixedDecorationReport(cay, coeffs, columns, mixed, decorated, families)


def _mixed_height_matrix(report, h, m, n):
    """Spread a height vector over Cayley points into one height per
    coefficient of the region system."""
    H = np.zeros((m, n))
    for g, hj in enumerate(h):
        i = report.cayley.block_of(g)
        H[i, report.columns[g]] = float(hj)
    return H


def _mixed_simplex_seed(system, report, simplex):
    """Positive root of the deformed binomial subsystem of a mixed
    simplex, solved in logarithms."""
    cay = report.cayley
    M = []
    rhs = []
    for i, (j1, j2) in enumerate(cayley._block_pairs(cay, simplex)):
        c1, c2 = report.columns[j1], report.columns[j2]
        if system.sign[i, c1] == 0 or system.sign[i, c1] == system.sign[i, c2]:
            return None
        M.append(system.exponents[c1] - system.exponents[c2])
        rhs.append(system.logmag[i, c2] - system.logmag[i, c1])
    try:
        u = np.linalg.solve(np.array(M), np.array(rhs))
    except np.linalg.LinAlgError:
        return None
    return np.exp(u)


def mixed_witness_search(cfg, C, report=None, family=None, budget=60, rng=None):
    """Decreasing-t search along a per-coefficient height of a family of
    mixed-decorated simplices.

    The deformation scales every coefficient independently (one height per
    Cayley point), so no rate-constant pullback is attempted; the result
    certifies root counts of the deformed system itself.
    """
    if report is None:
        report = mixed_decoration(cfg, C)
    if family is None:
        family = report.best
    if family is None or family.height is None:
        raise ValueError("no realizable mixed-decorated family")
    if rng is None:
        rng = _default_rng()
    H = _mixed_height_matrix(report, family.height, len(C), cfg.n)
    p = len(family.simplices)
    log = []
    for step in range(1, budget + 1):
        t = 2.0 ** -step
        system = DeformedSystem(cfg, C, H, t)
        roots = _distinct_roots(system, [
            ("mixed simplex %s" % (tuple(s),), _mixed_simplex_seed(system, report, s))
            for s in family.simplices], rng)
        log.append((t, len(roots)))
        if len(roots) >= p:
            return WitnessReport(
                status="success", family=family,
                height=[float(v) for v in family.height],
                t_star=t, gamma=[t ** float(v) for v in family.height],
                roots=roots, log=log,
            )
    return WitnessReport(
        status="exhausted", family=family,
        height=[float(v) for v in family.height],
        t_star=None, gamma=None, roots=[], log=log,
    )


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
    report = witness_search(
        region.cfg, region.C, best, budget=budget, rng=rng,
        context=(net, partition, kappa, totals, region),
    )
    report.decoration = decor
    report.region = region
    return decor, report
