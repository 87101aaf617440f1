"""Structured elimination for partitioned mass-action networks.

Species are partitioned into a block of *intermediates* (block 0) and
*core* blocks 1..m.  Intermediate complexes are singletons of block-0
species; core complexes are mono- or bimolecular in core species.  Under
the structural conditions checked here, the steady-state variety admits an
explicit parametrization by one chosen concentration per core block.  It
is derived by one exact route: every rate is converted to a ``Fraction``
(exactly, floats included), and the steady-state equations of the exact
mass-action system are solved one unsolved species at a time, each from an
equation that is linear in it and free of every other unsolved species.
Each species becomes a Laurent polynomial in the chosen concentrations (a
single monomial on networks with toric steady states), and the result is
checked to zero the exact mass-action system.  The Matrix-Tree elimination
of intermediates and the association graphs of :func:`s_toric_check`
describe the MESSI structure; the parametrization does not depend on them.

Substituting the parametrization into the independent conservation laws
yields the *region system*: a coefficient matrix over a point
configuration of monomial exponents whose decorated simplices certify
multistationarity regions.  :func:`rescale_back` converts a column-wise
scaling of that system into a rescaling of the rate constants.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from types import MappingProxyType

from . import ratlin
from .points import PointConfiguration

__all__ = [
    "MessiError",
    "validate_partition",
    "classify_complexes",
    "intermediate_coefficients",
    "tree_sum",
    "build_G1",
    "build_G2",
    "layer_sets",
    "s_toric_check",
    "MessiModel",
    "messi_model",
    "Parametrization",
    "steady_state_parametrization",
    "messi_conservation",
    "RegionSystem",
    "assemble_region_system",
    "RescaleResult",
    "rescale_back",
    "default_chosen",
]


class MessiError(ValueError):
    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or [message]


# ---------------------------------------------------------------------------
# partition structure
# ---------------------------------------------------------------------------

def _block_index(net, partition):
    blocks = {}
    for b, names in enumerate(partition):
        for s in names:
            if s in blocks:
                raise MessiError("species %r in two blocks" % s)
            blocks[s] = b
    missing = [s for s in net.species if s not in blocks]
    if missing:
        raise MessiError("species missing from partition: %r" % missing)
    extra = [s for s in blocks if s not in net.index]
    if extra:
        raise MessiError("unknown species in partition: %r" % extra)
    return blocks


def classify_complexes(net, partition):
    """Split complexes into intermediates (singleton block-0 species) and
    core complexes; returns ``(intermediate: {complex: species}, core: set,
    violations: list)``."""
    blocks = _block_index(net, partition)
    intermediate, core = {}, set()
    violations = []
    for cplx in net.complexes():
        species = [s for s, c in cplx]
        in0 = [s for s in species if blocks[s] == 0]
        if in0:
            if len(cplx) == 1 and cplx[0][1] == 1:
                intermediate[cplx] = cplx[0][0]
            else:
                violations.append("complex %r mixes intermediates into a non-singleton" % (cplx,))
            continue
        coeffs = [c for _, c in cplx]
        if len(cplx) == 1 and coeffs[0] == 1:
            core.add(cplx)
        elif len(cplx) == 2 and coeffs == [1, 1] and blocks[cplx[0][0]] != blocks[cplx[1][0]]:
            core.add(cplx)
        else:
            violations.append("complex %r is not mono/bimolecular core" % (cplx,))
    return intermediate, core, violations


def _complex_graph(net):
    adj = {}
    for r in net.reactions:
        adj.setdefault(r.source, []).append((r.target, r))
        adj.setdefault(r.target, [])
    return adj


def _reaches_through(adj, intermediate, start):
    """All complexes reachable from ``start`` along paths whose interior
    nodes are intermediate complexes (start excluded from interior)."""
    stack = [t for t, _ in adj.get(start, [])]
    seen = set()
    while stack:
        c = stack.pop()
        if c not in seen:
            seen.add(c)
            if c in intermediate:
                stack.extend(t for t, _ in adj.get(c, []))
    return seen


def validate_partition(net, partition):
    """List of structural violations (empty iff the partition is valid)."""
    return list(messi_model(net, partition).violations)


@dataclass(frozen=True, eq=False)
class MessiModel:
    """The rate-independent structure of a network under one partition and
    one choice of core species.  Built once per structure by
    :func:`messi_model` and shared, so every field is read-only; the laws
    and the rescale exponents are derived on first use."""

    net: object  # snapshot of the species and reactions it was built from
    partition: tuple
    chosen: tuple
    blocks: MappingProxyType  # species -> block index
    intermediate: MappingProxyType  # intermediate complex -> its species
    core: frozenset  # core complexes
    sources: MappingProxyType  # intermediate complex -> its core sources
    violations: tuple  # structural violations of the partition
    reactant_cores: tuple  # core complexes that are reaction sources

    @cached_property
    def laws(self):
        """The block conservation laws of :func:`messi_conservation`."""
        net = self.net
        N = net.stoichiometric_matrix()
        laws = []
        for b in range(1, len(self.partition)):
            # the block's species and every intermediate it feeds
            members = set(self.partition[b]) | {
                sp for u, sp in self.intermediate.items()
                if any(self.blocks[s] == b for y in self.sources[u] for s, _ in y)}
            vec = tuple(Fraction(int(sp in members)) for sp in net.species)
            if any(sum(v * row[j] for v, row in zip(vec, N)) for j in range(len(net.reactions))):
                raise MessiError("block %d sum is not conserved" % b)
            laws.append(vec)
        if ratlin.rank(laws) != len(laws):
            raise MessiError("conservation laws are dependent")
        return tuple(laws)

    @cached_property
    def rescale_exponents(self):
        """The reactant core complexes that scale every region-system
        column by a power of their multiplier, and per monomial those
        powers.  Measured once, exactly, by doubling all rates out of one
        complex at a fixed generic rational kappa: the powers are
        structural, the same at every positive kappa."""
        rng = random.Random(20240917)
        kappa = {r.rate_name: Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
                 for r in self.net.reactions}
        totals = [1] * (len(self.partition) - 1)
        base = assemble_region_system(self.net, self.partition, kappa, totals, self.chosen)
        unit_cols = base.chosen_columns()
        active = [j for j in range(base.cfg.n)
                  if j != base.constant_column and j not in unit_cols]
        probes, names = [], []
        for y in self.reactant_cores:
            doubled = {r.rate_name: kappa[r.rate_name] * 2
                       for r in self.net.reactions if r.source == y}
            scaled = assemble_region_system(
                self.net, self.partition, {**kappa, **doubled}, totals, self.chosen)
            if scaled.cfg.points != base.cfg.points:
                continue
            evec = {}
            for j in active:
                pairs = [(row[j], row2[j]) for row, row2 in zip(base.C, scaled.C)]
                ratios = {c1 / c0 for c0, c1 in pairs if c0 != 0}
                if any((c0 == 0) != (c1 == 0) for c0, c1 in pairs) or len(ratios) > 1:
                    break
                r = ratios.pop() if ratios else Fraction(1)
                num, den = r.numerator, r.denominator
                if (num & (num - 1)) or (den & (den - 1)):
                    break  # not a power of 2
                evec[j] = num.bit_length() - den.bit_length()
            else:
                probes.append(evec)
                names.append(y)
        return tuple(names), MappingProxyType(
            {base.cfg.points[j]: tuple(p[j] for p in probes) for j in active})


_MODELS = {}  # structural key -> MessiModel


def messi_model(net, partition, chosen=None):
    """The :class:`MessiModel` of ``net`` under ``partition`` and ``chosen``
    (default :func:`default_chosen`), cached on the structure itself: the
    reactions as (source, target, rate name), the species, the partition
    and the chosen species."""
    chosen = tuple(default_chosen(net, partition) if chosen is None else chosen)
    key = (tuple((r.source, r.target, r.rate_name) for r in net.reactions),
           tuple(net.species), tuple(map(tuple, partition)), chosen)
    if key not in _MODELS:
        _MODELS[key] = _build_model(
            replace(net, species=tuple(net.species), reactions=tuple(net.reactions)),
            key[2], chosen)
    return _MODELS[key]


def _build_model(net, partition, chosen):
    """Classify the complexes and validate the partition."""
    blocks = _block_index(net, partition)
    intermediate, core, violations = classify_complexes(net, partition)
    adj = _complex_graph(net)
    reach = {c: _reaches_through(adj, intermediate, c) for c in [*intermediate, *core]}
    sources = {u: tuple(sorted(y for y in core if u in reach[y])) for u in intermediate}
    # block-0 species appear only in their own singleton complex
    for cplx in net.complexes():
        for s, _ in cplx:
            if blocks[s] == 0 and cplx not in intermediate:
                violations.append("intermediate species %r inside core complex %r" % (s, cplx))
    # every intermediate complex has a core input and a core output
    for u in intermediate:
        if not (reach[u] & core):
            violations.append("intermediate %r has no core output" % (u,))
        if not sources[u]:
            violations.append("intermediate %r has no core input" % (u,))
    # structural rules on core-to-core transitions (through intermediates)
    for y in core:
        for y2 in reach[y] & core:
            if len(y) != len(y2):
                violations.append("core transition %r -> %r changes molecularity" % (y, y2))
            elif sorted(blocks[s] for s, _ in y) != sorted(blocks[s] for s, _ in y2):
                violations.append("core transition %r -> %r does not respect blocks" % (y, y2))
    return MessiModel(
        net, partition, chosen, MappingProxyType(blocks), MappingProxyType(intermediate),
        frozenset(core), MappingProxyType(sources), tuple(violations),
        tuple(dict.fromkeys(r.source for r in net.reactions if r.source in core)))


# ---------------------------------------------------------------------------
# Matrix-Tree elimination of intermediates
# ---------------------------------------------------------------------------

def tree_sum(nodes, weights, root):
    """Sum over spanning in-trees rooted at ``root`` of the edge-weight
    products, via the Matrix-Tree minor of the out-degree Laplacian.
    ``weights`` maps ``(u, v)`` to the (summed) weight of edges u->v."""
    others = [v for v in nodes if v != root]
    idx = {v: i for i, v in enumerate(others)}
    n = len(others)
    L = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), w in weights.items():
        if u == v:
            continue
        if u in idx:
            L[idx[u]][idx[u]] += Fraction(w)
            if v in idx:
                L[idx[u]][idx[v]] -= Fraction(w)
    return ratlin.determinant(L)


def _collapsed_graph(net, partition, kappa):
    """Collapsed graph on intermediate species plus a star node ``"*"``;
    concentrations in core->intermediate labels are set to 1."""
    intermediate = messi_model(net, partition).intermediate
    rates = net.rates(kappa)
    weights = {}

    def add(u, v, w):
        weights[(u, v)] = weights.get((u, v), 0) + w

    for r in net.reactions:
        k = rates[r.rate_name]
        su = intermediate.get(r.source)
        tv = intermediate.get(r.target)
        if su is None and tv is None:
            continue
        add(su if su is not None else "*", tv if tv is not None else "*", k)
    nodes = ["*"] + sorted(set(intermediate.values()))
    return nodes, weights


def intermediate_coefficients(net, partition, kappa=None):
    """For each intermediate species the pair ``(mu, source)``: its steady
    value is ``mu * x^source`` with ``source`` the unique core complex
    feeding it through intermediates.  Raises when uniqueness fails."""
    model = messi_model(net, partition)
    nodes, weights = _collapsed_graph(net, partition, kappa)
    rho_star = tree_sum(nodes, weights, "*")
    if rho_star == 0:
        raise MessiError("intermediate linear system is singular")
    out = {}
    for cplx, sp in model.intermediate.items():
        sources = model.sources[cplx]
        if len(sources) != 1:
            raise MessiError(
                "intermediate %r needs a unique core source, found %r" % (sp, list(sources))
            )
        mu = tree_sum(nodes, weights, sp) / rho_star
        out[sp] = (mu, sources[0])
    return out


# ---------------------------------------------------------------------------
# association graphs
# ---------------------------------------------------------------------------

def build_G1(net, partition, kappa=None):
    """Digraph on core complexes; an edge carries the total transition rate
    ``tau = kappa_direct + sum_k kappa(U_k -> y') mu_k`` over intermediate
    channels."""
    model = messi_model(net, partition)
    intermediate, core = model.intermediate, model.core
    rates = net.rates(kappa)
    mu = intermediate_coefficients(net, partition, kappa) if intermediate else {}
    edges = {}
    syms = {}

    def add(y, y2, val, sym):
        if y == y2:  # no net transition
            return
        edges[(y, y2)] = edges.get((y, y2), 0) + val
        syms.setdefault((y, y2), []).append(sym)

    for r in net.reactions:
        if r.source in core and r.target in core:
            add(r.source, r.target, rates[r.rate_name], r.rate_name)
        elif r.source in intermediate and r.target in core:
            sp = intermediate[r.source]
            m, src = mu[sp]
            add(src, r.target, rates[r.rate_name] * m, "%s*mu[%s]" % (r.rate_name, sp))
    return edges, {k: " + ".join(v) for k, v in syms.items()}


def _pair_bimolecular(blocks, y, y2):
    """Match the species of two bimolecular core complexes block-by-block;
    returns ((xi, xj), (xl, xm)) with xi,xj in one block and xl,xm in the
    other, or None."""
    (a1, _), (a2, _) = y
    (b1, _), (b2, _) = y2
    if blocks[a1] == blocks[b1] and blocks[a2] == blocks[b2]:
        return (a1, b1), (a2, b2)
    if blocks[a1] == blocks[b2] and blocks[a2] == blocks[b1]:
        return (a1, b2), (a2, b1)
    return None


def build_G2(net, partition, kappa=None):
    """The labelled association multigraph on core species plus the block
    dependency graph.

    Returns a dict with keys ``edges`` (list of ``(u, v, tau, hidden,
    symbol)``), ``parallel_free`` (no two edges share endpoints before
    collapsing), ``GE`` (set of block-index pairs) and ``components``
    (species grouped by graph component restricted to each block).
    """
    blocks = messi_model(net, partition).blocks
    g1, g1sym = build_G1(net, partition, kappa)
    edges = []
    for (y, y2), tau in g1.items():
        sym = g1sym[(y, y2)]
        if len(y) == 1:
            u, v = y[0][0], y2[0][0]
            edges.append((u, v, tau, None, sym))
        else:
            pairing = _pair_bimolecular(blocks, y, y2)
            if pairing is None:
                raise MessiError("cannot pair %r -> %r block-wise" % (y, y2))
            (xi, xj), (xl, xm) = pairing
            edges.append((xi, xj, tau, xl, sym))
            edges.append((xl, xm, tau, xi, sym))
    seen = {}
    parallel_free = True
    for u, v, *_ in edges:
        if (u, v) in seen and u != v:
            parallel_free = False
        seen[(u, v)] = True
    ge = set()
    for u, v, tau, hidden, _ in edges:
        if u != v and hidden is not None and blocks[hidden] != blocks[u]:
            ge.add((blocks[hidden], blocks[u]))
    return {"edges": edges, "parallel_free": parallel_free, "GE": ge, "blocks": blocks}


def layer_sets(ge_edges, m):
    """Topological layers of the block dependency graph on blocks 1..m:
    layer 0 holds blocks with no incoming edge, layer k blocks whose
    incoming edges all originate in earlier layers.  Raises on cycles."""
    remaining = set(range(1, m + 1))
    layers = []
    placed = set()
    while remaining:
        layer = {
            b
            for b in remaining
            if all(src in placed for src, dst in ge_edges if dst == b)
        }
        if not layer:
            raise MessiError("block dependency graph has a cycle")
        layers.append(sorted(layer))
        placed |= layer
        remaining -= layer
    return layers


def _component_graphs(partition, g2):
    """The association graph restricted to each block, as adjacency sets
    (node -> successors; loops dropped)."""
    blocks = g2["blocks"]
    graphs = {}
    for b in range(1, len(partition)):
        adj = {sp: set() for sp in partition[b]}
        for u, v, *_ in g2["edges"]:
            if u != v and blocks[u] == b:
                adj[u].add(v)
                adj.setdefault(v, set())
        graphs[b] = adj
    return graphs


def _reach(adj, start):
    """Every node reachable from ``start``, ``start`` included."""
    seen, stack = {start}, [start]
    while stack:
        for v in adj[stack.pop()] - seen:
            seen.add(v)
            stack.append(v)
    return seen


def _strongly_connected(adj):
    """Whether every node reaches every other: one node reaches all, and
    all reach it (a search on the reversed edges)."""
    back = {v: set() for v in adj}
    for u, succ in adj.items():
        for v in succ:
            back[v].add(u)
    start = next(iter(adj))
    return len(_reach(adj, start)) == len(_reach(back, start)) == len(adj)


def _count_simple_paths(adj, u, v):
    """The number of simple paths from ``u`` to ``v != u``, counted up to 2:
    enough to tell a unique path from none or several."""
    count, stack = 0, [(u, {u})]
    while stack and count < 2:
        w, on_path = stack.pop()
        for x in adj[w]:
            if x == v:
                count += 1
            elif x not in on_path:
                stack.append((x, on_path | {x}))
    return min(count, 2)


def _unique_simple_paths(adj):
    return all(_count_simple_paths(adj, u, v) == 1 for u, v in permutations(adj, 2))


def s_toric_check(net, partition, kappa=None):
    """Check the structural conditions for a toric steady-state
    parametrization; the quotient condition (iii) is machine-verified only
    in the unique-simple-path regime."""
    out = {"valid_partition": not messi_model(net, partition).violations}
    try:
        intermediate_coefficients(net, partition, kappa)
        out["unique_intermediate_sources"] = True
    except MessiError as e:
        out["unique_intermediate_sources"] = False
        out["source_violation"] = str(e)
    try:
        g2 = build_G2(net, partition, kappa)
    except MessiError as e:
        out.update(parallel_free=False, weakly_reversible=False,
                   unique_simple_paths=False, quotient_condition="not verified",
                   g2_error=str(e))
        return out
    out["parallel_free"] = g2["parallel_free"]
    graphs = [adj for adj in _component_graphs(partition, g2).values()
              if len(adj) > 1 and any(adj.values())]
    out["weakly_reversible"] = wr = all(map(_strongly_connected, graphs))
    out["unique_simple_paths"] = usp = all(map(_unique_simple_paths, graphs))
    out["quotient_condition"] = "verified" if (usp and wr) else "not verified"
    return out


# ---------------------------------------------------------------------------
# steady-state parametrization
# ---------------------------------------------------------------------------

def _tadd(p1, p2):
    out = dict(p1)
    for e, c in p2.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def _tmul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
            if out[e] == 0:
                del out[e]
    return out


def _tpow(p, k, m):
    out = {tuple([0] * m): Fraction(1)}
    for _ in range(k):
        out = _tmul(out, p)
    return out


@dataclass
class Parametrization:
    chosen: tuple  # species names, defining the m coordinates
    terms: dict  # species -> {exponent tuple: Fraction coefficient}
    rates: dict  # the exact rate constants it was derived at

    def evaluate(self, x):
        """Species values at chosen concentrations ``x`` (positive)."""
        out = {}
        for sp, poly in self.terms.items():
            total = 0
            for e, c in poly.items():
                term = c
                for xi, ei in zip(x, e):
                    if ei:
                        term = term * xi ** ei
                total += term
            out[sp] = total
        return out


def default_chosen(net, partition):
    """One species per core block: conventional choices for the built-in
    networks, otherwise the first species of each block."""
    named = {
        "hybrid_kinase": ("X4", "X5"),
        "michaelis_menten": ("S0", "E"),
        "mixed_phosphorylation": ("S0", "E", "F"),
    }
    if net.name in named:
        return named[net.name]
    if net.name.startswith("phosphorylation_"):
        return ("S0", "E", "F")
    return tuple(partition[b][0] for b in range(1, len(partition)) if partition[b])


def _check_chosen(net, partition, chosen):
    blocks = messi_model(net, partition).blocks
    if len(chosen) != len(partition) - 1:
        raise MessiError("need one chosen species per core block")
    seen = set()
    for sp in chosen:
        if sp not in blocks or blocks[sp] == 0:
            raise MessiError("chosen species %r must be a core species" % sp)
        if blocks[sp] in seen:
            raise MessiError("two chosen species in block %d" % blocks[sp])
        seen.add(blocks[sp])


def _substitution_route(net, partition, polys, chosen):
    """Solve the exact mass-action equations ``polys`` for the non-chosen
    species, one at a time, each from the first equation that determines
    it."""
    _check_chosen(net, partition, chosen)
    m = len(chosen)
    coord = {sp: i for i, sp in enumerate(chosen)}
    known = {sp: {tuple(int(j == coord[sp]) for j in range(m)): Fraction(1)} for sp in chosen}
    pending = {net.index[sp] for sp in net.species if sp not in coord}
    dead = set()  # (equation, species) pairs that can never determine it
    # pairs blocked by another unsolved species, until one of the equation's is solved
    blocked = set()
    occurs = [{i for mono in eq for i, e in enumerate(mono) if e} for eq in polys]

    def expand(mono, coeff):
        """Expand a monomial in solved species over the chosen coordinates."""
        poly = {tuple([0] * m): coeff}
        for sp, e in zip(net.species, mono):
            if e:
                poly = _tmul(poly, _tpow(known[sp], e, m))
        return poly

    def solve(k, vi):
        """Species ``vi`` over the chosen coordinates from equation ``k``, or
        None.  Decided from the exponents before any expansion: some term
        has degree 1 in ``vi``, every term at most 1 and none in another
        unsolved species; then the coefficient of ``vi`` must be a single
        monomial.  Any failure but another unsolved species is final."""
        eq = polys[k]
        if not any(mono[vi] for mono in eq) or any(mono[vi] > 1 for mono in eq):
            dead.add((k, vi))
            return None
        if any(sum(mono[i] for i in pending) != mono[vi] for mono in eq):
            blocked.add((k, vi))
            return None
        coeff, rest = {}, {}
        for mono, c in eq.items():
            if mono[vi]:
                coeff = _tadd(coeff, expand(mono[:vi] + (0,) + mono[vi + 1:], c))
            else:
                rest = _tadd(rest, expand(mono, c))
        if len(coeff) != 1 or not rest:
            dead.add((k, vi))
            return None
        ((ce, cc),) = coeff.items()
        return {tuple(a - b for a, b in zip(e, ce)): -c / cc for e, c in rest.items()}

    while pending:
        found = next(((vi, poly) for vi in sorted(pending) for k in range(len(polys))
                      if (k, vi) not in dead and (k, vi) not in blocked
                      for poly in [solve(k, vi)] if poly is not None),
                     None)
        if found is None:
            raise MessiError("sequential elimination stuck; unsolved species %r"
                             % sorted(net.species[i] for i in pending))
        known[net.species[found[0]]] = found[1]
        pending.discard(found[0])
        blocked -= {(k, vi) for k, vi in blocked if found[0] in occurs[k]}
    return known


def steady_state_parametrization(net, partition, kappa=None, chosen=None):
    """Parametrization of the positive steady-state variety by one chosen
    concentration per core block.

    Every rate constant must be positive and finite; each is converted to
    a ``Fraction`` (exact for floats too), and the species are eliminated
    by sequential linear substitution in the exact mass-action system.
    The result is verified by substituting into that system at a positive
    rational point, where it must vanish exactly.
    """
    model = messi_model(net, partition, chosen)
    if model.violations:
        raise MessiError("invalid species partition: " + "; ".join(model.violations),
                         list(model.violations))
    rates = net.rates(kappa)
    _positive_finite(rates.items(), "rate")
    rates = {k: Fraction(v) for k, v in rates.items()}
    polys = net.mass_action_system(rates)
    try:
        known = _substitution_route(net, partition, polys, model.chosen)
    except MessiError as e:
        raise MessiError("no steady-state parametrization: %s" % e, [str(e)])
    param = Parametrization(tuple(model.chosen), known, rates)
    _verify_parametrization(net, param, polys)
    return param


def _verify_parametrization(net, param, polys):
    rng = random.Random(20240917)
    x = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in param.chosen]
    vals = param.evaluate(x)
    full = [vals[sp] for sp in net.species]
    for sp, p in zip(net.species, polys):
        total = sum(c * math.prod(xv ** e for xv, e in zip(full, mono) if e)
                    for mono, c in p.items())
        if total != 0:
            raise MessiError("parametrization residual %r on %r" % (total, sp))


# ---------------------------------------------------------------------------
# conservation laws and the region system
# ---------------------------------------------------------------------------

def messi_conservation(net, partition):
    """Block-wise 0/1 conservation laws: block alpha's law sums its species
    plus every intermediate fed (through intermediates) from a core complex
    containing a block-alpha species.  Verified to lie in the left kernel
    of the stoichiometric matrix, and independent."""
    return [list(law) for law in messi_model(net, partition).laws]


@dataclass
class RegionSystem:
    cfg: PointConfiguration
    C: list  # m x n coefficient rows, aligned with cfg.points
    chosen: tuple
    totals: list
    parametrization: Parametrization
    laws: tuple  # the model's laws, shared and read-only
    column_symbols: list

    @property
    def constant_column(self):
        return self.cfg.points.index(tuple([0] * self.cfg.d))

    def chosen_columns(self):
        d = self.cfg.d
        return [self.cfg.points.index(tuple(int(j == a) for j in range(d))) for a in range(d)]


def assemble_region_system(net, partition, kappa, totals, chosen=None, param=None):
    """Substitute the steady-state parametrization into the block
    conservation laws and collect like monomials.

    Row ``alpha`` is ``sum_j C[alpha][j] x^{a_j} = 0`` including the

    constant column ``-T_alpha`` at exponent 0; the exponents form the
    point configuration of the region system.
    """
    if param is None:
        param = steady_state_parametrization(net, partition, kappa, chosen)
    chosen = param.chosen
    laws = messi_model(net, partition, chosen).laws
    m = len(laws)
    if len(totals) != m:
        raise MessiError("need one total per conservation law (%d)" % m)
    rows = []
    for b, law in enumerate(laws):
        poly = {}
        for sp in net.species:
            c = law[net.index[sp]]
            if c == 0:
                continue
            poly = _tadd(poly, {e: c * v for e, v in param.terms[sp].items()})
        zero = tuple([0] * len(chosen))
        poly = _tadd(poly, {zero: -totals[b]})
        rows.append(poly)
    columns = sorted({e for poly in rows for e in poly})
    C = [[poly.get(e, Fraction(0)) for e in columns] for poly in rows]
    cfg = PointConfiguration(columns)
    symbols = ["*".join(
        "%s^%d" % (sp, ei) if ei != 1 else sp
        for sp, ei in zip(chosen, e) if ei
    ) or "1" for e in columns]
    return RegionSystem(cfg, C, chosen, list(totals), param, laws, symbols)


# ---------------------------------------------------------------------------
# pulling a column scaling back onto the rate constants
# ---------------------------------------------------------------------------

@dataclass
class RescaleResult:
    kappa_bar: dict  # rescaled rate constants
    multipliers: dict  # reactant core complex -> scaling factor
    chosen_scale: dict  # chosen species -> variable-change factor
    gamma_effective: list  # normalized column scaling actually matched
    residual: float
    region: RegionSystem  # the region system at kappa_bar (the postcondition's)


def _positive_finite(items, what):
    for name, v in items:
        if not 0 < v < math.inf:
            raise MessiError("%s %s = %s is not positive and finite" % (what, name, v))


def rescale_back(net, partition, kappa, totals, gamma, chosen=None, region=None):
    """Rate constants ``kappa_bar`` whose region system equals the original
    one scaled column-wise by ``gamma``.

    ``gamma`` is normalized first: the constant column is divided out and
    the chosen-variable columns are absorbed into a variable change
    ``x_alpha -> g_alpha x_alpha`` (reported in ``chosen_scale``).  The
    exponent of each remaining column in the per-reactant-complex scaling
    comes from :attr:`MessiModel.rescale_exponents`, the linear system is
    solved in logarithms, and the postcondition ``C(kappa_bar) = C(kappa) *
    diag(gamma_eff)`` is verified to 1e-9 on an assembly at ``kappa_bar``,
    returned as ``region``.  ``C(kappa)`` is ``region`` itself when that was
    assembled at these rates and at exact totals equal to these.  A scaling that is
    not realizable or leaves the float range raises :class:`MessiError`.
    """
    import numpy as np

    if region is None:
        region = assemble_region_system(net, partition, kappa, totals, chosen)
    chosen = region.chosen
    cols = region.cfg.points
    n = len(cols)
    if len(gamma) != n:
        raise MessiError("need one scale per column")
    rates = net.rates(kappa)
    _positive_finite(rates.items(), "rate")
    names, exponents = messi_model(net, partition, chosen).rescale_exponents
    exact = {k: Fraction(v) for k, v in rates.items()}
    if (region.parametrization.rates == exact and region.totals == list(totals)
            and all(isinstance(v, (int, Fraction)) for v in [*region.totals, *totals])):
        base = region
    else:
        base = assemble_region_system(net, partition, exact, totals, chosen)
    const = region.constant_column
    unit_cols = region.chosen_columns()
    active = [j for j in range(n) if j != const and j not in unit_cols]
    if any(cols[j] not in exponents for j in active):
        raise MessiError("region system has a monomial the structure does not produce")
    try:
        gamma = [float(g) for g in gamma]
        _positive_finite(enumerate(gamma), "column scale")
        gtil = [g / gamma[const] for g in gamma]
        gscale = {sp: gtil[unit_cols[a]] for a, sp in enumerate(chosen)}
        ghat = []
        for j, e in enumerate(cols):
            val = gtil[j]
            for a in range(len(chosen)):
                val *= gtil[unit_cols[a]] ** (-e[a])
            ghat.append(val)
        _positive_finite(enumerate(ghat), "normalized column scale")
        if not names and any(abs(math.log(ghat[j])) > 1e-12 for j in active):
            raise MessiError("no reactant complex scales the region system")
        E = np.array([exponents[cols[j]] for j in active], dtype=float)
        rhs = np.array([math.log(ghat[j]) for j in active])
        if E.size:
            sol, *_ = np.linalg.lstsq(E, rhs, rcond=None)
            res = E @ sol - rhs
            if np.max(np.abs(res), initial=0.0) > 1e-9:
                raise MessiError("column scaling is not realizable by rate rescaling")
        else:
            sol = np.zeros(0)
        multipliers = {y: math.exp(s) for y, s in zip(names, sol)}
        kbar = {k: float(v) for k, v in rates.items()}
    except (OverflowError, ZeroDivisionError) as e:
        raise MessiError("column scaling leaves the float range (%s)" % e)
    for y, ell in multipliers.items():
        for r in net.reactions:
            if r.source == y:
                kbar[r.rate_name] *= ell
    # postcondition
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
        raise MessiError("column scaling is not realizable by rate rescaling "
                         "(postcondition residual %g)" % worst)
    return RescaleResult(kbar, multipliers, gscale, ghat, worst, scaled)
