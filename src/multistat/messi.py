"""Structured elimination for partitioned mass-action networks.

Species are partitioned into a block of *intermediates* (block 0) and
*core* blocks 1..m.  Intermediate complexes are singletons of block-0
species; core complexes are mono- or bimolecular in core species.  Under
the structural conditions checked here, the steady-state variety admits an
explicit parametrization by one chosen concentration per core block.  It
is derived once per structure, over Q(kappa): the rate constants are
symbols, every coefficient is a product-form rational function of them
(:class:`_Form`), and the steady-state equations of the symbolic
mass-action system are solved one unsolved species at a time, each from
an equation that is linear in it and free of every other unsolved
species.  Each species becomes a Laurent polynomial in the chosen
concentrations (a single monomial on networks with toric steady states),
and the result is verified once to zero the symbolic mass-action system.
At a given kappa the parametrization is an evaluation: every rate is
converted to a ``Fraction`` (exactly, floats included) and each
coefficient is evaluated exactly.

Substituting the parametrization into the independent conservation laws
yields the *region system*: a coefficient matrix over a point
configuration of monomial exponents whose decorated simplices certify
multistationarity regions.  :func:`rescale_back` converts a column-wise
scaling of that system into a rescaling of the rate constants, with the
exponents read off the region system over Q(kappa).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from . import ratlin
from .points import PointConfiguration

__all__ = [
    "MessiError",
    "classify_complexes",
    "MessiModel",
    "messi_model",
    "Parametrization",
    "steady_state_parametrization",
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


@dataclass(frozen=True, eq=False)
class MessiModel:
    """The rate-independent structure of a network under one partition and
    one choice of core species.  Built once per structure by
    :func:`messi_model` and shared, so every field is read-only; the laws,
    the parametrization over Q(kappa) and the rescale exponents are
    derived on first use."""

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
        """Block-wise 0/1 conservation laws: block alpha's law sums its
        species plus every intermediate fed (through intermediates) from a
        core complex containing a block-alpha species.  Verified to lie in
        the left kernel of the stoichiometric matrix, and independent."""
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
    def compiled(self):
        """The steady-state parametrization over Q(kappa): the route on the
        mass-action system whose rate constants are symbols, verified once
        by :func:`_verify_parametrization`; with its factors and how many
        of them the route registered.  Raises :class:`MessiError` when
        either fails."""
        factors = _Factors(dict.fromkeys(r.rate_name for r in self.net.reactions))
        symbols = {name: factors.symbol(name) for name in factors.names}
        param, polys = _route(self.net, self.partition, self.chosen, symbols)
        route = len(factors.polys)
        _verify_parametrization(self.net, param, polys)
        return factors, param, route

    @cached_property
    def _program(self):
        """The compiled coefficients as integer programs (see
        :func:`_term_value`) over the rates and the factors they use or
        the route registered with coefficients of both signs, and the
        slots of the latter."""
        factors, param, route = self.compiled
        terms = [(sp, {x: factors.lift(v) for x, v in poly.items()})
                 for sp, poly in param.terms.items()]
        mixed = {k for k in range(route) if min(factors.polys[k].values()) < 0}
        used = sorted(mixed | {k for _, poly in terms for v in poly.values() for k in v.f})
        slot = {k: len(factors.names) + i for i, k in enumerate(used)}

        def program(c, m, f=()):
            return (c.numerator, c.denominator,
                    tuple((i, e) for i, e in enumerate(m) if e)
                    + tuple((slot[k], e) for k, e in f))

        return (factors.names,
                [[program(c, m) for m, c in factors.polys[k].items()] for k in used],
                [slot[k] for k in sorted(mixed)],
                [(sp, [(x, program(v.c, v.m, v.f.items())) for x, v in poly.items()])
                 for sp, poly in terms])

    def parametrize(self, rates):
        """The parametrization's terms at the exact positive ``rates``: each
        factor is evaluated once, then each coefficient.  Where no factor
        of the route vanishes, every zero test of the route has the same
        outcome at ``rates`` as over Q(kappa), so the terms, values and key
        order are those the route derives at ``rates``.  A factor with
        positive coefficients never vanishes; where one of both signs
        does, the route runs at ``rates`` instead."""
        names, factors, mixed, terms = self._program
        vals = [(q.numerator, q.denominator) for q in map(rates.__getitem__, names)]
        for poly in factors:
            v = sum(_term_value(t, vals) for t in poly)
            vals.append((v.numerator, v.denominator))
        if any(vals[i][0] == 0 for i in mixed):
            param, polys = _route(self.net, self.partition, self.chosen, rates)
            _verify_parametrization(self.net, param, polys)
            return param.terms
        return {sp: {x: _term_value(t, vals) for x, t in poly} for sp, poly in terms}

    @cached_property
    def rescale_exponents(self):
        """The reactant core complexes that scale every region-system
        column by a power of their multiplier, and per monomial those
        powers.  A complex's power in a column is the degree of the
        column's coefficient over Q(kappa) in the rates out of it; it
        exists when every factor of every nonzero entry is homogeneous in
        those rates and all rows agree.  A complex scales the system only
        if its power is 0 in every chosen column, whose coefficients the
        rescaling keeps."""
        factors, param, _ = self.compiled
        region = assemble_region_system(
            self.net, self.partition, None, [1] * (len(self.partition) - 1), self.chosen, param)
        unit_cols = region.chosen_columns()
        active = [j for j in range(region.cfg.n)
                  if j != region.constant_column and j not in unit_cols]
        powers, names = [], []
        for y in self.reactant_cores:
            own = {r.rate_name for r in self.net.reactions if r.source == y}
            mask = [int(name in own) for name in factors.names]
            evec = {}
            for j in [*unit_cols, *active]:
                degrees = {factors.degree(row[j], mask) for row in region.C if row[j] != 0}
                if None in degrees or len(degrees) > 1 or (j in unit_cols and degrees - {0}):
                    break
                evec[j] = degrees.pop() if degrees else 0
            else:
                powers.append(evec)
                names.append(y)
        return tuple(names), MappingProxyType(
            {region.cfg.points[j]: tuple(p[j] for p in powers) for j in active})


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


class _Factors:
    """The rate symbols of one structure and the multi-term polynomials in
    them that its :class:`_Form` values share, each registered once in a
    normal form: its least exponent in each symbol is 0, and its least
    exponent tuple has coefficient 1."""

    def __init__(self, names):
        self.names = tuple(names)
        self.one = tuple([0] * len(self.names))
        self.polys = []  # factor id -> {exponent tuple: Fraction}
        self.ids = {}  # a factor's sorted items -> its id
        self.powers = {}  # (factor id, exponent) -> the expanded power

    def lift(self, x):
        return x if isinstance(x, _Form) else _Form(self, Fraction(x), self.one, {})

    def symbol(self, name):
        i = self.names.index(name)
        return _Form(self, Fraction(1), tuple(int(j == i) for j in range(len(self.names))), {})

    def expand(self, v, m0, f0):
        """The polynomial ``v / (kappa^m0 * prod F^f0)``; ``m0`` and ``f0``
        are at most ``v``'s exponents."""
        poly = {tuple(a - b for a, b in zip(v.m, m0)): v.c}
        for k in {*v.f, *f0}:
            e = v.f.get(k, 0) - f0.get(k, 0)
            if e:
                if (k, e) not in self.powers:
                    self.powers[k, e] = _tpow(self.polys[k], e, len(self.names))
                poly = _tmul(poly, self.powers[k, e])
        return poly

    def form(self, poly, m0, f0):
        """The value ``poly * kappa^m0 * prod F^f0`` of a polynomial without
        zero coefficients; a multi-term ``poly`` becomes a factor."""
        if not poly:
            return _Form(self, Fraction(0), self.one, {})
        low = tuple(min(col) for col in zip(*poly))
        m = tuple(a + b for a, b in zip(m0, low))
        if any(low):
            poly = {tuple(a - b for a, b in zip(e, low)): c for e, c in poly.items()}
        lead = poly[min(poly)]
        f = {k: e for k, e in f0.items() if e}
        if len(poly) > 1:
            key = tuple(sorted((e, c / lead) for e, c in poly.items()))
            k = self.ids.get(key)
            if k is None:
                k = self.ids[key] = len(self.polys)
                self.polys.append(dict(key))
            f[k] = f.get(k, 0) + 1
            if not f[k]:
                del f[k]
        return _Form(self, lead, m, f)

    def degree(self, v, mask):
        """The degree of ``v`` in the symbols that ``mask`` marks, or None
        when one of its factors is not homogeneous in them."""
        v = self.lift(v)
        total = sum(a * b for a, b in zip(v.m, mask))
        for k, e in v.f.items():
            degrees = {sum(a * b for a, b in zip(x, mask)) for x in self.polys[k]}
            if len(degrees) > 1:
                return None
            total += e * degrees.pop()
        return total


class _Form:
    """A value ``c * kappa^m * prod F_k^f[k]`` in Q(kappa): ``c`` a
    Fraction, ``m`` integer exponents of the rate symbols and ``f``
    nonzero integer exponents of registered factors.  Products and
    quotients add exponents; a sum factors out the common part of its terms
    and registers the expanded rest, so a value is the zero function
    exactly when ``c`` is 0.  At a positive kappa it is also 0 where one
    of its factors vanishes, which a factor with positive coefficients
    never does."""

    __slots__ = ("field", "c", "m", "f")

    def __init__(self, field, c, m, f):
        self.field, self.c, self.m, self.f = field, c, m, f

    def __eq__(self, other):
        return not (self - other).c

    __hash__ = None

    def __repr__(self):
        names = self.field.names
        return " * ".join([repr(self.c)]
                          + ["%s^%d" % (names[i], e) for i, e in enumerate(self.m) if e]
                          + ["F%d^%d" % kv for kv in self.f.items()])

    def __neg__(self):
        return _Form(self.field, -self.c, self.m, self.f)

    def __add__(self, other):
        other = self.field.lift(other)
        if not other.c:
            return self
        if not self.c:
            return other
        field = self.field
        m0 = tuple(map(min, self.m, other.m))
        f0 = {k: min(self.f.get(k, 0), other.f.get(k, 0)) for k in {*self.f, *other.f}}
        return field.form(_tadd(field.expand(self, m0, f0), field.expand(other, m0, f0)), m0, f0)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self.field.lift(other)

    def __mul__(self, other):
        other = self.field.lift(other)
        if not (self.c and other.c):
            return _Form(self.field, Fraction(0), self.field.one, {})
        f = dict(self.f)
        for k, e in other.f.items():
            f[k] = f.get(k, 0) + e
            if not f[k]:
                del f[k]
        return _Form(self.field, self.c * other.c,
                     tuple(a + b for a, b in zip(self.m, other.m)), f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.field.lift(other)
        return self * _Form(self.field, 1 / other.c, tuple(-a for a in other.m),
                            {k: -e for k, e in other.f.items()})

    def __pow__(self, e):
        return _Form(self.field, self.c ** e, tuple(a * e for a in self.m),
                     {k: x * e for k, x in self.f.items()} if e else {})


def _term_value(term, vals):
    """The exact value ``c * prod vals[i]^e`` of a compiled coefficient
    ``(numerator of c, denominator of c, ((i, e), ...))``, with ``vals``
    holding (numerator, denominator) pairs."""
    num, den, powers = term
    for i, e in powers:
        n, d = vals[i]
        if e < 0:
            n, d, e = d, n, -e
        num *= n ** e
        den *= d ** e
    return Fraction(num, den)


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


def _route(net, partition, chosen, rates):
    """:func:`_substitution_route` on the mass-action system at ``rates``
    (numbers or :class:`_Form` symbols): the parametrization and the
    system, which the caller verifies."""
    polys = net.mass_action_system(rates)
    try:
        known = _substitution_route(net, partition, polys, chosen)
    except MessiError as e:
        raise MessiError("no steady-state parametrization: %s" % e, [str(e)])
    return Parametrization(tuple(chosen), known, rates), polys


def steady_state_parametrization(net, partition, kappa=None, chosen=None):
    """Parametrization of the positive steady-state variety by one chosen
    concentration per core block.

    Every rate constant must be positive and finite; each is converted to
    a ``Fraction`` (exact for floats too).  The parametrization over
    Q(kappa) (:attr:`MessiModel.compiled`), derived by sequential linear
    substitution and verified once per structure, is then evaluated at
    these rates.
    """
    model = messi_model(net, partition, chosen)
    if model.violations:
        raise MessiError("invalid species partition: " + "; ".join(model.violations),
                         list(model.violations))
    rates = net.rates(kappa)
    _positive_finite(rates.items(), "rate")
    rates = {k: Fraction(v) for k, v in rates.items()}
    return Parametrization(tuple(model.chosen), model.parametrize(rates), rates)


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

@dataclass
class RegionSystem:
    cfg: PointConfiguration
    C: list  # m x n coefficient rows, aligned with cfg.points
    chosen: tuple
    totals: list
    parametrization: Parametrization
    laws: tuple  # the model's laws, shared and read-only
    column_symbols: list
    model: MessiModel  # the structure it was assembled on

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
    point configuration of the region system.  Every total must be positive
    and finite; each is converted to a ``Fraction`` (exact for floats too),
    so ``C`` is exact.
    """
    if param is None:
        param = steady_state_parametrization(net, partition, kappa, chosen)
    chosen = param.chosen
    model = messi_model(net, partition, chosen)
    laws = model.laws
    m = len(laws)
    if len(totals) != m:
        raise MessiError("need one total per conservation law (%d)" % m)
    _positive_finite((("T%d" % (b + 1), t) for b, t in enumerate(totals)), "total")
    totals = [Fraction(t) for t in totals]
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
    return RegionSystem(cfg, C, chosen, totals, param, laws, symbols, model)


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


def rescale_back(region, gamma):
    """Rate constants ``kappa_bar`` whose region system equals ``region``
    scaled column-wise by ``gamma``.

    ``gamma`` is normalized first: the constant column is divided out and
    the chosen-variable columns are absorbed into a variable change
    ``x_alpha -> g_alpha x_alpha`` (reported in ``chosen_scale``).  The
    exponent of each remaining column in the per-reactant-complex scaling
    comes from :attr:`MessiModel.rescale_exponents`, the linear system is
    solved in logarithms, and the postcondition ``C(kappa_bar) = C(kappa) *
    diag(gamma_eff)`` is verified to 1e-9 on an assembly at ``kappa_bar``
    and the region's totals, returned as ``region``.  ``kappa`` and
    ``C(kappa)`` are the region's own exact rates and coefficients.  A
    scaling that is not realizable or leaves the float range raises
    :class:`MessiError`.
    """
    import numpy as np

    model = region.model
    chosen = region.chosen
    cols = region.cfg.points
    n = len(cols)
    if len(gamma) != n:
        raise MessiError("need one scale per column")
    names, exponents = model.rescale_exponents
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
        kbar = {k: float(v) for k, v in region.parametrization.rates.items()}
    except (OverflowError, ZeroDivisionError) as e:
        raise MessiError("column scaling leaves the float range (%s)" % e)
    for y, ell in multipliers.items():
        for r in model.net.reactions:
            if r.source == y:
                kbar[r.rate_name] *= ell
    # postcondition
    scaled = assemble_region_system(model.net, model.partition, kbar, region.totals, chosen)
    if scaled.cfg.points != region.cfg.points:
        raise MessiError("rescaled system changed support")
    worst = 0.0
    for a in range(len(region.C)):
        for j in range(n):
            want = float(region.C[a][j]) * ghat[j]
            got = float(scaled.C[a][j])
            scale = max(abs(want), abs(got), 1e-300)
            worst = max(worst, abs(want - got) / scale)
    if worst > 1e-9:
        raise MessiError("column scaling is not realizable by rate rescaling "
                         "(postcondition residual %g)" % worst)
    return RescaleResult(kbar, multipliers, gscale, ghat, worst, scaled)
