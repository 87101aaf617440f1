"""Reaction networks with mass-action kinetics.

A network is an ordered species list plus reactions between complexes
(nonnegative integer combinations of species).  Rate constants are kept as
exact rationals when given exactly.  The module also ships the built-in
networks used throughout the test-suite and CLI:

* ``hybrid_kinase``      -- a 6-species hybrid kinase / response-regulator
  phosphorelay,
* ``phosphorylation(n)`` -- sequential n-site phosphorylation by a
  kinase/phosphatase pair,
* ``michaelis_menten``   -- the basic enzymatic mechanism,
* ``mixed_phosphorylation`` -- a 2-site system with processive
  dephosphorylation and distributive phosphorylation.

A plain-text file format is supported::

    # comment
    species: X1 X2 X3
    partition: 0: ; 1: X1 ; 2: X2 X3
    reaction: X1 + X2 -> 2 X3 ; k1 = 3/2
    totals: T1 = 1.75 ; T2 = 1
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin

__all__ = [
    "Reaction",
    "Network",
    "ParseError",
    "parse_network",
    "parse_network_file",
    "hybrid_kinase",
    "phosphorylation",
    "michaelis_menten",
    "mixed_phosphorylation",
    "builtin_network",
    "BUILTINS",
]


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class Reaction:
    source: tuple  # sorted ((species, coeff), ...)
    target: tuple
    rate_name: str
    rate: object = None  # Fraction or float or None


def _complex_key(cdict):
    return tuple(sorted((s, c) for s, c in cdict.items() if c))


@dataclass
class Network:
    species: list
    reactions: list
    name: str = "network"

    def __post_init__(self):
        idx = {}
        for i, s in enumerate(self.species):
            if s in idx:
                raise ValueError("duplicate species %r" % s)
            idx[s] = i
        self.index = idx
        seen = set()
        for r in self.reactions:
            for sp, _ in r.source + r.target:
                if sp not in idx:
                    raise ValueError("unknown species %r in reaction" % sp)
            key = (r.source, r.target)
            if key in seen:
                raise ValueError("duplicate reaction %r -> %r" % (r.source, r.target))
            seen.add(key)

    # -- structure ---------------------------------------------------------
    def complexes(self):
        """All distinct complexes, as sorted (species, coeff) tuples."""
        out = []
        seen = set()
        for r in self.reactions:
            for c in (r.source, r.target):
                if c not in seen:
                    seen.add(c)
                    out.append(c)
        return out

    def complex_vector(self, cplx):
        v = [0] * len(self.species)
        for sp, c in cplx:
            v[self.index[sp]] += c
        return v

    def stoichiometric_matrix(self):
        """Columns = reactions, rows = species (exact integers)."""
        cols = []
        for r in self.reactions:
            src = self.complex_vector(r.source)
            tgt = self.complex_vector(r.target)
            cols.append([t - s for s, t in zip(src, tgt)])
        return [[cols[j][i] for j in range(len(cols))] for i in range(len(self.species))]

    def conservation_laws(self):
        """Basis of the left kernel of the stoichiometric matrix (exact)."""
        N = self.stoichiometric_matrix()
        Nt = [[N[i][j] for i in range(len(N))] for j in range(len(N[0]))] if N and N[0] else []
        if not Nt:
            return []
        return ratlin.kernel_basis(Nt)

    # -- dynamics ----------------------------------------------------------
    def rates(self, kappa=None):
        """Rate map; ``kappa`` overrides stored values by rate name."""
        out = {}
        for r in self.reactions:
            if kappa is not None and r.rate_name in kappa:
                out[r.rate_name] = kappa[r.rate_name]
            elif r.rate is not None:
                out[r.rate_name] = r.rate
            else:
                raise ValueError("missing rate %r" % r.rate_name)
        return out

    def mass_action_system(self, kappa=None):
        """Per-species polynomials as {exponent tuple: coefficient} maps."""
        rates = self.rates(kappa)
        polys = [dict() for _ in self.species]
        for r in self.reactions:
            k = rates[r.rate_name]
            src = self.complex_vector(r.source)
            tgt = self.complex_vector(r.target)
            mono = tuple(src)
            for i, (s, t) in enumerate(zip(src, tgt)):
                delta = t - s
                if delta:
                    polys[i][mono] = polys[i].get(mono, 0) + k * delta
        for p in polys:
            for m in [m for m, c in p.items() if c == 0]:
                del p[m]
        return polys


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_NUM = re.compile(r"^-?(\d+(\.\d*)?([eE][+-]?\d+)?|\d+/\d+|\.\d+)$")


def _parse_number(tok, lineno):
    tok = tok.strip()
    if not _NUM.match(tok):
        raise ParseError("line %d: bad number %r" % (lineno, tok))
    if "/" in tok:
        p, q = tok.split("/")
        return Fraction(int(p), int(q))
    try:
        return Fraction(tok)
    except ValueError:
        raise ParseError("line %d: bad number %r" % (lineno, tok))


def _parse_complex(text, lineno):
    text = text.strip()
    out = {}
    if text in ("0", ""):
        return out
    for part in text.split("+"):
        part = part.strip()
        m = re.match(r"^(\d+)\s*\*?\s*([A-Za-z_]\w*)$|^([A-Za-z_]\w*)$", part)
        if not m:
            raise ParseError("line %d: bad complex term %r" % (lineno, part))
        if m.group(3):
            sp, coeff = m.group(3), 1
        else:
            sp, coeff = m.group(2), int(m.group(1))
        out[sp] = out.get(sp, 0) + coeff
    return out


def parse_network(text, name="network"):
    """Parse the network file format.

    Returns ``(network, partition, totals)`` where ``partition`` is a list
    of species-name lists indexed by block (block 0 = intermediates), or
    None when absent, and ``totals`` is an ordered dict name -> value or
    None.
    """
    species = None
    partition = None
    totals = None
    reactions = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("line %d: expected 'key: value'" % lineno)
        key, rest = line.split(":", 1)
        key = key.strip().lower()
        if key == "species":
            species = rest.split()
            if not species:
                raise ParseError("line %d: empty species list" % lineno)
        elif key == "partition":
            partition = {}
            for blockdef in rest.split(";"):
                blockdef = blockdef.strip()
                if not blockdef:
                    continue
                if ":" not in blockdef:
                    raise ParseError("line %d: partition blocks look like '0: A B'" % lineno)
                bidx, names = blockdef.split(":", 1)
                try:
                    bidx = int(bidx)
                except ValueError:
                    raise ParseError("line %d: bad block index %r" % (lineno, bidx))
                partition[bidx] = names.split()
        elif key == "reaction":
            if ";" in rest:
                arrow_part, rate_part = rest.split(";", 1)
                if "=" not in rate_part:
                    raise ParseError("line %d: rate looks like 'k = 1.0'" % lineno)
                rname, rval = rate_part.split("=", 1)
                rname = rname.strip()
                rate = _parse_number(rval, lineno)
                if rate <= 0:
                    raise ParseError("line %d: rate must be positive" % lineno)
            else:
                arrow_part, rname, rate = rest, "k%d" % (len(reactions) + 1), None
            if "->" not in arrow_part:
                raise ParseError("line %d: reaction needs '->'" % lineno)
            lhs, rhs = arrow_part.split("->", 1)
            src = _parse_complex(lhs, lineno)
            tgt = _parse_complex(rhs, lineno)
            if src == tgt:
                raise ParseError("line %d: trivial reaction" % lineno)
            reactions.append(
                Reaction(_complex_key(src), _complex_key(tgt), rname, rate)
            )
        elif key == "totals":
            totals = {}
            for part in rest.split(";"):
                part = part.strip()
                if not part:
                    continue
                if "=" not in part:
                    raise ParseError("line %d: totals look like 'T1 = 1.75'" % lineno)
                tname, tval = part.split("=", 1)
                totals[tname.strip()] = _parse_number(tval, lineno)
        else:
            raise ParseError("line %d: unknown key %r" % (lineno, key))
    if species is None:
        raise ParseError("missing 'species:' line")
    if not reactions:
        raise ParseError("no reactions")
    try:
        net = Network(species, reactions, name=name)
    except ValueError as e:
        raise ParseError(str(e))
    part_list = None
    if partition is not None:
        top = max(partition)
        part_list = [partition.get(i, []) for i in range(top + 1)]
        named = [s for block in part_list for s in block]
        if sorted(named) != sorted(species):
            raise ParseError("partition must name every species exactly once")
    return net, part_list, totals


def parse_network_file(path):
    with open(path) as fh:
        return parse_network(fh.read(), name=str(path))


# ---------------------------------------------------------------------------
# built-in networks
# ---------------------------------------------------------------------------

def _rx(src, tgt, name, rate=None):
    return Reaction(_complex_key(src), _complex_key(tgt), name, rate)


def hybrid_kinase():
    """Hybrid kinase with phosphorelay to a response regulator.

    Species: X1..X4 the four phosphorylation states of the kinase, X5 the
    unphosphorylated and X6 the phosphorylated response regulator.
    """
    sp = ["X1", "X2", "X3", "X4", "X5", "X6"]
    rx = [
        _rx({"X1": 1}, {"X2": 1}, "k1"),
        _rx({"X2": 1}, {"X3": 1}, "k2"),
        _rx({"X3": 1}, {"X4": 1}, "k3"),
        _rx({"X3": 1, "X5": 1}, {"X1": 1, "X6": 1}, "k4"),
        _rx({"X4": 1, "X5": 1}, {"X2": 1, "X6": 1}, "k5"),
        _rx({"X6": 1}, {"X5": 1}, "k6"),
    ]
    net = Network(sp, rx, name="hybrid_kinase")
    partition = [[], ["X1", "X2", "X3", "X4"], ["X5", "X6"]]
    return net, partition


def phosphorylation(n):
    """Sequential distributive n-site phosphorylation cycle."""
    if n < 1:
        raise ValueError("need n >= 1 sites")
    sp = ["S%d" % i for i in range(n + 1)] + ["E", "F"]
    sp += ["ES%d" % i for i in range(n)] + ["FS%d" % (i + 1) for i in range(n)]
    rx = []
    for i in range(n):
        rx += [
            _rx({"S%d" % i: 1, "E": 1}, {"ES%d" % i: 1}, "kon%d" % i),
            _rx({"ES%d" % i: 1}, {"S%d" % i: 1, "E": 1}, "koff%d" % i),
            _rx({"ES%d" % i: 1}, {"S%d" % (i + 1): 1, "E": 1}, "kcat%d" % i),
            _rx({"S%d" % (i + 1): 1, "F": 1}, {"FS%d" % (i + 1): 1}, "lon%d" % i),
            _rx({"FS%d" % (i + 1): 1}, {"S%d" % (i + 1): 1, "F": 1}, "loff%d" % i),
            _rx({"FS%d" % (i + 1): 1}, {"S%d" % i: 1, "F": 1}, "lcat%d" % i),
        ]
    net = Network(sp, rx, name="phosphorylation_%d" % n)
    partition = [
        ["ES%d" % i for i in range(n)] + ["FS%d" % (i + 1) for i in range(n)],
        ["E"],
        ["F"],
        ["S%d" % i for i in range(n + 1)],
    ]
    return net, partition


def michaelis_menten():
    sp = ["S0", "S1", "E", "ES0"]
    rx = [
        _rx({"S0": 1, "E": 1}, {"ES0": 1}, "kon"),
        _rx({"ES0": 1}, {"S0": 1, "E": 1}, "koff"),
        _rx({"ES0": 1}, {"S1": 1, "E": 1}, "kcat"),
    ]
    net = Network(sp, rx, name="michaelis_menten")
    partition = [["ES0"], ["E"], ["S0", "S1"]]
    return net, partition


def mixed_phosphorylation():
    """Two-site phosphorylation, distributive kinase and processive
    phosphatase."""
    sp = ["S0", "S1", "S2", "E", "F", "ES0", "ES1", "FS1", "FS2"]
    rx = [
        _rx({"S0": 1, "E": 1}, {"ES0": 1}, "k1"),
        _rx({"ES0": 1}, {"S0": 1, "E": 1}, "k2"),
        _rx({"ES0": 1}, {"S1": 1, "E": 1}, "k3"),
        _rx({"S1": 1, "E": 1}, {"ES1": 1}, "k4"),
        _rx({"ES1": 1}, {"S1": 1, "E": 1}, "k5"),
        _rx({"ES1": 1}, {"S2": 1, "E": 1}, "k6"),
        _rx({"S2": 1, "F": 1}, {"FS2": 1}, "k7"),
        _rx({"FS2": 1}, {"S2": 1, "F": 1}, "k8"),
        _rx({"FS2": 1}, {"FS1": 1}, "k9"),
        _rx({"FS1": 1}, {"S0": 1, "F": 1}, "k10"),
    ]
    net = Network(sp, rx, name="mixed_phosphorylation")
    partition = [["ES0", "ES1", "FS1", "FS2"], ["E"], ["F"], ["S0", "S1", "S2"]]
    return net, partition


def builtin_network(key):
    """Resolve a builtin name: ``hk``, ``phospho:n``, ``mm``,
    ``mixed-phospho``."""
    if key == "hk":
        return hybrid_kinase()
    if key == "mm":
        return michaelis_menten()
    if key in ("mixed-phospho", "mixed_phospho"):
        return mixed_phosphorylation()
    if key.startswith("phospho:"):
        try:
            n = int(key.split(":", 1)[1])
        except ValueError:
            raise ValueError("unknown builtin %r" % key) from None
        return phosphorylation(n)
    raise ValueError("unknown builtin %r" % key)


BUILTINS = ("hk", "phospho:n", "mm", "mixed-phospho")
