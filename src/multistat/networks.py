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

``parse_number`` and ``parse_partition`` read numbers and partitions for
the file and for the command-line flags alike.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin

__all__ = [
    "Reaction",
    "Network",
    "ParseError",
    "parse_network",
    "parse_network_file",
    "parse_number",
    "parse_partition",
    "rate_map",
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
# parsing: the one reader of user text, for network files and CLI flags
# ---------------------------------------------------------------------------

def parse_number(text):
    """An exact rational from an integer, a decimal with an optional
    exponent, or ``p/q``."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError("not a number: %r" % text.strip()) from None


def parse_partition(text, species):
    """Blocks ``i: names`` separated by ``;``, numbered 0..m with none
    missing or repeated, naming every species exactly once; returns the
    name lists by block (block 0 = intermediates)."""
    blocks = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError("partition blocks look like '1: X1 X2'")
        index, names = part.split(":", 1)
        try:
            index = int(index)
        except ValueError:
            raise ParseError("bad partition block index %r" % index.strip()) from None
        if index in blocks:
            raise ParseError("partition block %d given twice" % index)
        blocks[index] = names.split()
    if sorted(blocks) != list(range(len(blocks))):
        raise ParseError("partition blocks must be numbered 0..m")
    out = [blocks[i] for i in range(len(blocks))]
    if sorted(s for block in out for s in block) != sorted(species):
        raise ParseError("partition must name every species exactly once")
    return out


def rate_map(pairs):
    """``{name: value}`` from (rate name, value) pairs, ``None`` standing
    for no value; one name given two different values is an error."""
    out = {}
    for name, value in pairs:
        if out.setdefault(name, value) != value:
            shown = ["unset" if v is None else str(v) for v in (out[name], value)]
            raise ParseError("rate %r has two values: %s and %s" % (name, *shown))
    return out


def _parse_complex(text):
    text = text.strip()
    out = {}
    if text in ("0", ""):
        return out
    for part in text.split("+"):
        part = part.strip()
        m = re.match(r"^(\d+)\s*\*?\s*([A-Za-z_]\w*)$|^([A-Za-z_]\w*)$", part)
        if not m:
            raise ParseError("bad complex term %r" % part)
        if m.group(3):
            sp, coeff = m.group(3), 1
        else:
            sp, coeff = m.group(2), int(m.group(1))
        out[sp] = out.get(sp, 0) + coeff
    return out


@contextmanager
def _at_line(lineno):
    try:
        yield
    except ParseError as e:
        raise ParseError("line %d: %s" % (lineno, e)) from None


def parse_network(text, name="network"):
    """Parse the network file format.

    Returns ``(network, partition, totals)`` where ``partition`` is a list
    of species-name lists indexed by block (block 0 = intermediates), or
    None when absent, and ``totals`` is an ordered dict name -> value or
    None.
    """
    species = None
    partition = None  # (line number, text), read once the species are known
    totals = None
    reactions = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        with _at_line(lineno):
            if ":" not in line:
                raise ParseError("expected 'key: value'")
            key, rest = line.split(":", 1)
            key = key.strip().lower()
            if key in seen:
                raise ParseError("repeated key %r" % key)
            if key == "species":
                species = rest.split()
                if not species:
                    raise ParseError("empty species list")
            elif key == "partition":
                partition = lineno, rest
            elif key == "reaction":
                if ";" in rest:
                    arrow_part, rate_part = rest.split(";", 1)
                    if "=" not in rate_part:
                        raise ParseError("rate looks like 'k = 1.0'")
                    rname, rval = rate_part.split("=", 1)
                    rname = rname.strip()
                    rate = parse_number(rval)
                else:
                    arrow_part, rname, rate = rest, "k%d" % (len(reactions) + 1), None
                if "->" not in arrow_part:
                    raise ParseError("reaction needs '->'")
                lhs, rhs = arrow_part.split("->", 1)
                src = _parse_complex(lhs)
                tgt = _parse_complex(rhs)
                if src == tgt:
                    raise ParseError("trivial reaction")
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
                        raise ParseError("totals look like 'T1 = 1.75'")
                    tname, tval = map(str.strip, part.split("=", 1))
                    if tname in totals:
                        raise ParseError("repeated total %r" % tname)
                    totals[tname] = parse_number(tval)
            else:
                raise ParseError("unknown key %r" % key)
            if key != "reaction":
                seen.add(key)
    if species is None:
        raise ParseError("missing 'species:' line")
    if not reactions:
        raise ParseError("no reactions")
    rate_map((r.rate_name, r.rate) for r in reactions)
    try:
        net = Network(species, reactions, name=name)
    except ValueError as e:
        raise ParseError(str(e)) from None
    if partition is not None:
        with _at_line(partition[0]):
            partition = parse_partition(partition[1], species)
    return net, partition, totals


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
