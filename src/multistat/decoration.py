"""Positively decorated simplices of a coefficient matrix.

Given a ``d x n`` coefficient matrix ``C`` attached to a point
configuration of ``n`` points in ``R^d``, a simplex (set of ``d+1``
columns) is *positively decorated* when the ``d x (d+1)`` submatrix is
positively spanning: all maximal minors are nonzero and the signed minors
``(-1)^i det(C drop column i)`` share one sign.  Equivalently the kernel of
the submatrix is spanned by a vector with all entries nonzero of one sign.

Each decorated simplex in a regular subdivision of the configuration
contributes one nondegenerate positive zero to a deformed sparse system, so
jointly realizable families of decorated simplices give lower bounds on the
number of positive zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import points as pts_mod
from . import ratlin

__all__ = [
    "positively_spanning",
    "is_decorated",
    "find_decorated",
    "grow_families",
    "DecoratedFamily",
    "DecorationReport",
]


def _spans(minor, simplex):
    """The sign rule of :func:`positively_spanning` on the columns
    ``simplex`` of a matrix whose :func:`ratlin.minors` memo is ``minor``."""
    v = [(-1) ** i * minor(simplex[:i] + simplex[i + 1:]) for i in range(len(simplex))]
    return all(x > 0 for x in v) or all(x < 0 for x in v)


def positively_spanning(M):
    """True iff every maximal minor of the d x (d+1) matrix is nonzero and
    the signed minors alternate coherently, i.e. the kernel is spanned by a
    vector with all entries of one strict sign.

    Exact: a float entry is read as the rational it is.
    """
    if any(len(row) != len(M) + 1 for row in M):
        raise ValueError("matrix must be d x (d+1)")
    return _spans(ratlin.minors(M), tuple(range(len(M) + 1)))


def is_decorated(C, simplex):
    """Whether the columns ``simplex`` of ``C`` form a positively decorated
    simplex."""
    return _spans(ratlin.minors(C), tuple(simplex))


@dataclass
class DecoratedFamily:
    simplices: list  # jointly realizable decorated simplices
    height: list  # rational interior point of the joint cone
    cone: object  # ConeDescription


@dataclass
class DecorationReport:
    decorated: list  # all decorated simplices, lex order
    facet_pairs: list  # facet-sharing decorated pairs
    families: list  # maximal jointly realizable families (DecoratedFamily)

    @property
    def best(self):
        return max(self.families, key=lambda f: len(f.simplices)) if self.families else None


def _opposed(family, new):
    """Whether some normal in ``new`` has its negative in ``family``: a
    Gordan vector with support 2, so the joint cone is empty."""
    return any(tuple(-x for x in m) in family for m in new)


def _sum_interior(normals, total):
    """Whether ``total`` is an interior point of the cone of ``normals``."""
    return all(sum(a * b for a, b in zip(m, total)) > 0 for m in normals)


def grow_families(decorated, normals, feasible):
    """Greedy jointly realizable families: each simplex of ``decorated``
    seeds one, and the others join in order while the joint cone stays
    nonempty.  ``normals[s]`` are the cone normals of ``s``.  A check first
    tries two exact certificates on the distinct primitive normals: an
    opposed pair rejects (:func:`_opposed`), an interior sum accepts
    (:func:`_sum_interior`); otherwise the LP ``feasible`` decides.
    Returns the distinct families in seed order, each in growth order."""
    prim = {s: [tuple(int(x) for x in ratlin.primitive(m)) for m in normals[s]]
            for s in decorated}
    families = []
    seen = set()
    for seed in decorated:
        family = [seed]
        joint = dict.fromkeys(prim[seed])
        total = [sum(col) for col in zip(*joint)]
        for s in decorated:
            if s == seed:
                continue
            new = [m for m in prim[s] if m not in joint]
            if _opposed(joint, new):
                continue
            cand = list(joint) + new
            cand_total = [sum(col) for col in zip(total, *new)]
            if _sum_interior(cand, cand_total) or feasible(cand) is not None:
                family.append(s)
                joint.update(dict.fromkeys(new))
                total = cand_total
        key = tuple(sorted(family))
        if key not in seen:
            seen.add(key)
            families.append(family)
    return families


@dataclass
class _Table:
    """What one route derives from a support alone, filled on demand and
    shared by every coefficient matrix on it: the configuration (points or
    Cayley), its simplices, cone normals, growth verdicts (keyed by the set
    of candidate primitive normals), the families of each decorated set, and
    family cones with heights (keyed by the family as passed).  ``lp`` names
    the certified :mod:`ratlin` LP that decides verdicts and heights."""

    config: object
    simplices: tuple
    lp: str
    normals: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    cones: dict = field(default_factory=dict)

    def feasible(self, cand):
        key = frozenset(cand)
        if key not in self.verdicts:
            self.verdicts[key] = getattr(ratlin, self.lp)(cand) is not None
        return True if self.verdicts[key] else None

    def grow(self, decorated):
        """The families :func:`grow_families` grows from ``decorated``."""
        key = tuple(decorated)
        if key not in self.families:
            self.normals.update({s: tuple(pts_mod.cone_normals(self.config, s))
                                 for s in decorated if s not in self.normals})
            self.families[key] = grow_families(decorated, self.normals, self.feasible)
        return self.families[key]

    def cone(self, family):
        """A fresh copy of the height and the joint cone of ``family``."""
        key = tuple(family)
        if key not in self.cones:
            cone = pts_mod.joint_cone(self.config, family, self.normals)
            height = getattr(ratlin, self.lp)(cone.normals)
            if height is None:
                raise ratlin.LPError("no height for the certified family %s" % (family,))
            self.cones[key] = (cone, height)
        cone, height = self.cones[key]
        return list(height), pts_mod.ConeDescription(list(cone.normals), cone.dim)


_TABLES = {}  # (route, support) -> _Table


def _table(key, build):
    """The table of ``key``, built by ``build()`` on first use."""
    if key not in _TABLES:
        _TABLES[key] = build()
    return _TABLES[key]


def find_decorated(cfg, C):
    """Enumerate decorated simplices of ``(cfg, C)`` and group them into
    jointly realizable families.

    Families are grown by :func:`grow_families` from each decorated simplex
    in lexicographic order, every check decided exactly (integer
    certificates, then the exact LP); each carries a rational witness
    height from the exact LP on its joint cone.  The decoration reads one
    :func:`ratlin.minors` memo, the facet pairs the cached cone normals; all else
    is kept per configuration (:class:`_Table`); the report holds copies."""
    table = _table(("points", tuple(cfg.points)), lambda: _Table(
        cfg, tuple(pts_mod.enumerate_simplices(cfg)), "strict_feasible"))
    minor = ratlin.minors(C)
    decorated = [s for s in table.simplices if _spans(minor, s)]
    families = [DecoratedFamily(sorted(family), *table.cone(family))
                for family in table.grow(decorated)]
    families.sort(key=lambda f: (-len(f.simplices), f.simplices))
    facet_pairs = [(s1, s2) for s1, s2 in combinations(decorated, 2)
                   if pts_mod.shares_facet(s1, s2, table.normals[s1])]
    return DecorationReport(decorated, facet_pairs, families)
