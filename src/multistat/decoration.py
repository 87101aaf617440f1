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

import math
from dataclasses import dataclass, field
from itertools import combinations

from . import points as pts_mod
from . import ratlin

__all__ = [
    "IndeterminateSign",
    "positively_spanning",
    "spanning_kernel_vector",
    "is_decorated",
    "find_decorated",
    "grow_families",
    "DecoratedFamily",
    "DecorationReport",
    "restricted_positive_solution",
]


class IndeterminateSign(ArithmeticError):
    """A float sign decision fell below the relative threshold."""


_REL_EPS = 1e-9


def _sign(x, scale=None):
    """Sign of ``x``; exact for Fractions/ints, thresholded for floats."""
    if isinstance(x, float):
        tol = _REL_EPS * (scale if scale else 1.0)
        if abs(x) <= tol:
            raise IndeterminateSign("sign of %r indeterminate at scale %r" % (x, scale))
        return 1 if x > 0 else -1
    if x == 0:
        return 0
    return 1 if x > 0 else -1


def _signed_minors(M):
    """The vector of signed maximal minors ``(-1)^(i+1) det(M drop col i)``,
    which spans the kernel of a d x (d+1) matrix M of rank d."""
    d = len(M)
    if any(len(row) != d + 1 for row in M):
        raise ValueError("matrix must be d x (d+1)")
    if any(isinstance(x, float) for row in M for x in row):
        import numpy as np

        out = []
        for i in range(d + 1):
            sub = np.array([[float(row[j]) for j in range(d + 1) if j != i] for row in M])
            out.append((-1) ** i * float(np.linalg.det(sub)))
        return out, True
    out = [(-1) ** i * ratlin.minor(M, i) for i in range(d + 1)]
    return out, False


def spanning_kernel_vector(M):
    """Kernel vector of a d x (d+1) matrix given by signed maximal minors."""
    v, _ = _signed_minors(M)
    return v


def positively_spanning(M):
    """True iff every maximal minor of the d x (d+1) matrix is nonzero and
    the signed minors alternate coherently, i.e. the kernel is spanned by a
    vector with all entries of one strict sign.

    Exact for rational input.  For float input, signs are decided with a
    relative threshold of 1e-9 against the largest minor magnitude and
    :class:`IndeterminateSign` is raised instead of guessing.
    """
    v, is_float = _signed_minors(M)
    if is_float:
        scale = max(abs(x) for x in v) or 1.0
        signs = {_sign(x, scale) for x in v}
    else:
        signs = {_sign(x) for x in v}
        if 0 in signs:
            return False
    return len(signs) == 1


def is_decorated(C, simplex):
    """Whether the columns ``simplex`` of ``C`` form a positively decorated
    simplex."""
    sub = [[row[j] for j in simplex] for row in C]
    return positively_spanning(sub)


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
    indeterminate: list = field(default_factory=list)

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


def find_decorated(cfg, C):
    """Enumerate decorated simplices of ``(cfg, C)`` and group them into
    jointly realizable families.

    Families are grown by :func:`grow_families` from each decorated simplex
    in lexicographic order, every check decided exactly (integer
    certificates, then the exact LP); each carries a rational witness
    height from the exact LP on its joint cone.
    """
    decorated = []
    indeterminate = []
    for s in pts_mod.enumerate_simplices(cfg):
        try:
            if is_decorated(C, s):
                decorated.append(s)
        except IndeterminateSign:
            indeterminate.append(s)
    facet_pairs = [
        (s1, s2)
        for s1, s2 in combinations(decorated, 2)
        if pts_mod.shares_facet(cfg, s1, s2)
    ]
    normals = {s: pts_mod.cone_normals(cfg.matrix, s) for s in decorated}
    families = []
    for family in grow_families(decorated, normals, ratlin.strict_feasible):
        cone = pts_mod.joint_cone(cfg, family, normals)
        families.append(DecoratedFamily(sorted(family), cone.interior_point(), cone))
    families.sort(key=lambda f: (-len(f.simplices), f.simplices))
    return DecorationReport(decorated, facet_pairs, families, indeterminate)


def restricted_positive_solution(cfg, C, simplex):
    """The unique positive zero of the square subsystem supported on a
    positively decorated simplex.

    With ``v`` the positive kernel vector of the coefficient submatrix, the
    zero satisfies ``x^{a_k} = lambda * v_k`` for a scalar ``lambda > 0``;
    taking logarithms gives a nonsingular linear system in
    ``(log x, log lambda)``.  Returns the float vector ``x``.
    """
    import numpy as np

    sub = [[row[j] for j in simplex] for row in C]
    if not positively_spanning(sub):
        raise ValueError("simplex is not positively decorated")
    v = spanning_kernel_vector(sub)
    if float(v[0]) < 0:
        v = [-x for x in v]
    d = cfg.d
    pts = [cfg.points[j] for j in simplex]
    M = np.zeros((d + 1, d + 1))
    rhs = np.zeros(d + 1)
    for k, a in enumerate(pts):
        M[k, :d] = a
        M[k, d] = -1.0
        rhs[k] = math.log(float(v[k]))
    sol = np.linalg.solve(M, rhs)
    x = np.exp(sol[:d])
    # residual check against the restricted system
    for row in C:
        val = sum(float(row[j]) * float(np.prod(x ** np.array(a))) for j, a in zip(simplex, pts))
        scale = sum(abs(float(row[j])) * float(np.prod(x ** np.array(a))) for j, a in zip(simplex, pts))
        if scale > 0 and abs(val) > 1e-9 * scale:
            raise ArithmeticError("restricted solution residual too large")
    return x
