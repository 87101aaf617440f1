"""Point configurations, simplices, height functions and regular subdivisions.

A configuration is a list of ``n`` distinct integer points spanning ``R^d``
affinely, encoded by the ``(d+1) x n`` matrix ``A`` whose first row is all
ones and whose remaining rows are the point coordinates.  A *simplex* of the
configuration is a subset of ``d+1`` points with nonzero determinant.

A height function ``h`` assigns a rational value to every point; the induced
regular subdivision is the projection of the lower faces of the lifted
configuration, with a cell recording *every* point lying on its supporting
hyperplane (marked points).  The set of heights inducing a subdivision that
contains a given family of simplices as cells is an open polyhedral cone,
described here by explicit kernel-vector normals and certified by exact
linear programming.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import ratlin

__all__ = [
    "PointConfiguration",
    "Subdivision",
    "ConeDescription",
    "build_matrix",
    "enumerate_simplices",
    "shares_facet",
    "joint_cone",
    "cone_normals",
    "regular_subdivision",
    "is_regular",
]


class PointConfiguration:
    """An ordered configuration of integer points affinely spanning R^d."""

    def __init__(self, points):
        pts = [tuple(int(x) for x in p) for p in points]
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if not pts:
            raise ValueError("empty configuration")
        self.points = pts
        self.d = len(pts[0])
        if any(len(p) != self.d for p in pts):
            raise ValueError("points must share a dimension")
        self.n = len(pts)
        if self.n < self.d + 2:
            raise ValueError("need at least d+2 points")
        self.matrix = build_matrix(pts)
        if ratlin.rank(self.matrix) != self.d + 1:
            raise ValueError("points must affinely span R^d")

    def __repr__(self):
        return "PointConfiguration(%r)" % (self.points,)

    @functools.cached_property
    def minor(self):
        """The :func:`ratlin.minors` memo of ``matrix``."""
        return ratlin.minors(self.matrix)


def build_matrix(points):
    """The (d+1) x n matrix with an all-ones row atop point coordinates."""
    return [[1] * len(points)] + [list(col) for col in zip(*points)]


def enumerate_simplices(cfg):
    """All simplices (index tuples of d+1 affinely independent points),
    lexicographically ordered."""
    return [I for I in combinations(range(cfg.n), cfg.d + 1) if cfg.minor(I) != 0]


def shares_facet(s1, s2, normals):
    """True iff simplices s1, s2 share exactly d vertices and their other
    vertices lie strictly on opposite sides of the common facet.
    ``normals`` are the :func:`cone_normals` of s1.  Its normal at s2's
    other vertex j is the circuit on s1 | s2, positive at j; the sides are
    opposite exactly when it is positive at s1's other vertex i too."""
    I, J = set(s1), set(s2)
    if len(I & J) != len(I) - 1:
        return False
    (i,), (j,) = I - J, J - I
    return normals[j - sum(k < j for k in I)][i] > 0


@dataclass
class ConeDescription:
    """Open cone ``{h in R^n : <m, h> > 0 for all normals m}``."""

    normals: list
    dim: int

    def interior_point(self):
        return ratlin.strict_feasible(self.normals)


def cone_normals(cfg, simplex):
    """Normals of the cone of heights selecting ``simplex`` in the induced
    subdivision, read off the minors memo ``cfg.minor`` of the r x n
    configuration matrix for an index set I of r independent columns.

    With ``d_I`` the minor of the sorted I, the normal for each ``i``
    outside I is ``d_I`` times the circuit on ``I + {i}`` with entry
    ``d_I`` at ``i``: by Cramer's rule its entry at the ``k``-th ``j`` of
    I is ``-d_I`` times the determinant of I with ``a_i`` in ``a_j``'s
    place, that is ``(-1)^(k-q)`` times the minor of ``J = I - {j} + {i}``
    sorted, where ``q`` is ``i``'s place in ``J``.  These normals form a
    basis of the kernel of the matrix, independent of the vertex order.
    """
    I = tuple(sorted(simplex))
    if len(I) != len(cfg.matrix):
        raise ValueError("simplex must index r columns")
    dI = cfg.minor(I)
    if dI == 0:
        raise ValueError("degenerate simplex")
    normals = []
    for i in range(cfg.n):
        if i in I:
            continue
        m = [0] * cfg.n
        m[i] = dI * dI
        for k, j in enumerate(I):
            J = tuple(sorted(I[:k] + I[k + 1:] + (i,)))
            m[j] = (-1) ** (k + J.index(i) + 1) * dI * cfg.minor(J)
        normals.append(tuple(m))
    return normals


def _dedupe(normals):
    seen = []
    keys = set()
    for m in normals:
        key = ratlin.primitive(m)
        if key not in keys:
            keys.add(key)
            seen.append(tuple(Fraction(x) for x in m))
    return seen


def joint_cone(cfg, simplices, normals=None):
    """Cone of heights selecting every simplex of the family at once;
    duplicate inequalities (up to positive scaling) are removed.  Only
    ``cfg.matrix``, ``cfg.minor`` and ``cfg.n`` are read, so a Cayley
    configuration works as well as a point configuration.  ``normals[s]``,
    when given, are the already computed cone normals of ``s``."""
    joint = []
    for s in simplices:
        joint.extend(cone_normals(cfg, s) if normals is None else normals[s])
    return ConeDescription(_dedupe(joint), cfg.n)


@dataclass
class Subdivision:
    """Cells of a regular subdivision, each the full set of marked points on
    one lower-facet supporting hyperplane."""

    cells: list  # sorted tuples of point indices
    heights: list


def regular_subdivision(cfg, heights):
    """Regular subdivision induced by ``heights``.

    The normal of simplex I at a point ``i`` outside it is positive at
    ``h`` exactly when the lifted ``a_i`` lies above the plane through the
    lifted points of I (it is ``d_I^2`` times the height difference).  So I
    spans a lower facet when no normal is negative, and the facet's cell
    is I plus every point whose normal is zero.  Coplanar touching sets
    are merged by construction.
    """
    h = [Fraction(x) for x in heights]
    if len(h) != cfg.n:
        raise ValueError("need one height per point")
    hs = [int(x) for x in ratlin.primitive(h)]  # a positive scale keeps every sign
    cells = set()
    for I in enumerate_simplices(cfg):
        marked = list(I)
        for i, m in zip([i for i in range(cfg.n) if i not in I], cone_normals(cfg, I)):
            val = m[i] * hs[i] + sum(m[j] * hs[j] for j in I)
            if val < 0:
                break
            if val == 0:
                marked.append(i)
        else:
            cells.add(tuple(sorted(marked)))
    return Subdivision(sorted(cells), h)


def is_regular(cfg, cells):
    """Exact regularity test for a candidate triangulation.

    Returns ``(True, h)`` with a rational witness height whose subdivision
    contains every candidate cell, or ``(False, None)``.
    """
    cone = joint_cone(cfg, cells)
    h = cone.interior_point()
    if h is None:
        return False, None
    return True, h
