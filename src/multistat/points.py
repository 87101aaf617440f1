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

    def submatrix(self, cols):
        return [[row[j] for j in cols] for row in self.matrix]


def build_matrix(points):
    """The (d+1) x n matrix with an all-ones row atop point coordinates."""
    return [[1] * len(points)] + [list(col) for col in zip(*points)]


def enumerate_simplices(cfg):
    """All simplices (index tuples of d+1 affinely independent points),
    lexicographically ordered."""
    out = []
    for I in combinations(range(cfg.n), cfg.d + 1):
        if ratlin.determinant(cfg.submatrix(I)) != 0:
            out.append(I)
    return out


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


def cone_normals(matrix, simplex):
    """Normals of the cone of heights selecting ``simplex`` in the induced
    subdivision, for a full-row-rank r x n matrix and an index set I of r
    independent columns.

    For each ``i`` outside ``I`` the normal is ``d_I * m`` where ``m`` is the
    kernel vector of the matrix supported on ``I + {i}`` with ``m_i = d_I``;
    these normals form a basis of the kernel of the matrix.
    """
    I = list(simplex)
    r = len(matrix)
    n = len(matrix[0])
    if len(I) != r:
        raise ValueError("simplex must index r columns")
    AI = [[matrix[a][j] for j in I] for a in range(r)]
    dI = ratlin.determinant(AI)
    if dI == 0:
        raise ValueError("degenerate simplex")
    # one elimination solves A_I x = -d_I a_i for every i outside I
    out = [i for i in range(n) if i not in I]
    R, _ = ratlin.rref([AI[a] + [-dI * matrix[a][i] for i in out] for a in range(r)])
    normals = []
    for t, i in enumerate(out):
        m = [Fraction(0)] * n
        m[i] = dI
        for k, j in enumerate(I):
            m[j] = R[k][r + t]
        normals.append(tuple(dI * x for x in m))
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
    ``cfg.matrix`` and ``cfg.n`` are read, so a Cayley configuration works
    as well as a point configuration.  ``normals[s]``, when given, are the
    already computed cone normals of ``s``."""
    joint = []
    for s in simplices:
        joint.extend(cone_normals(cfg.matrix, s) if normals is None else normals[s])
    return ConeDescription(_dedupe(joint), cfg.n)


def _interpolator(cfg, cell, heights):
    """Affine function (b, w) with b + <w, a_j> = h_j on d+1 independent
    points of ``cell``."""
    pts = list(cell)[: cfg.d + 1]
    rows = [[1, *cfg.points[j]] for j in pts]
    return ratlin.solve(rows, [heights[j] for j in pts])


@dataclass
class Subdivision:
    """Cells of a regular subdivision, each the full set of marked points on
    one lower-facet supporting hyperplane."""

    cells: list  # sorted tuples of point indices
    heights: list


def regular_subdivision(cfg, heights):
    """Regular subdivision induced by ``heights``.

    Scans all (d+1)-subsets of affinely independent points; each one whose
    interpolating affine function lies weakly below every lifted point spans
    a lower facet, recorded as the set of all points its plane touches.
    Coplanar touching sets are merged by construction.
    """
    h = [Fraction(x) for x in heights]
    if len(h) != cfg.n:
        raise ValueError("need one height per point")
    cells = set()
    for I in combinations(range(cfg.n), cfg.d + 1):
        if ratlin.determinant(cfg.submatrix(I)) == 0:
            continue
        phi = _interpolator(cfg, I, h)
        marked = []
        lower = True
        for j in range(cfg.n):
            val = phi[0] + sum(w * Fraction(x) for w, x in zip(phi[1:], cfg.points[j]))
            if val > h[j]:
                lower = False
                break
            if val == h[j]:
                marked.append(j)
        if lower:
            cells.add(tuple(marked))
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
