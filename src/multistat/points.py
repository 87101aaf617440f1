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
    "Circuit",
    "build_matrix",
    "enumerate_simplices",
    "shares_facet",
    "circuit_relation",
    "simplex_cone",
    "joint_cone",
    "cone_normals",
    "extend_height",
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


def _facet_functional(cfg, facet):
    """Affine functional (w, b) vanishing on the d points of ``facet``,
    normalized to a primitive integer vector; None if the facet is
    degenerate."""
    # solve [1 a_j] . (b, w) = 0 for j in facet
    rows = [[1, *cfg.points[j]] for j in facet]
    ker = ratlin.kernel_basis(rows)
    if len(ker) != 1:
        return None
    return ratlin.primitive(ker[0])


def shares_facet(cfg, s1, s2):
    """True iff simplices s1, s2 share exactly d vertices spanning a common
    facet and their remaining vertices lie strictly on opposite sides of it."""
    I, J = set(s1), set(s2)
    common = sorted(I & J)
    if len(common) != cfg.d or I == J:
        return False
    func = _facet_functional(cfg, common)
    if func is None:
        return False
    i = (I - J).pop()
    j = (J - I).pop()

    def ev(k):
        return func[0] + sum(w * x for w, x in zip(func[1:], cfg.points[k]))

    vi, vj = ev(i), ev(j)
    return vi != 0 and vj != 0 and (vi > 0) != (vj > 0)


@dataclass(frozen=True)
class Circuit:
    support: tuple
    relation: tuple  # affine relation, indexed like support
    positive: tuple  # indices into support with relation > 0
    negative: tuple
    is_circuit: bool  # all relation entries nonzero

    def triangulations(self):
        """The two triangulations of a circuit: for each sign class, the
        simplices obtained by dropping one point of that class."""
        if not self.is_circuit:
            raise ValueError("not a circuit (some relation entries vanish)")
        plus = [tuple(p for p in self.support if p != self.support[i]) for i in self.positive]
        minus = [tuple(p for p in self.support if p != self.support[i]) for i in self.negative]
        return plus, minus


def circuit_relation(cfg, support):
    """The (unique up to sign) affine relation on ``d+2`` points, normalized
    so the first nonzero entry is positive."""
    support = tuple(support)
    if len(support) != cfg.d + 2:
        raise ValueError("a circuit support has d+2 points")
    ker = ratlin.kernel_basis(cfg.submatrix(support))
    if len(ker) != 1:
        raise ValueError("points do not affinely span R^d")
    lam = ker[0]
    first = next(x for x in lam if x != 0)
    if first < 0:
        lam = [-x for x in lam]
    lam = tuple(lam)
    pos = tuple(k for k, x in enumerate(lam) if x > 0)
    neg = tuple(k for k, x in enumerate(lam) if x < 0)
    return Circuit(support, lam, pos, neg, all(x != 0 for x in lam))


@dataclass
class ConeDescription:
    """Open cone ``{h in R^n : <m, h> > 0 for all normals m}``."""

    normals: list
    dim: int

    def contains(self, h):
        return all(sum(Fraction(a) * Fraction(x) for a, x in zip(m, h)) > 0 for m in self.normals)

    def interior_point(self, zero_coords=()):
        return ratlin.strict_feasible(self.normals, zero_coords)


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


def simplex_cone(cfg, simplex):
    """Cone of heights whose regular subdivision has ``simplex`` as a cell
    with exactly its own vertices marked."""
    return ConeDescription(cone_normals(cfg.matrix, simplex), cfg.n)


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


def extend_height(cfg, s1, s2, jitter=Fraction(1, 1009)):
    """Height function whose regular subdivision contains the two
    facet-sharing simplices ``s1``, ``s2`` as cells.

    Heights are 0 on ``s1``, 1 on the apex of ``s2``, and every remaining
    point is lifted strictly above both supporting planes with a per-index
    perturbation so no spurious point lands on either plane.
    """
    if not shares_facet(cfg, s1, s2):
        raise ValueError("simplices must share a facet")
    apex2 = (set(s2) - set(s1)).pop()
    h = [None] * cfg.n
    for j in s1:
        h[j] = Fraction(0)
    h[apex2] = Fraction(1)
    phi1 = _interpolator(cfg, sorted(s1), h)
    phi2 = _interpolator(cfg, sorted(s2), h)

    def ev(phi, j):
        return phi[0] + sum(w * Fraction(x) for w, x in zip(phi[1:], cfg.points[j]))

    for j in range(cfg.n):
        if h[j] is None:
            h[j] = max(ev(phi1, j), ev(phi2, j)) + 1 + (j + 1) * jitter
    return h


@dataclass
class Subdivision:
    """Cells of a regular subdivision, each the full set of marked points on
    one lower-facet supporting hyperplane."""

    cells: list  # sorted tuples of point indices
    heights: list

    def contains_simplex(self, simplex):
        """A simplex occurs in the subdivision iff its vertex set equals the
        marked set of some cell exactly."""
        return tuple(sorted(simplex)) in {tuple(c) for c in self.cells}


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
