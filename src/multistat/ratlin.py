"""Exact linear algebra over the rationals.

Inputs are matrices given as lists of lists of rationals (``int`` or
:class:`fractions.Fraction`); results are Fractions, minors ints.  Every row
is scaled once to integers and eliminated fraction-free, each update
``p * row - f * pivot_row`` divided by the gcd of its entries, so only
``int`` arithmetic runs and every sign and ratio is the exact one.  The
module provides

* rank and kernel bases,
* one memo of the maximal minors of a matrix, each by fraction-free
  (Bareiss) elimination,
* an exact simplex method for linear programs over the rationals,
* strict feasibility certificates for open polyhedral cones
  ``{h : <m_r, h> > 0 for all r}``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "rank",
    "kernel_basis",
    "minors",
    "primitive",
    "strict_feasible",
    "lp_feasible",
    "LPError",
]


class LPError(ValueError):
    pass


def _scaled(values):
    """``values`` times the lcm of their denominators: ``(ints, lcm)``."""
    q = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    den = lcm(*[x.denominator for x in q])
    return [x.numerator * (den // x.denominator) for x in q], den


def _cancel(row, prow, col):
    """``prow[col] * row - row[col] * prow`` divided by the gcd of its
    entries: ``row`` with its ``col`` entry eliminated by ``prow``, times a
    factor with the sign of ``prow[col]``."""
    p, f = prow[col], row[col]
    out = [p * a - f * b for a, b in zip(row, prow)]
    g = gcd(*out)
    return out if g <= 1 else [x // g for x in out]


def _pivot(T, row, col):
    """Make ``T[row][col]`` positive, negating the row if needed, and cancel
    column ``col`` in every other row of ``T``: each becomes a positive
    multiple of itself minus the matching multiple of the pivot row."""
    if T[row][col] < 0:
        T[row] = [-x for x in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            T[i] = _cancel(T[i], T[row], col)


def _echelon(rows):
    """Reduced row echelon form with leftmost pivots, on integer rows.

    Returns ``(R, pivots)``: the true reduced row ``i`` is ``R[i]`` divided
    by its pivot entry ``R[i][pivots[i]] > 0``; rows past the pivots are
    zero.
    """
    m = [_scaled(row)[0] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        _pivot(m, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows):
    return len(_echelon(rows)[1])


def kernel_basis(rows):
    """Basis of the right kernel, one vector per free column.

    The convention is the standard one from the reduced echelon form with
    leftmost pivots: for each free column ``f`` the basis vector has a 1 in
    position ``f``, the negated echelon coefficients in the pivot positions,
    and 0 in the other free positions.  E.g. ``[[1, 1]] -> [(-1, 1)]``.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    R, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = Fraction(-R[i][f], R[i][p])
        basis.append(v)
    return basis


def minors(rows):
    """One memo of the maximal minors of ``rows``: ``minor(cols)`` is the
    determinant of the columns ``cols`` of the rows scaled once to
    integers, computed at most once, by fraction-free (Bareiss)
    elimination.  It is an ``int``, the true minor times the product of
    the row scales, so it is the true minor on integer rows and has its
    sign on any rows."""
    m = [_scaled(row)[0] for row in rows]

    @functools.cache
    def minor(cols):
        a = [[row[j] for j in cols] for row in m]
        n, sign, prev = len(a), 1, 1
        for k in range(n - 1):
            if a[k][k] == 0:
                piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if piv is None:
                    return 0
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            pk, p = a[k], a[k][k]
            for i in range(k + 1, n):
                b = a[i][k]
                a[i] = [0] * (k + 1) + [(p * x - b * y) // prev
                                        for x, y in zip(a[i][k + 1:], pk[k + 1:])]
            prev = p
        return sign * a[n - 1][n - 1] if n else 1

    return minor


def primitive(vec):
    """Scale a rational vector by a positive factor to a primitive integer
    vector (entries coprime).  The zero vector is returned unchanged."""
    ints, _ = _scaled(vec)
    g = gcd(*ints)
    if g == 0:
        return tuple(Fraction(x) for x in vec)
    return tuple(Fraction(x // g) for x in ints)


# ---------------------------------------------------------------------------
# Exact simplex method
# ---------------------------------------------------------------------------
#
# Tableau rows are integer lists, each a positive multiple of the true row:
# a basic row ``i`` is the true row times ``T[i][basis[i]] > 0``.  Positive
# scaling keeps every sign and every ratio within a row, so Bland's rule
# makes exactly the pivots of the rational tableau.

def _simplex_phase(T, basis, ncols):
    """Run Bland's-rule simplex on tableau T (last row = objective,
    last column = rhs).  Returns 'optimal' or 'unbounded'."""
    m = len(T) - 1
    while True:
        obj = T[m]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best = None
        for i in range(m):
            if T[i][col] > 0:
                if best is None:
                    best = i
                    continue
                # rhs_i / a_i < rhs_b / a_b with a_i, a_b > 0
                lhs = T[i][ncols] * T[best][col]
                rhs = T[best][ncols] * T[i][col]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:
            return "unbounded"
        _pivot(T, best, col)
        basis[best] = col


def solve_standard_lp(A, b, c):
    """Exact LP: minimize c.x subject to A x = b, x >= 0.

    Returns ``(status, x, objective)`` with status one of ``"optimal"``,
    ``"infeasible"``, ``"unbounded"``; ``x`` and the objective are
    Fractions.
    """
    m, n = len(A), len(c)
    # phase 1: row i is A_i x + a_i = b_i, scaled as a whole to integers,
    # with A_i and b_i negated when b_i < 0 (the artificial a_i is not)
    T = []
    for i in range(m):
        row, _ = _scaled(list(A[i]) + [int(j == i) for j in range(m)] + [b[i]])
        if row[-1] < 0:
            row = [-x if j < n or j == n + m else x for j, x in enumerate(row)]
        T.append(row)
    obj = [0] * n + [1] * m + [0]
    # price out artificials
    for i in range(m):
        obj = _cancel(obj, T[i], n + i)
    T.append(obj)
    basis = [n + i for i in range(m)]
    _simplex_phase(T, basis, n + m)
    if T[m][n + m] < 0:  # positive phase-1 optimum
        return "infeasible", None, None
    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                _pivot(T, i, col)
                basis[i] = col
    keep = [i for i in range(m) if basis[i] < n]
    T = [T[i][:n] + [T[i][n + m]] for i in keep]
    basis = [basis[i] for i in keep]
    obj = _scaled(c)[0] + [0]
    for i in range(len(T)):
        if obj[basis[i]] != 0:
            obj = _cancel(obj, T[i], basis[i])
    T.append(obj)
    if _simplex_phase(T, basis, n) == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        x[j] = Fraction(T[i][n], T[i][j])
    return "optimal", x, sum((cj * xj for cj, xj in zip(c, x)), Fraction(0))


def lp_feasible(A_ge, b_ge):
    """Exact feasibility of ``A x >= b`` with ``x`` free.

    Returns a feasible rational point or ``None``.
    """
    if not A_ge:
        return []
    n = len(A_ge[0])
    m = len(A_ge)
    # x = u - w, u,w >= 0; A(u-w) - s = b, s >= 0 surplus
    A = []
    for i, row in enumerate(A_ge):
        surplus = [0] * m
        surplus[i] = -1
        A.append(list(row) + [-x for x in row] + surplus)
    c = [0] * (2 * n + m)
    status, x, _ = solve_standard_lp(A, b_ge, c)
    if status != "optimal":
        return None
    return [x[i] - x[n + i] for i in range(n)]


def strict_feasible(normals):
    """Interior point of the open cone ``{h : <m, h> > 0 for all m}``.

    Maximizes the slack ``s`` subject to ``<m_r, h> >= s``, ``-1 <= h_i <= 1``
    and ``0 <= s <= 1``; the cone is nonempty iff the optimum is positive.
    Returns the rational point ``h`` or ``None`` if the cone is empty.
    """
    normals = [list(m) for m in normals]
    if not normals:
        return []
    n = len(normals[0])
    # variables: u_i in [0,2] (h_i = u_i - 1), s in [0,1], surplus t_r,
    # slacks v_i, w.
    nm = len(normals)
    nvars = n + 1 + nm + n + 1
    A, b = [], []
    for r, mvec in enumerate(normals):
        row = [0] * nvars
        row[:n] = mvec
        row[n] = -1  # -s
        row[n + 1 + r] = -1  # surplus
        A.append(row)
        b.append(sum(mvec))  # <m, 1>
    for k in range(n):
        row = [0] * nvars
        row[k] = 1
        row[n + 1 + nm + k] = 1
        A.append(row)
        b.append(2)
    row = [0] * nvars
    row[n] = 1
    row[nvars - 1] = 1
    A.append(row)
    b.append(1)
    c = [0] * nvars
    c[n] = -1  # maximize s
    status, x, objective = solve_standard_lp(A, b, c)
    if status != "optimal":
        raise LPError("slack LP failed: %s" % status)
    s = x[n]
    if s <= 0:
        return None
    h = [xk - 1 for xk in x[:n]]
    for mvec in normals:
        if sum(Fraction(a) * hh for a, hh in zip(mvec, h)) <= 0:
            raise LPError("slack LP returned a point outside the open cone")
    return h


def strict_feasible_fast(normals):
    """Float-accelerated version of :func:`strict_feasible`.

    HiGHS solves the same slack LP in double precision.  A proposed
    interior point is rationalized and re-verified exactly.  A proposed
    rejection stands only with an exact Gordan certificate: on the support
    of the LP duals, some ``y >= 0``, ``y != 0`` has ``sum y_r m_r = 0``.
    Whenever a check fails, :func:`strict_feasible` decides, so both
    answers are always correct.
    """
    from scipy.optimize import linprog

    normals = [list(m) for m in normals]
    if not normals:
        return []
    n = len(normals[0])
    # variables h_1..h_n, s; maximize s with <m, h> >= s, |h| <= 1, s <= 1
    A_ub = [[-float(mi) for mi in m] + [1.0] for m in normals]
    b_ub = [0.0] * len(normals)
    bounds = [(-1.0, 1.0)] * n + [(0.0, 1.0)]
    c = [0.0] * n + [-1.0]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.success and res.x[n] > 1e-7:
        h = [Fraction(v).limit_denominator(10**6) for v in res.x[:n]]
        if all(sum(Fraction(a) * hh for a, hh in zip(m, h)) > 0 for m in normals):
            return h
    elif res.success and _gordan_certified(normals, -res.ineqlin.marginals):
        return None
    return strict_feasible(normals)


def _gordan_certified(normals, y):
    """Exact check of a float Gordan vector ``y``: whether some ``y' >= 0``,
    ``y' != 0`` supported where ``y`` is positive has ``sum y'_r m_r = 0``."""
    tol = 1e-9 * max(y)
    support = [r for r, v in enumerate(y) if v > tol]
    ker = kernel_basis([[normals[r][i] for r in support] for i in range(len(normals[0]))])
    if len(ker) == 1:
        return all(x >= 0 for x in ker[0]) or all(x <= 0 for x in ker[0])
    if not ker:
        return False
    # y' = sum_k c_k ker_k with y' >= 0 and sum y' >= 1
    A = [[v[j] for v in ker] for j in range(len(support))]
    A.append([sum(v) for v in ker])
    return lp_feasible(A, [0] * len(support) + [1]) is not None
