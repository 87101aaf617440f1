"""Exact linear algebra over the rationals.

Inputs are matrices given as lists of lists of rationals (``int`` or
:class:`fractions.Fraction`); results are Fractions.  Internally every row
is scaled once to integers and eliminated fraction-free, each update
``p * row - f * pivot_row`` divided by the gcd of its entries, so only
``int`` arithmetic runs and every sign and ratio is the exact one.  The
module provides

* reduced row echelon form, rank, kernel bases and linear solves,
* determinants by fraction-free (Bareiss) elimination,
* an exact simplex method for linear programs over the rationals,
* strict feasibility certificates for open polyhedral cones
  ``{h : <m_r, h> > 0 for all r}``,
* Fourier-Motzkin elimination for strict homogeneous systems, used as an
  independent feasibility oracle in the test-suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "rref",
    "rank",
    "kernel_basis",
    "solve",
    "determinant",
    "minor",
    "primitive",
    "strict_feasible",
    "lp_feasible",
    "fourier_motzkin_feasible",
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


def rref(rows):
    """Reduced row echelon form with leftmost pivots.

    Returns ``(R, pivots)`` where ``pivots`` lists the pivot column of each
    nonzero row, in order.
    """
    m, pivots = _echelon(rows)
    dens = [m[i][p] for i, p in enumerate(pivots)] + [1] * (len(m) - len(pivots))
    return [[Fraction(x, d) for x in row] for row, d in zip(m, dens)], pivots


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


def solve(rows, rhs):
    """Solve ``rows @ x = rhs`` for square nonsingular ``rows``."""
    n = len(rows)
    R, pivots = _echelon([list(row) + [rhs[i]] for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise LPError("singular system")
    return [Fraction(R[i][n], R[i][i]) for i in range(n)]


def determinant(rows):
    """Determinant by fraction-free (Bareiss) elimination on the rows
    scaled to integers."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m, scale = [], 1
    for row in rows:
        ints, den = _scaled(row)
        m.append(ints)
        scale *= den
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return Fraction(0)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk, a = m[k], m[k][k]
        for i in range(k + 1, n):
            b = m[i][k]
            m[i] = [0] * (k + 1) + [(a * x - b * y) // prev
                                    for x, y in zip(m[i][k + 1:], pk[k + 1:])]
        prev = a
    return Fraction(sign * m[n - 1][n - 1], scale)


def minor(rows, drop_col):
    """Determinant of ``rows`` with column ``drop_col`` removed (0-based)."""
    return determinant([[x for j, x in enumerate(row) if j != drop_col] for row in rows])


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


def strict_feasible(normals, zero_coords=()):
    """Interior point of the open cone ``{h : <m, h> > 0 for all m}``.

    Maximizes the slack ``s`` subject to ``<m_r, h> >= s``, ``-1 <= h_i <= 1``
    and ``0 <= s <= 1``; the cone is nonempty iff the optimum is positive.
    Coordinates listed in ``zero_coords`` are pinned to 0.  Returns the
    rational point ``h`` or ``None`` if the cone is empty.
    """
    normals = [list(m) for m in normals]
    if not normals:
        return []
    n = len(normals[0])
    zero = set(zero_coords)
    free = [i for i in range(n) if i not in zero]
    nf = len(free)
    # variables: u_i in [0,2] (h_i = u_i - 1) for free coords, s in [0,1],
    # surplus t_r, slacks v_i, w.
    nm = len(normals)
    nvars = nf + 1 + nm + nf + 1
    A, b = [], []
    for r, mvec in enumerate(normals):
        row = [0] * nvars
        for k, i in enumerate(free):
            row[k] = mvec[i]
        row[nf] = -1  # -s
        row[nf + 1 + r] = -1  # surplus
        A.append(row)
        b.append(sum(mvec[i] for i in free))  # <m, 1>
    for k in range(nf):
        row = [0] * nvars
        row[k] = 1
        row[nf + 1 + nm + k] = 1
        A.append(row)
        b.append(2)
    row = [0] * nvars
    row[nf] = 1
    row[nvars - 1] = 1
    A.append(row)
    b.append(1)
    c = [0] * nvars
    c[nf] = -1  # maximize s
    status, x, objective = solve_standard_lp(A, b, c)
    if status != "optimal":
        raise LPError("slack LP failed: %s" % status)
    s = x[nf]
    if s <= 0:
        return None
    h = [Fraction(0)] * n
    for k, i in enumerate(free):
        h[i] = x[k] - 1
    for mvec in normals:
        if sum(Fraction(a) * hh for a, hh in zip(mvec, h)) <= 0:
            raise LPError("slack LP returned a point outside the open cone")
    return h


def strict_feasible_fast(normals, zero_coords=()):
    """Float-accelerated version of :func:`strict_feasible`.

    HiGHS solves the same slack LP in double precision.  A proposed
    interior point is rationalized and re-verified exactly.  A proposed
    rejection stands only with an exact Gordan certificate: on the support
    of the LP duals, some ``y >= 0``, ``y != 0`` has ``sum y_r m_r = 0`` on
    the free coordinates.  Whenever a check fails, :func:`strict_feasible`
    decides, so both answers are always correct.
    """
    from scipy.optimize import linprog

    normals = [list(m) for m in normals]
    if not normals:
        return []
    n = len(normals[0])
    zero = set(zero_coords)
    # variables h_1..h_n, s; maximize s with <m, h> >= s, |h| <= 1, s <= 1
    A_ub = [[-float(mi) for mi in m] + [1.0] for m in normals]
    b_ub = [0.0] * len(normals)
    bounds = [(0.0, 0.0) if i in zero else (-1.0, 1.0) for i in range(n)]
    bounds.append((0.0, 1.0))
    c = [0.0] * n + [-1.0]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.success and res.x[n] > 1e-7:
        h = [Fraction(v).limit_denominator(10**6) for v in res.x[:n]]
        for i in zero:
            h[i] = Fraction(0)
        if all(sum(Fraction(a) * hh for a, hh in zip(m, h)) > 0 for m in normals):
            return h
    elif res.success and _gordan_certified(
            normals, -res.ineqlin.marginals, [i for i in range(n) if i not in zero]):
        return None
    return strict_feasible(normals, zero_coords)


def _gordan_certified(normals, y, free):
    """Exact check of a float Gordan vector ``y``: whether some ``y' >= 0``,
    ``y' != 0`` supported where ``y`` is positive has ``sum y'_r m_r = 0``
    on the coordinates ``free``."""
    tol = 1e-9 * max(y)
    support = [r for r, v in enumerate(y) if v > tol]
    ker = kernel_basis([[normals[r][i] for r in support] for i in free])
    if len(ker) == 1:
        return all(x >= 0 for x in ker[0]) or all(x <= 0 for x in ker[0])
    if not ker:
        return False
    # y' = sum_k c_k ker_k with y' >= 0 and sum y' >= 1
    A = [[v[j] for v in ker] for j in range(len(support))]
    A.append([sum(v) for v in ker])
    return lp_feasible(A, [0] * len(support) + [1]) is not None


def cone_contains(normals, extra):
    """Exact check that ``<extra, h> > 0`` holds on the whole open cone
    ``{h : <m_r, h> > 0}``.  (Valid when the cone is nonempty.)

    By homogeneity the cone is nonempty with slack 1, so the inequality is
    implied iff ``{<m_r, h> >= 1, <extra, h> <= 0}`` is infeasible.
    """
    A = [list(m) for m in normals] + [[-x for x in extra]]
    b = [1] * len(normals) + [0]
    return lp_feasible(A, b) is None


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination (independent oracle for strict systems)
# ---------------------------------------------------------------------------

def fourier_motzkin_feasible(normals):
    """Feasibility of the strict homogeneous system ``<m_r, h> > 0``.

    Pure Fourier-Motzkin elimination; exponential in the number of
    variables, intended for small cross-checks only.
    """
    ineqs = {tuple(primitive(m)) for m in normals}
    if any(all(x == 0 for x in m) for m in ineqs):
        return False
    n = len(next(iter(ineqs))) if ineqs else 0
    for var in range(n):
        pos = [m for m in ineqs if m[var] > 0]
        neg = [m for m in ineqs if m[var] < 0]
        rest = [m for m in ineqs if m[var] == 0]
        new = set(rest)
        for p in pos:
            for q in neg:
                comb = [p[var] * q[j] - q[var] * p[j] for j in range(n)]
                comb[var] = Fraction(0)
                if all(x == 0 for x in comb):
                    return False  # p and q strictly conflict
                new.add(tuple(primitive(comb)))
        ineqs = new
    return True
