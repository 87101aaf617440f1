"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of :class:`fractions.Fraction` (integer
entries are accepted and coerced).  Everything here is exact: no floating
point enters any computation.  The module provides

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

__all__ = [
    "frac_matrix",
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


def frac_matrix(rows):
    """Copy ``rows`` into a list-of-lists of Fractions."""
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows):
    """Reduced row echelon form with leftmost pivots.

    Returns ``(R, pivots)`` where ``pivots`` lists the pivot column of each
    nonzero row, in order.
    """
    m = frac_matrix(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


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
    R, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """Solve ``rows @ x = rhs`` for square nonsingular ``rows``."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise LPError("singular system")
    return [R[i][n] for i in range(n)]


def determinant(rows):
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = frac_matrix(rows)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return Fraction(0)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor(rows, drop_col):
    """Determinant of ``rows`` with column ``drop_col`` removed (0-based)."""
    return determinant([[x for j, x in enumerate(row) if j != drop_col] for row in rows])


def primitive(vec):
    """Scale a rational vector by a positive factor to a primitive integer
    vector (entries coprime).  The zero vector is returned unchanged."""
    from math import gcd

    v = [Fraction(x) for x in vec]
    if all(x == 0 for x in v):
        return tuple(v)
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(Fraction(x, g) for x in ints)


# ---------------------------------------------------------------------------
# Exact simplex method
# ---------------------------------------------------------------------------

def _pivot(T, basis, row, col):
    piv = T[row][col]
    T[row] = [x / piv for x in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [a - f * b for a, b in zip(T[i], T[row])]
    basis[row] = col


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
                ratio = T[i][ncols] / T[i][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return "unbounded"
        _pivot(T, basis, best[1], col)


def solve_standard_lp(A, b, c):
    """Exact LP: minimize c.x subject to A x = b, x >= 0.

    Returns ``(status, x, objective)`` with status one of ``"optimal"``,
    ``"infeasible"``, ``"unbounded"``.
    """
    A = frac_matrix(A)
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    m, n = len(A), len(c)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    # phase 1: artificials
    T = []
    for i in range(m):
        T.append(A[i] + [Fraction(int(j == i)) for j in range(m)] + [b[i]])
    obj = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    T.append(obj)
    basis = [n + i for i in range(m)]
    # price out artificials
    for i in range(m):
        T[m] = [a - bb for a, bb in zip(T[m], T[i])]
    status = _simplex_phase(T, basis, n + m)
    if -T[m][n + m] > 0:  # positive phase-1 optimum
        return "infeasible", None, None
    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                _pivot(T, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    T = [[T[i][j] for j in range(n)] + [T[i][n + m]] for i in keep]
    basis = [basis[i] for i in keep]
    m2 = len(T)
    obj = c + [Fraction(0)]
    T.append(obj)
    for i in range(m2):
        f = T[m2][basis[i]]
        if f != 0:
            T[m2] = [a - f * bb for a, bb in zip(T[m2], T[i])]
    status = _simplex_phase(T, basis, n)
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i in range(m2):
        x[basis[i]] = T[i][n]
    return "optimal", x, -T[m2][n]


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
        r = [Fraction(x) for x in row]
        surplus = [Fraction(0)] * m
        surplus[i] = Fraction(-1)
        A.append(r + [-x for x in r] + surplus)
    c = [Fraction(0)] * (2 * n + m)
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
        row = [Fraction(0)] * nvars
        for k, i in enumerate(free):
            row[k] = Fraction(mvec[i])
        row[nf] = Fraction(-1)  # -s
        row[nf + 1 + r] = Fraction(-1)  # surplus
        A.append(row)
        b.append(sum(Fraction(mvec[i]) for i in free))  # <m, 1>
    for k in range(nf):
        row = [Fraction(0)] * nvars
        row[k] = Fraction(1)
        row[nf + 1 + nm + k] = Fraction(1)
        A.append(row)
        b.append(Fraction(2))
    row = [Fraction(0)] * nvars
    row[nf] = Fraction(1)
    row[nvars - 1] = Fraction(1)
    A.append(row)
    b.append(Fraction(1))
    c = [Fraction(0)] * nvars
    c[nf] = Fraction(-1)  # maximize s
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
    A = [[Fraction(x) for x in m] for m in normals]
    b = [Fraction(1)] * len(normals)
    A.append([-Fraction(x) for x in extra])
    b.append(Fraction(0))
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
