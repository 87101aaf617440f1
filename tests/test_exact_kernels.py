"""The integer-row kernels of ``ratlin`` against the Fraction versions they
replaced.

The references below are the earlier ``Fraction`` implementations of the
simplex method, the reduced row echelon form and the Bareiss determinant,
kept here unchanged except for an optional ``events`` set that records
which branches a run took.  Every integer kernel must return exactly what
its reference returns, as Fractions.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from multistat import ratlin


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------

def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def ref_rref(rows):
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


def ref_kernel_basis(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    R, pivots = ref_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(v)
    return basis


def ref_solve(rows, rhs):
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    R, pivots = ref_rref(aug)
    if pivots != list(range(n)):
        raise ratlin.LPError("singular system")
    return [R[i][n] for i in range(n)]


def ref_determinant(rows):
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


def ref_pivot(T, basis, row, col):
    piv = T[row][col]
    T[row] = [x / piv for x in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [a - f * b for a, b in zip(T[i], T[row])]
    basis[row] = col


def ref_simplex_phase(T, basis, ncols, events=None):
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
                if events is not None and best is not None and ratio == best[0]:
                    events.add("ratio tie")
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return "unbounded"
        ref_pivot(T, basis, best[1], col)


def ref_solve_standard_lp(A, b, c, events=None):
    A = frac_matrix(A)
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    m, n = len(A), len(c)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    T = []
    for i in range(m):
        T.append(A[i] + [Fraction(int(j == i)) for j in range(m)] + [b[i]])
    obj = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    T.append(obj)
    basis = [n + i for i in range(m)]
    for i in range(m):
        T[m] = [a - bb for a, bb in zip(T[m], T[i])]
    status = ref_simplex_phase(T, basis, n + m, events)
    if -T[m][n + m] > 0:
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if events is not None:
                events.add("artificial left basic" if col is None else
                           "artificial driven out by a %s pivot"
                           % ("negative" if T[i][col] < 0 else "positive"))
            if col is not None:
                ref_pivot(T, basis, i, col)
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
    status = ref_simplex_phase(T, basis, n, events)
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i in range(m2):
        x[basis[i]] = T[i][n]
    return "optimal", x, -T[m2][n]


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def _rational(rng, integer=False):
    num = rng.choice([0, 0, 1, -1, 1, 2, -2, 3, -3])
    return Fraction(num) if integer else Fraction(num, rng.choice([1, 1, 2, 3, 4]))


def random_lp(rng):
    """A small standard-form LP ``(A, b, c)``.  About half the instances are
    feasible by construction (``b = A x0`` for a sparse ``x0 >= 0``, which
    makes degenerate vertices and ratio ties common); right-hand sides may
    be negative, and a redundant combination of two rows is sometimes
    appended, which leaves an artificial variable basic after phase 1."""
    integer = rng.random() < 0.3
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    A = [[_rational(rng, integer) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        x0 = [_rational(rng, integer) if rng.random() < 0.4 else 0 for _ in range(n)]
        x0 = [abs(v) for v in x0]
        b = [sum(a * v for a, v in zip(row, x0)) for row in A]
    else:
        b = [_rational(rng, integer) for _ in range(m)]
    if rng.random() < 0.35:
        i, j = rng.randrange(m), rng.randrange(m)
        k = _rational(rng)
        A.append([x + k * y for x, y in zip(A[i], A[j])])
        b.append(b[i] + k * b[j])
    c = [_rational(rng, integer) for _ in range(n)]
    if integer:
        A = [[int(x) for x in row] for row in A]
        b, c = [int(x) for x in b], [int(x) for x in c]
    return A, b, c


def random_matrix(rng):
    """A small rational matrix, often singular: a row may be a combination
    of two others, and a column may be zero."""
    integer = rng.random() < 0.3
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
    M = [[_rational(rng, integer) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.4:
        k = _rational(rng)
        M[-1] = [x + k * y for x, y in zip(M[0], M[1])]
    if rng.random() < 0.2:
        col = rng.randrange(ncols)
        for row in M:
            row[col] = Fraction(0)
    return M


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


def check_lp(A, b, c, events=None):
    want = ref_solve_standard_lp(A, b, c, events)
    got = ratlin.solve_standard_lp(A, b, c)
    assert got == want, (A, b, c)
    if got[0] == "optimal":
        assert _all_fractions(got[1]) and type(got[2]) is Fraction
    return got[0]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@settings(max_examples=400)
@given(st.randoms(use_true_random=False))
def test_simplex_matches_fraction_tableau(rng):
    check_lp(*random_lp(rng))


def test_random_lps_cover_every_branch():
    """The generator reaches every branch the property test is meant to
    cover, and the kernel agrees with the reference on all of them."""
    rng = random.Random(2024)
    events = set()
    for _ in range(600):
        A, b, c = random_lp(rng)
        events.add(check_lp(A, b, c, events))
        if any(Fraction(x).denominator > 1 for row in A for x in row):
            events.add("non-integer entries")
        if any(x < 0 for x in b):
            events.add("negative right-hand side")
    assert events >= {
        "optimal", "infeasible", "unbounded", "ratio tie",
        "artificial left basic", "artificial driven out by a negative pivot",
        "artificial driven out by a positive pivot",
        "non-integer entries", "negative right-hand side",
    }


def test_simplex_known_branches():
    events = set()
    # a redundant row: its artificial stays basic and the row is dropped
    assert check_lp([[1, 1, 0], [2, 2, 0]], [1, 2], [1, 0, 1], events) == "optimal"
    assert events == {"ratio tie", "artificial left basic"}
    events = set()
    # a degenerate vertex: rows tie at ratio 0, and a negative entry
    # drives an artificial out of the basis
    assert check_lp([[1, 1, 1, 0], [1, 2, 0, 1], [2, 1, 0, 0]], [0, 0, 0],
                    [-1, -1, 0, 0], events) == "optimal"
    assert events == {"ratio tie", "artificial driven out by a negative pivot"}
    # a b < 0 row is negated before phase 1
    status, x, objective = ratlin.solve_standard_lp(
        [[Fraction(-1, 2), 1, -1]], [Fraction(-3, 2)], [1, 1, 0])
    assert (status, x, objective) == ("optimal", [0, 0, Fraction(3, 2)], 0)
    # rational rows are scaled to integers, their artificial with them:
    # with an unscaled artificial, phase 1 ends at another optimal vertex
    A = [[Fraction(-1, 3), -1, -1], [Fraction(-2, 3), Fraction(-1, 4), Fraction(3, 2)]]
    b, c = [Fraction(-7, 3), Fraction(7, 3)], [-1, -1, 1]
    assert check_lp(A, b, c) == "optimal"
    assert ratlin.solve_standard_lp(A, b, c)[1] == [0, Fraction(2, 3), Fraction(5, 3)]
    assert check_lp([[1, 1]], [-1], [0, 0]) == "infeasible"
    assert check_lp([[1, -1]], [0], [-1, 0]) == "unbounded"


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_slack_lp_is_the_fraction_lp(rng):
    """``strict_feasible`` hands the slack LP to the kernel; the Fraction
    reference given the same LP returns the same vertex."""
    n, k = rng.randint(1, 4), rng.randint(1, 6)
    normals = [tuple(_rational(rng) for _ in range(n)) for _ in range(k)]
    if any(all(x == 0 for x in m) for m in normals):
        return
    zero = [i for i in range(n) if rng.random() < 0.2]
    solve = ratlin.solve_standard_lp
    seen = []

    def both(A, b, c):
        got = solve(A, b, c)
        assert got == ref_solve_standard_lp(A, b, c)
        seen.append(got)
        return got

    ratlin.solve_standard_lp = both
    try:
        h = ratlin.strict_feasible(normals, zero)
    finally:
        ratlin.solve_standard_lp = solve
    assert len(seen) == 1
    if h is not None:
        assert _all_fractions(h)


@settings(max_examples=400)
@given(st.randoms(use_true_random=False))
def test_elimination_matches_fraction_references(rng):
    M = random_matrix(rng)
    R, pivots = ratlin.rref(M)
    assert (R, pivots) == ref_rref(M)
    assert all(_all_fractions(row) for row in R)
    assert ratlin.rank(M) == len(pivots)
    ker = ratlin.kernel_basis(M)
    assert ker == ref_kernel_basis(M)
    assert all(_all_fractions(v) for v in ker)
    square = [row[:len(M)] for row in M] if len(M[0]) >= len(M) else M[:len(M[0])]
    det = ratlin.determinant(square)
    assert det == ref_determinant(square) and type(det) is Fraction
    rhs = [_rational(rng) for _ in square]
    if det != 0:
        x = ratlin.solve(square, rhs)
        assert x == ref_solve(square, rhs) and _all_fractions(x)
    else:
        try:
            ratlin.solve(square, rhs)
        except ratlin.LPError:
            pass
        else:
            raise AssertionError("solve accepted a singular system")


def test_elimination_edge_cases():
    assert ratlin.rref([]) == ([], [])
    assert ratlin.rref([[0, 0], [0, 0]]) == ref_rref([[0, 0], [0, 0]])
    assert ratlin.rank([]) == 0
    assert ratlin.determinant([]) == 1
    assert ratlin.determinant([[Fraction(3, 4)]]) == Fraction(3, 4)
    assert ratlin.determinant([[0, 1], [1, 0]]) == -1
    assert ratlin.kernel_basis([[0, 0, 0]]) == ref_kernel_basis([[0, 0, 0]])
