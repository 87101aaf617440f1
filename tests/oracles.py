"""Independent oracles that only the tests use: literal enumerations, the
affine relation of a circuit, the facet test by an affine functional, the
depth-first exclusion sweep the package's level-synchronous one must
reproduce, a two-simplex height, the MESSI graph layer (Matrix-Tree
elimination of intermediates and the association graphs of
``s_toric_check``), signed minors by ``Fraction`` determinants, cone
normals by elimination and subdivisions by interpolants, and the
closed-form positive zeros, coefficient scalings and membership tests the
package does not need."""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from multistat import witness
from multistat.cayley import mixed_decorated
from multistat.decoration import positively_spanning
from multistat.messi import MessiError, messi_model
from multistat.points import ConeDescription, Subdivision, cone_normals
from multistat.ratlin import kernel_basis, lp_feasible, primitive


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


def enumerate_tree_sum(nodes, weights, root):
    """Literal enumeration of spanning in-trees rooted at ``root``.
    Each non-root node picks one out-edge; the choice is a tree iff every
    node reaches the root.  Exponential; for cross-checks only."""
    out_edges = {v: [] for v in nodes}
    for (u, v), w in weights.items():
        if u != v and u in out_edges:
            out_edges[u].append((v, w))
    others = [v for v in nodes if v != root]
    total = Fraction(0)
    for choice in product(*(out_edges[v] for v in others)):
        succ = dict(zip(others, (v for v, _ in choice)))
        ok = True
        for v in others:
            seen = set()
            cur = v
            while cur != root:
                if cur in seen or cur not in succ:
                    ok = False
                    break
                seen.add(cur)
                cur = succ[cur]
            if not ok:
                break
        if ok:
            p = Fraction(1)
            for _, w in choice:
                p *= Fraction(w)
            total += p
    return total


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
    ker = kernel_basis([[row[j] for j in support] for row in cfg.matrix])
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


def simplex_cone(cfg, simplex):
    """Cone of heights whose regular subdivision has ``simplex`` as a cell
    with exactly its own vertices marked."""
    return ConeDescription(cone_normals(cfg, simplex), cfg.n)


def box_excludes(system, lo, hi):
    """True when interval bounds prove no root inside the log-box; one box
    at a time, in Python floats."""
    E = system.exponents
    for i in range(system.m):
        terms = []
        top = -np.inf
        for j in range(system.cfg.n):
            s = system.sign[i, j]
            if s == 0:
                continue
            wmin = system.logmag[i, j]
            wmax = system.logmag[i, j]
            for k in range(system.d):
                e = E[j, k]
                if e >= 0:
                    wmin += e * lo[k]
                    wmax += e * hi[k]
                else:
                    wmin += e * hi[k]
                    wmax += e * lo[k]
            terms.append((s, wmin, wmax))
            top = max(top, wmax)
        # scale the row by its largest term so the sums stay finite;
        # only the signs of the bounds matter
        low = 0.0
        high = 0.0
        for s, wmin, wmax in terms:
            if s > 0:
                low += math.exp(wmin - top)
                high += math.exp(wmax - top)
            else:
                low -= math.exp(wmax - top)
                high -= math.exp(wmin - top)
        if low > 0 or high < 0:
            return True
    return False


def exclusion_boxes(system, lo=None, hi=None, max_depth=16):
    """Depth-first adaptive rectangle subdivision, upper half first."""
    if lo is None:
        lo = [math.log(1e-8)] * 2
    if hi is None:
        hi = [math.log(1e8)] * 2
    stack = [(tuple(lo), tuple(hi), 0)]
    out = []
    while stack:
        lo, hi, depth = stack.pop()
        if box_excludes(system, lo, hi):
            continue
        if depth >= max_depth:
            out.append((lo, hi))
            continue
        k = 0 if hi[0] - lo[0] >= hi[1] - lo[1] else 1
        mid = 0.5 * (lo[k] + hi[k])
        a_hi = list(hi)
        a_hi[k] = mid
        b_lo = list(lo)
        b_lo[k] = mid
        stack.append((lo, tuple(a_hi), depth + 1))
        stack.append((tuple(b_lo), hi, depth + 1))
    return out


def affine_shares_facet(cfg, s1, s2):
    """Whether simplices s1, s2 share exactly d vertices spanning a common
    facet with their remaining vertices strictly on opposite sides of it,
    decided by the affine functional that vanishes on the facet."""
    I, J = set(s1), set(s2)
    common = sorted(I & J)
    if len(common) != cfg.d or I == J:
        return False
    # solve [1 a_j] . (b, w) = 0 for j in the facet
    ker = kernel_basis([[1, *cfg.points[j]] for j in common])
    if len(ker) != 1:
        return False
    func = primitive(ker[0])

    def ev(k):
        return func[0] + sum(w * x for w, x in zip(func[1:], cfg.points[k]))

    vi, vj = ev((I - J).pop()), ev((J - I).pop())
    return vi != 0 and vj != 0 and (vi > 0) != (vj > 0)


def extend_height(cfg, s1, s2, jitter=Fraction(1, 1009)):
    """Height function whose regular subdivision contains the two
    facet-sharing simplices ``s1``, ``s2`` as cells.

    Heights are 0 on ``s1``, 1 on the apex of ``s2``, and every remaining
    point is lifted strictly above both supporting planes with a per-index
    perturbation so no spurious point lands on either plane.
    """
    if not affine_shares_facet(cfg, s1, s2):
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


# ---------------------------------------------------------------------------
# Matrix-Tree elimination of intermediates
# ---------------------------------------------------------------------------

def tree_sum(nodes, weights, root):
    """Sum over spanning in-trees rooted at ``root`` of the edge-weight
    products, via the Matrix-Tree minor of the out-degree Laplacian.
    ``weights`` maps ``(u, v)`` to the (summed) weight of edges u->v."""
    others = [v for v in nodes if v != root]
    idx = {v: i for i, v in enumerate(others)}
    n = len(others)
    L = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), w in weights.items():
        if u == v:
            continue
        if u in idx:
            L[idx[u]][idx[u]] += Fraction(w)
            if v in idx:
                L[idx[u]][idx[v]] -= Fraction(w)
    return fraction_determinant(L)


def _collapsed_graph(net, partition, kappa):
    """Collapsed graph on intermediate species plus a star node ``"*"``;
    concentrations in core->intermediate labels are set to 1."""
    intermediate = messi_model(net, partition).intermediate
    rates = net.rates(kappa)
    weights = {}

    def add(u, v, w):
        weights[(u, v)] = weights.get((u, v), 0) + w

    for r in net.reactions:
        k = rates[r.rate_name]
        su = intermediate.get(r.source)
        tv = intermediate.get(r.target)
        if su is None and tv is None:
            continue
        add(su if su is not None else "*", tv if tv is not None else "*", k)
    nodes = ["*"] + sorted(set(intermediate.values()))
    return nodes, weights


def intermediate_coefficients(net, partition, kappa=None):
    """For each intermediate species the pair ``(mu, source)``: its steady
    value is ``mu * x^source`` with ``source`` the unique core complex
    feeding it through intermediates.  Raises when uniqueness fails."""
    model = messi_model(net, partition)
    nodes, weights = _collapsed_graph(net, partition, kappa)
    rho_star = tree_sum(nodes, weights, "*")
    if rho_star == 0:
        raise MessiError("intermediate linear system is singular")
    out = {}
    for cplx, sp in model.intermediate.items():
        sources = model.sources[cplx]
        if len(sources) != 1:
            raise MessiError(
                "intermediate %r needs a unique core source, found %r" % (sp, list(sources))
            )
        mu = tree_sum(nodes, weights, sp) / rho_star
        out[sp] = (mu, sources[0])
    return out


# ---------------------------------------------------------------------------
# association graphs
# ---------------------------------------------------------------------------

def build_G1(net, partition, kappa=None):
    """Digraph on core complexes; an edge carries the total transition rate
    ``tau = kappa_direct + sum_k kappa(U_k -> y') mu_k`` over intermediate
    channels."""
    model = messi_model(net, partition)
    intermediate, core = model.intermediate, model.core
    rates = net.rates(kappa)
    mu = intermediate_coefficients(net, partition, kappa) if intermediate else {}
    edges = {}
    syms = {}

    def add(y, y2, val, sym):
        if y == y2:  # no net transition
            return
        edges[(y, y2)] = edges.get((y, y2), 0) + val
        syms.setdefault((y, y2), []).append(sym)

    for r in net.reactions:
        if r.source in core and r.target in core:
            add(r.source, r.target, rates[r.rate_name], r.rate_name)
        elif r.source in intermediate and r.target in core:
            sp = intermediate[r.source]
            m, src = mu[sp]
            add(src, r.target, rates[r.rate_name] * m, "%s*mu[%s]" % (r.rate_name, sp))
    return edges, {k: " + ".join(v) for k, v in syms.items()}


def _pair_bimolecular(blocks, y, y2):
    """Match the species of two bimolecular core complexes block-by-block;
    returns ((xi, xj), (xl, xm)) with xi,xj in one block and xl,xm in the
    other, or None."""
    (a1, _), (a2, _) = y
    (b1, _), (b2, _) = y2
    if blocks[a1] == blocks[b1] and blocks[a2] == blocks[b2]:
        return (a1, b1), (a2, b2)
    if blocks[a1] == blocks[b2] and blocks[a2] == blocks[b1]:
        return (a1, b2), (a2, b1)
    return None


def build_G2(net, partition, kappa=None):
    """The labelled association multigraph on core species plus the block
    dependency graph.

    Returns a dict with keys ``edges`` (list of ``(u, v, tau, hidden,
    symbol)``), ``parallel_free`` (no two edges share endpoints before
    collapsing), ``GE`` (set of block-index pairs) and ``components``
    (species grouped by graph component restricted to each block).
    """
    blocks = messi_model(net, partition).blocks
    g1, g1sym = build_G1(net, partition, kappa)
    edges = []
    for (y, y2), tau in g1.items():
        sym = g1sym[(y, y2)]
        if len(y) == 1:
            u, v = y[0][0], y2[0][0]
            edges.append((u, v, tau, None, sym))
        else:
            pairing = _pair_bimolecular(blocks, y, y2)
            if pairing is None:
                raise MessiError("cannot pair %r -> %r block-wise" % (y, y2))
            (xi, xj), (xl, xm) = pairing
            edges.append((xi, xj, tau, xl, sym))
            edges.append((xl, xm, tau, xi, sym))
    seen = {}
    parallel_free = True
    for u, v, *_ in edges:
        if (u, v) in seen and u != v:
            parallel_free = False
        seen[(u, v)] = True
    ge = set()
    for u, v, tau, hidden, _ in edges:
        if u != v and hidden is not None and blocks[hidden] != blocks[u]:
            ge.add((blocks[hidden], blocks[u]))
    return {"edges": edges, "parallel_free": parallel_free, "GE": ge, "blocks": blocks}


def layer_sets(ge_edges, m):
    """Topological layers of the block dependency graph on blocks 1..m:
    layer 0 holds blocks with no incoming edge, layer k blocks whose
    incoming edges all originate in earlier layers.  Raises on cycles."""
    remaining = set(range(1, m + 1))
    layers = []
    placed = set()
    while remaining:
        layer = {
            b
            for b in remaining
            if all(src in placed for src, dst in ge_edges if dst == b)
        }
        if not layer:
            raise MessiError("block dependency graph has a cycle")
        layers.append(sorted(layer))
        placed |= layer
        remaining -= layer
    return layers


def _component_graphs(partition, g2):
    """The association graph restricted to each block, as adjacency sets
    (node -> successors; loops dropped)."""
    blocks = g2["blocks"]
    graphs = {}
    for b in range(1, len(partition)):
        adj = {sp: set() for sp in partition[b]}
        for u, v, *_ in g2["edges"]:
            if u != v and blocks[u] == b:
                adj[u].add(v)
                adj.setdefault(v, set())
        graphs[b] = adj
    return graphs


def _reach(adj, start):
    """Every node reachable from ``start``, ``start`` included."""
    seen, stack = {start}, [start]
    while stack:
        for v in adj[stack.pop()] - seen:
            seen.add(v)
            stack.append(v)
    return seen


def _strongly_connected(adj):
    """Whether every node reaches every other: one node reaches all, and
    all reach it (a search on the reversed edges)."""
    back = {v: set() for v in adj}
    for u, succ in adj.items():
        for v in succ:
            back[v].add(u)
    start = next(iter(adj))
    return len(_reach(adj, start)) == len(_reach(back, start)) == len(adj)


def _count_simple_paths(adj, u, v):
    """The number of simple paths from ``u`` to ``v != u``, counted up to 2:
    enough to tell a unique path from none or several."""
    count, stack = 0, [(u, {u})]
    while stack and count < 2:
        w, on_path = stack.pop()
        for x in adj[w]:
            if x == v:
                count += 1
            elif x not in on_path:
                stack.append((x, on_path | {x}))
    return min(count, 2)


def _unique_simple_paths(adj):
    return all(_count_simple_paths(adj, u, v) == 1 for u, v in permutations(adj, 2))


def s_toric_check(net, partition, kappa=None):
    """Check the structural conditions for a toric steady-state
    parametrization; the quotient condition (iii) is machine-verified only
    in the unique-simple-path regime."""
    out = {"valid_partition": not messi_model(net, partition).violations}
    try:
        intermediate_coefficients(net, partition, kappa)
        out["unique_intermediate_sources"] = True
    except MessiError as e:
        out["unique_intermediate_sources"] = False
        out["source_violation"] = str(e)
    try:
        g2 = build_G2(net, partition, kappa)
    except MessiError as e:
        out.update(parallel_free=False, weakly_reversible=False,
                   unique_simple_paths=False, quotient_condition="not verified",
                   g2_error=str(e))
        return out
    out["parallel_free"] = g2["parallel_free"]
    graphs = [adj for adj in _component_graphs(partition, g2).values()
              if len(adj) > 1 and any(adj.values())]
    out["weakly_reversible"] = wr = all(map(_strongly_connected, graphs))
    out["unique_simple_paths"] = usp = all(map(_unique_simple_paths, graphs))
    out["quotient_condition"] = "verified" if (usp and wr) else "not verified"
    return out


# ---------------------------------------------------------------------------
# closed-form positive zeros, scalings and membership tests
# ---------------------------------------------------------------------------

def phi_map(cfg, alpha, t, h):
    """Positive coefficient scalings ``gamma_j = alpha^{(1, a_j)} t^{h_j}``.

    ``alpha`` has ``d + 1`` positive entries; every vector ``m`` in the
    kernel of the configuration matrix satisfies
    ``gamma^m = t^{<m, h>}``, so all scalings produced this way deform the
    system inside the same height class.
    """
    alpha = [float(a) for a in alpha]
    if len(alpha) != cfg.d + 1 or any(a <= 0 for a in alpha):
        raise ValueError("need %d positive entries" % (cfg.d + 1))
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    gamma = []
    for j, a in enumerate(cfg.points):
        val = alpha[0]
        for k, e in enumerate(a):
            val *= alpha[k + 1] ** e
        gamma.append(val * t ** float(h[j]))
    return gamma


def residual(system, u, which=None):
    """Max-norm of the row-scaled residual of a ``DeformedSystem`` per
    point; NaN if not evaluable."""
    res = witness._row_max(np.abs(system._scaled_term_values(u, which).sum(axis=-1)))
    return float(res) if res.ndim == 0 else res


def count_positive_roots(system, family=None, rng=None):
    """Distinct certified positive roots found from decorated-subsystem
    seeds plus a logarithmic lattice; deduplicated by log-coordinate
    max-norm, earlier seeds win ties."""
    simplices = family.simplices if family is not None else []
    seeds = witness._with_lattice(system, [
        ("simplex %s" % (tuple(s),), witness._simplex_seed(system, s)) for s in simplices], rng)
    return witness._distinct(witness.newton_solve_many(
        system, [s for _, s in seeds], [b for b, _ in seeds]))


def fraction_determinant(M):
    """Determinant by Gaussian elimination over ``Fraction``."""
    M = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for k in range(len(M)):
        piv = next((i for i in range(k, len(M)) if M[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        for i in range(k + 1, len(M)):
            f = M[i][k] / M[k][k]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return det


def fraction_solve(M, rhs):
    """Solve ``M x = rhs`` for square nonsingular ``M`` by Gauss-Jordan
    elimination over ``Fraction``."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(M, rhs)]
    for k in range(n):
        piv = next(i for i in range(k, n) if A[i][k] != 0)
        A[k], A[piv] = A[piv], A[k]
        A[k] = [x / A[k][k] for x in A[k]]
        for i in range(n):
            if i != k and A[i][k] != 0:
                A[i] = [a - A[i][k] * b for a, b in zip(A[i], A[k])]
    return [row[n] for row in A]


def _interpolator(cfg, cell, heights):
    """Affine function (b, w) with b + <w, a_j> = h_j on d+1 independent
    points of ``cell``."""
    pts = list(cell)[: cfg.d + 1]
    return fraction_solve([[1, *cfg.points[j]] for j in pts], [heights[j] for j in pts])


def elimination_cone_normals(matrix, simplex):
    """The cone normals of ``simplex`` by elimination, in its own vertex
    order: for each ``i`` outside the simplex I, ``d_I * m`` where ``m`` is
    the kernel vector supported on ``I + {i}`` with ``m_i = d_I``, solved
    from ``A_I x = -d_I a_i``."""
    I = list(simplex)
    r, n = len(matrix), len(matrix[0])
    AI = [[matrix[a][j] for j in I] for a in range(r)]
    dI = fraction_determinant(AI)
    normals = []
    for i in range(n):
        if i in I:
            continue
        x = fraction_solve(AI, [-dI * matrix[a][i] for a in range(r)])
        m = [Fraction(0)] * n
        m[i] = dI
        for k, j in enumerate(I):
            m[j] = x[k]
        normals.append(tuple(dI * v for v in m))
    return normals


def interpolant_subdivision(cfg, heights):
    """Regular subdivision by interpolants: each (d+1)-subset of affinely
    independent points whose interpolating affine function lies weakly
    below every lifted point spans a lower facet, whose cell is every
    point the function touches."""
    h = [Fraction(x) for x in heights]
    cells = set()
    for I in combinations(range(cfg.n), cfg.d + 1):
        if fraction_determinant([[row[j] for j in I] for row in cfg.matrix]) == 0:
            continue
        phi = _interpolator(cfg, I, h)
        vals = [phi[0] + sum(w * x for w, x in zip(phi[1:], cfg.points[j]))
                for j in range(cfg.n)]
        if all(v <= hj for v, hj in zip(vals, h)):
            cells.add(tuple(j for j in range(cfg.n) if vals[j] == h[j]))
    return Subdivision(sorted(cells), h)


def spanning_kernel_vector(M):
    """Kernel vector of a d x (d+1) matrix given by signed maximal minors
    ``(-1)^i det(M drop column i)``, in Fractions."""
    return [(-1) ** i * fraction_determinant([[x for j, x in enumerate(row) if j != i]
                                              for row in M]) for i in range(len(M) + 1)]


def restricted_positive_solution(cfg, C, simplex):
    """The unique positive zero of the square subsystem supported on a
    positively decorated simplex.

    With ``v`` the positive kernel vector of the coefficient submatrix, the
    zero satisfies ``x^{a_k} = lambda * v_k`` for a scalar ``lambda > 0``;
    taking logarithms gives a nonsingular linear system in
    ``(log x, log lambda)``.  Returns the float vector ``x``.
    """
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
    x = np.exp(np.linalg.solve(M, rhs)[:d])
    # residual check against the restricted system
    for row in C:
        terms = [float(row[j]) * float(np.prod(x ** np.array(a))) for j, a in zip(simplex, pts)]
        if abs(sum(terms)) > 1e-9 * sum(map(abs, terms)):
            raise ArithmeticError("restricted solution residual too large")
    return x


def block_pairs(cay, simplex):
    """Split a mixed simplex into its per-block index pairs (ascending),
    each point's block found by :meth:`CayleyConfiguration.block_of`."""
    pairs = [sorted(j for j in simplex if cay.block_of(j) == i) for i in range(cay.d)]
    if any(len(p) != 2 for p in pairs):
        raise ValueError("not a mixed simplex: need exactly two points per block")
    return [tuple(p) for p in pairs]


def exponent_matrix(cay, simplex):
    """Rows ``a_{j1} - a_{j2}`` (first d coordinates), one per block."""
    return [tuple(cay.points[j1][k] - cay.points[j2][k] for k in range(cay.d))
            for j1, j2 in block_pairs(cay, simplex)]


def is_mixed_decorated(cay, coeffs, simplex):
    """:func:`multistat.cayley.mixed_decorated` for one simplex."""
    return mixed_decorated(cay, coeffs, [simplex])[0]


def solve_binomial(M, beta):
    """Positive solution of ``x^{M_i} = beta_i`` with ``beta_i > 0``:
    solve ``M log x = log beta``.  Verifies the round trip to 1e-12."""
    Mf = np.array([[float(x) for x in row] for row in M], dtype=float)
    b = np.array([math.log(float(x)) for x in beta])
    x = np.exp(np.linalg.solve(Mf, b))
    for row, bi in zip(Mf, beta):
        val = float(np.prod(x ** row))
        if abs(val - float(bi)) > 1e-12 * max(1.0, abs(float(bi))):
            raise ArithmeticError("binomial round trip failed")
    return x


def mixed_positive_solution(cay, coeffs, simplex):
    """The positive zero of the binomial square subsystem supported on a
    mixed-decorated simplex: equation ``i`` reduces to
    ``c_{i,j1} x^{a_{j1}} + c_{i,j2} x^{a_{j2}} = 0``."""
    if not is_mixed_decorated(cay, coeffs, simplex):
        raise ValueError("simplex is not mixed-decorated")
    beta = [-float(coeffs[i][j2 - cay.offsets[i]]) / float(coeffs[i][j1 - cay.offsets[i]])
            for i, (j1, j2) in enumerate(block_pairs(cay, simplex))]
    return solve_binomial(exponent_matrix(cay, simplex), beta)


def cone_contains(normals, extra):
    """Exact check that ``<extra, h> > 0`` holds on the whole open cone
    ``{h : <m_r, h> > 0}``.  (Valid when the cone is nonempty.)

    By homogeneity the cone is nonempty with slack 1, so the inequality is
    implied iff ``{<m_r, h> >= 1, <extra, h> <= 0}`` is infeasible.
    """
    A = [list(m) for m in normals] + [[-x for x in extra]]
    b = [1] * len(normals) + [0]
    return lp_feasible(A, b) is None


def in_cone(cone, h):
    """Whether ``h`` lies in the open cone of a ``ConeDescription`` (exact)."""
    return all(sum(Fraction(a) * Fraction(x) for a, x in zip(m, h)) > 0 for m in cone.normals)


def contains_simplex(sub, simplex):
    """A simplex occurs in a ``Subdivision`` iff its vertex set equals the
    marked set of some cell exactly."""
    return tuple(sorted(simplex)) in {tuple(c) for c in sub.cells}


def evaluate(polys, x):
    """Float values of ``{exponent tuple: coefficient}`` polynomials at ``x``."""
    out = []
    for p in polys:
        total = 0.0
        for mono, c in p.items():
            term = float(c)
            for e, xi in zip(mono, x):
                term *= float(xi) ** e
            total += term
        out.append(total)
    return out
