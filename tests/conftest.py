import random
from collections import defaultdict
from fractions import Fraction

import pytest

from semidual import factorize
from semidual.bialgebra import _j_block
from semidual.bianchi import BehrData, NotThreeDimensional, classify
from semidual.factorize import (
    ClosureFailure,
    DoubleCrossSum,
    InternalMismatch,
    basis_change_matrix,
    verify_closure_in_complexification,
)
from semidual.linalg import DimensionMismatch, Matrix, Tensor3, rat, vec
from semidual.lie import LieAlgebra, complexify, eps, make_lie_algebra, so3, so21


@pytest.fixture(scope="session")
def euclid():
    return so3()


@pytest.fixture(scope="session")
def lorentz():
    return so21()


def rng_rat(rng: random.Random, span=3, den=3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rng_matrix(rng: random.Random, n=3) -> Matrix:
    return Matrix([[rng_rat(rng) for _ in range(n)] for _ in range(n)])


def rng_vec(rng: random.Random, n=3):
    return tuple(rng_rat(rng) for _ in range(n))


def classify_factor(inst):
    """Bianchi classification of the factor algebra m of a solution instance."""
    dcs = verify_closure_in_complexification(inst.algebra, inst.F, inst.lam)
    return classify(dcs.m_algebra)


def rng_invertible(rng: random.Random, n=3) -> Matrix:
    while True:
        m = rng_matrix(rng, n)
        if m.det() != 0:
            return m


def low_rank(rng, n, r, signs=None) -> Matrix:
    """C^T diag(signs) C for a random r x n C when signs are given (symmetric,
    rank at most r), else a random n x r times r x n product."""
    if r == 0:
        return Matrix.zeros(n)
    left = Matrix([[rng_rat(rng) for _ in range(r)] for _ in range(n)])
    if signs is not None:
        return left @ Matrix.diagonal(signs) @ left.transpose()
    return left @ Matrix([[rng_rat(rng) for _ in range(n)] for _ in range(r)])


def samples(n, seed):
    """Full random, rank-deficient, a repeated column and a zero row."""
    rng = random.Random(f"sympy-{n}-{seed}")
    full = Matrix([[rng_rat(rng) for _ in range(n)] for _ in range(n)])
    out = [full, low_rank(rng, n, rng.randrange(n))]
    if n > 1:
        rows = [list(row) for row in full.data]
        j, k = rng.sample(range(n), 2)
        for row in rows:
            row[k] = 2 * row[j]
        out.append(Matrix(rows))
        rows = [list(row) for row in full.data]
        rows[rng.randrange(n)] = [0] * n
        out.append(Matrix(rows))
    return out


def wide_f(rng: random.Random, n: int) -> Matrix:
    """An n x n F of 3x3 blocks on the diagonal, each entry zero or p / 3^20
    with p prime to 3 and of 31 to 32 bits, so numerator and denominator keep
    at least 30 bits, as in the benchmark's conjugated inputs."""
    def entry(i, j):
        if i // 3 != j // 3 or rng.random() < 0.3:
            return 0
        p = 3 * (rng.getrandbits(30) | (1 << 29)) + 1
        return Fraction(rng.choice((1, -1)) * p, 3**20)

    return Matrix.build(n, n, entry)


# Dense references: direct sums over every index of the formulas the library
# docstrings state, reading f only by index.  The library iterates the sparse
# bracket table instead; tests compare the two exactly.

def _sum(terms) -> Fraction:
    return sum(terms, Fraction(0))


def dense_apply(M: Matrix, x):
    """(M x)[b] = sum_a M[b, a] x[a], over every column a."""
    xs = vec(x)
    return tuple(_sum(M[b, a] * xs[a] for a in range(M.cols)) for b in range(M.rows))


def dense_add(s: Tensor3, t: Tensor3) -> Tensor3:
    return Tensor3.build(s.dim, lambda i, j, k: s[i, j, k] + t[i, j, k])


def dense_sub(s: Tensor3, t: Tensor3) -> Tensor3:
    return Tensor3.build(s.dim, lambda i, j, k: s[i, j, k] - t[i, j, k])


def dense_neg(t: Tensor3) -> Tensor3:
    return Tensor3.build(t.dim, lambda i, j, k: -t[i, j, k])


def dense_scale(c, t: Tensor3) -> Tensor3:
    c = rat(c)
    return Tensor3.build(t.dim, lambda i, j, k: c * t[i, j, k])


def dense_bracket(g, x, y):
    """[X, Y]^c = X^a Y^b f_ab^c."""
    r = range(g.dim)
    return tuple(_sum(x[a] * y[b] * g.f[a, b, c] for a in r for b in r) for c in r)


def dense_ad(g, v) -> Matrix:
    """ad_V[c][b] = V^a f_ab^c."""
    r = range(g.dim)
    return Matrix.build(g.dim, g.dim, lambda c, b: _sum(v[a] * g.f[a, b, c] for a in r))


def dense_complexify(g, lam) -> Tensor3:
    """[J,J] = f J, [Q_a, J_b] = f_ab^c Q_c, [J_a, Q_b] = -f_ba^c Q_c,
    [Q_a, Q_b] = lam f_ab^c J_c on (J_0..J_{n-1}, Q_0..Q_{n-1})."""
    n, f = g.dim, g.f

    def fn(i, j, k):
        a, b, c = i % n, j % n, k % n
        block = (i >= n, j >= n, k >= n)
        if block == (False, False, False):
            return f[a, b, c]
        if block == (True, False, True):
            return f[a, b, c]
        if block == (False, True, True):
            return -f[b, a, c]
        if block == (True, True, False):
            return lam * f[a, b, c]
        return 0

    return Tensor3.build(2 * n, fn)


def dense_semidual(g) -> Tensor3:
    """[J_a, J_b] = f_ab^c J_c, [J_a, P^b] = -f_ac^b P^c, [P, P] = 0."""
    n, f = g.dim, g.f

    def fn(i, j, k):
        a, b, c = i % n, j % n, k % n
        block = (i >= n, j >= n, k >= n)
        if block == (False, False, False):
            return f[a, b, c]
        if block == (False, True, True):
            return -f[a, c, b]
        if block == (True, False, True):  # [P^a, J_b] = -[J_b, P^a]
            return f[b, c, a]
        return 0

    return Tensor3.build(2 * n, fn)


def dense_dcs(g, F) -> tuple[Tensor3, Tensor3]:
    """g_ab^c = f_ad^c F^d_b + F^d_a f_db^c,  L_ab^c = F^d_a f_db^c - F^c_d f_ab^d."""
    n, f = g.dim, g.f
    r = range(n)
    gt = Tensor3.build(n, lambda a, b, c: _sum(
        f[a, d, c] * F[d, b] + F[d, a] * f[d, b, c] for d in r))
    lt = Tensor3.build(n, lambda a, b, c: _sum(
        F[d, a] * f[d, b, c] - F[c, d] * f[a, b, d] for d in r))
    return gt, lt


def dense_coboundary(alg, rt: Matrix) -> Tensor3:
    """delta(e_i) = (ad_{e_i} (x) id + id (x) ad_{e_i})(r):
    delta[i][j][k] = f_im^j r^{mk} + f_im^k r^{jm}."""
    r = range(alg.dim)
    f = alg.f
    return Tensor3.build(alg.dim, lambda i, j, k: _sum(
        f[i, m, j] * rt[m, k] + f[i, m, k] * rt[j, m] for m in r))


def dense_omega(alg) -> Tensor3:
    """f_ab^c (P^a P^b J_c - P^a J_c P^b + J_c P^a P^b) on a (J, P) algebra."""
    n = alg.dim // 2
    f = alg.f

    def fn(i, j, k):
        block = (i >= n, j >= n, k >= n)
        if block == (True, True, False):
            return f[i - n, j - n, k]
        if block == (True, False, True):
            return -f[i - n, k - n, j]
        if block == (False, True, True):
            return f[j - n, k - n, i]
        return 0

    return Tensor3.build(alg.dim, fn)


def dense_schouten(alg, rt: Matrix) -> Tensor3:
    """[[r, r]]^{ijk} = r^{aj} r^{bk} C_ab^i + r^{ia} r^{bk} C_ab^j + r^{ia} r^{jb} C_ab^k,
    with the sum over b done first."""
    n, C = alg.dim, alg.f
    r = range(n)
    rc = [[[_sum(rt[b, k] * C[a, b, i] for b in r) for i in r] for k in r] for a in r]
    cr = [[[_sum(rt[j, b] * C[a, b, k] for b in r) for k in r] for j in r] for a in r]
    return Tensor3.build(n, lambda i, j, k: _sum(
        rt[a, j] * rc[a][k][i] + rt[i, a] * rc[a][k][j] + rt[i, a] * cr[a][j][k]
        for a in r))


def dense_mcybe_matrix(g, R: Matrix, lam) -> Tensor3:
    """res[e][a][c] = R^b_a R^c_d f_be^d - R^b_e R^c_d f_ba^d
    + R^b_e R^d_a f_bd^c + lam f_ea^c."""
    r = range(g.dim)
    f = g.f
    return Tensor3.build(g.dim, lambda e, a, c: lam * f[e, a, c] + _sum(
        R[b, a] * R[c, d] * f[b, e, d]
        - R[b, e] * R[c, d] * f[b, a, d]
        + R[b, e] * R[d, a] * f[b, d, c]
        for b in r for d in r))


def dense_change_basis(f: Tensor3, A: Matrix) -> Tensor3:
    """Structure constants in the basis J'_a = A^d_a J_d:
    f'_ab^c = A^d_a A^e_b f_de^x (A^-1)^c_x."""
    r = range(f.dim)
    ainv = A.inverse()
    return Tensor3.build(f.dim, lambda a, b, c: _sum(
        A[d, a] * A[e, b] * f[d, e, x] * ainv[c, x]
        for d in r for e in r for x in r))


def dense_dualco(gt: Tensor3, lt: Tensor3) -> Tensor3:
    """Cocommutator of the semidual on (J, P): delta(P^a) = g_cb^a P^c (x) P^b,
    delta(J_a) = L_ba^c (J_c (x) P^b - P^b (x) J_c)."""
    n = gt.dim

    def fn(i, j, k):
        if i < n:
            if j < n and k >= n:
                return lt[k - n, i, j]
            if j >= n and k < n:
                return -lt[j - n, i, k]
            return Fraction(0)
        if j >= n and k >= n:
            return gt[j - n, k - n, i - n]
        return Fraction(0)

    return Tensor3.build(2 * n, fn)


def dense_jacobi(f: Tensor3):
    """(a, b, c, e, J) for every nonzero e-component J of the Jacobi sum over
    the cyclic orderings of each a < b < c, scanning every triple and e."""
    n = f.dim
    pairs = f.table
    bad = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                acc = [Fraction(0)] * n
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for d, v in pairs.get((x, y), ()):
                        for e, w in pairs.get((d, z), ()):
                            acc[e] += v * w
                for e in range(n):
                    if acc[e] != 0:
                        bad.append((a, b, c, e, acc[e]))
    return bad


def dense_antisymmetry(f: Tensor3):
    """Every (a, b, c) with a <= b and f_ab^c != -f_ba^c, scanning every index."""
    n = f.dim
    return sorted({
        (min(a, b), max(a, b), c)
        for a in range(n) for b in range(n) for c in range(n)
        if f[a, b, c] != -f[b, a, c]
    })


def dense_co_jacobi(delta: Tensor3):
    """(i, j, k, x, s) for i < j < k and every nonzero s, the e_i (x) e_j (x) e_k
    component of the cyclic sum of (delta (x) id) o delta applied to e_x:
    s = sum over the cyclic (p, q, r) of (i, j, k) and every a of
    delta[x][a][r] delta[a][p][q]."""
    n = delta.dim
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for x in range(n):
                    s = _sum(
                        delta[x, a, r] * delta[a, p, q]
                        for p, q, r in ((i, j, k), (j, k, i), (k, i, j))
                        for a in range(n)
                    )
                    if s:
                        bad.append((i, j, k, x, s))
    return bad


def dense_metric_invariance(f: Tensor3, metric: Matrix):
    """Every (a, b, c) with f_ab^d eta_dc + f_ac^d eta_bd != 0."""
    n = f.dim
    pairs = f.table
    bad = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                r = sum(
                    (v * metric[d, c] for d, v in pairs.get((a, b), ())),
                    Fraction(0),
                ) + sum(
                    (v * metric[b, d] for d, v in pairs.get((a, c), ())),
                    Fraction(0),
                )
                if r != 0:
                    bad.append((a, b, c))
    return bad


def dense_closure(g, F, lam):
    """The closure one bracket at a time: every [B e_i, B e_j] of g_lam,
    mapped back by B^-1, checked against the double-cross-sum brackets built
    from factorize.dcs_constants."""
    n = g.dim
    glam = complexify(g, lam)
    B = basis_change_matrix(F)
    Binv = B.inverse()
    newbasis = [B.col(i) for i in range(2 * n)]
    direct = [
        [Binv.apply(glam.bracket(newbasis[i], newbasis[j])) for j in range(2 * n)]
        for i in range(2 * n)
    ]

    resid = [
        (a, b, c, v)
        for a in range(n)
        for b in range(n)
        for c, v in enumerate(direct[n + a][n + b][:n])
        if v != 0
    ]
    if resid:
        comps = ", ".join(f"[{a},{b}]->J_{c}: {v}" for a, b, c, v in resid[:6])
        if len(resid) > 6:
            comps += f", and {len(resid) - 6} more"
        raise ClosureFailure(f"factorisation condition fails; nonzero residual at {comps}")

    gt, lt = factorize.dcs_constants(g, F)

    def expected(i, j):
        out = [Fraction(0)] * (2 * n)
        if i < n and j < n:
            for c in range(n):
                out[c] = g.f[i, j, c]
        elif i >= n and j < n:
            a, b = i - n, j
            for c in range(n):
                out[n + c] = g.f[a, b, c]
                out[c] = lt[a, b, c]
        elif i < n and j >= n:
            a, b = j - n, i
            for c in range(n):
                out[n + c] = -g.f[a, b, c]
                out[c] = -lt[a, b, c]
        else:
            a, b = i - n, j - n
            for c in range(n):
                out[n + c] = gt[a, b, c]
        return tuple(out)

    for i in range(2 * n):
        for j in range(2 * n):
            if direct[i][j] != expected(i, j):
                raise InternalMismatch(
                    f"bracket of new basis vectors {i},{j}: direct {direct[i][j]} != "
                    f"structure-constant form {expected(i, j)}"
                )

    return DoubleCrossSum(gt, lt, make_lie_algebra(gt), B)


def dense_factorization(g, F, lam) -> Tensor3:
    """[F J_a, F J_b] - F([J_a, F J_b] + [F J_a, J_b]) + lam [J_a, J_b] on
    every basis pair, one bracket and one F.apply at a time."""
    lam = rat(lam)
    n = g.dim
    basis = g.basis()
    fcols = [F.col(a) for a in range(n)]
    rows = []
    for a in range(n):
        plane = []
        for b in range(n):
            t1 = g.bracket(fcols[a], fcols[b])
            inner = tuple(
                x + y
                for x, y in zip(g.bracket(basis[a], fcols[b]), g.bracket(fcols[a], basis[b]))
            )
            t2 = F.apply(inner)
            t3 = g.bracket(basis[a], basis[b])
            plane.append(tuple(t1[c] - t2[c] + lam * t3[c] for c in range(n)))
        rows.append(plane)
    return Tensor3(rows)


def dense_matmul(A: Matrix, B: Matrix) -> Matrix:
    """(A B)[i, j] = sum_k A[i, k] B[k, j], over every k."""
    return Matrix.build(A.rows, B.cols, lambda i, j: _sum(A[i, k] * B[k, j] for k in range(A.cols)))


def dense_r_tensor(F: Matrix) -> Matrix:
    """r = F^b_a P^a /\\ J_b on (J, P): [P^a][J_b] = F[b, a], [J_a][P^b] = -F[a, b]."""
    n = F.rows

    def fn(i, j):
        if i >= n and j < n:
            return F[j, i - n]
        if i < n and j >= n:
            return -F[i, j - n]
        return Fraction(0)

    return Matrix.build(2 * n, 2 * n, fn)


def dense_basis_change(F: Matrix) -> Matrix:
    """Columns (J_a, Q'_a = Q_a + F^b_a J_b), entry by entry."""
    n = F.rows
    return Matrix.build(
        2 * n,
        2 * n,
        lambda i, j: (
            (Fraction(1) if i == j else Fraction(0))
            if j < n
            else (F[i, j - n] if i < n else (Fraction(1) if i == j else Fraction(0)))
        ),
    )


def dense_inner(g, x, y) -> Fraction:
    """<x, y> = x^a eta_ab y^b over all n^2 metric entries."""
    r = range(g.dim)
    return _sum(x[a] * g.metric[a, b] * y[b] for a in r for b in r)


def dense_outer(g, x, y) -> Matrix:
    """|x><y|[b, a] = x^b y^c eta_ca, over every c."""
    r = range(g.dim)
    return Matrix.build(g.dim, g.dim, lambda b, a: x[b] * _sum(y[c] * g.metric[c, a] for c in r))


# The Behr split and omega as they were before they followed the bracket
# table, kept verbatim: behr_decompose probes f at every index pair and
# rebuilds it with Tensor3.build, and omega's invariance loop pairs every
# generator x with every Omega entry.  Tests compare the table-driven
# versions with them exactly, error messages included.

def probe_behr_decompose(g: LieAlgebra) -> BehrData:
    """Split the structure constants into (n, a); round-trip asserted."""
    if g.dim != 3:
        raise NotThreeDimensional(f"dim {g.dim} != 3")
    f = g.f
    a = tuple(
        Fraction(-1, 2) * sum((f[x, x_b, x] for x in range(3)), Fraction(0))
        for x_b in range(3)
    )
    m = Matrix.build(
        3,
        3,
        lambda d, c: Fraction(1, 2)
        * sum(
            (Fraction(eps(d, x, y)) * f[x, y, c] for x in range(3) for y in range(3)),
            Fraction(0),
        ),
    )
    n = (m + m.transpose()) * Fraction(1, 2)
    rebuilt = probe_structure_from_behr(n, a)
    if rebuilt != f:
        raise AssertionError("Behr decomposition does not reproduce the input")
    return BehrData(n, a)


def probe_structure_from_behr(n: Matrix, a) -> Tensor3:
    def fn(x, y, c):
        acc = a[x] * (1 if c == y else 0) - a[y] * (1 if c == x else 0)
        for d in range(3):
            e = eps(x, y, d)
            if e:
                acc += Fraction(e) * n[d, c]
        return acc

    return Tensor3.build(3, fn)


def loop_omega(alg: LieAlgebra) -> Tensor3:
    """The invariant element f_ab^c (P^a P^b J_c - P^a J_c P^b + J_c P^a P^b).

    Requires a semidual algebra (abelian P block); ad-invariance in all
    three slots is asserted.
    """
    n2 = alg.dim
    if n2 % 2 != 0:
        raise DimensionMismatch("invariant element needs a (J, P) algebra")
    n = n2 // 2
    table = alg.table
    if any(a >= n and b >= n for a, b in table):
        raise ValueError("P generators are not abelian")
    entries = []
    for a, b, c, v in _j_block(alg).nonzero():
        entries += ((n + a, n + b, c, v), (n + a, c, n + b, -v), (c, n + a, n + b, v))
    om = Tensor3.sparse(n2, entries)
    # the invariance sums are products of one f and one Omega entry, so
    # their ints share one denominator and vanish exactly when the sums do
    _, ints = alg.f.int_table()
    _, om_ints = om.int_table()
    for x in range(n2):
        acc = defaultdict(int)
        for (i, j), row in om_ints.items():
            for k, v in row:
                for m, w in ints.get((x, i), ()):
                    acc[m, j, k] += w * v
                for m, w in ints.get((x, j), ()):
                    acc[i, m, k] += w * v
                for m, w in ints.get((x, k), ()):
                    acc[i, j, m] += w * v
        if any(acc.values()):
            raise AssertionError(f"invariant element is not ad-invariant under e_{x}")
    return om


# Fraction Gauss-Jordan elimination and Gaussian det, as linalg had them
# before its fraction-free kernel and Bareiss det, kept verbatim (the
# methods as functions of m).  Tests compare the int kernels with them
# exactly.

def ref_row_reduce(rows: list[list[Fraction]], stop_col: int | None = None):
    """In-place reduced row echelon form; returns (rows, pivot column list).

    Columns >= stop_col ride along (augmented part) and are never pivoted.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    limit = ncols if stop_col is None else stop_col
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w if w else v for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def ref_det(m: Matrix) -> Fraction:
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    a = [list(row) for row in m.data]
    n = m.rows
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def ref_rank(m: Matrix) -> int:
    _, pivots = ref_row_reduce([list(row) for row in m.data])
    return len(pivots)


def ref_inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    aug = [
        list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
        for i, row in enumerate(m.data)
    ]
    reduced, pivots = ref_row_reduce(aug, stop_col=n)
    if len(pivots) != n:
        raise ZeroDivisionError("matrix is singular")
    return Matrix._of(tuple(tuple(row[n:]) for row in reduced))


def ref_solve(a: Matrix, b) -> tuple[Fraction, ...] | None:
    if len(b) != a.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != {a.rows} rows")
    bs = vec(b)
    aug = [list(row) + [bs[i]] for i, row in enumerate(a.data)]
    reduced, pivots = ref_row_reduce(aug, stop_col=a.cols)
    for i in range(len(pivots), a.rows):
        if reduced[i][a.cols] != 0:
            return None
    x = [Fraction(0)] * a.cols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][a.cols]
    return tuple(x)


def ref_nullspace(a: Matrix) -> list[tuple[Fraction, ...]]:
    reduced, pivots = ref_row_reduce([list(row) for row in a.data])
    pivot_set = set(pivots)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * a.cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        basis.append(tuple(v))
    return basis
