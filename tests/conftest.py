import random
from fractions import Fraction

import pytest

from semidual import factorize
from semidual.bianchi import classify
from semidual.factorize import (
    ClosureFailure,
    DoubleCrossSum,
    InternalMismatch,
    basis_change_matrix,
    verify_closure_in_complexification,
)
from semidual.linalg import Matrix, Tensor3, rat, vec
from semidual.lie import complexify, make_lie_algebra, so3, so21


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
