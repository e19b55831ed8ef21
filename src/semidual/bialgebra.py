"""Semidual Lie bialgebra, classical r-matrix, Schouten bracket and the
modified classical Yang-Baxter equation, all by exact tensor computation.

The semidual of g |><| m lives on the 2n-dim space with basis
(J_0..J_{n-1}, P^0..P^{n-1}); index i < n is J_i and i >= n is P^{i-n}.
Its commutators are [J_a,J_b] = f_ab^c J_c, [J_a,P^b] = -f_ac^b P^c,
[P,P] = 0, and the cocommutator is built from the double-cross-sum tensors:
delta(P^a) = g_cb^a P^c (x) P^b, delta(J_a) = L_ba^c (J_c (x) P^b - P^b (x) J_c).

Tensor slot conventions (the main source of sign bugs; locked by the
acceptance test against the invariant element and the matrix-form of the
mCYBE): for r = r^{ij} e_i (x) e_j,
    [r12,r13]^{ijk} = sum_{ab} r^{aj} r^{bk} C_ab^i
    [r12,r23]^{ijk} = sum_{ab} r^{ia} r^{bk} C_ab^j
    [r13,r23]^{ijk} = sum_{ab} r^{ia} r^{jb} C_ab^k
where C are the structure constants of the 2n-dim semidual algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .factorize import dcs_constants, factorization_check
from .lie import LieAlgebra, make_lie_algebra
from .linalg import DimensionMismatch, Matrix, Tensor3, rat


class NotAFactorisation(ValueError):
    pass


def semidual_algebra(g: LieAlgebra) -> LieAlgebra:
    """The 2n-dim Lie algebra of the semidual on the (J, P) basis."""
    n = g.dim

    def fn(i, j, k):
        if i < n and j < n:
            return g.f[i, j, k] if k < n else Fraction(0)
        if i < n and j >= n:  # [J_a, P^b] = -f_ac^b P^c
            return -g.f[i, k - n, j - n] if k >= n else Fraction(0)
        if i >= n and j < n:
            return g.f[j, k - n, i - n] if k >= n else Fraction(0)
        return Fraction(0)  # [P, P] = 0

    return make_lie_algebra(Tensor3.build(2 * n, fn))


def dualco_delta(gt: Tensor3, lt: Tensor3) -> Tensor3:
    """Cocommutator tensor of the semidual, from the double-cross-sum
    tensors (g_ab^c, L_ab^c) of dcs_constants.

    Defined for any F; it is a Lie cobracket (co-Jacobi) exactly when F
    satisfies the factorisation condition.
    """
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


@dataclass(frozen=True)
class Bialgebra:
    """Semidual Lie bialgebra: the (J, P) algebra plus its cocommutator,
    stored as delta[i][j][k] with delta(e_i) = delta[i][j][k] e_j (x) e_k."""

    algebra: LieAlgebra
    delta: Tensor3


def semidualize(g: LieAlgebra, F: Matrix, lam) -> Bialgebra:
    """Construct the semidual bialgebra of the decomposition defined by F.

    Requires the factorisation residual to vanish.  The dual pairing
    convention is P^a(Q'_b) = delta^a_b.  Antisymmetry and co-Jacobi of the
    cocommutator are asserted.
    """
    resid = factorization_check(g, F, lam)
    if not resid.is_zero():
        comps = ", ".join(f"[{a},{b}]->J_{c}: {v}" for a, b, c, v in resid.nonzero()[:6])
        raise NotAFactorisation(f"factorisation condition fails at {comps}")
    alg = semidual_algebra(g)
    delta = dualco_delta(*dcs_constants(g, F))
    n2 = alg.dim
    for i in range(n2):
        for j in range(n2):
            for k in range(n2):
                if delta[i, j, k] != -delta[i, k, j]:
                    raise AssertionError("cocommutator is not antisymmetric")
    bad = co_jacobi_violations(alg, delta)
    if bad:
        raise AssertionError(f"co-Jacobi fails at {bad[:3]}")
    return Bialgebra(alg, delta)


def co_jacobi_violations(alg: LieAlgebra, delta: Tensor3) -> list[tuple]:
    """Nonzero components of the cyclic sum of (delta (x) id) o delta."""
    n2 = alg.dim
    nz = {i: [] for i in range(n2)}
    for i, j, k, v in delta.nonzero():
        nz[i].append((j, k, v))
    bad = []
    for x in range(n2):
        acc: dict[tuple[int, int, int], Fraction] = {}
        for a, k, v in nz[x]:
            for i, j, w in nz[a]:
                key = (i, j, k)
                acc[key] = acc.get(key, Fraction(0)) + v * w
        for (i, j, k) in list(acc):
            total = (
                acc.get((i, j, k), Fraction(0))
                + acc.get((j, k, i), Fraction(0))
                + acc.get((k, i, j), Fraction(0))
            )
            if total != 0:
                bad.append((x, i, j, k, total))
    return bad


@dataclass(frozen=True)
class RMatrix:
    """r = R^b_a P^a /\\ J_b: the coefficient matrix plus the expansion into
    the full antisymmetric 2-tensor on the 2n-dim space (x/\\y = x(x)y - y(x)x)."""

    coeffs: Matrix
    tensor: Matrix


def r_matrix(F: Matrix) -> RMatrix:
    """The classical r-matrix of the semidual: r = F^b_a P^a /\\ J_b."""
    if F.rows != F.cols:
        raise DimensionMismatch("r-matrix coefficients must be square")
    n = F.rows

    def fn(i, j):
        if i >= n and j < n:
            return F[j, i - n]
        if i < n and j >= n:
            return -F[i, j - n]
        return Fraction(0)

    return RMatrix(F, Matrix.build(2 * n, 2 * n, fn))


def coboundary_delta(alg: LieAlgebra, r: RMatrix) -> Tensor3:
    """delta(x) = (ad_x (x) id + id (x) ad_x)(r) for each basis element."""
    n2 = alg.dim
    if r.tensor.rows != n2:
        raise DimensionMismatch("r-matrix does not live on the algebra's space")
    rt = r.tensor
    out = []
    for i in range(n2):
        plane = [[Fraction(0)] * n2 for _ in range(n2)]
        for m in range(n2):
            for j in range(n2):
                c = alg.f[i, m, j]
                if c == 0:
                    continue
                for k in range(n2):
                    v = rt[m, k]
                    if v != 0:
                        plane[j][k] += c * v
                    w = rt[k, m]
                    if w != 0:
                        plane[k][j] += c * w
        out.append(plane)
    return Tensor3(out)


def omega(alg: LieAlgebra) -> Tensor3:
    """The invariant element f_ab^c (P^a P^b J_c - P^a J_c P^b + J_c P^a P^b).

    Requires a semidual algebra (abelian P block); ad-invariance in all
    three slots is asserted.
    """
    n2 = alg.dim
    if n2 % 2 != 0:
        raise DimensionMismatch("invariant element needs a (J, P) algebra")
    n = n2 // 2
    for a in range(n, n2):
        for b in range(n, n2):
            for c in range(n2):
                if alg.f[a, b, c] != 0:
                    raise ValueError("P generators are not abelian")

    def fn(i, j, k):
        if i >= n and j >= n and k < n:
            return alg.f[i - n, j - n, k]
        if i >= n and j < n and k >= n:
            return -alg.f[i - n, k - n, j]
        if i < n and j >= n and k >= n:
            return alg.f[j - n, k - n, i]
        return Fraction(0)

    om = Tensor3.build(n2, fn)
    nz = om.nonzero()
    for x in range(n2):
        acc: dict[tuple[int, int, int], Fraction] = {}
        for i, j, k, v in nz:
            for m in range(n2):
                if alg.f[x, i, m] != 0:
                    key = (m, j, k)
                    acc[key] = acc.get(key, Fraction(0)) + alg.f[x, i, m] * v
                if alg.f[x, j, m] != 0:
                    key = (i, m, k)
                    acc[key] = acc.get(key, Fraction(0)) + alg.f[x, j, m] * v
                if alg.f[x, k, m] != 0:
                    key = (i, j, m)
                    acc[key] = acc.get(key, Fraction(0)) + alg.f[x, k, m] * v
        if any(v != 0 for v in acc.values()):
            raise AssertionError(f"invariant element is not ad-invariant under e_{x}")
    return om


def schouten(alg: LieAlgebra, r: RMatrix) -> Tensor3:
    """[[r, r]] = [r12,r13] + [r12,r23] + [r13,r23] by direct contraction."""
    n2 = alg.dim
    if r.tensor.rows != n2:
        raise DimensionMismatch("r-matrix does not live on the algebra's space")
    rnz = r.tensor.nonzero()
    cd: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for a in range(n2):
        for b in range(n2):
            entries = [(c, alg.f[a, b, c]) for c in range(n2) if alg.f[a, b, c] != 0]
            if entries:
                cd[(a, b)] = entries
    acc = [[[Fraction(0)] * n2 for _ in range(n2)] for _ in range(n2)]
    for a, j, va in rnz:
        for b, k, vb in rnz:
            for c, cv in cd.get((a, b), ()):
                acc[c][j][k] += va * vb * cv  # [r12, r13]
    for i, a, va in rnz:
        for b, k, vb in rnz:
            for c, cv in cd.get((a, b), ()):
                acc[i][c][k] += va * vb * cv  # [r12, r23]
    for i, a, va in rnz:
        for j, b, vb in rnz:
            for c, cv in cd.get((a, b), ()):
                acc[i][j][c] += va * vb * cv  # [r13, r23]
    return Tensor3(acc)


def mcybe_matrix_residual(g: LieAlgebra, R: Matrix, lam) -> Tensor3:
    """Matrix form of the mCYBE, directly in terms of R and f:

    res[e][a][c] = R^b_a R^c_d f_be^d - R^b_e R^c_d f_ba^d
                   + R^b_e R^d_a f_bd^c + lam f_ea^c.
    """
    lam = rat(lam)
    n = g.dim
    f = g.f

    def fn(e, a, c):
        acc = lam * f[e, a, c]
        for b in range(n):
            for d in range(n):
                acc += R[b, a] * R[c, d] * f[b, e, d]
                acc -= R[b, e] * R[c, d] * f[b, a, d]
                acc += R[b, e] * R[d, a] * f[b, d, c]
        return acc

    return Tensor3.build(n, fn)


def mcybe_check(alg: LieAlgebra, r: RMatrix, lam) -> Tensor3:
    """Residual [[r,r]] + lam Omega of the modified classical Yang-Baxter
    equation, cross-checked against the matrix-form residual.

    The P^e (x) P^a (x) J_c block of the tensor residual must equal the
    matrix-form residual componentwise (two independent code paths); a
    disagreement raises AssertionError.
    """
    lam = rat(lam)
    res = schouten(alg, r) + lam * omega(alg)
    n = alg.dim // 2
    g_block = LieAlgebra(n, Tensor3.build(n, lambda a, b, c: alg.f[a, b, c]))
    mat = mcybe_matrix_residual(g_block, r.coeffs, lam)
    for e in range(n):
        for a in range(n):
            for c in range(n):
                if res[n + e, n + a, c] != mat[e, a, c]:
                    raise AssertionError(
                        f"tensor and matrix mCYBE paths disagree at ({e},{a},{c})"
                    )
    if res.is_zero() != mat.is_zero():
        raise AssertionError("tensor and matrix mCYBE paths disagree on vanishing")
    return res
