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

import math
from collections import defaultdict
from dataclasses import dataclass

from .lie import LieAlgebra, make_lie_algebra
from .linalg import DimensionMismatch, Matrix, Tensor3, ValueCache, rat


def semidual_algebra(g: LieAlgebra) -> LieAlgebra:
    """The 2n-dim Lie algebra of the semidual on the (J, P) basis."""
    n = g.dim
    dt, table = g.f.int_table()
    sums = defaultdict(int)
    for (a, b), row in table.items():
        for c, v in row:
            sums[a, b, c] += v  # [J_a, J_b] = f_ab^c J_c
            sums[a, n + c, n + b] -= v  # [J_a, P^c] = -f_ab^c P^b
            sums[n + c, a, n + b] += v  # [P^c, J_a] = f_ab^c P^b
    return make_lie_algebra(Tensor3.from_ints(2 * n, dt, sums))


_SEMIDUALS = ValueCache()
_OMEGAS = ValueCache()
_J_BLOCKS = ValueCache()


def cached_semidual_algebra(g: LieAlgebra) -> LieAlgebra:
    """semidual_algebra(g), built (and Jacobi-checked) once per value of g
    while it stays among the cache's recent entries."""
    return _SEMIDUALS.get(g, lambda: semidual_algebra(g))


def cached_omega(alg: LieAlgebra) -> Tensor3:
    """omega(alg), built and checked for ad-invariance once per value of alg
    while it stays among the cache's recent entries."""
    return _OMEGAS.get(alg, lambda: omega(alg))


def dualco_delta(gt: Tensor3, lt: Tensor3) -> Tensor3:
    """Cocommutator tensor of the semidual, from the double-cross-sum
    tensors (g_ab^c, L_ab^c) of dcs_constants, with the dual pairing
    P^a(Q'_b) = delta^a_b.

    Defined for any F; it is a Lie cobracket (co-Jacobi) exactly when F
    satisfies the factorisation condition.
    """
    n = gt.dim
    (dg, gints), (dl, lints) = gt.int_table(), lt.int_table()
    den = math.lcm(dg, dl)
    sums = defaultdict(int)
    for (a, b), row in lints.items():
        for c, v in row:
            v *= den // dl
            sums[b, c, n + a] += v  # delta(J_b) has L_ab^c J_c (x) P^a
            sums[b, n + a, c] -= v  # and -L_ab^c P^a (x) J_c
    for (a, b), row in gints.items():
        for c, v in row:
            sums[n + c, n + a, n + b] += v * (den // dg)  # delta(P^c) has g_ab^c P^a (x) P^b
    return Tensor3.from_ints(2 * n, den, sums)


def dual_bracket(delta: Tensor3) -> Tensor3:
    """The bracket [e^j, e^k] = delta[i][j][k] e^i that delta puts on the dual
    space, t[j, k, i] = delta[i, j, k].  delta is antisymmetric and satisfies
    co-Jacobi exactly when t is antisymmetric and satisfies Jacobi."""
    den, ints = delta.int_table()
    return Tensor3.from_ints(delta.dim, den, {
        (j, k, i): v for (i, j), row in ints.items() for k, v in row})


@dataclass(frozen=True)
class RMatrix:
    """r = R^b_a P^a /\\ J_b: the coefficient matrix plus the expansion into
    the full antisymmetric 2-tensor on the 2n-dim space (x/\\y = x(x)y - y(x)x)."""

    coeffs: Matrix
    tensor: Matrix


def r_matrix(F: Matrix) -> RMatrix:
    """The classical r-matrix of the semidual: r = F^b_a P^a /\\ J_b, whose
    2n x 2n tensor is [[0, -F], [F^T, 0]] on (J, P)."""
    if F.rows != F.cols:
        raise DimensionMismatch("r-matrix coefficients must be square")
    n = F.rows
    den, rows = F.int_rows()
    top = [[(n + j, -v) for j, v in row] for row in rows]
    return RMatrix(F, Matrix.from_ints(2 * n, den, top + F.transpose().int_rows()[1]))


def coboundary_delta(alg: LieAlgebra, r: RMatrix) -> Tensor3:
    """delta(x) = (ad_x (x) id + id (x) ad_x)(r) for each basis element."""
    n2 = alg.dim
    if r.tensor.rows != n2:
        raise DimensionMismatch("r-matrix does not live on the algebra's space")
    dt, table = alg.f.int_table()
    dr, rows = r.tensor.int_rows()
    _, cols = r.tensor.transpose().int_rows()
    acc = defaultdict(int)
    for (i, m), row in table.items():
        for j, c in row:
            for k, v in rows[m]:
                acc[i, j, k] += c * v  # (ad_x (x) id)(r)
            for p, v in cols[m]:
                acc[i, p, j] += c * v  # (id (x) ad_x)(r)
    return Tensor3.from_ints(n2, dt * dr, acc)


def _j_block(alg: LieAlgebra) -> Tensor3:
    """The n-dim tensor f_ab^c of [J_a, J_b] = f_ab^c J_c in a (J, P) algebra."""
    n = alg.dim // 2
    den, ints = alg.f.int_table()
    return Tensor3.from_ints(n, den, {
        (a, b, c): v
        for (a, b), row in ints.items() if a < n and b < n
        for c, v in row if c < n
    })


def omega(alg: LieAlgebra) -> Tensor3:
    """The invariant element f_ab^c (P^a P^b J_c - P^a J_c P^b + J_c P^a P^b).

    Requires a semidual algebra (abelian P block); ad-invariance in all
    three slots is asserted.
    """
    n2 = alg.dim
    if n2 % 2 != 0:
        raise DimensionMismatch("invariant element needs a (J, P) algebra")
    n = n2 // 2
    _, ints = alg.f.int_table()
    if any(a >= n and b >= n for a, b in ints):
        raise ValueError("P generators are not abelian")
    dj, jints = _j_block(alg).int_table()
    sums = defaultdict(int)
    for (a, b), row in jints.items():
        for c, v in row:
            sums[n + a, n + b, c] += v
            sums[n + a, c, n + b] -= v
            sums[c, n + a, n + b] += v
    om = Tensor3.from_ints(n2, dj, sums)
    # (ad_x Omega)^pqr = f_xs^p Omega^sqr + f_xs^q Omega^psr + f_xs^r Omega^pqs:
    # each table row (x, s) meets the Omega entries that hold s in one slot.
    # The sums are products of one f and one Omega entry, so their ints
    # share one denominator and vanish exactly when the sums do.
    _, om_ints = om.int_table()
    # per slot: s -> [(the other two indices, the Omega entry)]
    first, second, third = {}, {}, {}
    for (i, j), row in om_ints.items():
        for k, v in row:
            first.setdefault(i, []).append((j, k, v))
            second.setdefault(j, []).append((i, k, v))
            third.setdefault(k, []).append((i, j, v))
    acc = defaultdict(int)
    for (x, s), row in ints.items():
        for m, w in row:
            for j, k, v in first.get(s, ()):
                acc[x, m, j, k] += w * v
            for i, k, v in second.get(s, ()):
                acc[x, i, m, k] += w * v
            for i, j, v in third.get(s, ()):
                acc[x, i, j, m] += w * v
    bad = min((key[0] for key, v in acc.items() if v), default=None)
    if bad is not None:
        raise AssertionError(f"invariant element is not ad-invariant under e_{bad}")
    return om


def schouten(alg: LieAlgebra, r: RMatrix) -> Tensor3:
    """[[r, r]] = [r12,r13] + [r12,r23] + [r13,r23] by direct contraction,
    in ints over the denominator dC dr^2 of C and r."""
    n2 = alg.dim
    if r.tensor.rows != n2:
        raise DimensionMismatch("r-matrix does not live on the algebra's space")
    dt, table = alg.f.int_table()
    dr, rows = r.tensor.int_rows()
    _, cols = r.tensor.transpose().int_rows()
    acc = defaultdict(int)
    for (a, b), row in table.items():
        for c, cv in row:
            for j, ra in rows[a]:
                u = ra * cv
                for k, rb in rows[b]:
                    acc[c, j, k] += u * rb  # [r12, r13]
            for i, ra in cols[a]:
                u = ra * cv
                for k, rb in rows[b]:
                    acc[i, c, k] += u * rb  # [r12, r23]
                for j, rb in cols[b]:
                    acc[i, j, c] += u * rb  # [r13, r23]
    return Tensor3.from_ints(n2, dt * dr * dr, acc)


def mcybe_matrix_residual(g: LieAlgebra, R: Matrix, lam) -> Tensor3:
    """Matrix form of the mCYBE, directly in terms of R and f:

    res[e][a][c] = R^b_a R^c_d f_be^d - R^b_e R^c_d f_ba^d
                   + R^b_e R^d_a f_bd^c + lam f_ea^c,

    summed in ints over the denominator df dR^2 lq of f, R and lam = lp/lq.
    """
    lp, lq = rat(lam).as_integer_ratio()
    dt, table = g.f.int_table()
    dr, rrows = R.int_rows()
    _, rcols = R.transpose().int_rows()
    lam_scale = lp * dr * dr
    acc = defaultdict(int)
    for (x, y), row in table.items():
        for z, v in row:
            acc[x, y, z] += lam_scale * v  # lam f_ea^c
            for p, rxp in rrows[x]:
                u = lq * rxp * v
                for q, rqz in rcols[z]:
                    t = u * rqz
                    acc[y, p, q] += t  # R^b_a R^c_d f_be^d
                    acc[p, y, q] -= t  # -R^b_e R^c_d f_ba^d
                for q, ryq in rrows[y]:
                    acc[p, q, z] += u * ryq  # R^b_e R^d_a f_bd^c
    return Tensor3.from_ints(g.dim, dt * dr * dr * lq, acc)


def mcybe_check(alg: LieAlgebra, r: RMatrix, lam) -> Tensor3:
    """Residual [[r,r]] + lam Omega of the modified classical Yang-Baxter
    equation, cross-checked against the matrix-form residual.

    The P^e (x) P^a (x) J_c block of the tensor residual must equal the
    matrix-form residual componentwise (two independent code paths); a
    disagreement raises AssertionError.
    """
    lam = rat(lam)
    res = schouten(alg, r) + lam * cached_omega(alg)
    n = alg.dim // 2
    # the J block depends on alg alone: built once per algebra, like Omega
    g_block = _J_BLOCKS.get(alg, lambda: LieAlgebra(n, _j_block(alg)))
    mat = mcybe_matrix_residual(g_block, r.coeffs, lam)
    # v / dr == w / dm exactly when v dm == w dr
    (dr, rints), (dm, mints) = res.int_table(), mat.int_table()
    block = {
        (i - n, j - n, k): v * dm
        for (i, j), row in rints.items() if i >= n and j >= n
        for k, v in row if k < n
    }
    expected = {(e, a, c): v * dr for (e, a), row in mints.items() for c, v in row}
    if block != expected:
        e, a, c = min(
            key for key in block.keys() | expected.keys() if block.get(key) != expected.get(key)
        )
        raise AssertionError(f"tensor and matrix mCYBE paths disagree at ({e},{a},{c})")
    if res.is_zero() != mat.is_zero():
        raise AssertionError("tensor and matrix mCYBE paths disagree on vanishing")
    return res
