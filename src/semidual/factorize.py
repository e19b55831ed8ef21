"""The factorisation map F and the double-cross-sum machinery.

F is an n x n rational matrix over the J-basis, F(J_a) = F[b][a] J_b.  The
central object is the closure condition

    [F(X), F(Y)] - F([X, F(Y)] + [F(X), Y]) = -lam [X, Y]

whose residual tensor is zero exactly when the generators Q'_a = Q_a +
F^b_a J_b close inside the complexification g_lam, i.e. g_lam = g |><| m.
For the 3d isometry algebras the condition has three more equivalent forms
(a quadratic matrix relation, and its scalar / vector / traceless
projections after splitting F = S + ad_V); all are exposed as residuals so
callers can report exactly which component fails.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .lie import LieAlgebra, MetricError, make_lie_algebra
from .linalg import (
    DimensionMismatch,
    Matrix,
    Tensor3,
    nullspace,
    rat,
    solve,
    vec_is_zero,
)
from . import lie


class ClosureFailure(ValueError):
    pass


class InternalMismatch(RuntimeError):
    """Direct bracket computation disagrees with the structure-constant
    formulas; this cross-checks two independent code paths and must never
    fire."""


class InconsistentSplit(ValueError):
    pass


def _check_square(g: LieAlgebra, F: Matrix):
    if F.rows != F.cols:
        raise DimensionMismatch("F must be square")
    if F.rows != g.dim:
        raise DimensionMismatch(f"F is {F.rows}x{F.cols} but algebra dim is {g.dim}")


def list_residual(entries) -> str:
    """The first six residual components (a, b, c, v) as "[a,b]->J_c: v",
    followed by ", and N more" when N further ones are left out."""
    shown = ", ".join(f"[{a},{b}]->J_{c}: {v}" for a, b, c, v in entries[:6])
    rest = len(entries) - 6
    return shown + (f", and {rest} more" if rest > 0 else "")


def dcs_constants(g: LieAlgebra, F: Matrix) -> tuple[Tensor3, Tensor3]:
    """Structure constants (g_ab^c, L_ab^c) of the would-be double cross sum.

    g_ab^c = f_ad^c F^d_b + F^d_a f_db^c,  L_ab^c = F^d_a f_db^c - F^c_d f_ab^d.
    Both are returned as computed; whether g defines a Lie algebra is the
    business of factorization_check.
    """
    _check_square(g, F)
    dt, table = g.f.int_table()
    df, frows = F.int_rows()
    _, fcols = F.transpose().int_rows()
    gt, lt = defaultdict(int), defaultdict(int)
    for (x, y), row in table.items():
        for z, v in row:
            for e, w in frows[y]:
                gt[x, e, z] += v * w  # f_ad^c F^d_b
            for e, w in frows[x]:
                fv = w * v  # F^d_a f_db^c
                gt[e, y, z] += fv
                lt[e, y, z] += fv
            for e, w in fcols[z]:
                lt[x, y, e] -= w * v  # -F^c_d f_ab^d
    return Tensor3.from_ints(g.dim, dt * df, gt), Tensor3.from_ints(g.dim, dt * df, lt)


def factorization_check(g: LieAlgebra, F: Matrix, lam) -> Tensor3:
    """Residual of the closure condition on all basis pairs.

    residual[a][b][c] is the J_c-component of
    [F J_a, F J_b] - F([J_a, F J_b] + [F J_a, J_b]) + lam [J_a, J_b];
    the all-zero tensor is equivalent to g_lam = g |><| m.  Each term is
    one contraction of the nonzero constants f_de^x with the nonzero
    entries of F, summed in ints over the denominator dt dF^2 q of
    f, F and lam = p/q.
    """
    _check_square(g, F)
    p, q = rat(lam).as_integer_ratio()
    dt, table = g.f.int_table()
    df, frows = F.int_rows()
    _, fcols = F.transpose().int_rows()
    lam_scale = p * df * df
    acc = defaultdict(int)
    for (d, e), row in table.items():
        for x, v in row:
            acc[d, e, x] += lam_scale * v  # lam [J_a, J_b], (a, b) = (d, e)
            for a, s in frows[d]:
                sv = q * s * v
                for b, t in frows[e]:
                    acc[a, b, x] += sv * t  # [F J_a, F J_b] = F^d_a F^e_b f_de^x J_x
                for c, w in fcols[x]:
                    acc[a, e, c] -= sv * w  # F [F J_a, J_b], b = e
            for b, t in frows[e]:
                tv = q * t * v
                for c, w in fcols[x]:
                    acc[d, b, c] -= tv * w  # F [J_a, F J_b], a = d
    return Tensor3.from_ints(g.dim, dt * df * df * q, acc)


@dataclass(frozen=True)
class DoubleCrossSum:
    """The decomposition data: m structure constants g, back-reaction L,
    the factor algebra m, and the (J,Q) -> (J,Q') basis change."""

    g_tensor: Tensor3
    l_tensor: Tensor3
    m_algebra: LieAlgebra
    basis_change: Matrix


def basis_change_matrix(F: Matrix) -> Matrix:
    """2n x 2n matrix whose columns are (J_a, Q'_a = Q_a + F^b_a J_b):
    the block matrix [[1, F], [0, 1]], over F's denominator."""
    n = F.rows
    den, rows = F.int_rows()
    top = [[(i, den)] + [(n + j, v) for j, v in row] for i, row in enumerate(rows)]
    return Matrix.from_ints(2 * n, den, top + [[(n + i, den)] for i in range(n)])


def verify_closure_in_complexification(g: LieAlgebra, F: Matrix, lam) -> DoubleCrossSum:
    """Build g_lam and rewrite its structure constants in the (J, Q') basis
    by one sparse change of basis, with the generic inverse of the
    basis-change matrix.

    The J-part of [Q'_a, Q'_b] in the new basis is the factorisation
    residual; if it is nonzero the generators do not close and
    ClosureFailure lists its first components.  Otherwise the new constants
    must equal [J,J] = f J, [Q'_a, J_b] = f_ab^c Q'_c + L_ab^c J_c,
    [Q'_a, Q'_b] = g_ab^c Q'_c with the tensors from dcs_constants; the
    first bracket pair (i, j) where they differ raises InternalMismatch
    (two independent code paths).
    """
    _check_square(g, F)
    n = g.dim
    B = basis_change_matrix(F)
    direct = lie.cached_complexify(g, lam).f.change_basis(B, B.inverse())

    dd, ints = direct.int_table()
    resid = [
        (i - n, j - n, c, Fraction(v, dd))
        for (i, j), row in ints.items() if i >= n and j >= n
        for c, v in row if c < n
    ]
    if resid:
        raise ClosureFailure(
            f"factorisation condition fails; nonzero residual at {list_residual(resid)}"
        )

    gt, lt = dcs_constants(g, F)
    (dg, gints), (dt, fints), (dl, lints) = gt.int_table(), g.f.int_table(), lt.int_table()
    den = math.lcm(dg, dt, dl)
    sums = defaultdict(int)
    for (a, b), row in gints.items():
        for c, v in row:
            sums[n + a, n + b, n + c] += v * (den // dg)
    for (a, b), row in fints.items():
        for c, v in row:
            v *= den // dt
            sums[a, b, c] += v
            sums[n + a, b, n + c] += v
            sums[b, n + a, n + c] -= v
    for (a, b), row in lints.items():
        for c, v in row:
            v *= den // dl
            sums[n + a, b, c] += v
            sums[b, n + a, c] -= v
    expected = Tensor3.from_ints(2 * n, den, sums)

    if direct != expected:
        i, j = min(
            ij
            for ij in direct.table.keys() | expected.table.keys()
            if direct.table.get(ij) != expected.table.get(ij)
        )
        pair = lambda t: tuple(t[i, j, c] for c in range(2 * n))
        raise InternalMismatch(
            f"bracket of new basis vectors {i},{j}: direct {pair(direct)} != "
            f"structure-constant form {pair(expected)}"
        )

    m_algebra = make_lie_algebra(gt)
    return DoubleCrossSum(gt, lt, m_algebra, B)


def adjugate(F: Matrix) -> Matrix:
    """Adjugate via the 3d quadratic polynomial F^2 - tr F F + ... id.

    Satisfies adj(F) F = F adj(F) = det F id and, on a metric algebra,
    <adj(F) Z, [X,Y]> = <Z, [F X, F Y]>.
    """
    if F.rows != 3 or F.cols != 3:
        raise DimensionMismatch("quadratic adjugate formula is specific to dim 3")
    f2 = F @ F
    t = F.trace()
    c = (t * t - f2.trace()) / 2
    return f2 - t * F + c * Matrix.identity(3)


def quadratic_condition(F: Matrix, g: LieAlgebra, lam) -> Matrix:
    """Residual of (F - tr F id)(F + F^t) + ((tr F)^2 - tr F^2)/2 id + lam id."""
    _check_square(g, F)
    if g.dim != 3:
        raise DimensionMismatch("quadratic form is specific to dim 3")
    if g.metric is None:
        raise MetricError("quadratic form needs the invariant metric for F^t")
    lam = rat(lam)
    ft = F.metric_transpose(g.metric)
    t = F.trace()
    c = (t * t - (F @ F).trace()) / 2
    eye = Matrix.identity(3)
    return (F - t * eye) @ (F + ft) + c * eye + lam * eye


@dataclass(frozen=True)
class SVSplit:
    """F = S + ad_V with S symmetric w.r.t. the metric and V in g."""

    algebra: LieAlgebra
    s: Matrix
    v: tuple[Fraction, ...]


def split_sv(F: Matrix, g: LieAlgebra) -> SVSplit:
    """Split F into its metric-symmetric part and the adjoint of an element.

    The antisymmetric part A = (F - F^t)/2 is expressed as ad_V by an exact
    linear solve; in 3d with an invertible metric the system is always
    consistent for metric-antisymmetric A.
    """
    _check_square(g, F)
    if g.dim != 3:
        raise DimensionMismatch("S/ad_V split is specific to dim 3")
    if g.metric is None:
        raise MetricError("S/ad_V split needs the invariant metric")
    ft = F.metric_transpose(g.metric)
    s = (F + ft) * Fraction(1, 2)
    a = (F - ft) * Fraction(1, 2)
    n = g.dim
    # equations A[c][b] = sum_a V^a f[a][b][c], unknowns V^a
    rows, rhs = [], []
    for c in range(n):
        for b in range(n):
            rows.append([g.f[x, b, c] for x in range(n)])
            rhs.append(a[c, b])
    v = solve(Matrix(rows), rhs)
    if v is None:
        raise InconsistentSplit("antisymmetric part is not an adjoint action")
    if s + g.ad(v) != F:
        raise InconsistentSplit("S + ad_V does not reconstruct F")
    return SVSplit(g, s, v)


@dataclass(frozen=True)
class ProjectedResiduals:
    """Left-minus-right of the scalar / vector / traceless projections."""

    scalar: Fraction
    vector: Matrix
    traceless: Matrix

    def is_zero(self) -> bool:
        return self.scalar == 0 and self.vector.is_zero() and self.traceless.is_zero()


def projected_equations(split: SVSplit, lam) -> ProjectedResiduals:
    """Project the quadratic condition onto its irreducible parts.

    scalar:    ((tr S)^2 - tr S^2)/6 - lam - <V,V>
    vector:    {ad_V, S}
    traceless: [ad_V, S] + 2(S^2 - tr(S^2)/3 id) - 2(tr S S - (tr S)^2/3 id)

    The anticommutator-free combination ad_V S + (S^2 - tr(S^2)/3 id)
    - (tr S S - (tr S)^2/3 id) equals (vector + traceless)/2, so it is not
    a separate residual.
    """
    lam = rat(lam)
    g, s = split.algebra, split.s
    adv = g.ad(split.v)
    eye = Matrix.identity(g.dim)
    tr_s = s.trace()
    s2 = s @ s
    tr_s2 = s2.trace()
    vv = g.inner(split.v, split.v)
    scalar = (tr_s * tr_s - tr_s2) / 6 - lam - vv
    vector = adv @ s + s @ adv
    traceless = (
        (adv @ s - s @ adv)
        + 2 * (s2 - Fraction(1, 3) * tr_s2 * eye)
        - 2 * (tr_s * s - Fraction(1, 3) * tr_s * tr_s * eye)
    )
    return ProjectedResiduals(scalar, vector, traceless)


def master_residual(split: SVSplit, lam) -> Matrix:
    """Residual of 2S^2 - 2 tr S S + ((tr S)^2 - tr S^2)/2 id + 2 ad_V S
    + (lam + <V,V>) id; identical to the quadratic residual of S + ad_V."""
    lam = rat(lam)
    g, s = split.algebra, split.s
    adv = g.ad(split.v)
    eye = Matrix.identity(g.dim)
    tr_s = s.trace()
    s2 = s @ s
    c = (tr_s * tr_s - s2.trace()) / 2
    vv = g.inner(split.v, split.v)
    return 2 * s2 - 2 * tr_s * s + c * eye + 2 * (adv @ s) + (lam + vv) * eye


@dataclass(frozen=True)
class KernelReport:
    """What the kernel lemma says about a split, and whether it holds.

    The lemma constrains solutions of the factorisation condition only; for
    other F the report is marked not applicable.
    """

    applicable: bool
    s_invertible: bool
    ker_dim: int
    ker_is_null: bool | None
    v_zero: bool
    lemma_holds: bool | None
    note: str


def lemma_kernel_checks(split: SVSplit, lam) -> KernelReport:
    g = split.algebra
    applicable = master_residual(split, lam).is_zero()
    ker = nullspace(split.s)
    ker_dim = len(ker)
    s_invertible = ker_dim == 0
    ker_is_null = None
    if ker_dim:
        ker_is_null = all(
            g.inner(u, w) == 0 for u in ker for w in ker
        )
    v_zero = vec_is_zero(split.v)
    if not applicable:
        return KernelReport(
            False, s_invertible, ker_dim, ker_is_null, v_zero, None,
            "not applicable: F does not satisfy the factorisation condition",
        )
    ok = True
    notes = []
    if s_invertible:
        ok = v_zero
        notes.append("S invertible => V = 0")
    elif ker_dim == 1 and not ker_is_null:
        ok = v_zero
        notes.append("dim ker S = 1 with non-null kernel => V = 0")
    else:
        notes.append("lemma not constraining")
    return KernelReport(
        True, s_invertible, ker_dim, ker_is_null, v_zero, ok, "; ".join(notes)
    )
