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


def dcs_constants(g: LieAlgebra, F: Matrix) -> tuple[Tensor3, Tensor3]:
    """Structure constants (g_ab^c, L_ab^c) of the would-be double cross sum.

    g_ab^c = f_ad^c F^d_b + F^d_a f_db^c,  L_ab^c = F^d_a f_db^c - F^c_d f_ab^d.
    Both are returned as computed; whether g defines a Lie algebra is the
    business of factorization_check.
    """
    _check_square(g, F)
    n = g.dim
    f = g.f

    def g_fn(a, b, c):
        return sum(
            (f[a, d, c] * F[d, b] + F[d, a] * f[d, b, c] for d in range(n)),
            Fraction(0),
        )

    def l_fn(a, b, c):
        return sum(
            (F[d, a] * f[d, b, c] - F[c, d] * f[a, b, d] for d in range(n)),
            Fraction(0),
        )

    return Tensor3.build(n, g_fn), Tensor3.build(n, l_fn)


def factorization_check(g: LieAlgebra, F: Matrix, lam) -> Tensor3:
    """Residual of the closure condition on all basis pairs.

    residual[a][b][c] is the J_c-component of
    [F J_a, F J_b] - F([J_a, F J_b] + [F J_a, J_b]) + lam [J_a, J_b];
    the all-zero tensor is equivalent to g_lam = g |><| m.
    """
    _check_square(g, F)
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


@dataclass(frozen=True)
class DoubleCrossSum:
    """The decomposition data: m structure constants g, back-reaction L,
    the factor algebra m, and the (J,Q) -> (J,Q') basis change."""

    g_tensor: Tensor3
    l_tensor: Tensor3
    m_algebra: LieAlgebra
    basis_change: Matrix


def basis_change_matrix(F: Matrix) -> Matrix:
    """2n x 2n matrix whose columns are (J_a, Q'_a = Q_a + F^b_a J_b)."""
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


def verify_closure_in_complexification(g: LieAlgebra, F: Matrix, lam) -> DoubleCrossSum:
    """Build g_lam, change basis to (J, Q'), and recompute every bracket.

    The J-part of [Q'_a, Q'_b] in the new basis is the factorisation
    residual; if it is nonzero the generators do not close and
    ClosureFailure lists its first components.  Otherwise the brackets
    computed directly in the new basis must match
    [J,J] = f J, [Q'_a, J_b] = f_ab^c Q'_c + L_ab^c J_c,
    [Q'_a, Q'_b] = g_ab^c Q'_c with the tensors from dcs_constants; a
    mismatch raises InternalMismatch (two independent code paths).
    """
    _check_square(g, F)
    n = g.dim
    glam = lie.complexify(g, lam)
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

    gt, lt = dcs_constants(g, F)

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
