"""Constructors for every solution family of the factorisation condition
over so(3) / so(2,1), returning exact F matrices plus metadata.

All square roots enter as explicit rational parameters validated by
squaring; constructors never compute roots, so admissible lambda values are
those with rational |lambda|^(1/2) (0, +-1, +-4, ...).

The conventionally normalised null generators N = (J_0+J_2)/sqrt(2) are
irrational in the J-basis.  We work with the rational pair

    n = J_0 + J_2,    ntilde = (J_0 - J_2)/2,

which satisfies the identical relations <n,n> = <ntilde,ntilde> = 0,
<n,ntilde> = 1, [ntilde,n] = J_1, [J_1,n] = n, [J_1,ntilde] = -ntilde.
The boost that rescales N -> n conjugates the light-cone Jordan families
into the rational forms used below with the same beta, so every bracket
identity stated for (N, Ntilde) holds verbatim with (n, ntilde).  The true
projector |N><N| itself is rational (entries +-1/2) and is used as such.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bianchi import BianchiType
from .factorize import factorization_check
from .lie import LieAlgebra, is_lorentzian, isometry_algebras, outer
from .linalg import Matrix, rat, vec


class ConstraintViolation(ValueError):
    """A family parameter constraint fails; the message names the relation."""


class NonzeroLambda(ConstraintViolation):
    pass


class LambdaNotPositive(ConstraintViolation):
    pass


class BadSquareRoot(ConstraintViolation):
    pass


class EuclideanMetric(ConstraintViolation):
    pass


class Family(str, enum.Enum):
    ZERO = "zero"
    DOUBLE = "double"
    KAPPA = "kappa"
    GENKAPPA = "genkappa"
    RANKONE = "rankone"
    SMALL_JORDAN = "small-jordan"
    LIGHT_JORDAN = "light-jordan"
    LARGE_JORDAN = "large-jordan"


@dataclass(frozen=True)
class SolutionInstance:
    family: Family
    algebra: LieAlgebra
    F: Matrix
    lam: Fraction
    params: dict = field(default_factory=dict)
    expected_bianchi: BianchiType | None = None


NULL_N = vec([1, 0, 1])  # n = J_0 + J_2
NULL_NTILDE = vec([Fraction(1, 2), 0, Fraction(-1, 2)])  # ntilde = (J_0 - J_2)/2
J1 = vec([0, 1, 0])


def _require_metric(g: LieAlgebra):
    if g.dim != 3 or g.metric is None:
        raise ConstraintViolation("solution families need a 3d metric algebra")


def _finish(family, g, F, lam, params, expected) -> SolutionInstance:
    inst = SolutionInstance(family, g, F, rat(lam), params, expected)
    if not factorization_check(g, F, inst.lam).is_zero():
        raise AssertionError("constructed instance fails the factorisation condition")
    return inst


def zero_solution(g: LieAlgebra, lam) -> SolutionInstance:
    """F = 0; valid only for lam = 0, m is abelian (type I)."""
    _require_metric(g)
    lam = rat(lam)
    if lam != 0:
        raise NonzeroLambda("F = 0 requires lambda = 0 (0 = -lambda [X,Y] otherwise)")
    return _finish(
        Family.ZERO, g, Matrix.zeros(3), lam, {}, BianchiType("I")
    )


def double_solution(g: LieAlgebra, lam, sqrt_lambda) -> SolutionInstance:
    """F = sqrt(lambda) id; only a valid and non-trivial solution if lambda > 0."""
    _require_metric(g)
    lam, s = rat(lam), rat(sqrt_lambda)
    if lam <= 0:
        raise LambdaNotPositive("F = sqrt(lambda) id is only a solution for lambda > 0")
    if s * s != lam:
        raise BadSquareRoot(f"sqrt_lambda^2 = {s * s} != lambda = {lam}")
    expected = BianchiType("VIII" if is_lorentzian(g) else "IX")
    return _finish(
        Family.DOUBLE, g, s * Matrix.identity(3), lam,
        {"sqrt_lambda": s}, expected,
    )


def _norm(g: LieAlgebra, v) -> Fraction:
    return g.inner(v, v)


def _genkappa_expected(g, v, beta, alpha, lam) -> BianchiType:
    nv = _norm(g, v)
    if all(x == 0 for x in v) or (beta == 0 and alpha == 0):
        return BianchiType("I")
    if alpha == 0:
        if nv > 0:
            return BianchiType("VII")
        if nv < 0:
            return BianchiType("VI")
        return BianchiType("II")
    if beta == 0:
        return BianchiType("V")
    if nv > 0:
        return BianchiType("VII")
    if nv == 0:
        return BianchiType("IV")
    return BianchiType("III") if beta * beta * lam == 1 else BianchiType("VI")


def generalized_kappa(g: LieAlgebra, v: Sequence, beta, alpha, lam) -> SolutionInstance:
    """F = beta |V><V| + alpha ad_V with V = -v^a J_a and alpha <V,V> = -lambda.

    alpha is 0 or 1; alpha = 0 forces lambda = 0 (the rank-one family),
    alpha = 1 ties lambda to the causal type of v.
    """
    _require_metric(g)
    vv, beta, lam = vec(v), rat(beta), rat(lam)
    if alpha not in (0, 1):
        raise ConstraintViolation(f"alpha must be 0 or 1, got {alpha}")
    norm = _norm(g, vv)
    if alpha * norm != -lam:
        raise ConstraintViolation(
            f"alpha <V,V> = -lambda violated: alpha = {alpha}, <V,V> = {norm}, "
            f"lambda = {lam}"
        )
    F = beta * outer(g, vv, vv)
    if alpha == 1:
        F = F + g.ad(tuple(-x for x in vv))
    expected = _genkappa_expected(g, vv, beta, alpha, lam)
    return _finish(
        Family.GENKAPPA, g, F, lam,
        {"v": vv, "beta": beta, "alpha": rat(alpha)}, expected,
    )


def kappa_solution(g: LieAlgebra, v: Sequence, lam) -> SolutionInstance:
    """The pure ad_V solution, r = v^c eps^b_ac P^a /\\ J_b (beta = 0)."""
    inst = generalized_kappa(g, v, 0, 1, lam)
    return SolutionInstance(
        Family.KAPPA, inst.algebra, inst.F, inst.lam, inst.params,
        inst.expected_bianchi,
    )


def rank_one(g: LieAlgebra, m: Sequence, beta) -> SolutionInstance:
    """F = beta m^b m_a, the purely symmetric lambda = 0 family."""
    inst = generalized_kappa(g, m, beta, 0, 0)
    return SolutionInstance(
        Family.RANKONE, inst.algebra, inst.F, inst.lam,
        {"m": inst.params["v"], "beta": inst.params["beta"]},
        inst.expected_bianchi,
    )


def small_jordan(g: LieAlgebra, beta, lam, sqrt_lambda) -> SolutionInstance:
    """F = beta |N><N| - sqrt(lam) |J_1><J_1| + sqrt(lam) ad_{J_1}, lam > 0.

    |N><N| has the exact rational entries +-1/2 in the J-basis (the sqrt(2)
    normalisations cancel).  Lorentzian only: N is null.
    """
    if not is_lorentzian(g):
        raise EuclideanMetric("the small-Jordan family needs a null vector N")
    beta, lam, s = rat(beta), rat(lam), rat(sqrt_lambda)
    if lam <= 0:
        raise LambdaNotPositive("the small-Jordan family requires lambda > 0")
    if s * s != lam:
        raise BadSquareRoot(f"sqrt_lambda^2 = {s * s} != lambda = {lam}")
    proj_nn = Fraction(1, 2) * outer(g, NULL_N, NULL_N)
    F = beta * proj_nn - s * outer(g, J1, J1) + s * g.ad(J1)
    return _finish(
        Family.SMALL_JORDAN, g, F, lam,
        {"beta": beta, "sqrt_lambda": s}, BianchiType("III"),
    )


def light_jordan(g: LieAlgebra, beta) -> SolutionInstance:
    """F = beta |n><n| + ad_n with the rational null generator n, lam = 0.

    Equals generalized_kappa with the lightlike vector v = -(1,0,1); type V
    for beta = 0 and IV otherwise.
    """
    if not is_lorentzian(g):
        raise EuclideanMetric("the light-Jordan family needs a null vector N")
    beta = rat(beta)
    F = beta * outer(g, NULL_N, NULL_N) + g.ad(NULL_N)
    expected = BianchiType("V") if beta == 0 else BianchiType("IV")
    return _finish(Family.LIGHT_JORDAN, g, F, 0, {"beta": beta}, expected)


def large_jordan(g: LieAlgebra, beta) -> SolutionInstance:
    """F = beta |J_1><n|, lam = 0; type III (I in the trivial case beta = 0)."""
    if not is_lorentzian(g):
        raise EuclideanMetric("the large-Jordan family needs a null vector N")
    beta = rat(beta)
    F = beta * outer(g, J1, NULL_N)
    expected = BianchiType("I") if beta == 0 else BianchiType("III")
    return _finish(Family.LARGE_JORDAN, g, F, 0, {"beta": beta}, expected)


def rho_theta(lam, sqrt_abs_lambda) -> Matrix:
    """The 2x2 matrix representing theta^2 = lambda on the R^2 factor:
    a rotation generator for lam < 0, the nilpotent matrix for lam = 0,
    a boost generator for lam > 0."""
    lam, s = rat(lam), rat(sqrt_abs_lambda)
    if s * s != abs(lam):
        raise BadSquareRoot(f"sqrt_abs_lambda^2 = {s * s} != |lambda| = {abs(lam)}")
    if lam < 0:
        return Matrix([[0, s], [-s, 0]])
    if lam == 0:
        return Matrix([[0, 1], [0, 0]])
    return Matrix([[s, 0], [0, -s]])


# Parameter tables for the standard sweep: rational vectors of every causal
# type whose norm matches each admissible lambda (alpha <V,V> = -lambda).
SWEEP_BETAS = tuple(rat(b) for b in (-2, -1, 0, 1, 2, Fraction(1, 2)))
EUCLIDEAN_V = {
    rat(-1): (vec([1, 0, 0]), vec([Fraction(3, 5), Fraction(4, 5), 0])),
    rat(-4): (vec([2, 0, 0]), vec([Fraction(6, 5), Fraction(8, 5), 0])),
}
LORENTZIAN_V = {
    rat(-1): (vec([1, 0, 0]), vec([Fraction(5, 4), Fraction(3, 4), 0])),
    rat(-4): (vec([2, 0, 0]),),
    rat(1): (vec([0, 1, 0]), vec([Fraction(3, 4), Fraction(5, 4), 0])),
    rat(4): (vec([0, 2, 0]),),
    rat(0): (vec([1, 0, 1]), vec([-1, 0, -1]), vec([5, 3, 4])),
}
RANKONE_M_EUCLIDEAN = (vec([1, 0, 0]), vec([3, 4, 0]))
RANKONE_M_LORENTZIAN = (vec([1, 0, 0]), vec([0, 1, 0]), vec([1, 0, 1]))
DOUBLE_PARAMS = ((rat(1), rat(1)), (rat(4), rat(2)))


def standard_sweep(include_rank_one=True):
    """Every family instance over the standard parameter grid, on the shared
    so3 and so21 of `isometry_algebras()`.

    beta runs over SWEEP_BETAS, lambda over {-4,-1,0,1,4} as admissible per
    family, and v over a fixed list of rational vectors of each causal type.
    """
    so3_algebra, so21_algebra = isometry_algebras()
    out: list[SolutionInstance] = []
    for g, v_table, m_table in (
        (so3_algebra, EUCLIDEAN_V, RANKONE_M_EUCLIDEAN),
        (so21_algebra, LORENTZIAN_V, RANKONE_M_LORENTZIAN),
    ):
        out.append(zero_solution(g, 0))
        for lam, s in DOUBLE_PARAMS:
            out.append(double_solution(g, lam, s))
        for lam, vs in v_table.items():
            for v in vs:
                for beta in SWEEP_BETAS:
                    out.append(generalized_kappa(g, v, beta, 1, lam))
        if include_rank_one:
            for m in m_table:
                for beta in SWEEP_BETAS:
                    out.append(rank_one(g, m, beta))
    g = so21_algebra
    for lam, s in DOUBLE_PARAMS:
        for beta in SWEEP_BETAS:
            out.append(small_jordan(g, beta, lam, s))
    for beta in SWEEP_BETAS:
        out.append(light_jordan(g, beta))
        out.append(large_jordan(g, beta))
    return out
