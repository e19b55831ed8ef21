from fractions import Fraction

import pytest

from semidual.factorize import (
    basis_change_matrix,
    split_sv,
    verify_closure_in_complexification,
)
from semidual.lie import complexify, outer
from semidual.linalg import Matrix, _row_reduce, solve
from semidual.solutions import (
    NULL_N,
    NULL_NTILDE,
    BadSquareRoot,
    ConstraintViolation,
    EuclideanMetric,
    Family,
    LambdaNotPositive,
    NonzeroLambda,
    double_solution,
    generalized_kappa,
    kappa_solution,
    large_jordan,
    light_jordan,
    rank_one,
    rho_theta,
    small_jordan,
    standard_sweep,
    zero_solution,
)
from conftest import classify_factor


def basis(a, n=3):
    return tuple(Fraction(1) if i == a else Fraction(0) for i in range(n))


class TestConstructorErrors:
    def test_zero_nonzero_lambda(self, euclid):
        with pytest.raises(NonzeroLambda):
            zero_solution(euclid, 1)

    def test_double_negative_lambda(self, euclid):
        with pytest.raises(LambdaNotPositive):
            double_solution(euclid, -1, 1)

    def test_double_bad_root(self, euclid):
        with pytest.raises(BadSquareRoot):
            double_solution(euclid, 4, 1)

    def test_genkappa_norm_constraint(self, lorentz):
        with pytest.raises(ConstraintViolation):
            generalized_kappa(lorentz, (1, 0, 0), 1, 1, 1)  # <v,v> = 1, need -1

    def test_genkappa_alpha_range(self, lorentz):
        with pytest.raises(ConstraintViolation):
            generalized_kappa(lorentz, (1, 0, 1), 1, 2, 0)

    def test_rank_one_forces_lambda_zero(self, lorentz):
        # alpha = 0 with lambda != 0 is impossible by the constraint
        with pytest.raises(ConstraintViolation):
            generalized_kappa(lorentz, (1, 0, 0), 1, 0, -1)

    def test_small_jordan_euclidean(self, euclid):
        with pytest.raises(EuclideanMetric):
            small_jordan(euclid, 1, 1, 1)

    def test_small_jordan_lambda(self, lorentz):
        with pytest.raises(LambdaNotPositive):
            small_jordan(lorentz, 1, -1, 1)
        with pytest.raises(BadSquareRoot):
            small_jordan(lorentz, 1, 4, 1)

    def test_light_large_euclidean(self, euclid):
        with pytest.raises(EuclideanMetric):
            light_jordan(euclid, 1)
        with pytest.raises(EuclideanMetric):
            large_jordan(euclid, 1)


class TestProjectors:
    def test_null_projector_oracle(self, lorentz):
        # |N><N| with entries +-1/2: oracle is X -> N <N, X> = n <n, X> / 2
        proj = Fraction(1, 2) * outer(lorentz, NULL_N, NULL_N)
        for a in range(3):
            x = basis(a)
            pairing = lorentz.inner(NULL_N, x)
            want = tuple(Fraction(1, 2) * pairing * v for v in NULL_N)
            assert proj.apply(x) == want
        assert proj == Matrix([
            [Fraction(1, 2), 0, Fraction(-1, 2)],
            [0, 0, 0],
            [Fraction(1, 2), 0, Fraction(-1, 2)],
        ])

    def test_null_pair_relations(self, lorentz):
        # the rational null pair satisfies the same relations as (N, Ntilde)
        n, nt, j1 = NULL_N, NULL_NTILDE, basis(1)
        assert lorentz.inner(n, n) == 0
        assert lorentz.inner(nt, nt) == 0
        assert lorentz.inner(n, nt) == 1
        assert lorentz.bracket(nt, n) == j1
        assert lorentz.bracket(j1, n) == n
        assert lorentz.bracket(j1, nt) == tuple(-v for v in nt)

    def test_small_jordan_matrix_frozen(self, lorentz):
        inst = small_jordan(lorentz, 1, 1, 1)
        assert inst.F == Matrix([
            [Fraction(1, 2), 0, Fraction(1, 2)],
            [0, 1, 0],
            [Fraction(3, 2), 0, Fraction(-1, 2)],
        ])

    def test_large_jordan_matrix(self, lorentz):
        inst = large_jordan(lorentz, 2)
        assert inst.F == Matrix([[0, 0, 0], [2, 0, -2], [0, 0, 0]])


class TestFamilyIdentifications:
    def test_light_jordan_is_lightlike_genkappa(self, lorentz):
        # F = beta |n><n| + ad_n equals the generalized solution with the
        # lightlike vector v = -(1,0,1) and the same beta, exactly
        for beta in (0, 1, Fraction(-3, 2)):
            lj = light_jordan(lorentz, beta)
            gk = generalized_kappa(lorentz, (-1, 0, -1), beta, 1, 0)
            assert lj.F == gk.F

    def test_kappa_is_genkappa_beta_zero(self, euclid):
        k = kappa_solution(euclid, (1, 0, 0), -1)
        gk = generalized_kappa(euclid, (1, 0, 0), 0, 1, -1)
        assert k.F == gk.F
        assert k.family is Family.KAPPA

    def test_small_jordan_sqrt_to_zero_is_rank_one(self, lorentz):
        # substituting sqrt(lambda) -> 0 in the small-Jordan coefficients
        # leaves beta |N><N| = rank_one(m = n, beta/2); the lightlike
        # rank-one family, not the light-Jordan map (which keeps ad_n)
        beta = Fraction(4)
        truncated = beta * Fraction(1, 2) * outer(lorentz, NULL_N, NULL_N)
        ro = rank_one(lorentz, (1, 0, 1), beta / 2)
        assert truncated == ro.F

    def test_large_jordan_beta_zero_is_zero_solution(self, lorentz):
        assert large_jordan(lorentz, 0).F == Matrix.zeros(3)


class TestSplitInvariants:
    def test_genkappa_split(self, lorentz):
        # S = beta |V><V|, antisymmetric part = ad_V with V = -v
        for v, lam in (((1, 0, 0), -1), ((0, 1, 0), 1), ((1, 0, 1), 0)):
            for beta in (0, 1, Fraction(5, 2)):
                inst = generalized_kappa(lorentz, v, beta, 1, lam)
                sp = split_sv(inst.F, lorentz)
                assert sp.s == beta * outer(lorentz, v, v)
                assert sp.v == tuple(-Fraction(x) for x in v)


class TestRhoTheta:
    def test_cases(self):
        assert rho_theta(-1, 1) == Matrix([[0, 1], [-1, 0]])
        assert rho_theta(0, 0) == Matrix([[0, 1], [0, 0]])
        assert rho_theta(4, 2) == Matrix([[2, 0], [0, -2]])

    def test_bad_root(self):
        with pytest.raises(BadSquareRoot):
            rho_theta(4, 1)

    def test_squares_to_lambda(self):
        for lam, s in ((-4, 2), (-1, 1), (0, 0), (1, 1), (4, 2)):
            rho = rho_theta(lam, s)
            assert rho @ rho == lam * Matrix.identity(2)


def derived_action(m_alg):
    """Action of a complement generator on the 2d derived ideal of R |x R^2."""
    brackets = [
        list(m_alg.bracket(basis(i), basis(j)))
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    rows = [b for b in brackets if any(v != 0 for v in b)]
    reduced, pivots = _row_reduce(rows)
    ideal = [tuple(reduced[r]) for r in range(len(pivots))]
    assert len(ideal) == 2, "derived subalgebra is not two-dimensional"
    comp = next(i for i in range(3) if i not in pivots)
    span = Matrix([[ideal[0][i], ideal[1][i]] for i in range(3)])
    cols = []
    for d in ideal:
        image = m_alg.bracket(basis(comp), d)
        coeffs = solve(span, image)
        assert coeffs is not None, "derived subalgebra is not an ideal"
        cols.append(coeffs)
    return Matrix([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])


class TestRActionStructure:
    """The beta-component of the R-action on R^2 has the eigenvalue /
    Jordan structure of rho(theta): distinct real pair for lambda > 0,
    complex pair for lambda < 0, nontrivial nilpotent part for lambda = 0."""

    CASES = [
        ("euclid", (1, 0, 0), -1),
        ("euclid", (Fraction(3, 5), Fraction(4, 5), 0), -1),
        ("lorentz", (1, 0, 0), -1),
        ("lorentz", (2, 0, 0), -4),
        ("lorentz", (0, 1, 0), 1),
        ("lorentz", (0, 2, 0), 4),
        ("lorentz", (1, 0, 1), 0),
        ("lorentz", (5, 3, 4), 0),
    ]

    @pytest.mark.parametrize("which, v, lam", CASES)
    def test_traceless_part_matches_rho(self, euclid, lorentz, which, v, lam):
        g = euclid if which == "euclid" else lorentz
        for beta in (1, 2, Fraction(-1, 2)):
            if lam > 0 and beta * beta * lam == 1:
                continue  # degenerate type III boundary, ideal is 1d
            inst = generalized_kappa(g, v, beta, 1, lam)
            dcs = verify_closure_in_complexification(g, inst.F, lam)
            t = derived_action(dcs.m_algebra)
            half_tr = t.trace() / 2
            t0 = t - half_tr * Matrix.identity(2)
            if lam < 0:
                assert t0.det() > 0  # complex eigenvalue pair
            elif lam > 0:
                assert t0.det() < 0  # distinct real eigenvalues
            else:
                assert not t0.is_zero()
                assert (t0 @ t0).is_zero()  # nontrivial nilpotent part


class TestExpectedTypes:
    def test_pure_kappa_is_scaling_type_v(self, euclid, lorentz):
        # beta = 0: the R-action is pure scaling (Bianchi V), every causal type
        for g, v, lam in (
            (euclid, (1, 0, 0), -1),
            (lorentz, (0, 1, 0), 1),
            (lorentz, (1, 0, 1), 0),
        ):
            inst = kappa_solution(g, v, lam)
            assert classify_factor(inst).label == "V"

    def test_spacelike_degenerate_beta_is_iii(self, lorentz):
        # beta^2 lambda = 1 makes one eigenvalue vanish: R (+) L(2)
        inst = generalized_kappa(lorentz, (0, 1, 0), 1, 1, 1)
        assert classify_factor(inst).label == "III"
        inst = generalized_kappa(lorentz, (0, 2, 0), Fraction(1, 2), 1, 4)
        assert classify_factor(inst).label == "III"

    def test_rank_one_types(self, euclid, lorentz):
        assert classify_factor(rank_one(euclid, (1, 0, 0), 1)).label == "VII"
        assert classify_factor(rank_one(lorentz, (1, 0, 0), 1)).label == "VII"
        assert classify_factor(rank_one(lorentz, (0, 1, 0), 1)).label == "VI"
        assert classify_factor(rank_one(lorentz, (1, 0, 0), 0)).label == "I"

    def test_rank_one_lightlike_variants(self, lorentz):
        # F = m^b m_a trivially satisfies the condition for any lightlike m
        for m in ((1, 1, 0), (5, 3, 4), (1, 0, -1)):
            inst = rank_one(lorentz, m, 1)  # construction asserts validity
            assert classify_factor(inst).label == "II"

    def test_rank_one_lightlike_is_heisenberg(self, lorentz):
        # the nilpotent R-action of the lightlike rank-one family is the
        # Heisenberg algebra; the summary table's IV-VII row does not cover
        # this boundary case (reported as computed)
        inst = rank_one(lorentz, (1, 0, 1), 1)
        assert inst.expected_bianchi.label == "II"
        assert classify_factor(inst).label == "II"

    def test_sweep_expected_matches_computed(self, euclid, lorentz):
        for inst in standard_sweep()[::7]:
            assert classify_factor(inst).label == inst.expected_bianchi.label


class TestMixedCommutators:
    def test_euclidean_timelike_mixed_commutators(self, euclid):
        """The [J, Q'] commutators of the Euclidean lambda = -1 solution,
        recomputed directly in g_lam and frozen.

        Sign-sensitive entries: [J_1,Q'_2] = Q'_0 + beta*lam J_0,
        [J_2,Q'_1] = -Q'_0 - beta*lam J_0, and [J_1,Q'_1] = [J_2,Q'_2] =
        -sqrt(-lam) J_0.
        """
        lam = Fraction(-1)
        for beta in (Fraction(0), Fraction(1), Fraction(2)):
            inst = generalized_kappa(euclid, (1, 0, 0), beta, 1, lam)
            glam = complexify(euclid, lam)
            b = basis_change_matrix(inst.F)
            binv = b.inverse()

            def bra(i, j):
                return binv.apply(glam.bracket(b.col(i), b.col(j)))

            J = lambda a, c=Fraction(1): tuple(
                c if i == a else Fraction(0) for i in range(6)
            )
            Q = lambda a, c=Fraction(1): tuple(
                c if i == 3 + a else Fraction(0) for i in range(6)
            )

            def add(*terms):
                return tuple(sum(col) for col in zip(*terms))

            bl = beta * lam
            s = Fraction(1)  # sqrt(-lam)
            assert bra(0, 4) == Q(2)                      # [J_0, Q'_1] = Q'_2
            assert bra(0, 5) == Q(1, Fraction(-1))        # [J_0, Q'_2] = -Q'_1
            assert bra(1, 3) == add(J(1, s), J(2, bl), Q(2, Fraction(-1)))
            assert bra(2, 3) == add(J(2, s), J(1, -bl), Q(1))
            assert bra(1, 5) == add(Q(0), J(0, bl))
            assert bra(2, 4) == add(Q(0, Fraction(-1)), J(0, -bl))
            assert bra(0, 3) == (0,) * 6
            assert bra(1, 4) == J(0, -s)
            assert bra(2, 5) == J(0, -s)


class TestSweep:
    def test_counts_and_families(self, euclid, lorentz):
        sweep = standard_sweep()
        families = {inst.family for inst in sweep}
        assert families == {
            Family.ZERO, Family.DOUBLE, Family.GENKAPPA, Family.RANKONE,
            Family.SMALL_JORDAN, Family.LIGHT_JORDAN, Family.LARGE_JORDAN,
        }
        no_rankone = standard_sweep(include_rank_one=False)
        assert {i.family for i in no_rankone} == families - {Family.RANKONE}
