import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidual import factorize
from semidual.factorize import (
    ClosureFailure,
    InternalMismatch,
    adjugate,
    dcs_constants,
    factorization_check,
    lemma_kernel_checks,
    list_residual,
    master_residual,
    projected_equations,
    quadratic_condition,
    split_sv,
    verify_closure_in_complexification,
)
from semidual.lie import so3, so21
from semidual.linalg import DimensionMismatch, Matrix, Tensor3, adjugate_cofactor
from semidual.selftest import adjugate_identities, factorisation_forms
from semidual.solutions import generalized_kappa, light_jordan, small_jordan, standard_sweep
from conftest import rng_matrix

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
matrices = st.lists(
    st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3
).map(Matrix)


def basis(a, n=3):
    return tuple(Fraction(1) if i == a else Fraction(0) for i in range(n))


def rational_orthogonal_samples(g, count, seed=20131008):
    """Words in rational SO(3) / SO(2,1) generators: R^t R = id, det R = 1."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    ch, sh = Fraction(5, 3), Fraction(4, 3)
    euclidean = g.metric == Matrix.diagonal([1, 1, 1])
    rot12 = Matrix([[1, 0, 0], [0, c, -s], [0, s, c]])
    if euclidean:
        gens = [
            rot12,
            Matrix([[c, -s, 0], [s, c, 0], [0, 0, 1]]),
            Matrix([[c, 0, -s], [0, 1, 0], [s, 0, c]]),
        ]
    else:
        gens = [
            rot12,
            Matrix([[ch, sh, 0], [sh, ch, 0], [0, 0, 1]]),
            Matrix([[ch, 0, sh], [0, 1, 0], [sh, 0, ch]]),
        ]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = Matrix.identity(3)
        for _ in range(rng.randint(1, 4)):
            r = r @ rng.choice(gens)
        assert r.metric_transpose(g.metric) @ r == Matrix.identity(3)
        assert r.det() == 1
        out.append(r)
    return out


class TestDcsConstants:
    def test_identity_doubles_f(self, euclid):
        gt, lt = dcs_constants(euclid, Matrix.identity(3))
        assert gt == Tensor3.build(3, lambda a, b, c: 2 * euclid.f[a, b, c])
        assert lt.is_zero()

    def test_zero_map(self, lorentz):
        gt, lt = dcs_constants(lorentz, Matrix.zeros(3))
        assert gt.is_zero() and lt.is_zero()

    @given(matrices)
    @settings(max_examples=40)
    def test_g_tensor_antisymmetric(self, F):
        for g in (so3(), so21()):
            gt, _ = dcs_constants(g, F)
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        assert gt[a, b, c] == -gt[b, a, c]


class TestFactorizationCheck:
    def test_zero_map_zero_lambda(self, euclid):
        assert factorization_check(euclid, Matrix.zeros(3), 0).is_zero()

    def test_identity_lambda_one(self, euclid, lorentz):
        for g in (euclid, lorentz):
            assert factorization_check(g, Matrix.identity(3), 1).is_zero()

    def test_identity_lambda_zero_fails(self, lorentz):
        # [F J_0, F J_1] - F(2 [J_0, J_1]) = -[J_0, J_1] = +J_2
        resid = factorization_check(lorentz, Matrix.identity(3), 0)
        assert resid[0, 1, 2] == 1
        assert not resid.is_zero()


class TestClosure:
    def test_identity_gives_scaled_so21(self, lorentz):
        dcs = verify_closure_in_complexification(lorentz, Matrix.identity(3), 1)
        assert dcs.g_tensor == Tensor3.build(3, lambda a, b, c: 2 * lorentz.f[a, b, c])

    def test_large_jordan_brackets(self, lorentz):
        from semidual.solutions import large_jordan

        inst = large_jordan(lorentz, 1)
        dcs = verify_closure_in_complexification(lorentz, inst.F, 0)
        m = dcs.m_algebra
        # [Q'_ntilde, Q'_n] = Q'_n with n = Q'_0 + Q'_2, ntilde = (Q'_0 - Q'_2)/2
        n = (Fraction(1), Fraction(0), Fraction(1))
        nt = (Fraction(1, 2), Fraction(0), Fraction(-1, 2))
        assert m.bracket(nt, n) == n
        assert m.bracket(basis(1), n) == (0, 0, 0)
        assert m.bracket(basis(1), nt) == (0, 0, 0)

    def test_zero_map_abelian(self, euclid):
        dcs = verify_closure_in_complexification(euclid, Matrix.zeros(3), 0)
        assert dcs.g_tensor.is_zero()

    def test_failure_raises(self, lorentz):
        with pytest.raises(ClosureFailure):
            verify_closure_in_complexification(lorentz, Matrix.identity(3), 0)

    def test_basis_change_shape(self, lorentz):
        dcs = verify_closure_in_complexification(lorentz, 2 * Matrix.identity(3), 4)
        b = dcs.basis_change
        assert b.rows == b.cols == 6
        # Q'_a = Q_a + F^b_a J_b with F = 2 id
        assert b.col(3) == (2, 0, 0, 1, 0, 0)


class TestListResidual:
    def test_six_shown_then_a_count(self):
        entries = [(0, 1, c, Fraction(c + 1, 2)) for c in range(8)]
        shown = ", ".join(f"[0,1]->J_{c}: {Fraction(c + 1, 2)}" for c in range(6))
        assert list_residual(entries[:5]) == shown.rsplit(", ", 1)[0]
        assert list_residual(entries[:6]) == shown
        assert list_residual(entries[:7]) == shown + ", and 1 more"
        assert list_residual(entries) == shown + ", and 2 more"
        assert list_residual([]) == ""


class TestClosureReadsResidual:
    """The J-part of [Q'_a, Q'_b] in the (J, Q') basis is the factorisation
    residual: the closure's failure lists exactly the components of
    factorization_check, and on solutions it returns the dcs_constants."""

    @pytest.mark.parametrize("lam", [-4, -1, 0, 1, 4])
    def test_random_and_conjugated_solutions(self, euclid, lorentz, lam):
        rng = random.Random(20131017 + lam)
        sweep = list(standard_sweep())
        for g in (euclid, lorentz):
            sols = [inst.F for inst in sweep if inst.algebra == g and inst.lam == lam]
            sols = rng.sample(sols, min(2, len(sols)))
            rots = rational_orthogonal_samples(g, len(sols), seed=lam)
            conj = [r @ F @ r.inverse() for r, F in zip(rots, sols)]
            assert all(factorization_check(g, F, lam).is_zero() for F in conj)
            for F in [rng_matrix(rng) for _ in range(6)] + conj:
                resid = factorization_check(g, F, lam)
                try:
                    dcs = verify_closure_in_complexification(g, F, lam)
                except ClosureFailure as exc:
                    nz = resid.nonzero()
                    comps = ", ".join(f"[{a},{b}]->J_{c}: {v}" for a, b, c, v in nz[:6])
                    if len(nz) > 6:
                        comps += f", and {len(nz) - 6} more"
                    assert str(exc) == f"factorisation condition fails; nonzero residual at {comps}"
                    continue
                assert resid.is_zero()
                assert (dcs.g_tensor, dcs.l_tensor) == dcs_constants(g, F)


class TestClosureCrossCheck:
    """The closure compares every bracket it computes in the (J, Q') basis
    with the dcs_constants formulas; a wrong constant must be caught."""

    @pytest.mark.parametrize("which", ["g", "L"])
    def test_perturbed_constant_raises(self, euclid, lorentz, monkeypatch, which):
        rng = random.Random(which)
        real = factorize.dcs_constants
        for inst in rng.sample(list(standard_sweep()), 6):
            g, F, lam = inst.algebra, inst.F, inst.lam
            n = g.dim
            verify_closure_in_complexification(g, F, lam)
            a, b, c = (rng.randrange(n) for _ in range(3))

            def perturbed(g_, F_):
                gt, lt = real(g_, F_)
                t = gt if which == "g" else lt
                bumped = Tensor3.build(
                    n, lambda i, j, k: t[i, j, k] + (1 if (i, j, k) == (a, b, c) else 0)
                )
                return (bumped, lt) if which == "g" else (gt, bumped)

            with monkeypatch.context() as m:
                m.setattr(factorize, "dcs_constants", perturbed)
                with pytest.raises(InternalMismatch) as exc:
                    verify_closure_in_complexification(g, F, lam)
            # g_ab^c enters [Q'_a, Q'_b]; L_ab^c enters [J_b, Q'_a] first
            i, j = (n + a, n + b) if which == "g" else (b, n + a)
            assert str(exc.value).startswith(f"bracket of new basis vectors {i},{j}: ")


class TestGeneralDimension:
    """The closure condition and double-cross-sum tensors work for any n;
    only the metric / adjugate / split machinery is 3d-specific."""

    def test_identity_map_any_algebra(self, euclid):
        # F = id solves [X,Y] - 2[X,Y] = -[X,Y] for lambda = 1 in any g
        from semidual.lie import complexify

        g6 = complexify(euclid, 1)
        f6 = Matrix.identity(6)
        assert factorization_check(g6, f6, 1).is_zero()
        assert not factorization_check(g6, f6, 0).is_zero()
        dcs = verify_closure_in_complexification(g6, f6, 1)
        assert dcs.m_algebra.dim == 6
        gt, lt = dcs_constants(g6, f6)
        assert gt == Tensor3.build(6, lambda a, b, c: 2 * g6.f[a, b, c])
        assert lt.is_zero()

    def test_metric_machinery_guarded(self, euclid):
        from semidual.lie import complexify

        g6 = complexify(euclid, 1)
        with pytest.raises(DimensionMismatch):
            quadratic_condition(Matrix.identity(6), g6, 1)


class TestAdjugate:
    def test_identity(self):
        assert adjugate(Matrix.identity(3)) == Matrix.identity(3)

    def test_diagonal(self):
        # cofactor-transpose oracle gives diag(6, 3, 2)
        assert adjugate(Matrix.diagonal([1, 2, 3])) == Matrix.diagonal([6, 3, 2])

    def test_rank_one(self):
        f = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert (adjugate(f) @ f).is_zero()

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            adjugate(Matrix.identity(2))

    @given(matrices)
    @settings(max_examples=60)
    def test_matches_cofactor_oracle(self, F):
        assert adjugate(F) == adjugate_cofactor(F)

    @given(matrices)
    @settings(max_examples=30)
    def test_defining_property(self, F):
        # <adj(F) Z, [X, Y]> = <Z, [F X, F Y]> on all basis triples
        for g in (so3(), so21()):
            assert adjugate_identities(g, F)

    def test_orthogonal_inverse(self, euclid, lorentz):
        for g in (euclid, lorentz):
            for r in rational_orthogonal_samples(g, 10):
                assert adjugate(r) @ r == Matrix.identity(3)


class TestQuadraticCondition:
    def test_identity_lambda_one(self, lorentz):
        assert quadratic_condition(Matrix.identity(3), lorentz, 1).is_zero()

    def test_identity_lambda_zero(self, lorentz):
        resid = quadratic_condition(Matrix.identity(3), lorentz, 0)
        assert resid == -1 * Matrix.identity(3)

    def test_pure_adjoint(self, euclid):
        # F = ad_V with <V,V> = -lambda solves the condition
        v = (Fraction(1), Fraction(2), Fraction(-1))
        lam = -euclid.inner(v, v)
        assert quadratic_condition(euclid.ad(v), euclid, lam).is_zero()


class TestSplit:
    def test_pure_antisymmetric(self, euclid):
        f = euclid.ad(basis(0))
        sp = split_sv(f, euclid)
        assert sp.s.is_zero()
        assert sp.v == basis(0)

    def test_pure_symmetric(self, euclid):
        sp = split_sv(Matrix.identity(3), euclid)
        assert sp.s == Matrix.identity(3)
        assert sp.v == (0, 0, 0)

    def test_kappa_solution_split(self, euclid):
        # beta |V><V| + ad_V with v = (1,0,0), beta = 1, lambda = -1:
        # S is the rank-one projector onto J_0 and V = -J_0
        inst = generalized_kappa(euclid, (1, 0, 0), 1, 1, -1)
        sp = split_sv(inst.F, euclid)
        assert sp.v == (Fraction(-1), 0, 0)
        assert sp.s == Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])

    @given(matrices)
    @settings(max_examples=40)
    def test_round_trip(self, F):
        for g in (so3(), so21()):
            sp = split_sv(F, g)
            assert sp.s + g.ad(sp.v) == F
            # S symmetric w.r.t. the metric
            assert sp.s.metric_transpose(g.metric) == sp.s


class TestProjectedEquations:
    def test_pure_adjoint_solution(self, lorentz):
        v = (0, Fraction(1), 0)
        lam = -lorentz.inner(v, v)  # = 1
        sp = split_sv(lorentz.ad(v), lorentz)
        assert projected_equations(sp, lam).is_zero()

    def test_identity_solution(self, euclid):
        sp = split_sv(Matrix.identity(3), euclid)
        proj = projected_equations(sp, 1)
        assert proj.scalar == 0  # (9 - 3) / 6 = 1 = lambda
        assert proj.is_zero()

    def test_vector_residual_nonzero(self, euclid):
        f = Matrix.identity(3) + euclid.ad(basis(0))
        sp = split_sv(f, euclid)
        proj = projected_equations(sp, 1)
        # {ad_V, S} = 2 ad_{J_0} with S = id
        assert proj.vector == 2 * euclid.ad(basis(0))


class TestEquivalenceOfForms:
    @given(matrices, st.sampled_from([-1, 0, 1]))
    @settings(max_examples=60)
    def test_status_agreement(self, F, lam):
        for g in (so3(), so21()):
            assert len(set(factorisation_forms(g, F, lam))) == 1

    @given(matrices, st.sampled_from([-1, 0, 1]))
    @settings(max_examples=40)
    def test_master_equals_quadratic(self, F, lam):
        # the split form is the same matrix residual, not merely equivalent
        for g in (so3(), so21()):
            sp = split_sv(F, g)
            assert master_residual(sp, lam) == quadratic_condition(F, g, lam)


class TestThreeVectorOracle:
    """Closed-form brackets of the generalized solutions in 3-vector
    notation, checked against the generic change-of-basis machinery.

    Conventions: vectors carry upper components, x.y = x^a eta_ab y^b, the
    cross product (x X y)_c = eps_abc x^a y^b has lower components and is
    raised with the metric before contracting with generators; p.Q' means
    sum_a p^a Q'_a.
    """

    PARAMS = [
        ("euclid", (1, 0, 0), Fraction(2), -1),
        ("euclid", (Fraction(6, 5), Fraction(8, 5), 0), Fraction(-1, 2), -4),
        ("lorentz", (1, 0, 0), Fraction(1), -1),
        ("lorentz", (0, 1, 0), Fraction(3), 1),
        ("lorentz", (1, 0, 1), Fraction(-2), 0),
    ]

    @staticmethod
    def _cross_raised(g, p, q):
        from semidual.lie import eps

        lower = [
            sum(Fraction(eps(a, b, c)) * p[a] * q[b] for a in range(3) for b in range(3))
            for c in range(3)
        ]
        inv = g.metric.inverse()
        return tuple(
            sum(inv[c, d] * lower[d] for d in range(3)) for c in range(3)
        )

    @pytest.mark.parametrize("which, v, beta, lam", PARAMS)
    def test_quartic_bracket_formula(self, euclid, lorentz, which, v, beta, lam):
        # [p.Q', q.Q'] = (v.p)(q.Q') - (v.q)(p.Q')
        #                - beta ((p X q).v)(v.Q') - lam beta (p X q).Q'
        g = euclid if which == "euclid" else lorentz
        v = tuple(Fraction(x) for x in v)
        inst = generalized_kappa(g, v, beta, 1, lam)
        dcs = verify_closure_in_complexification(g, inst.F, lam)
        m = dcs.m_algebra
        for i in range(3):
            for j in range(3):
                p, q = basis(i), basis(j)
                got = m.bracket(p, q)
                pxq = self._cross_raised(g, p, q)
                pxq_dot_v = g.inner(pxq, v)
                want = tuple(
                    g.inner(v, p) * q[c]
                    - g.inner(v, q) * p[c]
                    - beta * pxq_dot_v * v[c]
                    - lam * beta * pxq[c]
                    for c in range(3)
                )
                assert got == want

    @pytest.mark.parametrize("which, v, beta, lam", PARAMS)
    def test_mixed_bracket_q_form(self, euclid, lorentz, which, v, beta, lam):
        # [p.J, q.Q'] = (p X q).Q + (p X (q X v)).J + beta (q.v)((p X v).J),
        # with the Q' generators built straight from their defining formula
        # Q'_a = Q_a + eps_abc v^b J^c + beta (v.J) v_a (independent of the
        # F-matrix machinery)
        from semidual.factorize import basis_change_matrix
        from semidual.lie import complexify, eps

        g = euclid if which == "euclid" else lorentz
        eta = g.metric
        v = tuple(Fraction(x) for x in v)
        inst = generalized_kappa(g, v, beta, 1, lam)
        glam = complexify(g, lam)

        def qprime(a):
            j_part = [
                sum(
                    Fraction(eps(a, b, c)) * v[b] * eta.inverse()[c, d]
                    for b in range(3)
                    for c in range(3)
                )
                for d in range(3)
            ]
            va = sum(eta[a, b] * v[b] for b in range(3))
            j_part = [j_part[d] + beta * v[d] * va for d in range(3)]
            return tuple(j_part) + basis(a)

        # the defining formula reproduces the constructor's basis change
        bc = basis_change_matrix(inst.F)
        for a in range(3):
            assert qprime(a) == bc.col(3 + a)

        for i in range(3):
            for j in range(3):
                p, q = basis(i), basis(j)
                got = glam.bracket(basis(i, 6), qprime(j))
                pxq = self._cross_raised(g, p, q)
                qxv = self._cross_raised(g, q, v)
                px_qxv = self._cross_raised(g, p, qxv)
                pxv = self._cross_raised(g, p, v)
                want_j = tuple(
                    px_qxv[c] + beta * g.inner(q, v) * pxv[c] for c in range(3)
                )
                assert got == want_j + pxq

    @pytest.mark.parametrize("which, v, beta, lam", PARAMS)
    def test_mixed_bracket_qprime_form(self, euclid, lorentz, which, v, beta, lam):
        # the same bracket rewritten over (J, Q') via the BAC-CAB expansion:
        # [p.J, q.Q'] = (p X q).Q' + (v.q)(p.J) - (p.q)(v.J)
        #               + beta (q.v)((p X v).J) - beta ((p X q).v)(v.J)
        from semidual.factorize import basis_change_matrix
        from semidual.lie import complexify

        g = euclid if which == "euclid" else lorentz
        v = tuple(Fraction(x) for x in v)
        inst = generalized_kappa(g, v, beta, 1, lam)
        glam = complexify(g, lam)
        b = basis_change_matrix(inst.F)
        binv = b.inverse()
        for i in range(3):
            for j in range(3):
                p, q = basis(i), basis(j)
                got = binv.apply(glam.bracket(b.col(i), b.col(3 + j)))
                pxq = self._cross_raised(g, p, q)
                pxv = self._cross_raised(g, p, v)
                j_part = tuple(
                    g.inner(v, q) * p[c]
                    - g.inner(p, q) * v[c]
                    + beta * g.inner(q, v) * pxv[c]
                    - beta * g.inner(pxq, v) * v[c]
                    for c in range(3)
                )
                assert got == j_part + pxq


class TestKernelLemma:
    def test_invertible_s(self, lorentz):
        sp = split_sv(Matrix.identity(3), lorentz)
        rep = lemma_kernel_checks(sp, 1)
        assert rep.applicable and rep.s_invertible and rep.v_zero and rep.lemma_holds

    def test_light_jordan_kernel(self, lorentz):
        # beta != 0: ker S = span(n, J_1), two-dimensional and not null
        inst = light_jordan(lorentz, 1)
        sp = split_sv(inst.F, lorentz)
        rep = lemma_kernel_checks(sp, 0)
        assert rep.applicable
        assert rep.ker_dim == 2
        assert rep.ker_is_null is False
        assert not rep.v_zero  # V = n, allowed: the lemma is not constraining
        assert rep.lemma_holds

    def test_small_jordan_null_kernel(self, lorentz):
        inst = small_jordan(lorentz, 1, 1, 1)
        sp = split_sv(inst.F, lorentz)
        rep = lemma_kernel_checks(sp, 1)
        assert rep.applicable
        assert rep.ker_dim == 1
        assert rep.ker_is_null is True  # contrapositive of the lemma: V != 0 forces this
        assert not rep.v_zero
        assert rep.lemma_holds

    def test_not_applicable(self, lorentz):
        sp = split_sv(Matrix.identity(3), lorentz)
        rep = lemma_kernel_checks(sp, 0)
        assert not rep.applicable
        assert "not applicable" in rep.note
