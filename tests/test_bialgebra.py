import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidual import bialgebra
from semidual.bialgebra import (
    coboundary_delta,
    dual_bracket,
    dualco_delta,
    mcybe_check,
    mcybe_matrix_residual,
    omega,
    r_matrix,
    schouten,
    semidual_algebra,
)
from semidual.cli import build_report, main
from semidual.factorize import basis_change_matrix, dcs_constants, factorization_check
from semidual.lie import JacobiViolation, check_jacobi, make_lie_algebra, so3, so21
from semidual.linalg import Matrix, Tensor3
from semidual.solutions import generalized_kappa, standard_sweep
from conftest import dense_basis_change, dense_co_jacobi, dense_r_tensor, rng_matrix

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=2)
matrices = st.lists(
    st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3
).map(Matrix)


def basis(n, a):
    return tuple(Fraction(1) if i == a else Fraction(0) for i in range(n))


class TestSemidualAlgebra:
    def test_commutators_jp_form(self, euclid, lorentz):
        # [J_a, P^b] = -f_ac^b P^c, [P, P] = 0
        for g in (euclid, lorentz):
            sd = semidual_algebra(g)
            for a in range(3):
                for b in range(3):
                    got = sd.bracket(basis(6, a), basis(6, 3 + b))
                    want = [Fraction(0)] * 6
                    for c in range(3):
                        want[3 + c] = -g.f[a, c, b]
                    assert got == tuple(want)
                    assert sd.bracket(basis(6, 3 + a), basis(6, 3 + b)) == (0,) * 6

    def test_commutators_pj_form_equivalent(self, lorentz):
        # [P^a, J_b] = f_bc^a P^c
        sd = semidual_algebra(lorentz)
        for a in range(3):
            for b in range(3):
                got = sd.bracket(basis(6, 3 + a), basis(6, b))
                want = [Fraction(0)] * 6
                for c in range(3):
                    want[3 + c] = lorentz.f[b, c, a]
                assert got == tuple(want)

    def test_lowered_index_form(self, euclid, lorentz):
        # with P_b := eta_bc P^c the action is [J_a, P_b] = eps_ab^c P_c,
        # the familiar Euclidean / Poincare form
        for g in (euclid, lorentz):
            sd = semidual_algebra(g)
            eta = g.metric
            for a in range(3):
                for b in range(3):
                    pb = (0, 0, 0) + tuple(eta[b, c] for c in range(3))
                    got = sd.bracket(basis(6, a), pb)
                    want = [Fraction(0)] * 6
                    for c in range(3):
                        for d in range(3):
                            want[3 + d] += g.f[a, b, c] * eta[c, d]
                    assert got == tuple(want)

    def test_j_block_is_g(self, lorentz):
        sd = semidual_algebra(lorentz)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert sd.f[a, b, c] == lorentz.f[a, b, c]


def semidual_delta(g, F):
    return dualco_delta(*dcs_constants(g, F))


@pytest.fixture
def run_semidual(tmp_path, capsys):
    """`semidual semidual --algebra so21 --f F --lambda lam`: (exit code, stdout)."""
    def run(F, lam, *extra):
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"matrix": [[str(v) for v in row] for row in F.data]}))
        code = main(["semidual", "--algebra", "so21", "--f", str(p), "--lambda", str(lam), *extra])
        return code, capsys.readouterr().out
    return run


class TestSemidualize:
    """The semidual bialgebra: build_report's cocommutator, and the checks
    `semidual semidual` makes on it before printing."""

    def test_trivial_cocommutator(self, euclid):
        assert semidual_delta(euclid, Matrix.zeros(3)).is_zero()
        assert build_report("so3", euclid, Matrix.zeros(3), 0).delta.is_zero()

    def test_poincare_double(self, lorentz):
        # F = id, lambda = 1: delta(P^a) = 2 eps_cb^a P^c (x) P^b, delta(J) = 0
        delta = build_report("so21", lorentz, Matrix.identity(3), 1).delta
        assert delta == semidual_delta(lorentz, Matrix.identity(3))
        for a in range(3):
            assert all(v == 0 for _, __, ___, v in delta.nonzero() if _ == a)
            for c in range(3):
                for b in range(3):
                    assert delta[3 + a, 3 + c, 3 + b] == 2 * lorentz.f[c, b, a]

    def test_kappa_has_delta_on_both(self, lorentz):
        inst = generalized_kappa(lorentz, (1, 0, 0), 0, 1, -1)
        delta = semidual_delta(lorentz, inst.F)
        j_part = [x for x in delta.nonzero() if x[0] < 3]
        p_part = [x for x in delta.nonzero() if x[0] >= 3]
        assert j_part and p_part

    def test_antisymmetry_and_cojacobi(self, lorentz):
        inst = generalized_kappa(lorentz, (0, 1, 0), 2, 1, 1)
        delta = semidual_delta(lorentz, inst.F)
        for i, j, k, v in delta.nonzero():
            assert delta[i, k, j] == -v
        make_lie_algebra(dual_bracket(delta))  # raises unless co-Jacobi holds

    def test_emits_the_cocommutator_of_a_solution(self, run_semidual, lorentz):
        inst = generalized_kappa(lorentz, (0, 1, 0), 2, 1, 1)
        code, out = run_semidual(inst.F, 1)
        assert code == 0
        delta = semidual_delta(lorentz, inst.F)
        assert out.count("  delta(") == len(delta.nonzero()) > 0

    def test_rejects_non_factorisation(self, run_semidual, lorentz):
        code, out = run_semidual(Matrix.identity(3), 0)
        assert code == 1
        resid = factorization_check(lorentz, Matrix.identity(3), 0).nonzero()
        comps = ", ".join(f"[{a},{b}]->J_{c}: {v}" for a, b, c, v in resid[:6])
        assert out == f"FAIL: factorisation condition fails at {comps}\n"

    @pytest.mark.parametrize("entries", [
        [(3, 4, 5, 1)],  # partner entry absent
        [(3, 4, 5, 1), (3, 5, 4, 1)],  # partner present with the wrong sign
        [(0, 1, 5, 2), (0, 5, 1, Fraction(-3, 2))],  # partner present with the wrong value
    ])
    def test_non_antisymmetric_cocommutator_raises(self, monkeypatch, run_semidual, entries):
        monkeypatch.setattr(bialgebra, "dualco_delta", lambda gt, lt: Tensor3.sparse(6, entries))
        with pytest.raises(AssertionError, match="cocommutator is not antisymmetric"):
            run_semidual(Matrix.identity(3), 1)

    def test_co_jacobi_violation_raises(self, monkeypatch, run_semidual, lorentz):
        # an antisymmetric cocommutator that is no Lie cobracket: the one of a
        # non-factorising F, reported for the solution F = id at lambda = 1
        bad = semidual_delta(lorentz, Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
        monkeypatch.setattr(bialgebra, "dualco_delta", lambda gt, lt: bad)
        with pytest.raises(AssertionError, match="co-Jacobi fails at"):
            run_semidual(Matrix.identity(3), 1)


class TestRMatrix:
    def test_tensor_antisymmetric(self):
        r = r_matrix(Matrix([[1, 2, 0], [0, 3, 0], [0, 0, 5]]))
        assert r.tensor == -1 * r.tensor.transpose()

    def test_double_r(self):
        r = r_matrix(Matrix.identity(3))
        # r = P^a ^ J_a: tensor[P^a][J_a] = +1
        for a in range(3):
            assert r.tensor[3 + a, a] == 1
            assert r.tensor[a, 3 + a] == -1

    def test_kappa_coefficients(self, euclid):
        # r_kappa = v^c eps^b_ac P^a ^ J_b equals the ad_V coefficient matrix
        inst = generalized_kappa(euclid, (1, 0, 0), 0, 1, -1)
        assert r_matrix(inst.F).coeffs == euclid.ad((-1, 0, 0))

    def test_large_jordan_unnormalised_combination(self, lorentz):
        # r_LJ = beta P_N ^ J_1 stored rationally: beta (P^0 - P^2)/1 against J_1
        from semidual.solutions import large_jordan

        inst = large_jordan(lorentz, Fraction(3))
        r = r_matrix(inst.F)
        assert r.coeffs[1, 0] == 3 and r.coeffs[1, 2] == -3
        assert len(r.coeffs.nonzero()) == 2

    @pytest.mark.parametrize("n", [1, 3, 6, 9])
    def test_block_matrices_match_entrywise_formulas(self, n):
        # r_matrix and basis_change_matrix are assembled from F's rows and
        # columns; the entry-by-entry formulas they replaced must agree
        rng = random.Random(n)
        for F in (rng_matrix(rng, n), Matrix.zeros(n), Matrix.identity(n)):
            r = r_matrix(F)
            assert r.coeffs is F
            assert r.tensor == dense_r_tensor(F)
            assert basis_change_matrix(F) == dense_basis_change(F)
            assert all(type(v) is Fraction for m in (r.tensor, basis_change_matrix(F))
                       for row in m.data for v in row)


class TestOmega:
    def test_components(self, euclid):
        om = omega(semidual_algebra(euclid))
        # (P^0, P^1, J_2) -> +1 and middle-slot sign (P^0, J_2, P^1) -> -1
        assert om[3, 4, 2] == 1
        assert om[3, 2, 4] == -1
        assert om[2, 3, 4] == 1

    def test_lorentzian_components(self, lorentz):
        om = omega(semidual_algebra(lorentz))
        assert om[3, 4, 2] == lorentz.f[0, 1, 2] == -1

    def test_invariance_asserted_on_build(self, euclid):
        omega(semidual_algebra(euclid))  # raises if any x . Omega != 0

    def test_rejects_non_abelian_p(self, euclid):
        from semidual.lie import complexify

        with pytest.raises(ValueError):
            omega(complexify(euclid, 1))


class TestSchouten:
    def test_zero(self, euclid):
        sd = semidual_algebra(euclid)
        assert schouten(sd, r_matrix(Matrix.zeros(3))).is_zero()

    def test_single_term_solution(self, euclid):
        # r = P^0 ^ J_0 alone IS the rank-one solution |m><m| with
        # m = (1,0,0) at lambda = 0, so its Schouten bracket vanishes
        sd = semidual_algebra(euclid)
        f = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert schouten(sd, r_matrix(f)).is_zero()

    def test_single_mixed_term_nonzero(self, euclid):
        # r = P^0 ^ J_1 is not a solution for any lambda: [[r, r]] != 0
        sd = semidual_algebra(euclid)
        f = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        assert not schouten(sd, r_matrix(f)).is_zero()

    def test_double_solution_gives_minus_omega(self, lorentz):
        sd = semidual_algebra(lorentz)
        r = r_matrix(Matrix.identity(3))
        assert schouten(sd, r) == -1 * omega(sd)


class TestMcybe:
    def test_double_solution(self, euclid, lorentz):
        for g in (euclid, lorentz):
            sd = semidual_algebra(g)
            assert mcybe_check(sd, r_matrix(Matrix.identity(3)), 1).is_zero()

    def test_negative_control(self, lorentz):
        sd = semidual_algebra(lorentz)
        assert not mcybe_check(sd, r_matrix(Matrix.identity(3)), 0).is_zero()

    def test_generalized_kappa(self, lorentz):
        inst = generalized_kappa(lorentz, (0, 1, 0), Fraction(1, 2), 1, 1)
        sd = semidual_algebra(lorentz)
        assert mcybe_check(sd, r_matrix(inst.F), 1).is_zero()

    @given(matrices, st.sampled_from([-1, 0, 1]))
    @settings(max_examples=25, deadline=None)
    def test_tensor_matches_matrix_form(self, F, lam):
        # the P (x) P (x) J block of [[r,r]] + lam Omega equals the matrix
        # residual for arbitrary F, not only for solutions
        for g in (so3(), so21()):
            sd = semidual_algebra(g)
            res = schouten(sd, r_matrix(F)) + lam * omega(sd)
            mat = mcybe_matrix_residual(g, F, lam)
            for e in range(3):
                for a in range(3):
                    for c in range(3):
                        assert res[3 + e, 3 + a, c] == mat[e, a, c]

    @pytest.mark.parametrize("F,lam", [
        (Matrix.identity(3), 1), (Matrix([[1, 2, 0], [0, 3, 0], [0, 0, 5]]), "1/2")])
    def test_planted_path_disagreement(self, monkeypatch, lorentz, F, lam):
        # the P (x) P (x) J block is compared through the nonzeros of both
        # paths; the smallest differing (e, a, c) is named
        real = mcybe_matrix_residual
        sd, r = semidual_algebra(lorentz), r_matrix(F)
        mat = real(lorentz, F, lam)
        plants = [[(0, 0, 0, 1)], [(2, 1, 0, "1/3")], [(2, 2, 2, 1), (1, 2, 0, -2)]]
        # cancel an existing entry, so that only the tensor path has it
        plants += [[(e, a, c, -v)] for e, a, c, v in mat.nonzero()[:2]]
        for bumps in plants:
            monkeypatch.setattr(bialgebra, "mcybe_matrix_residual",
                                lambda g, R, lm: real(g, R, lm) + Tensor3.sparse(3, bumps))
            e, a, c = min(b[:3] for b in bumps)
            with pytest.raises(AssertionError) as exc:
                mcybe_check(sd, r, lam)
            assert str(exc.value) == f"tensor and matrix mCYBE paths disagree at ({e},{a},{c})"
        monkeypatch.setattr(bialgebra, "mcybe_matrix_residual", real)
        assert mcybe_check(sd, r, lam).is_zero() == mat.is_zero()

    @given(matrices, st.sampled_from([-1, 0, 1]))
    @settings(max_examples=25, deadline=None)
    def test_mcybe_iff_factorisation(self, F, lam):
        for g in (so3(), so21()):
            sd = semidual_algebra(g)
            mc = mcybe_check(sd, r_matrix(F), lam).is_zero()
            fc = factorization_check(g, F, lam).is_zero()
            assert mc == fc


class TestCocommutatorAgreement:
    @given(matrices)
    @settings(max_examples=25, deadline=None)
    def test_dualco_equals_coboundary_for_any_f(self, F):
        # the coboundary of r = F reproduces the semidual cocommutator as an
        # identity in F; the factorisation condition is not needed here
        for g in (so3(), so21()):
            sd = semidual_algebra(g)
            assert dualco_delta(*dcs_constants(g, F)) == coboundary_delta(sd, r_matrix(F))

    def test_specific_double(self, lorentz):
        sd = semidual_algebra(lorentz)
        F = Matrix.identity(3)
        rep = build_report("so21", lorentz, F, 1)
        assert rep.delta == coboundary_delta(sd, r_matrix(F))

    def test_specific_genkappa(self, euclid):
        inst = generalized_kappa(euclid, (1, 0, 0), 2, 1, -1)
        sd = semidual_algebra(euclid)
        rep = build_report("so3", euclid, inst.F, -1)
        assert rep.delta == coboundary_delta(sd, r_matrix(inst.F))


class TestGeneralDimension:
    def test_pipeline_on_six_dim_algebra(self, euclid):
        # the semidual construction, r-matrix and mCYBE are dimension-generic
        from semidual.lie import complexify

        g6 = complexify(euclid, 1)  # 6-dim, no metric
        f6 = Matrix.identity(6)
        sd = semidual_algebra(g6)  # 12-dim
        r = r_matrix(f6)
        assert mcybe_check(sd, r, 1).is_zero()
        assert not mcybe_check(sd, r, 0).is_zero()
        assert dualco_delta(*dcs_constants(g6, f6)) == coboundary_delta(sd, r)
        rep = build_report("g6", g6, f6, 1)
        assert rep.passed and rep.semidual == sd and rep.semidual.dim == 12


class TestCoJacobi:
    def test_holds_on_every_valid_instance(self):
        # co-Jacobi is a consequence of the mCYBE; checked here directly, as
        # the Jacobi identity of the dual bracket, across the whole sweep
        for inst in standard_sweep():
            delta = dualco_delta(*dcs_constants(inst.algebra, inst.F))
            make_lie_algebra(dual_bracket(delta))  # raises unless co-Jacobi holds

    def test_fails_for_invalid_f(self, lorentz):
        # negative control: a non-factorising F gives a delta that is not a
        # Lie cobracket
        F = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        delta = dualco_delta(*dcs_constants(lorentz, F))
        with pytest.raises(JacobiViolation):
            make_lie_algebra(dual_bracket(delta))

    def test_dual_jacobi_is_the_co_jacobi_sum(self, lorentz):
        # the Jacobi sum of the dual bracket, component for component, is the
        # cyclic sum of (delta (x) id) o delta, on valid and invalid F
        rng = random.Random(7)
        sweep = standard_sweep()
        cases = [(inst.algebra, inst.F) for inst in rng.sample(sweep, 6)]
        cases += [(lorentz, rng_matrix(rng)) for _ in range(4)]
        failing = 0
        for g, F in cases:
            delta = dualco_delta(*dcs_constants(g, F))
            bad = dense_co_jacobi(delta)
            assert check_jacobi(dual_bracket(delta)) == bad
            failing += bool(bad)
        assert failing
