"""Acceptance suite: one test per criterion, exact (no tolerances anywhere).

Each test prints a single PASS line on success (visible with pytest -s);
any failure is a hard assertion error naming the component.
"""

import random
from fractions import Fraction

from semidual.bialgebra import (
    coboundary_delta,
    dualco_delta,
    mcybe_check,
    mcybe_matrix_residual,
    r_matrix,
    semidual_algebra,
)
from semidual.bianchi import (
    behr_decompose,
    canonical_representatives,
    change_basis,
    classify,
)
from semidual.cli import main
from semidual.factorize import (
    adjugate,
    dcs_constants,
    factorization_check,
    master_residual,
    projected_equations,
    quadratic_condition,
    split_sv,
)
from semidual.lie import (
    check_antisymmetry,
    check_jacobi,
    check_metric_invariance,
    complexify,
    eps,
    make_lie_algebra,
    so3,
    so21,
)
from semidual.linalg import Matrix, Tensor3, adjugate_cofactor
from semidual.solutions import (
    SWEEP_BETAS,
    generalized_kappa,
    large_jordan,
    light_jordan,
    small_jordan,
    standard_sweep,
    zero_solution,
    double_solution,
)
from conftest import classify_factor, rng_matrix, rng_rat, rng_vec
from test_factorize import rational_orthogonal_samples

LAMBDAS = [Fraction(x) for x in (-4, -1, 0, 1, 4)]


def basis(a, n=3):
    return tuple(Fraction(1) if i == a else Fraction(0) for i in range(n))


def test_acceptance_1_jacobi_and_metric_invariance():
    for g in (so3(), so21()):
        assert check_antisymmetry(g.f) == []
        assert check_jacobi(g.f) == []
        assert check_metric_invariance(g.f, g.metric) == []
        for lam in LAMBDAS:
            gl = complexify(g, lam)  # re-verifies Jacobi internally
            assert check_jacobi(gl.f) == []
            assert check_antisymmetry(gl.f) == []
    print("\nACCEPTANCE 1 jacobi and metric invariance: PASS")


def test_acceptance_2_epsilon_identities():
    for g in (so3(), so21()):
        eta = g.metric
        d = lambda i, j: 1 if i == j else 0
        # epsilon identity, exhaustive over all 729 index tuples
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    low = eps(a, b, c)
                    for e in range(3):
                        for f in range(3):
                            for h in range(3):
                                up = sum(
                                    eps(x, y, z) * eta[x, e] * eta[y, f] * eta[z, h]
                                    for x in range(3)
                                    for y in range(3)
                                    for z in range(3)
                                )
                                want = (
                                    d(a, e) * (d(b, f) * d(c, h) - d(b, h) * d(c, f))
                                    - d(a, f) * (d(b, e) * d(c, h) - d(b, h) * d(c, e))
                                    + d(a, h) * (d(b, e) * d(c, f) - d(b, f) * d(c, e))
                                )
                                assert low * up == want
        # double-bracket identity on all 27 basis triples and 100 random
        rng = random.Random(2)
        triples = [
            (basis(a), basis(b), basis(c))
            for a in range(3) for b in range(3) for c in range(3)
        ] + [(rng_vec(rng), rng_vec(rng), rng_vec(rng)) for _ in range(100)]
        for x, y, z in triples:
            lhs = g.bracket(x, g.bracket(y, z))
            xz, xy = g.inner(x, z), g.inner(x, y)
            assert lhs == tuple(xz * y[i] - xy * z[i] for i in range(3))
        # cyclic identity on 100 random rational quadruples
        for _ in range(100):
            x, y, z, v = (rng_vec(rng) for _ in range(4))
            lhs = (
                g.inner(g.bracket(x, y), v) * g.inner(v, z)
                + g.inner(g.bracket(y, z), v) * g.inner(v, x)
                + g.inner(g.bracket(z, x), v) * g.inner(v, y)
            )
            assert lhs == g.inner(v, v) * g.inner(g.bracket(x, y), z)
    print("\nACCEPTANCE 2 epsilon / double-bracket / cyclic identities: PASS")


def _four_form_statuses(g, F, lam):
    s1 = factorization_check(g, F, lam).is_zero()
    s2 = quadratic_condition(F, g, lam).is_zero()
    sp = split_sv(F, g)
    s3 = projected_equations(sp, lam).is_zero()
    s4 = master_residual(sp, lam).is_zero()
    return s1, s2, s3, s4


def test_acceptance_3_equivalence_of_four_forms():
    rng = random.Random(3)
    for g in (so3(), so21()):
        for lam in (Fraction(-1), Fraction(0), Fraction(1)):
            for _ in range(200):
                statuses = _four_form_statuses(g, rng_matrix(rng), lam)
                assert len(set(statuses)) == 1
    for inst in standard_sweep(so3(), so21()):
        statuses = _four_form_statuses(inst.algebra, inst.F, inst.lam)
        assert statuses == (True, True, True, True)
    print("\nACCEPTANCE 3 equivalence of the four factorisation forms: PASS")


def test_acceptance_4_adjugate():
    rng = random.Random(4)
    for g in (so3(), so21()):
        for _ in range(100):
            F = rng_matrix(rng)
            adj = adjugate(F)
            assert adj == adjugate_cofactor(F)  # independent oracle
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        lhs = g.inner(adj.apply(basis(c)), g.bracket(basis(a), basis(b)))
                        rhs = g.inner(basis(c), g.bracket(F.col(a), F.col(b)))
                        assert lhs == rhs
        for r in rational_orthogonal_samples(g, 20):
            assert adjugate(r) @ r == Matrix.identity(3)
    print("\nACCEPTANCE 4 adjugate formula, defining property, orthogonal inverse: PASS")


def _random_draw_instances(rng, count=20):
    """Random rational parameter draws with exact norm constraints."""
    e, l = so3(), so21()
    euclidean_units = [(1, 0, 0), (Fraction(3, 5), Fraction(4, 5), 0),
                       (Fraction(5, 13), Fraction(12, 13), 0)]
    timelike_units = [(1, 0, 0), (Fraction(5, 4), Fraction(3, 4), 0),
                      (Fraction(13, 12), Fraction(5, 12), 0)]
    spacelike_units = [(0, 1, 0), (Fraction(3, 4), Fraction(5, 4), 0),
                       (0, Fraction(3, 5), Fraction(4, 5))]
    out = []
    for _ in range(count):
        beta = rng_rat(rng, span=4)
        kind = rng.choice(["euclidean", "timelike", "spacelike", "lightlike"])
        c = rng.choice([1, 2])
        if kind == "euclidean":
            v = tuple(c * x for x in map(Fraction, rng.choice(euclidean_units)))
            out.append(generalized_kappa(e, v, beta, 1, -c * c))
        elif kind == "timelike":
            v = tuple(c * x for x in map(Fraction, rng.choice(timelike_units)))
            out.append(generalized_kappa(l, v, beta, 1, -c * c))
        elif kind == "spacelike":
            v = tuple(c * x for x in map(Fraction, rng.choice(spacelike_units)))
            out.append(generalized_kappa(l, v, beta, 1, c * c))
        else:
            p, q = rng.randint(1, 3), rng.randint(0, 3)
            v = (Fraction(p * p + q * q), Fraction(p * p - q * q), Fraction(2 * p * q))
            out.append(generalized_kappa(l, v, beta, 1, 0))
    return out


def test_acceptance_5_rmatrix_end_to_end():
    rng = random.Random(5)
    instances = standard_sweep(so3(), so21()) + _random_draw_instances(rng)
    for inst in instances:
        g = inst.algebra
        sd = semidual_algebra(g)
        r = r_matrix(inst.F)
        # cocommutator from the double-cross-sum tensors equals the
        # coboundary cocommutator of r = F, exactly
        assert dualco_delta(*dcs_constants(g, inst.F)) == coboundary_delta(sd, r), inst
        # mCYBE: tensor path (cross-checked against the matrix path inside)
        assert mcybe_check(sd, r, inst.lam).is_zero(), inst
        # and the matrix-form path independently
        assert mcybe_matrix_residual(g, inst.F, inst.lam).is_zero(), inst
    print(f"\nACCEPTANCE 5 r-matrix construction end-to-end over {len(instances)} instances: PASS")


def _m_bracket(inst, x, y):
    from semidual.factorize import verify_closure_in_complexification

    dcs = verify_closure_in_complexification(inst.algebra, inst.F, inst.lam)
    return dcs.m_algebra.bracket(x, y)


def test_acceptance_6_worked_brackets():
    e, l = so3(), so21()
    u_n, u_nt, e1 = (1, 0, 1), (1, 0, -1), basis(1)
    zero = (0, 0, 0)

    def combo(*pairs):
        return tuple(sum(c * b[i] for c, b in pairs) for i in range(3))

    for beta in SWEEP_BETAS:
        # Euclidean lambda = -1 with sqrt(-lambda) = 1, v = (1,0,0):
        # [Q'_1,Q'_2] = 0, [Q'_0,Q'_1] = Q'_1 + beta Q'_2,
        # [Q'_0,Q'_2] = Q'_2 - beta Q'_1; generators Q'_0 = Q_0 - beta lam J_0,
        # Q'_1 = Q_1 - J_2, Q'_2 = Q_2 + J_1
        inst = generalized_kappa(e, (1, 0, 0), beta, 1, -1)
        assert inst.F.col(0) == (beta, 0, 0)
        assert inst.F.col(1) == (0, 0, -1)
        assert inst.F.col(2) == (0, 1, 0)
        assert _m_bracket(inst, basis(1), basis(2)) == zero
        assert _m_bracket(inst, basis(0), basis(1)) == (0, 1, beta)
        assert _m_bracket(inst, basis(0), basis(2)) == (0, -beta, 1)

        # Lorentzian timelike lambda = -1: [Q'_0,Q'_1] = Q'_1 - beta Q'_2 etc.
        inst = generalized_kappa(l, (1, 0, 0), beta, 1, -1)
        assert inst.F.col(0) == (beta, 0, 0)
        assert inst.F.col(1) == (0, 0, 1)
        assert inst.F.col(2) == (0, -1, 0)
        assert _m_bracket(inst, basis(0), basis(1)) == (0, 1, -beta)
        assert _m_bracket(inst, basis(0), basis(2)) == (0, beta, 1)
        assert _m_bracket(inst, basis(1), basis(2)) == zero

        # Lorentzian spacelike lambda = 1 with sqrt(lambda) = 1, v = (0,1,0):
        # [Q'_1,Q'_0] = -Q'_0 - beta Q'_2, [Q'_1,Q'_2] = -Q'_2 - beta Q'_0,
        # [Q'_0,Q'_2] = 0; null combinations [Q'_1, Q'_N] = -(beta+1) Q'_N,
        # [Q'_1, Q'_Ntilde] = (beta-1) Q'_Ntilde
        inst = generalized_kappa(l, (0, 1, 0), beta, 1, 1)
        assert inst.F.col(0) == (0, 0, -1)
        assert inst.F.col(1) == (0, -beta, 0)
        assert inst.F.col(2) == (-1, 0, 0)
        assert _m_bracket(inst, basis(1), basis(0)) == (-1, 0, -beta)
        assert _m_bracket(inst, basis(1), basis(2)) == (-beta, 0, -1)
        assert _m_bracket(inst, basis(0), basis(2)) == zero
        assert _m_bracket(inst, e1, u_n) == tuple(-(beta + 1) * x for x in u_n)
        assert _m_bracket(inst, e1, u_nt) == tuple((beta - 1) * x for x in u_nt)
        assert _m_bracket(inst, u_n, u_nt) == zero

        # small Jordan, lambda in {1, 4}: [Q'_N, Q'_Ntilde] = 0,
        # [Q'_1, Q'_N] = 2 sqrt(lambda) Q'_N,
        # [Q'_1, beta Q'_N - 2 sqrt(lambda) Q'_Ntilde] = 0
        for lam, s in ((Fraction(1), Fraction(1)), (Fraction(4), Fraction(2))):
            inst = small_jordan(l, beta, lam, s)
            assert inst.F.apply((1, 0, 1)) == (s, 0, s)  # Q'_N = Q_N + s N
            assert inst.F.apply((1, 0, -1)) == (beta - s, 0, beta + s)
            assert inst.F.apply(e1) == (0, s, 0)
            assert _m_bracket(inst, u_n, u_nt) == zero
            assert _m_bracket(inst, e1, u_n) == tuple(2 * s * x for x in u_n)
            annihilated = combo((beta, u_n), (-2 * s, u_nt))
            assert _m_bracket(inst, e1, annihilated) == zero

        # light Jordan (beta = 0 and beta != 0 bracket identities):
        # Q'_N = Q_N, Q'_Ntilde = Q_Ntilde - J_1 + beta N, Q'_1 = Q_1 - N;
        # [Q'_N,Q'_1] = 0, [Q'_Ntilde,Q'_N] = -Q'_N,
        # [Q'_Ntilde,Q'_1] = -Q'_1 - beta Q'_N
        inst = light_jordan(l, beta)
        nt_half = (Fraction(1, 2), 0, Fraction(-1, 2))
        assert inst.F.apply(u_n) == zero
        assert inst.F.apply(u_nt) == (2 * beta, -2, 2 * beta)
        assert inst.F.apply(e1) == (-1, 0, -1)
        assert _m_bracket(inst, u_n, e1) == zero
        assert _m_bracket(inst, nt_half, u_n) == tuple(-x for x in u_n)
        assert _m_bracket(inst, nt_half, e1) == combo((-1, e1), (-beta, u_n))

        # large Jordan: [Q'_1, .] = 0, [Q'_Ntilde, Q'_N] = beta Q'_N
        inst = large_jordan(l, beta)
        assert inst.F.apply(u_n) == zero
        assert inst.F.apply(u_nt) == (0, 2 * beta, 0)
        assert inst.F.apply(e1) == zero
        assert _m_bracket(inst, e1, u_n) == zero
        assert _m_bracket(inst, e1, u_nt) == zero
        assert _m_bracket(inst, nt_half, u_n) == tuple(beta * x for x in u_n)
    print("\nACCEPTANCE 6 worked family brackets match their closed forms componentwise: PASS")


def test_acceptance_7_table_reproduction(capsys):
    assert main(["table1"]) == 0
    capsys.readouterr()
    # the enumerated sweep (no rank-one boundary family) covers exactly
    # I, III, IV, V, VI, VII and VIII/IX; type II never occurs
    e, l = so3(), so21()
    produced = {}
    for inst in standard_sweep(e, l, include_rank_one=False):
        produced.setdefault(classify_factor(inst).label, []).append(inst)
    assert set(produced) == {"I", "III", "IV", "V", "VI", "VII", "VIII", "IX"}
    assert "II" not in produced
    # the specific representatives called out per row
    assert classify_factor(zero_solution(e, 0)).label == "I"
    assert classify_factor(double_solution(e, 1, 1)).label == "IX"
    assert classify_factor(double_solution(l, 1, 1)).label == "VIII"
    assert classify_factor(generalized_kappa(e, (1, 0, 0), 1, 1, -1)).label == "VII"
    assert classify_factor(generalized_kappa(l, (0, 1, 0), 2, 1, 1)).label == "VI"
    assert classify_factor(generalized_kappa(l, (-1, 0, -1), 0, 1, 0)).label == "V"
    assert classify_factor(generalized_kappa(l, (-1, 0, -1), 1, 1, 0)).label == "IV"
    assert classify_factor(small_jordan(l, 1, 1, 1)).label == "III"
    assert classify_factor(large_jordan(l, 1)).label == "III"
    print("\nACCEPTANCE 7 summary table reproduction, no type II in sweep: PASS")


def test_acceptance_8_negative_controls():
    e, l = so3(), so21()
    # F = id with lambda = 0 fails both the closure condition and the mCYBE
    for g in (e, l):
        assert not factorization_check(g, Matrix.identity(3), 0).is_zero()
        sd = semidual_algebra(g)
        assert not mcybe_check(sd, r_matrix(Matrix.identity(3)), 0).is_zero()
    # single-entry perturbations: the factorisation check and the mCYBE
    # check agree on zero/nonzero status in every one of 100 seeded trials
    # (the load-bearing assertion).  Rank-one and zero instances are
    # excluded from the pool: perturbing a diagonal entry of beta m^b m_a
    # lands back inside the rank-one family.  A perturbation can still
    # legitimately re-solve by hitting the one matrix slot that carries
    # beta alone (axis-aligned v), so the >= 95 detection count holds for
    # the fixed seed but is not a per-trial guarantee.
    from semidual.solutions import Family

    rng = random.Random(8)
    pool = [
        inst for inst in standard_sweep(e, l)
        if not inst.F.is_zero() and inst.family is not Family.RANKONE
    ]
    semiduals = {g: semidual_algebra(g) for g in (e, l)}
    nonzero_count = 0
    for _ in range(100):
        inst = rng.choice(pool)
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        delta = Fraction(0)
        while delta == 0:
            delta = rng_rat(rng)
        rows = [list(r) for r in inst.F.data]
        rows[i][j] += delta
        F = Matrix(rows)
        fact_zero = factorization_check(inst.algebra, F, inst.lam).is_zero()
        mcybe_zero = mcybe_check(
            semiduals[inst.algebra], r_matrix(F), inst.lam
        ).is_zero()
        assert fact_zero == mcybe_zero
        if not fact_zero:
            nonzero_count += 1
    assert nonzero_count >= 95
    print(f"\nACCEPTANCE 8 negative controls ({nonzero_count}/100 perturbations "
          "detected, statuses agree 100/100): PASS")


def test_acceptance_9_classifier():
    rng = random.Random(9)

    def random_invertible():
        while True:
            m = Matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
            if m.det() != 0:
                return m

    reps = canonical_representatives()
    for label, g in reps.items():
        for _ in range(20):
            assert classify(change_basis(g, random_invertible())).label == label
    # Heisenberg -> II
    cube = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    cube[0][1][2], cube[1][0][2] = 1, -1
    assert classify(make_lie_algebra(Tensor3(cube))).label == "II"
    # Behr round trip on 100 random valid algebras
    rep_list = list(reps.values())
    for i in range(100):
        g = change_basis(rep_list[i % len(rep_list)], random_invertible())
        behr_decompose(g)  # asserts the round-trip identity internally
    print("\nACCEPTANCE 9 bianchi classifier invariance and round trip: PASS")
