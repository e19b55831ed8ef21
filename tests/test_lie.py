import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semidual.lie import (
    AntisymmetryViolation,
    LieAlgebra,
    JacobiViolation,
    MetricError,
    MetricNotInvariant,
    complexify,
    eps,
    make_lie_algebra,
    null_basis,
    outer,
    so3,
    so21,
    theta,
)
from semidual.linalg import Matrix, Tensor3
from conftest import dense_inner, dense_outer, rng_matrix, rng_vec

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
vectors = st.tuples(rationals, rationals, rationals)

LAMBDAS = [Fraction(x) for x in (-4, -1, 0, 1, 4)]


def basis(n, a):
    return tuple(Fraction(1) if i == a else Fraction(0) for i in range(n))


class TestConstruction:
    def test_so3_brackets(self, euclid):
        # eps_{012} = +1 convention
        assert euclid.bracket(basis(3, 0), basis(3, 1)) == basis(3, 2)
        assert euclid.bracket(basis(3, 1), basis(3, 2)) == basis(3, 0)

    def test_so21_brackets(self, lorentz):
        # index raised with diag(1,-1,-1)
        assert lorentz.bracket(basis(3, 0), basis(3, 1)) == (0, 0, Fraction(-1))
        assert lorentz.bracket(basis(3, 1), basis(3, 2)) == basis(3, 0)

    def test_so21_metric(self, lorentz):
        assert lorentz.inner(basis(3, 1), basis(3, 1)) == -1
        assert lorentz.inner(basis(3, 0), basis(3, 0)) == 1

    def test_two_step_solvable_algebra_valid(self):
        # [e1, e2] = e1 only: every Jacobi triple vanishes
        cube = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        cube[0][1][0] = Fraction(1)
        cube[1][0][0] = Fraction(-1)
        g = make_lie_algebra(Tensor3(cube))
        assert g.bracket(basis(3, 0), basis(3, 1)) == basis(3, 0)

    def test_antisymmetry_violation(self):
        cube = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        cube[0][1][2] = 1
        cube[1][0][2] = 1  # should be -1
        with pytest.raises(AntisymmetryViolation) as exc:
            make_lie_algebra(Tensor3(cube))
        assert exc.value.indices == (0, 1, 2)

    def test_jacobi_violation_names_indices(self):
        # n = diag(1,0,0), a = (1,0,0) has n a != 0, so Jacobi must fail
        cube = [[[0] * 3 for _ in range(3)] for _ in range(3)]

        def add(a, b, c, v):
            cube[a][b][c] = v
            cube[b][a][c] = -v

        add(1, 2, 0, 1)       # eps part from n
        add(0, 1, 1, 1)       # a-part: a_0 = 1
        add(0, 2, 2, 1)
        with pytest.raises(JacobiViolation) as exc:
            make_lie_algebra(Tensor3(cube))
        assert exc.value.residual != 0

    def test_metric_invariance_violation(self, euclid):
        with pytest.raises(MetricNotInvariant):
            make_lie_algebra(euclid.f, Matrix.diagonal([1, 2, 3]))

    def test_singular_metric_rejected(self, euclid):
        with pytest.raises(MetricError):
            make_lie_algebra(euclid.f, Matrix.diagonal([1, 1, 0]))

    @given(vectors)
    def test_bracket_alternating(self, x):
        g = so21()
        assert g.bracket(x, x) == (0, 0, 0)

    @given(vectors, vectors, vectors)
    def test_jacobi_on_elements(self, x, y, z):
        g = so3()
        lhs = tuple(
            a + b + c
            for a, b, c in zip(
                g.bracket(x, g.bracket(y, z)),
                g.bracket(y, g.bracket(z, x)),
                g.bracket(z, g.bracket(x, y)),
            )
        )
        assert lhs == (0, 0, 0)


class TestEpsilonIdentities:
    def test_eps_identity_exhaustive(self, euclid, lorentz):
        # eps_abc eps^{efg} = det of deltas, entrywise over all 729 tuples
        for g in (euclid, lorentz):
            eta = g.metric
            d = lambda i, j: 1 if i == j else 0
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        lower = eps(a, b, c)
                        for e in range(3):
                            for f in range(3):
                                for h in range(3):
                                    upper = sum(
                                        eps(x, y, z) * eta[x, e] * eta[y, f] * eta[z, h]
                                        for x in range(3)
                                        for y in range(3)
                                        for z in range(3)
                                    )
                                    rhs = (
                                        d(a, e) * (d(b, f) * d(c, h) - d(b, h) * d(c, f))
                                        - d(a, f) * (d(b, e) * d(c, h) - d(b, h) * d(c, e))
                                        + d(a, h) * (d(b, e) * d(c, f) - d(b, f) * d(c, e))
                                    )
                                    assert lower * upper == rhs

    def test_double_bracket_identity_basis(self, euclid, lorentz):
        # [X,[Y,Z]] = <X,Z> Y - <X,Y> Z on all 27 basis triples
        for g in (euclid, lorentz):
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        x, y, z = basis(3, a), basis(3, b), basis(3, c)
                        lhs = g.bracket(x, g.bracket(y, z))
                        xz, xy = g.inner(x, z), g.inner(x, y)
                        rhs = tuple(xz * y[i] - xy * z[i] for i in range(3))
                        assert lhs == rhs

    @given(vectors, vectors, vectors)
    def test_double_bracket_identity_random(self, x, y, z):
        for g in (so3(), so21()):
            lhs = g.bracket(x, g.bracket(y, z))
            xz, xy = g.inner(x, z), g.inner(x, y)
            assert lhs == tuple(xz * y[i] - xy * z[i] for i in range(3))

    @given(vectors, vectors, vectors, vectors)
    def test_cyclic_identity_random(self, x, y, z, v):
        for g in (so3(), so21()):
            lhs = (
                g.inner(g.bracket(x, y), v) * g.inner(v, z)
                + g.inner(g.bracket(y, z), v) * g.inner(v, x)
                + g.inner(g.bracket(z, x), v) * g.inner(v, y)
            )
            assert lhs == g.inner(v, v) * g.inner(g.bracket(x, y), z)


class TestComplexify:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_construction_valid(self, euclid, lorentz, lam):
        for g in (euclid, lorentz):
            gl = complexify(g, lam)  # Jacobi re-verified inside
            assert gl.dim == 6

    def test_semidirect_product(self, euclid):
        gl = complexify(euclid, 0)
        assert gl.bracket(basis(6, 3), basis(6, 4)) == (0,) * 6

    def test_so21_lambda_one(self, lorentz):
        gl = complexify(lorentz, 1)
        # [Q_0, Q_1] = eps_{01c} J^c = -J_2
        assert gl.bracket(basis(6, 3), basis(6, 4)) == (0, 0, Fraction(-1), 0, 0, 0)

    def test_usual_complexification(self, lorentz):
        gl = complexify(lorentz, -1)
        for a in range(3):
            for b in range(3):
                got = gl.bracket(basis(6, 3 + a), basis(6, 3 + b))
                want = tuple(-v for v in lorentz.bracket(basis(3, a), basis(3, b))) + (0, 0, 0)
                assert got == want

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_j_span_isomorphic(self, lorentz, lam):
        gl = complexify(lorentz, lam)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert gl.f[a, b, c] == lorentz.f[a, b, c]
                    assert gl.f[a, b, 3 + c] == 0

    def test_q_j_bracket(self, euclid):
        gl = complexify(euclid, 5)
        # [Q_a, J_b] = f_ab^c Q_c independently of lambda
        assert gl.bracket(basis(6, 3), basis(6, 1)) == (0, 0, 0, 0, 0, Fraction(1))


class TestTheta:
    def test_on_generators(self, euclid):
        gl = complexify(euclid, 1)
        assert theta(gl, basis(6, 0), 1) == basis(6, 3)
        assert theta(gl, basis(6, 3), 1) == basis(6, 0)

    def test_squares_to_lambda(self, lorentz):
        for lam in LAMBDAS:
            gl = complexify(lorentz, lam)
            for i in range(6):
                x = basis(6, i)
                assert theta(gl, theta(gl, x, lam), lam) == tuple(lam * v for v in x)

    def test_example_negative_lambda(self, euclid):
        gl = complexify(euclid, -1)
        assert theta(gl, theta(gl, basis(6, 0), -1), -1) == tuple(
            -v for v in basis(6, 0)
        )


class TestNullBasis:
    def test_brackets(self, lorentz):
        for s in (Fraction(1), Fraction(2), Fraction(1, 3)):
            nb = null_basis(lorentz, s)
            n, nt, j1 = nb.col(0), nb.col(1), nb.col(2)
            assert lorentz.bracket(nt, n) == tuple(2 * s * s * v for v in j1)
            assert lorentz.bracket(j1, n) == n
            assert lorentz.bracket(j1, nt) == tuple(-v for v in nt)

    def test_null_pairings(self, lorentz):
        nb = null_basis(lorentz, 1)
        n, nt = nb.col(0), nb.col(1)
        assert lorentz.inner(n, n) == 0
        assert lorentz.inner(nt, nt) == 0
        assert lorentz.inner(n, nt) == 2  # 2 s^2 with s = 1

    def test_zero_scale_rejected(self, lorentz):
        with pytest.raises(ValueError):
            null_basis(lorentz, 0)

    def test_euclidean_rejected(self, euclid):
        with pytest.raises(MetricError):
            null_basis(euclid, 1)


class TestMetricTranspose:
    def test_adjoint_is_antisymmetric(self, euclid):
        # transpose of ad_{J_0} w.r.t. diag(1,1,1) is -ad_{J_0}: checked via
        # the pairing <[J_0,X],Y> = -<X,[J_0,Y]> on all 9 basis pairs, then
        # frozen as a matrix identity
        ad0 = euclid.ad(basis(3, 0))
        for a in range(3):
            for b in range(3):
                x, y = basis(3, a), basis(3, b)
                assert euclid.inner(euclid.bracket(basis(3, 0), x), y) == -euclid.inner(
                    x, euclid.bracket(basis(3, 0), y)
                )
        assert ad0.metric_transpose(euclid.metric) == -ad0

    def test_lorentzian_adjoint(self, lorentz):
        for a in range(3):
            ad = lorentz.ad(basis(3, a))
            assert ad.metric_transpose(lorentz.metric) == -ad


class TestOuter:
    def test_defining_formula(self, lorentz):
        # |x><y| Z == x <y, Z> on basis vectors, random x, y
        rng = random.Random(3)
        for _ in range(25):
            x, y = rng_vec(rng), rng_vec(rng)
            m = outer(lorentz, x, y)
            for a in range(3):
                z = basis(3, a)
                want = tuple(lorentz.inner(y, z) * xi for xi in x)
                assert m.apply(z) == want


@pytest.mark.parametrize("n", [1, 3, 6])
def test_inner_and_outer_follow_the_metric_nonzeros(n):
    # random symmetric metrics, some entries and some vector components
    # exactly zero; the dense n^2 sums are the reference
    rng = random.Random(f"metric{n}")
    for _ in range(6):
        m = rng_matrix(rng, n)
        m = Matrix.build(n, n, lambda i, j: m[i, j] if rng.random() < 0.5 else 0)
        g = LieAlgebra(n, Tensor3.zeros(n), m + m.transpose())
        for _ in range(4):
            x, y = (tuple(v if rng.random() < 0.7 else 0 for v in rng_vec(rng, n)) for _ in "xy")
            assert g.inner(x, y) == dense_inner(g, x, y)
            assert type(g.inner(x, y)) is Fraction
            assert outer(g, x, y) == dense_outer(g, x, y)
