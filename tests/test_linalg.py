import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semidual.linalg import (
    DimensionMismatch,
    Matrix,
    Tensor3,
    adjugate_cofactor,
    inertia,
    nullspace,
    rat,
    rat_str,
    solve,
)
from semidual.factorize import basis_change_matrix
from conftest import (
    dense_add,
    dense_apply,
    dense_neg,
    dense_scale,
    dense_sub,
    rng_invertible,
    rng_matrix,
    rng_rat,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def mat3(st_):
    return st.lists(st.lists(st_, min_size=3, max_size=3), min_size=3, max_size=3).map(Matrix)


class TestRationals:
    def test_exact_arithmetic(self):
        assert rat("1/2") + rat("1/3") == rat("5/6")
        assert rat("3/7") * rat("7/3") == 1
        assert rat("2/4") == Fraction(1, 2)  # lowest terms

    def test_lowest_terms_representation(self):
        q = rat("2/4")
        assert q.numerator == 1 and q.denominator == 2
        assert rat_str("-6/4") == "-3/2"

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rat(1) / rat(0)

    def test_strict_parsing(self):
        assert rat("-3") == -3
        assert rat("+2/6") == Fraction(1, 3)
        for bad in ("1.5", "1/0", "a", "1e3", "", "1/2/3"):
            with pytest.raises(ValueError):
                rat(bad)
        with pytest.raises(TypeError):
            rat(0.5)

    def test_bools_are_not_rationals(self):
        for flag in (True, False):
            with pytest.raises(TypeError):
                rat(flag)

    @given(rationals, rationals)
    def test_field_ops_match_fraction(self, a, b):
        assert rat(str(a)) == a
        assert rat(str(a)) + rat(str(b)) == a + b


class TestMatrix:
    def test_trace_identity(self):
        assert Matrix.identity(3).trace() == 3

    def test_det_diagonal(self):
        assert Matrix.diagonal([1, 2, 3]).det() == 6

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            Matrix([[1, 2], [3]])
        with pytest.raises(DimensionMismatch):
            Matrix.identity(2) @ Matrix.identity(3)

    def test_apply_column_convention(self):
        # M represents J_a -> M[b][a] J_b: column a is the image of e_a
        m = Matrix([[0, 1, 0], [0, 0, 2], [3, 0, 0]])
        assert m.apply((1, 0, 0)) == (0, 0, 3)
        assert m.apply((0, 1, 0)) == (1, 0, 0)

    @given(mat3(rationals))
    def test_det_matches_permutation_expansion(self, m):
        d = m.data
        expansion = (
            d[0][0] * d[1][1] * d[2][2]
            + d[0][1] * d[1][2] * d[2][0]
            + d[0][2] * d[1][0] * d[2][1]
            - d[0][2] * d[1][1] * d[2][0]
            - d[0][0] * d[1][2] * d[2][1]
            - d[0][1] * d[1][0] * d[2][2]
        )
        assert m.det() == expansion

    @given(mat3(rationals))
    def test_rank_agrees_with_det(self, m):
        # exact Gaussian rank vs det != 0 for square matrices
        assert (m.rank() == 3) == (m.det() != 0)

    @given(mat3(rationals))
    def test_inverse_round_trip(self, m):
        if m.det() == 0:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
        else:
            assert m @ m.inverse() == Matrix.identity(3)
            assert m.inverse() @ m == Matrix.identity(3)

    @given(mat3(rationals))
    def test_adjugate_cofactor_identity(self, m):
        assert adjugate_cofactor(m) @ m == m.det() * Matrix.identity(3)

    @given(mat3(rationals))
    def test_metric_transpose_involution(self, m):
        for eta in (
            Matrix.diagonal([1, 1, 1]),
            Matrix.diagonal([1, -1, -1]),
            Matrix.diagonal([2, 3, -5]),
            Matrix([[1, 1, 0], [1, 2, 0], [0, 0, 1]]),
        ):
            assert m.metric_transpose(eta).metric_transpose(eta) == m

    def test_metric_transpose_defining_property(self):
        rng = random.Random(7)
        eta = Matrix.diagonal([1, -1, -1])
        for _ in range(20):
            m = rng_matrix(rng)
            mt = m.metric_transpose(eta)
            for a in range(3):
                for b in range(3):
                    ea = tuple(1 if i == a else 0 for i in range(3))
                    eb = tuple(1 if i == b else 0 for i in range(3))
                    # <M^t e_a, e_b> == <e_a, M e_b>
                    lhs = sum(mt.apply(ea)[i] * eta[i, b] for i in range(3))
                    rhs = sum(eta[a, j] * m.apply(eb)[j] for j in range(3))
                    assert lhs == rhs


class TestSolveNullspace:
    def test_solve_known_system(self):
        a = Matrix([[1, 1], [1, -1]])
        assert solve(a, (3, 1)) == (2, 1)

    def test_solve_inconsistent(self):
        a = Matrix([[1, 1], [1, 1]])
        assert solve(a, (1, 2)) is None

    def test_solve_overdetermined_consistent(self):
        a = Matrix([[1, 0], [0, 1], [1, 1]])
        assert solve(a, (2, 3, 5)) == (2, 3)

    def test_nullspace(self):
        a = Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        basis = nullspace(a)
        assert len(basis) == 1
        for v in basis:
            assert a.apply(v) == (0, 0, 0)

    def test_nullspace_full_rank(self):
        assert nullspace(Matrix.identity(3)) == []


class TestInertia:
    def test_canonical_diagonals(self):
        assert inertia(Matrix.diagonal([1, 1, 1])) == (3, 0, 0)
        assert inertia(Matrix.diagonal([1, -1, 0])) == (1, 1, 1)
        assert inertia(Matrix.diagonal([0, 0, 0])) == (0, 0, 3)
        assert inertia(Matrix.diagonal([4, -9, -1])) == (1, 2, 0)

    def test_hyperbolic_pair(self):
        # zero diagonal with nonzero off-diagonal contributes (+1, -1)
        assert inertia(Matrix([[0, 1], [1, 0]])) == (1, 1, 0)
        assert inertia(Matrix([[0, 0, 2], [0, 5, 0], [2, 0, 0]])) == (2, 1, 0)

    def test_congruence_invariance(self):
        # Sylvester's law: inertia is invariant under A -> P A P^T
        rng = random.Random(11)
        diags = [(1, 1, 1), (1, -1, 0), (1, 1, -1), (0, 0, 1), (2, -3, 0)]
        for d in diags:
            a = Matrix.diagonal(d)
            want = inertia(a)
            for _ in range(10):
                p = rng_matrix(rng)
                while p.det() == 0:
                    p = rng_matrix(rng)
                assert inertia(p @ a @ p.transpose()) == want

    def test_requires_symmetric(self):
        with pytest.raises(ValueError):
            inertia(Matrix([[0, 1], [0, 0]]))

    @given(mat3(rationals))
    def test_descartes_oracle(self, a):
        # independent route: a symmetric rational matrix has real spectrum,
        # so Descartes' rule of signs on the characteristic polynomial
        # counts the positive/negative eigenvalues exactly
        s = a + a.transpose()
        d = s.data
        tr = s.trace()
        minors = sum(
            d[i][i] * d[j][j] - d[i][j] * d[j][i]
            for i in range(3)
            for j in range(i + 1, 3)
        )
        coeffs = [Fraction(1), -tr, minors, -s.det()]  # det(t id - S)
        zero = 0
        while coeffs and coeffs[-1] == 0:
            zero += 1
            coeffs.pop()

        def changes(cs):
            signs = [c > 0 for c in cs if c != 0]
            return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

        pos = changes(coeffs)
        neg = changes([c * (-1) ** i for i, c in enumerate(coeffs)])
        assert inertia(s) == (pos, neg, zero)


class TestTensor3:
    def test_build_and_index(self):
        t = Tensor3.build(2, lambda i, j, k: i + 2 * j + 4 * k)
        assert t[1, 1, 1] == 7
        assert not t.is_zero()

    def test_arithmetic(self):
        t = Tensor3.build(2, lambda i, j, k: i - k)
        assert (t - t).is_zero()
        assert (2 * t)[1, 0, 0] == 2

    def test_nonzero_sorted(self):
        t = Tensor3.build(2, lambda i, j, k: 1 if (i, j, k) in ((1, 0, 1), (0, 1, 0)) else 0)
        assert [idx[:3] for idx in t.nonzero()] == [(0, 1, 0), (1, 0, 1)]

    def test_sparse_sums_listed_entries(self):
        t = Tensor3.sparse(2, [(0, 1, 0, 1), (1, 0, 1, Fraction(1, 2)), (0, 1, 0, 2)])
        assert t.nonzero() == [(0, 1, 0, 3), (1, 0, 1, Fraction(1, 2))]
        assert Tensor3.sparse(3, []) == Tensor3.zeros(3)

    def test_not_cubical(self):
        with pytest.raises(DimensionMismatch):
            Tensor3([[[1]], [[1]]])


def planted_zeros(rng: random.Random, count: int, zero_share=0.6) -> list[Fraction]:
    """Random rationals, about zero_share of them exactly zero."""
    return [Fraction(0) if rng.random() < zero_share else rng_rat(rng) for _ in range(count)]


def sparse_tensor(rng: random.Random, dim: int, zero_share=0.6) -> Tensor3:
    vals = iter(planted_zeros(rng, dim ** 3, zero_share))
    return Tensor3.build(dim, lambda i, j, k: next(vals))


def all_fractions(values) -> bool:
    return all(type(v) is Fraction for v in values)


def tensor_entries(t: Tensor3):
    return [v for plane in t.data for row in plane for v in row]


class TestSparseApply:
    """Matrix.apply skips zeros of x and of M; it must equal the dense sum."""

    def test_random_with_planted_zeros(self):
        rng = random.Random(20131018)
        for _ in range(60):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            share = rng.choice([0, 0.5, 0.9, 1])
            M = Matrix([planted_zeros(rng, cols, share) for _ in range(rows)])
            for x_share in (0, 0.5, 0.9, 1):
                x = planted_zeros(rng, cols, x_share)
                out = M.apply(x)
                assert out == dense_apply(M, x)
                assert len(out) == rows and all_fractions(out)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_inverse_basis_change(self, n):
        rng = random.Random(n)
        for _ in range(3):
            binv = basis_change_matrix(rng_matrix(rng, n)).inverse()
            for _ in range(8):
                x = planted_zeros(rng, 2 * n, rng.choice([0.3, 0.8]))
                assert binv.apply(x) == dense_apply(binv, x)
            for e in Matrix.identity(2 * n).data:
                assert binv.apply(e) == dense_apply(binv, e)

    def test_zero_vector(self):
        M = rng_matrix(random.Random(1), 4)
        out = M.apply([0, Fraction(0), "0", "0/5"])
        assert out == (0, 0, 0, 0) and all_fractions(out)
        assert Matrix.zeros(2, 3).apply([1, 2, 3]) == (0, 0)

    def test_int_and_string_entries(self):
        M = Matrix([[1, "1/2", 0], ["-2/3", 0, 4]])
        for x in ([3, "1/3", "-5/7"], ["2", 0, 1], [0, "3/4", 0]):
            out = M.apply(x)
            assert out == dense_apply(M, x) and all_fractions(out)
        assert M.apply([1, 2, 0]) == (2, Fraction(-2, 3))

    def test_length_mismatch(self):
        M = Matrix.identity(3)
        for x in ([1, 2], [0, 0, 0, 0], []):
            with pytest.raises(DimensionMismatch):
                M.apply(x)


class TestElementwiseArithmetic:
    """Tensor3 and Matrix operators skip exact-zero operands and wrap their
    result without coercion; entries must equal the dense references and
    the results must equal tensors built through the public constructor."""

    SCALARS = [0, 1, -3, "0", "2/3", "-7/4", Fraction(5, 2), Fraction(0)]

    def check_public(self, t: Tensor3):
        assert all_fractions(tensor_entries(t))
        public = Tensor3([[list(row) for row in plane] for plane in t.data])
        assert t == public and hash(t) == hash(public)

    def test_tensor_operators(self):
        rng = random.Random(17)
        for dim in (1, 2, 3, 5):
            for share in (0, 0.6, 0.95, 1):
                s, t = sparse_tensor(rng, dim, share), sparse_tensor(rng, dim, 0.6)
                for got, want in (
                    (s + t, dense_add(s, t)),
                    (t + s, dense_add(t, s)),
                    (s - t, dense_sub(s, t)),
                    (t - s, dense_sub(t, s)),
                    (s - s, Tensor3.zeros(dim)),
                    (-s, dense_neg(s)),
                ):
                    assert got == want
                    self.check_public(got)
                for c in self.SCALARS:
                    assert s * c == dense_scale(c, s) == c * s
                    self.check_public(s * c)
                    self.check_public(c * s)

    def test_bool_scalar_rejected(self):
        t = sparse_tensor(random.Random(4), 2)
        for c in (True, False):
            with pytest.raises(TypeError):
                t * c
            with pytest.raises(TypeError):
                c * t

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Tensor3.zeros(2) + Tensor3.zeros(3)
        with pytest.raises(DimensionMismatch):
            Tensor3.zeros(3) - Tensor3.zeros(2)

    def test_matrix_results_equal_public_construction(self):
        rng = random.Random(5)
        a, b = rng_matrix(rng, 4), rng_invertible(rng, 4)
        for m in (a + b, a - b, -a, a * "3/2", 2 * a, a @ b, a.transpose(), b.inverse()):
            entries = [v for row in m.data for v in row]
            assert all_fractions(entries)
            public = Matrix([list(row) for row in m.data])
            assert m == public and hash(m) == hash(public)
        assert (b.inverse() @ b) == Matrix.identity(4)
        assert a.transpose().transpose() == a


def test_sparse_coerces_listed_values():
    t = Tensor3.sparse(2, [(0, 1, 0, 1), (1, 0, 0, "2/5"), (1, 1, 1, -1), (1, 1, 1, Fraction(1, 3))])
    assert t.nonzero() == [(0, 1, 0, 1), (1, 0, 0, Fraction(2, 5)), (1, 1, 1, Fraction(-2, 3))]
    assert all_fractions(tensor_entries(t))
    with pytest.raises(TypeError):
        Tensor3.sparse(2, [(0, 0, 0, True)])
