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
from conftest import rng_matrix

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
