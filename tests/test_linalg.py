import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semidual.linalg import (
    DimensionMismatch,
    Matrix,
    Tensor3,
    _eliminate,
    adjugate_cofactor,
    inertia,
    nullspace,
    rat,
    rat_str,
    solve,
)
from semidual.factorize import basis_change_matrix, factorization_check
from semidual.lie import LieAlgebra
from conftest import (
    dense_add,
    dense_apply,
    dense_matmul,
    dense_neg,
    dense_scale,
    dense_sub,
    ref_det,
    ref_inverse,
    ref_nullspace,
    ref_rank,
    ref_solve,
    rng_invertible,
    rng_matrix,
    rng_rat,
    samples,
    wide_f,
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
        # Arabic-Indic and fullwidth digits: int() takes them, rat must not
        for bad in ("1.5", "1/0", "a", "1e3", "", "1/2/3", "\u0663", "\uff11/2", "1/\u0662"):
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


class TestFractionFreeElimination:
    """det (Bareiss) and inverse, rank, solve and nullspace (fraction-free
    Gauss-Jordan on int rows) equal the Fraction eliminations kept in
    conftest exactly, singular and rank-deficient inputs included."""

    def check(self, m: Matrix, rng):
        assert m.rank() == ref_rank(m)
        assert nullspace(m) == ref_nullspace(m)
        x0 = [rng_rat(rng) for _ in range(m.cols)]
        for b in (m.apply(x0), [rng_rat(rng) for _ in range(m.rows)]):
            assert solve(m, b) == ref_solve(m, b)
        if m.rows != m.cols:
            return
        assert m.det() == ref_det(m)
        if ref_det(m):
            assert m.inverse() == ref_inverse(m)
            assert m @ m.inverse() == Matrix.identity(m.rows)
        else:
            for inverse in (Matrix.inverse, ref_inverse):
                with pytest.raises(ZeroDivisionError):
                    inverse(m)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 18])
    def test_square_samples(self, n):
        rng = random.Random(f"elimination-{n}")
        for m in samples(n, 5):
            self.check(m, rng)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_basis_change_with_wide_entries(self, n):
        rng = random.Random(f"elimination-wide-{n}")
        F = wide_f(rng, n)
        assert all(t.bit_length() >= 30 for _, _, v in F.nonzero() for t in v.as_integer_ratio())
        B = basis_change_matrix(F)
        self.check(B, rng)
        assert B.det() == 1
        rows = [list(row) for row in B.data]
        rows[n - 1] = [2 * v for v in rows[0]]  # rank 2n - 1
        self.check(Matrix(rows), rng)

    def test_rows_stay_primitive(self):
        # each updated row is divided by its content, so primitive rows stay
        # primitive; p row_i - f row_r alone would keep the earlier pivots
        # as common factors and the ints would grow with every step
        rng = random.Random(7)
        for n in (6, 12):
            rows = [[rng.randint(-9, 9) for _ in range(2 * n)] for _ in range(n)]
            rows = [[v // math.gcd(*row) for v in row] for row in rows if any(row)]
            _eliminate(rows, n)
            assert all(math.gcd(*row) == 1 for row in rows if any(row))

    def test_rectangular_and_inconsistent(self):
        rng = random.Random(6)
        wide = Matrix([[rng_rat(rng) for _ in range(7)] for _ in range(4)])
        tall = Matrix([list(row) + [row[0] - row[1]] for row in wide.transpose().data])
        for m in (wide, wide.transpose(), tall, Matrix.zeros(3, 5)):
            self.check(m, rng)
        # the last row is the sum of the first two, the rhs is not
        a = Matrix([[1, 2, 0], [0, 1, "1/3"], [1, 3, "1/3"]])
        for b in ((1, 1, 3), (0, 0, 1)):
            assert solve(a, b) is None and ref_solve(a, b) is None
        assert solve(a, (1, 1, 2)) == ref_solve(a, (1, 1, 2)) == (-1, 1, 0)


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
    n = range(t.dim)
    return [t[i, j, k] for i in n for j in n for k in n]


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
        n = range(t.dim)
        public = Tensor3([[[t[i, j, k] for k in n] for j in n] for i in n])
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
    # each listed value is coerced before summing: "1" + "2" must not concatenate
    assert Tensor3.sparse(1, [(0, 0, 0, "1"), (0, 0, 0, "2")]).nonzero() == [(0, 0, 0, 3)]
    with pytest.raises(TypeError):
        Tensor3.sparse(2, [(0, 0, 0, True)])
    with pytest.raises(TypeError):
        Tensor3.sparse(2, [(0, 0, 0, 1), (0, 0, 0, True)])


def check_storage(t: Tensor3):
    """The stored table holds only nonzero entries, in index order, and
    nonzero() is what a dense scan through t[i, j, k] finds."""
    keys = list(t.table)
    assert keys == sorted(set(keys))
    for row in t.table.values():
        ks = [k for k, _ in row]
        assert row and ks == sorted(set(ks))
        assert all(type(v) is Fraction and v != 0 for _, v in row)
    n = range(t.dim)
    dense = [(i, j, k, t[i, j, k]) for i in n for j in n for k in n]
    assert t.nonzero() == [e for e in dense if e[3] != 0]
    assert t.is_zero() == (not t.nonzero())


class TestSparseStorage:
    """Tensor3 stores only its nonzero entries, as (i, j) -> ((k, v), ...)."""

    def test_no_zero_is_ever_stored(self):
        rng = random.Random(11)
        s = sparse_tensor(rng, 3, 0.5)
        assert not s.is_zero()
        cancelled = Tensor3.sparse(2, [(0, 1, 0, 1), (1, 1, 1, "1/2"), (0, 1, 0, -1), (1, 1, 1, "-1/2")])
        public_zero = Tensor3([[[0, "0"], [Fraction(0), "0/3"]], [[0, 0], [0, 0]]])
        for t in (s - s, 0 * s, s * "0", cancelled, public_zero, Tensor3.build(2, lambda i, j, k: 0)):
            check_storage(t)
            assert not t.table and t.is_zero()
        partial = Tensor3.sparse(2, [(0, 1, 0, 1), (0, 1, 0, -1), (0, 1, 1, 3)])
        check_storage(partial)
        assert dict(partial.table) == {(0, 1): ((1, 3),)}

    def test_all_constructions_agree(self):
        rng = random.Random(12)
        for dim in (1, 2, 4):
            for share in (0, 0.7, 1):
                vals = planted_zeros(rng, dim ** 3, share)
                n = range(dim)
                cube = [[[vals[(i * dim + j) * dim + k] for k in n] for j in n] for i in n]
                entries = [(i, j, k, cube[i][j][k]) for i in n for j in n for k in n]
                rng.shuffle(entries)
                halves = [(i, j, k, v / 2) for i, j, k, v in entries] * 2
                rng.shuffle(halves)
                zero = Tensor3.zeros(dim)
                built = [
                    Tensor3(cube),
                    Tensor3.build(dim, lambda i, j, k: cube[i][j][k]),
                    Tensor3.sparse(dim, entries),
                    Tensor3.sparse(dim, halves),
                    Tensor3(cube) + zero,
                    zero + Tensor3(cube),
                    Tensor3(cube) - zero,
                    -(zero - Tensor3(cube)),
                    1 * Tensor3(cube),
                ]
                for t in built:
                    check_storage(t)
                    assert t == built[0] and hash(t) == hash(built[0])

    def test_index_out_of_range(self):
        t = Tensor3.sparse(3, [(0, 1, 2, 1)])
        assert t[0, 1, 2] == 1 and t[2, 1, 0] == 0
        for key in ((3, 0, 0), (0, 3, 0), (0, 0, 3), (-1, 0, 0), (0, -1, 1), (0, 1, -1)):
            with pytest.raises(IndexError):
                t[key]
        for key in ((0, 0, 3), (0, -1, 0)):
            with pytest.raises(IndexError):
                Tensor3.sparse(3, [(*key, 1)])

    def test_table_is_read_only(self):
        t = Tensor3.sparse(2, [(0, 1, 0, 1)])
        with pytest.raises(TypeError):
            t.table[0, 1] = ((1, Fraction(1)),)
        with pytest.raises(TypeError):
            t.table[1, 1] = ((0, Fraction(1)),)
        assert dict(t.table) == {(0, 1): ((0, 1),)}


def check_canonical(t: Tensor3):
    """den > 0, gcd(den, every stored int) = 1, den 1 for the zero tensor,
    and every entry read back is a Fraction."""
    den, ints = t.int_table()
    assert den > 0 and math.gcd(den, *(v for row in ints.values() for _, v in row)) == 1
    assert den == 1 or not t.is_zero()
    n = range(t.dim)
    assert all(type(t[i, j, k]) is Fraction for i in n for j in n for k in n)
    assert all(type(v) is Fraction and t[i, j, k] == v == Fraction(
        dict(ints[i, j])[k], den) for i, j, k, v in t.nonzero())


@st.composite
def listed_entries(draw):
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    value = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return dim, draw(st.lists(st.tuples(index, index, index, value), max_size=10))


class TestCanonicalStorage:
    """Tensor3 keeps ints over one positive denominator prime to all of
    them, so every construction of one tensor stores the same thing."""

    def test_one_half_three_ways(self):
        forms = [Tensor3.sparse(2, [(0, 1, 1, v)]) for v in ("1/2", "2/4", Fraction(1, 2))]
        forms += [Tensor3.from_ints(2, 8, {(0, 1, 1): 4, (1, 1, 1): 0})]
        for t in forms:
            assert t.int_table() == (2, {(0, 1): ((1, 1),)})
            assert t == forms[0] and hash(t) == hash(forms[0])
            check_canonical(t)
        assert Tensor3.zeros(3).int_table() == (1, {}) == (forms[0] - forms[1]).int_table()

    @given(listed_entries(), st.integers(1, 6))
    def test_every_construction_stores_the_same(self, case, k):
        dim, entries = case
        t = Tensor3.sparse(dim, entries)
        den, ints = t.int_table()
        zero = Tensor3.zeros(dim)
        forms = [
            Tensor3.sparse(dim, [(a, b, c, str(v)) for a, b, c, v in entries]),
            Tensor3.sparse(dim, [(a, b, c, f"{k * v.numerator}/{k * v.denominator}")
                                 for a, b, c, v in entries]),
            Tensor3.from_ints(dim, k * den, {
                (a, b, c): k * v for (a, b), row in ints.items() for c, v in row}),
            Tensor3.build(dim, lambda a, b, c: t[a, b, c]),
            t + zero, zero + t, t - zero, -(zero - t), (t + t) * "1/2", t - t + t,
            (t * k) * Fraction(1, k), Fraction(-1, k) * (k * -t),
        ]
        for u in forms:
            check_canonical(u)
            assert u == t and hash(u) == hash(t) and u.int_table() == t.int_table()
        for u in (t - t, 0 * t, zero):
            check_canonical(u)
            assert u.int_table() == (1, {}) and u == zero


class TestIntegerScaling:
    """The fraction-free kernels scale their inputs once to ints over one
    common denominator and divide only the nonzero sums."""

    def test_empty_table_has_denominator_one(self):
        assert Tensor3.zeros(4).int_table() == (1, {})
        assert Matrix.zeros(2, 3).int_rows() == (1, [[], []])
        abelian = LieAlgebra(4, Tensor3.zeros(4))
        F = rng_matrix(random.Random(4), 4)
        assert factorization_check(abelian, F, "7/3").is_zero()

    def test_lcm_of_shared_factors(self):
        t = Tensor3.sparse(
            2, [(0, 1, 0, "1/6"), (0, 1, 1, "-1/4"), (1, 0, 1, "5/12"), (1, 1, 0, 3)])
        assert t.int_table() == (
            12, {(0, 1): ((0, 2), (1, -3)), (1, 0): ((1, 5),), (1, 1): ((0, 36),)})
        M = Matrix([[0, "1/6", "-3/4"], ["2/9", 0, 1]])
        assert M.int_rows() == (36, [[(1, 6), (2, -27)], [(0, 8), (2, 36)]])

    def test_matrix_equality_is_by_value(self):
        # == and hash compare the canonical int rows: numerators, den and shape
        one_two = Matrix([[1, 2]])
        assert one_two != Matrix([["1/3", "2/3"]])
        for same in (Matrix([["3/3", "4/2"]]), Matrix.from_ints(2, 6, [[(0, 6), (1, 12)]])):
            assert one_two == same and hash(one_two) == hash(same)
            assert same.int_rows() == (1, [[(0, 1), (1, 2)]])
        assert Matrix.zeros(2, 3) != Matrix.zeros(3, 2) and Matrix.zeros(1, 4) != Matrix.zeros(2, 2)

    def test_from_ints_equals_public_construction(self):
        rng = random.Random(13)
        for dim in (1, 2, 3):
            for share in (0, 0.6, 1):
                t = sparse_tensor(rng, dim, share)
                den, table = t.int_table()
                sums = {(i, j, k): v for (i, j), row in table.items() for k, v in row}
                for scale in (1, 6, 35):  # the same entries over a larger denominator
                    scaled = {key: scale * v for key, v in sums.items()}
                    u = Tensor3.from_ints(dim, scale * den, scaled)
                    check_storage(u)
                    assert u == t and hash(u) == hash(t)
                    n = range(dim)
                    public = Tensor3([[[t[i, j, k] for k in n] for j in n] for i in n])
                    assert u == public and hash(u) == hash(public)

    def test_cancelled_sums_are_not_stored(self):
        u = Tensor3.from_ints(2, 6, {(0, 1, 0): 0, (1, 0, 1): 4, (1, 1, 1): -6, (0, 0, 0): 0})
        check_storage(u)
        assert dict(u.table) == {(1, 0): ((1, Fraction(2, 3)),), (1, 1): ((1, -1),)}
        assert Tensor3.from_ints(3, 7, {(0, 1, 2): 0}) == Tensor3.zeros(3)


class TestMatmul:
    """A @ B sums over the nonzeros of A's rows and B's rows in ints."""

    def test_random_with_planted_zeros(self):
        rng = random.Random(20261018)
        for _ in range(60):
            r, k, c = (rng.randint(1, 6) for _ in range(3))
            A = Matrix([planted_zeros(rng, k, rng.choice([0, 0.5, 1])) for _ in range(r)])
            B = Matrix([planted_zeros(rng, c, rng.choice([0, 0.5, 1])) for _ in range(k)])
            AB = A @ B
            assert AB == dense_matmul(A, B)
            assert (AB.rows, AB.cols) == (r, c)
            assert all_fractions(v for row in AB.data for v in row)
            public = Matrix([list(row) for row in AB.data])
            assert AB == public and hash(AB) == hash(public)

    def test_shared_denominators_and_shape(self):
        A = Matrix([["1/6", "1/4"], ["-1/12", 0]])
        B = Matrix([[6, "2/3"], ["4/9", "-1/2"]])
        assert A @ B == dense_matmul(A, B) == Matrix([["10/9", "-1/72"], ["-1/2", "-1/18"]])
        with pytest.raises(DimensionMismatch):
            A @ Matrix.identity(3)
