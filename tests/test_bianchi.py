import random

import pytest

from fractions import Fraction

from semidual.bianchi import (
    JacobiFails,
    NotThreeDimensional,
    _structure_from_behr,
    algebra_from_behr,
    behr_decompose,
    canonical_representatives,
    change_basis,
    classify,
)
from semidual.factorize import verify_closure_in_complexification
from semidual.lie import JacobiViolation, LieAlgebra, complexify, make_lie_algebra
from semidual.linalg import Matrix, Tensor3
from semidual.solutions import (
    double_solution,
    generalized_kappa,
    large_jordan,
    small_jordan,
    standard_sweep,
)
from conftest import (
    classify_factor,
    probe_behr_decompose,
    probe_structure_from_behr,
    rng_invertible,
    rng_matrix,
    rng_rat,
)


def random_invertible(rng, span=2):
    while True:
        m = Matrix([[rng.randint(-span, span) for _ in range(3)] for _ in range(3)])
        if m.det() != 0:
            return m


def heisenberg() -> LieAlgebra:
    cube = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    cube[0][1][2] = 1
    cube[1][0][2] = -1
    return make_lie_algebra(Tensor3(cube))


class TestBehr:
    def test_abelian(self):
        g = make_lie_algebra(Tensor3.zeros(3))
        behr = behr_decompose(g)
        assert behr.n.is_zero() and behr.a == (0, 0, 0)

    def test_so3_is_identity_n(self, euclid):
        behr = behr_decompose(euclid)
        assert behr.n == Matrix.identity(3)
        assert behr.a == (0, 0, 0)

    def test_pure_a_algebra(self):
        # [e_3, e_1] = e_1, [e_3, e_2] = e_2: n = 0, a != 0
        cube = [[[0] * 3 for _ in range(3)] for _ in range(3)]

        def add(a, b, c, v):
            cube[a][b][c] = v
            cube[b][a][c] = -v

        add(2, 0, 0, 1)
        add(2, 1, 1, 1)
        g = make_lie_algebra(Tensor3(cube))
        behr = behr_decompose(g)
        assert behr.n.is_zero()
        assert behr.a != (0, 0, 0)

    def test_heisenberg(self):
        behr = behr_decompose(heisenberg())
        assert behr.a == (0, 0, 0)
        assert behr.n.rank() == 1

    def test_dimension_guard(self, euclid):
        with pytest.raises(NotThreeDimensional):
            behr_decompose(complexify(euclid, 0))

    def test_round_trip_random_transforms(self):
        # acceptance: 100 random valid algebras via basis changes of canonicals
        rng = random.Random(99)
        reps = list(canonical_representatives().values())
        for i in range(100):
            g = change_basis(reps[i % len(reps)], random_invertible(rng))
            behr_decompose(g)  # raises if the round-trip identity fails

    def test_jacobi_iff_na_zero(self):
        # n a != 0 must violate Jacobi; n a = 0 must construct fine
        with pytest.raises(JacobiViolation):
            algebra_from_behr(Matrix.diagonal([1, 0, 0]), (1, 0, 0))
        algebra_from_behr(Matrix.diagonal([0, 1, -1]), (1, 0, 0))


class TestBehrReadsTheTable:
    """behr_decompose reads (n, a) off the bracket table and rebuilds with
    Tensor3.sparse; it must return exactly what the index-probing version
    in conftest returns."""

    def test_conjugated_representatives(self):
        rng = random.Random(20261018)
        for rep in canonical_representatives().values():
            for _ in range(6):
                g = change_basis(rep, rng_invertible(rng))
                behr = behr_decompose(g)
                assert behr == probe_behr_decompose(g)
                assert all(type(v) is Fraction for v in behr.a + sum(behr.n.data, ()))

    def test_sweep_m_algebras(self):
        sweep = list(standard_sweep())
        assert len(sweep) == 138
        for inst in sweep:
            m = verify_closure_in_complexification(inst.algebra, inst.F, inst.lam).m_algebra
            assert behr_decompose(m) == probe_behr_decompose(m)

    def test_structure_from_arbitrary_data(self):
        # no Jacobi condition: any symmetric n and any a
        rng = random.Random(5)
        for _ in range(50):
            s = rng_matrix(rng)
            n = s + s.transpose()
            a = tuple(rng_rat(rng) for _ in range(3))
            assert _structure_from_behr(n, a) == probe_structure_from_behr(n, a)

    def test_round_trip_failure_is_the_same(self):
        # a table that no (n, a) reproduces: f_01^2 without its mirror
        g = LieAlgebra(3, Tensor3.sparse(3, [(0, 1, 2, 1)]))
        for split in (behr_decompose, probe_behr_decompose):
            with pytest.raises(AssertionError, match="does not reproduce the input"):
                split(g)


class TestClassifyCanonical:
    def test_all_nine_types(self):
        for label, g in canonical_representatives().items():
            assert classify(g).label == label

    def test_heisenberg_is_ii(self):
        assert classify(heisenberg()).label == "II"

    def test_so3_so21(self, euclid, lorentz):
        assert classify(euclid).label == "IX"
        assert classify(lorentz).label == "VIII"

    def test_h_values(self):
        assert classify(canonical_representatives()["III"]).h == -1
        assert classify(canonical_representatives()["VI"]).h == -4
        assert classify(canonical_representatives()["VII"]).h == 2
        assert classify(canonical_representatives()["VI"]).label == "VI"

    def test_class_a_h_zero(self):
        reps = canonical_representatives()
        got = classify(algebra_from_behr(Matrix.diagonal([0, 1, 1]), (0, 0, 0)))
        assert got.label == "VII" and got.h == 0
        got = classify(algebra_from_behr(Matrix.diagonal([0, 1, -1]), (0, 0, 0)))
        assert got.label == "VI" and got.h == 0

    def test_inertia_report(self, lorentz):
        cl = classify(lorentz)
        assert cl.n_rank == 3
        assert sorted(cl.n_inertia) == [0, 1, 2]
        assert cl.a_zero

    def test_jacobi_guard(self):
        cube = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        cube[0][1][0] = 1
        cube[1][0][0] = -1
        cube[1][2][1] = 1
        cube[2][1][1] = -1
        cube[2][0][2] = 1
        cube[0][2][2] = -1
        g = LieAlgebra(3, Tensor3(cube), None)  # bypasses validation
        with pytest.raises(JacobiFails):
            classify(g)


class TestBasisInvariance:
    def test_twenty_changes_per_type(self):
        rng = random.Random(7)
        for label, g in canonical_representatives().items():
            want = classify(g)
            for _ in range(20):
                a = random_invertible(rng)
                got = classify(change_basis(g, a))
                assert got.label == want.label
                assert got.h == want.h  # h is a scalar invariant

    def test_rational_basis_changes(self):
        rng = random.Random(13)
        g = canonical_representatives()["VI"]
        for _ in range(10):
            a = rng_matrix(rng)
            while a.det() == 0:
                a = rng_matrix(rng)
            assert classify(change_basis(g, a)).h == -4


class TestClassifyM:
    def test_double(self, euclid, lorentz):
        assert classify_factor(double_solution(euclid, 1, 1)).label == "IX"
        assert classify_factor(double_solution(lorentz, 4, 2)).label == "VIII"

    def test_genkappa_timelike(self, euclid):
        inst = generalized_kappa(euclid, (1, 0, 0), 1, 1, -1)
        assert classify_factor(inst).label == "VII"

    def test_jordan(self, lorentz):
        assert classify_factor(large_jordan(lorentz, 1)).label == "III"
        assert classify_factor(small_jordan(lorentz, 0, 1, 1)).label == "III"
