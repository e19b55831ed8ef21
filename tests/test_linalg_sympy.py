"""sympy as an independent oracle for the exact linear-algebra kernels: det,
rank, inverse, nullspace, solve and inertia on random rational matrices up
to 8x8, singular and rank-deficient ones included, and the fraction-free
elimination on sizes up to 18 and on basis-change matrices with 30-bit
entries.  sympy is a test-only dependency; without it these tests are
skipped."""

import random
from fractions import Fraction

import pytest

from semidual.factorize import basis_change_matrix
from semidual.linalg import Matrix, inertia, nullspace, solve
from conftest import low_rank, rng_rat, samples, wide_f

sp = pytest.importorskip("sympy")

SIZES = range(1, 9)


def to_sympy(m: Matrix):
    return sp.Matrix([[sp.Rational(v.numerator, v.denominator) for v in row] for row in m.data])


def to_fraction(v) -> Fraction:
    v = sp.Rational(v)
    return Fraction(int(v.p), int(v.q))


def symmetric_samples(n, seed):
    """Random symmetric matrices of full and deficient rank, definite and
    indefinite, with zero diagonals among them."""
    rng = random.Random(f"sympy-sym-{n}-{seed}")
    s = Matrix([[rng_rat(rng) for _ in range(n)] for _ in range(n)])
    hollow = Matrix.build(n, n, lambda i, j: 0 if i == j else s[min(i, j), max(i, j)])
    out = [s + s.transpose(), hollow]
    for r in (n, rng.randrange(n)):
        out.append(low_rank(rng, n, r, [rng.choice((1, -1)) for _ in range(r)]))
    return out


@pytest.mark.parametrize("n", SIZES)
class TestAgainstSympy:
    def test_det_rank_inverse(self, n):
        for m in samples(n, 0):
            ref = to_sympy(m)
            det = to_fraction(ref.det())
            assert m.det() == det
            assert m.rank() == ref.rank()
            if det:
                inv = ref.inv()
                assert m.inverse() == Matrix([[to_fraction(v) for v in inv.row(i)]
                                              for i in range(n)])
            else:
                with pytest.raises(ZeroDivisionError):
                    m.inverse()

    def test_nullspace(self, n):
        for m in samples(n, 1):
            # both set one free variable to 1 and the others to 0 per vector
            want = [tuple(to_fraction(v) for v in vec) for vec in to_sympy(m).nullspace()]
            assert nullspace(m) == want

    def test_solve(self, n):
        rng = random.Random(f"rhs-{n}")
        for m in samples(n, 2):
            ref = to_sympy(m)
            x0 = [rng_rat(rng) for _ in range(n)]
            for b in (m.apply(x0), [rng_rat(rng) for _ in range(n)]):
                try:
                    sol, params = ref.gauss_jordan_solve(to_sympy(Matrix([b])).T)
                except ValueError:  # sympy: no solution
                    assert solve(m, b) is None
                    continue
                # the particular solution with every free parameter zero
                free = {t: 0 for t in params}
                assert solve(m, b) == tuple(to_fraction(v.subs(free)) for v in sol)

    def test_inertia(self, n):
        x = sp.symbols("x")
        for s in symmetric_samples(n, 3):
            # the eigenvalues are the real roots of the characteristic
            # polynomial; sympy counts them by sign with Sturm sequences
            poly = sp.Poly(to_sympy(s).charpoly(x).as_expr(), x)
            zero = next(k for k, c in enumerate(reversed(poly.all_coeffs())) if c)
            rest = sp.Poly(sp.cancel(poly.as_expr() / x**zero), x)
            plus = minus = 0
            for factor, mult in rest.sqf_list()[1]:
                plus += mult * factor.count_roots(0, None)
                minus += mult * factor.count_roots(None, 0)
            assert inertia(s) == (plus, minus, zero)
            assert plus + minus == s.rank()


def check_elimination(m: Matrix, rng):
    """det, inverse (or ZeroDivisionError), nullspace and solve of m, for a
    consistent and an arbitrary right-hand side, equal sympy's exactly."""
    n = m.rows
    ref = to_sympy(m)
    det = to_fraction(ref.det())
    assert m.det() == det
    if det:
        assert m.inverse() == Matrix([[to_fraction(v) for v in ref.inv().row(i)] for i in range(n)])
    else:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    kernel = [tuple(to_fraction(v) for v in vec) for vec in ref.nullspace()]
    assert nullspace(m) == kernel and m.rank() == n - len(kernel)
    x0 = [rng_rat(rng) for _ in range(n)]
    for b in (m.apply(x0), [rng_rat(rng) for _ in range(n)]):
        try:
            sol, params = ref.gauss_jordan_solve(to_sympy(Matrix([b])).T)
        except ValueError:  # sympy: no solution
            assert solve(m, b) is None
            continue
        free = {t: 0 for t in params}
        assert solve(m, b) == tuple(to_fraction(v.subs(free)) for v in sol)


@pytest.mark.parametrize("n", (12, 18))
def test_large_against_sympy(n):
    rng = random.Random(f"sympy-large-{n}")
    for m in samples(n, 4):
        check_elimination(m, rng)


@pytest.mark.parametrize("n", (3, 6, 9))
def test_wide_basis_change_against_sympy(n):
    rng = random.Random(f"sympy-wide-{n}")
    F = wide_f(rng, n)
    B = basis_change_matrix(F)
    check_elimination(B, rng)
    # rank-deficient, with the same 30-bit entries: the last J row repeats the first
    rows = [list(row) for row in B.data]
    rows[n - 1] = rows[0]
    check_elimination(Matrix(rows), rng)
