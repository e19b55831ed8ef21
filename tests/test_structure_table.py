"""The sparse bracket table and the contractions that read it.

Every function that contracts structure constants iterates
LieAlgebra.table; the dense references in conftest sum the documented
formulas over every index.  They must agree exactly, on algebras other
than so3/so21 and with random rational maps.
"""

import random

import pytest

from conftest import (
    dense_ad,
    dense_bracket,
    dense_change_basis,
    dense_coboundary,
    dense_complexify,
    dense_dcs,
    dense_dualco,
    dense_mcybe_matrix,
    dense_omega,
    dense_schouten,
    dense_semidual,
    rng_invertible,
    rng_matrix,
    rng_rat,
    rng_vec,
)
from semidual.bialgebra import (
    coboundary_delta,
    dualco_delta,
    mcybe_matrix_residual,
    omega,
    r_matrix,
    schouten,
    semidual_algebra,
)
from semidual.bianchi import LABELS, canonical_representatives, change_basis
from semidual.factorize import dcs_constants
from semidual.lie import complexify, make_lie_algebra, so3, so21

CASES = [f"bianchi-{label}" for label in LABELS] + [
    f"so21-lambda{lam}" for lam in (-1, 0, 4)
]


@pytest.fixture(scope="module", params=CASES)
def case(request):
    """(algebra, rng): a canonical Bianchi representative moved by a random
    rational basis change, or a dim-6 generalised complexification of so21."""
    name = request.param
    rng = random.Random(name)
    if name.startswith("bianchi-"):
        rep = canonical_representatives()[name.split("-", 1)[1]]
        g = make_lie_algebra(dense_change_basis(rep.f, rng_invertible(rng)))
    else:
        g = complexify(so21(), int(name.split("lambda", 1)[1]))
    return g, rng


class TestKernelsMatchDenseFormulas:
    def test_bracket(self, case):
        g, rng = case
        for _ in range(4):
            x, y = rng_vec(rng, g.dim), rng_vec(rng, g.dim)
            assert g.bracket(x, y) == dense_bracket(g, x, y)
        for x in g.basis():
            for y in g.basis():
                assert g.bracket(x, y) == dense_bracket(g, x, y)

    def test_ad(self, case):
        g, rng = case
        for _ in range(4):
            v = rng_vec(rng, g.dim)
            assert g.ad(v) == dense_ad(g, v)

    @pytest.mark.parametrize("lam", [-1, 0, 4])
    def test_complexify(self, case, lam):
        g, _ = case
        assert complexify(g, lam).f == dense_complexify(g, lam)

    def test_semidual_algebra(self, case):
        g, _ = case
        assert semidual_algebra(g).f == dense_semidual(g)

    def test_dcs_constants(self, case):
        g, rng = case
        for _ in range(3):
            F = rng_matrix(rng, g.dim)
            assert dcs_constants(g, F) == dense_dcs(g, F)

    def test_dualco_delta(self, case):
        g, rng = case
        gt, lt = dcs_constants(g, rng_matrix(rng, g.dim))
        assert dualco_delta(gt, lt) == dense_dualco(gt, lt)

    def test_coboundary_delta(self, case):
        g, rng = case
        sd = semidual_algebra(g)
        r = r_matrix(rng_matrix(rng, g.dim))
        assert coboundary_delta(sd, r) == dense_coboundary(sd, r.tensor)

    def test_mcybe_matrix_residual(self, case):
        g, rng = case
        for _ in range(2):
            R, lam = rng_matrix(rng, g.dim), rng_rat(rng)
            assert mcybe_matrix_residual(g, R, lam) == dense_mcybe_matrix(g, R, lam)

    def test_change_basis(self, case):
        g, rng = case
        A = rng_invertible(rng, g.dim)
        assert change_basis(g, A).f == dense_change_basis(g.f, A)

    def test_omega(self, case):
        g, _ = case
        sd = semidual_algebra(g)
        assert omega(sd) == dense_omega(sd)

    def test_schouten(self, case):
        g, rng = case
        sd = semidual_algebra(g)
        r = r_matrix(rng_matrix(rng, g.dim))
        assert schouten(sd, r) == dense_schouten(sd, r.tensor)


@pytest.mark.parametrize("make", [so3, so21, lambda: complexify(so21(), -1)],
                         ids=["so3", "so21", "so21-complexified"])
def test_dualco_delta_reads_only_nonzero_constants(make):
    """dualco_delta is built from gt.nonzero() and lt.nonzero(); it must equal
    the dense per-entry formula for random F, including zero entries."""
    g = make()
    rng = random.Random(g.dim)
    for _ in range(4):
        gt, lt = dcs_constants(g, rng_matrix(rng, g.dim))
        assert dualco_delta(gt, lt) == dense_dualco(gt, lt)
    zero = dcs_constants(g, rng_matrix(rng, g.dim) * 0)
    assert dualco_delta(*zero) == dense_dualco(*zero)


class TestTableHeldOnTheAlgebra:
    def test_lists_exactly_the_nonzero_constants(self, case):
        g, _ = case
        listed = [(a, b, c, v) for (a, b), row in g.table.items() for c, v in row]
        assert listed == g.f.nonzero()
        assert g.table is g.f.table

    def test_built_once_and_read_only(self):
        g = so3()
        assert g.table is g.table
        with pytest.raises(TypeError):
            g.table[0, 0] = ((0, 1),)

    def test_equality_and_hash_ignore_the_table(self):
        g1, g2 = so21(), so21()
        assert g1.table
        assert g1 == g2 and hash(g1) == hash(g2)
        assert {g1: "so21"}[g2] == "so21"
