"""The sparse bracket table and the contractions that read it.

Every function that contracts structure constants iterates
LieAlgebra.table; the dense references in conftest sum the documented
formulas over every index.  They must agree exactly, on algebras other
than so3/so21 and with random rational maps.
"""

import random

import pytest

from semidual import factorize
from conftest import (
    dense_ad,
    dense_antisymmetry,
    dense_apply,
    dense_bracket,
    dense_change_basis,
    dense_closure,
    dense_coboundary,
    dense_complexify,
    dense_dcs,
    dense_dualco,
    dense_factorization,
    dense_jacobi,
    dense_mcybe_matrix,
    dense_metric_invariance,
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
from semidual.factorize import (
    ClosureFailure,
    InternalMismatch,
    basis_change_matrix,
    dcs_constants,
    factorization_check,
    verify_closure_in_complexification,
)
from semidual.lie import (
    AntisymmetryViolation,
    JacobiViolation,
    MetricNotInvariant,
    check_antisymmetry,
    check_jacobi,
    check_metric_invariance,
    complexify,
    make_lie_algebra,
    so3,
    so21,
)
from semidual.linalg import DimensionMismatch, Matrix, Tensor3, rat
from semidual.solutions import standard_sweep

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


def block_sum(rng, blocks):
    """Direct sum of so3 / so21 blocks, each with its constants scaled by a
    random nonzero rational, and the diagonal metric of the blocks."""
    entries, metric = [], []
    for k, base in enumerate(blocks):
        o, scale = 3 * k, rng_rat(rng) or 1
        entries += [(o + a, o + b, o + c, scale * v) for a, b, c, v in base.f.nonzero()]
        metric += [base.metric[i, i] for i in range(3)]
    return make_lie_algebra(Tensor3.sparse(3 * len(blocks), entries), Matrix.diagonal(metric))


def block_diagonal(rng, k):
    """A random 3k x 3k matrix that is zero outside its 3 x 3 diagonal blocks."""
    blocks = [rng_matrix(rng) for _ in range(k)]
    return Matrix.build(3 * k, 3 * k, lambda i, j: (
        blocks[i // 3][i % 3, j % 3] if i // 3 == j // 3 else 0))


BLOCK_SUMS = {
    "dim6": lambda: (so3(), so21()),
    "dim9": lambda: (so21(), so3(), so21()),
}


@pytest.fixture(params=sorted(BLOCK_SUMS))
def blocks(request):
    rng = random.Random(request.param)
    return block_sum(rng, BLOCK_SUMS[request.param]()), rng


def bracketwise_change_basis(g, A: Matrix) -> Tensor3:
    """f'_ab^c as the components of A^-1 [A e_a, A e_b], one dense bracket
    at a time."""
    ainv, r = A.inverse(), range(g.dim)
    cols = [A.col(a) for a in r]
    return Tensor3([[dense_apply(ainv, dense_bracket(g, cols[a], cols[b])) for b in r] for a in r])


class TestChangeBasisKernel:
    """Tensor3.change_basis against the dense four-index sum."""

    def test_block_sums(self, blocks):
        # the n^6 dense sum is run at dim 6 only; A^-1 [A e_a, A e_b] at both
        g, rng = blocks
        maps = [rng_invertible(rng, g.dim), block_diagonal(rng, g.dim // 3) + Matrix.identity(g.dim)]
        if g.dim == 6:
            maps.append(basis_change_matrix(rng_matrix(rng)))
        for A in maps:
            got = g.f.change_basis(A, A.inverse())
            assert got == bracketwise_change_basis(g, A)
            if g.dim == 6:
                assert got == dense_change_basis(g.f, A)

    @pytest.mark.parametrize("make,lam", [(so3, -4), (so21, 1)])
    def test_basis_change_matrix_on_complexification(self, make, lam):
        rng = random.Random(f"{make.__name__}{lam}")
        f = complexify(make(), lam).f
        for F in (rng_matrix(rng), Matrix.diagonal(rng_vec(rng))):
            B = basis_change_matrix(F)
            assert f.change_basis(B, B.inverse()) == dense_change_basis(f, B)

    def test_identity_and_shape(self):
        f = complexify(so3(), 4).f
        eye = Matrix.identity(6)
        assert f.change_basis(eye, eye) == f
        with pytest.raises(DimensionMismatch):
            f.change_basis(Matrix.identity(3), Matrix.identity(3))
        with pytest.raises(DimensionMismatch):
            f.change_basis(eye, Matrix.identity(3))


def planted(f: Tensor3, rng, count=3) -> Tensor3:
    """f with `count` antisymmetric pairs f_ab^c = -f_ba^c moved by a
    random nonzero rational: still antisymmetric, generally not Jacobi."""
    n, extra = f.dim, []
    for _ in range(count):
        a, b = sorted(rng.sample(range(n), 2))
        c, v = rng.randrange(n), rng_rat(rng) or 1
        extra += [(a, b, c, v), (b, a, c, -v)]
    return Tensor3.sparse(n, f.nonzero() + extra)


def planted_asymmetry(f: Tensor3, rng, kind: str) -> Tensor3:
    """f plus entries at a random (a, b, c), a < b, that break f_ab^c = -f_ba^c."""
    n = f.dim
    a, b = sorted(rng.sample(range(n), 2))
    c, v = rng.randrange(n), rng_rat(rng) or 1
    extra = {
        "missing mirror": [(a, b, c, v)],
        "mirror only": [(b, a, c, v)],
        "wrong-sign mirror": [(a, b, c, v), (b, a, c, v)],
        "wrong-magnitude mirror": [(a, b, c, v), (b, a, c, -2 * v)],
        "diagonal": [(a, a, c, v)],
    }[kind]
    return Tensor3.sparse(n, f.nonzero() + extra)


class TestChecksMatchDenseLoops:
    """check_antisymmetry, check_jacobi and check_metric_invariance run over
    the table; the dense loops scan every index.  The lists, so the first
    reported index tuple too, must be identical."""

    def test_antisymmetry_on_valid_algebras(self, case):
        g, _ = case
        assert check_antisymmetry(g.f) == dense_antisymmetry(g.f) == []

    @pytest.mark.parametrize("kind", [
        "missing mirror", "mirror only", "wrong-sign mirror", "wrong-magnitude mirror", "diagonal",
    ])
    def test_planted_antisymmetry_violations(self, case, kind):
        g, rng = case
        for _ in range(3):
            f = planted_asymmetry(g.f, rng, kind)
            bad = dense_antisymmetry(f)
            assert bad and check_antisymmetry(f) == bad
            with pytest.raises(AntisymmetryViolation) as exc:
                make_lie_algebra(f)
            assert exc.value.indices == bad[0]

    def test_jacobi_on_valid_algebras(self, case):
        g, _ = case
        assert check_jacobi(g.f) == dense_jacobi(g.f) == []

    def test_jacobi_on_canonical_representatives(self):
        for rep in canonical_representatives().values():
            assert check_jacobi(rep.f) == dense_jacobi(rep.f) == []

    def test_planted_jacobi_violations(self, case):
        g, rng = case
        failures = 0
        for _ in range(6):
            f = planted(g.f, rng)
            bad = dense_jacobi(f)
            assert check_jacobi(f) == bad
            if bad:
                failures += 1
                with pytest.raises(JacobiViolation) as exc:
                    make_lie_algebra(f)
                assert exc.value.indices == bad[0][:4]
                assert exc.value.residual == bad[0][4]
        assert failures

    def test_jacobi_without_antisymmetry(self, blocks):
        # classify calls check_jacobi without the antisymmetry check first
        g, rng = blocks
        n = g.dim
        for _ in range(4):
            f = Tensor3.sparse(n, [
                (rng.randrange(n), rng.randrange(n), rng.randrange(n), rng_rat(rng))
                for _ in range(3 * n)
            ])
            assert check_jacobi(f) == dense_jacobi(f)

    def test_metric_on_valid_algebras(self, blocks):
        g, _ = blocks
        for alg in (g, so3(), so21()):
            assert check_metric_invariance(alg.f, alg.metric) == []
            assert dense_metric_invariance(alg.f, alg.metric) == []

    def assert_same_violations(self, f, metric):
        bad = dense_metric_invariance(f, metric)
        assert check_metric_invariance(f, metric) == bad
        if bad and metric.det():
            with pytest.raises(MetricNotInvariant) as exc:
                make_lie_algebra(f, metric)
            assert exc.value.indices == bad[0]
        return bad

    def test_one_block_metric_flipped(self, blocks):
        g, _ = blocks
        flipped = Matrix.diagonal([-g.metric[0, 0]] + [g.metric[i, i] for i in range(1, g.dim)])
        assert self.assert_same_violations(g.f, flipped)

    def test_random_symmetric_metrics(self, case):
        g, rng = case
        found = []
        for _ in range(3):
            m = rng_matrix(rng, g.dim)
            found += self.assert_same_violations(g.f, m + m.transpose())
        assert found or not g.table


def closure_outcome(fn, g, F, lam):
    """What the closure returns, or the type and message of what it raises."""
    try:
        dcs = fn(g, F, lam)
    except (ClosureFailure, InternalMismatch) as exc:
        return type(exc), str(exc)
    return dcs.g_tensor, dcs.l_tensor, dcs.m_algebra, dcs.basis_change


class TestClosureMatchesBracketGrid:
    """The closure as one sparse change of basis against the (2n)^2 grid of
    single brackets it replaced."""

    def test_random_maps(self, case):
        g, rng = case
        failures = 0
        for lam in (-1, 0, rng_rat(rng)):
            F = rng_matrix(rng, g.dim)
            got = closure_outcome(verify_closure_in_complexification, g, F, lam)
            assert got == closure_outcome(dense_closure, g, F, lam)
            failures += got[0] is ClosureFailure
        assert failures or not g.table  # every F closes on an abelian algebra

    @pytest.mark.parametrize("F_scale,lam", [(1, 1), (0, 0)])
    def test_solutions_on_any_algebra(self, case, F_scale, lam):
        # F = id solves the condition at lambda = 1, F = 0 at lambda = 0
        g, _ = case
        F = F_scale * Matrix.identity(g.dim)
        got = closure_outcome(verify_closure_in_complexification, g, F, lam)
        assert got == closure_outcome(dense_closure, g, F, lam)
        assert got[0] is not ClosureFailure

    def test_sweep_solutions(self, euclid, lorentz):
        rng = random.Random("sweep")
        for inst in rng.sample(list(standard_sweep()), 12):
            args = inst.algebra, inst.F, inst.lam
            got = closure_outcome(verify_closure_in_complexification, *args)
            assert got == closure_outcome(dense_closure, *args)
            assert got[0] is not ClosureFailure

    @pytest.mark.parametrize("which", ["g", "L"])
    def test_planted_mismatch(self, case, monkeypatch, which):
        g, rng = case
        n = g.dim
        real = factorize.dcs_constants
        for _ in range(3):
            a, b, c = (rng.randrange(n) for _ in range(3))

            def perturbed(g_, F_):
                gt, lt = real(g_, F_)
                bump = Tensor3.sparse(n, [(a, b, c, 1)])
                return (gt + bump, lt) if which == "g" else (gt, lt + bump)

            with monkeypatch.context() as m:
                m.setattr(factorize, "dcs_constants", perturbed)
                F = Matrix.identity(n)
                got = closure_outcome(verify_closure_in_complexification, g, F, 1)
                assert got == closure_outcome(dense_closure, g, F, 1)
            i, j = (n + a, n + b) if which == "g" else (b, n + a)
            assert got[0] is InternalMismatch
            assert got[1].startswith(f"bracket of new basis vectors {i},{j}: ")


class TestMcybeMatrixOnSparseR:
    """mcybe_matrix_residual takes p and q from R's nonzero rows and
    columns only; the dense formula sums every (b, d)."""

    def sparse_maps(self, rng, n):
        """Zero, rank one, three single entries, block diagonal."""
        u, v = rng_vec(rng, n), rng_vec(rng, n)
        u = tuple(x if i % 2 else 0 for i, x in enumerate(u))
        yield Matrix.zeros(n)
        yield Matrix.build(n, n, lambda i, j: u[i] * v[j])
        for _ in range(3):
            i, j = rng.randrange(n), rng.randrange(n)
            yield Matrix.build(n, n, lambda r, s: (rng_rat(rng) or 1) if (r, s) == (i, j) else 0)
        yield block_diagonal(rng, n // 3)

    def test_block_sums(self, blocks):
        # the dense n^5 sum is slow at dim 9: there only the block-diagonal map
        g, rng = blocks
        maps = list(self.sparse_maps(rng, g.dim))
        for R in maps if g.dim == 6 else maps[-1:]:
            lam = rng_rat(rng)
            assert mcybe_matrix_residual(g, R, lam) == dense_mcybe_matrix(g, R, lam)

    @pytest.mark.parametrize("make", [so3, so21])
    def test_three_dimensional(self, make):
        g = make()
        rng = random.Random(make.__name__)
        for R in self.sparse_maps(rng, 3):
            for lam in (0, -1, rng_rat(rng)):
                assert mcybe_matrix_residual(g, R, lam) == dense_mcybe_matrix(g, R, lam)


LAMBDAS = [-4, -1, 0, 1, 4, "7/3"]


def max_bits(F: Matrix) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for _, _, v in F.nonzero())


def isometry_word(rng, metric: Matrix, length=3) -> Matrix:
    """A product of `length` rational rotations (or, for a Lorentzian
    metric diag(1,-1,-1), boosts in the planes with J_0) in coordinate
    planes, from Pythagorean triples a^2 + b^2 = c^2."""
    W = Matrix.identity(3)
    for _ in range(length):
        a, b, c = rng.choice([(3, 4, 5), (20, 21, 29), (119, 120, 169), (696, 697, 985)])
        sign = rng.choice((1, -1))
        i, j = rng.choice(((0, 1), (0, 2), (1, 2)))
        if metric[0, 0] != metric[i, i] * metric[j, j]:  # boost: ch^2 - sh^2 = 1
            co, si, sj = rat(f"{c}/{a}"), sign * rat(f"{b}/{a}"), 1
        else:
            co, si, sj = rat(f"{a}/{c}"), sign * rat(f"{b}/{c}"), -1
        plane = {(i, i): co, (j, j): co, (i, j): sj * si, (j, i): si}
        E = Matrix.build(3, 3, lambda r, s: plane.get((r, s), int(r == s)))
        W = W @ E
    return W


class TestFactorizationContraction:
    """factorization_check is one integer contraction of the table with the
    nonzeros of F; the bracket grid plus F.apply it replaced must give the
    same residual, entry for entry."""

    def test_random_maps(self, case):
        g, rng = case
        for lam in LAMBDAS:
            for F in (rng_matrix(rng, g.dim), Matrix.zeros(g.dim)):
                assert factorization_check(g, F, lam) == dense_factorization(g, F, lam)

    def test_block_sums(self, blocks):
        g, rng = blocks
        maps = [rng_matrix(rng, g.dim), block_diagonal(rng, g.dim // 3), Matrix.zeros(g.dim)]
        for F in maps:
            lam = rng.choice(LAMBDAS)
            assert factorization_check(g, F, lam) == dense_factorization(g, F, lam)

    def test_conjugated_sweep_solutions(self, euclid, lorentz):
        # as the benchmark's reject inputs: solutions conjugated by an
        # isometry word (entries of about 33 bits) still solve; one entry
        # moved by a small rational makes them fail
        rng = random.Random("reject")
        cases = rng.sample(list(standard_sweep()), 16)
        bits = 0
        for inst in cases:
            g = inst.algebra
            W = isometry_word(rng, g.metric)
            G = W @ inst.F @ W.metric_transpose(g.metric)
            assert factorization_check(g, G, inst.lam).is_zero()
            while True:  # redraw perturbations that still solve
                b, a = rng.randrange(3), rng.randrange(3)
                bump = rat(f"{rng.choice((1, -1)) * rng.randint(1, 3)}/{rng.choice((7, 11, 13))}")
                F = G + Matrix.build(3, 3, lambda r, s: bump if (r, s) == (b, a) else 0)
                if not factorization_check(g, F, inst.lam).is_zero():
                    break
            for lam in (inst.lam, *LAMBDAS):
                assert factorization_check(g, F, lam) == dense_factorization(g, F, lam)
            bits = max(bits, max_bits(F))
        assert bits >= 30
