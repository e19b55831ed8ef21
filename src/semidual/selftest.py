"""The exact identities the so(3)/so(2,1) results rest on, each stated once.

Every identity is a function of the algebra and one sample that returns
whether it holds.  `suites()` draws the fixed samples that `semidual
selftest` runs; the tests call the same functions with their own samples.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import bianchi, factorize, lie
from .lie import LieAlgebra
from .linalg import Matrix, adjugate_cofactor


def _kronecker(i: int, j: int) -> int:
    return 1 if i == j else 0


def epsilon_identity(g: LieAlgebra) -> bool:
    """eps_abc eps^xyz = det of the Kronecker deltas, over all 729 index
    tuples, with the upper indices raised by the metric of g."""
    eta, d = g.metric, _kronecker
    for a, b, c, x, y, z in itertools.product(range(3), repeat=6):
        up = sum(
            Fraction(lie.eps(p, q, s)) * eta[p, x] * eta[q, y] * eta[s, z]
            for p, q, s in itertools.product(range(3), repeat=3)
        )
        rhs = (
            d(a, x) * (d(b, y) * d(c, z) - d(b, z) * d(c, y))
            - d(a, y) * (d(b, x) * d(c, z) - d(b, z) * d(c, x))
            + d(a, z) * (d(b, x) * d(c, y) - d(b, y) * d(c, x))
        )
        if lie.eps(a, b, c) * up != rhs:
            return False
    return True


def double_bracket(g: LieAlgebra, x, y, z) -> bool:
    """[X,[Y,Z]] = <X,Z> Y - <X,Y> Z."""
    lhs = g.bracket(x, g.bracket(y, z))
    xz, xy = g.inner(x, z), g.inner(x, y)
    return lhs == tuple(xz * y[i] - xy * z[i] for i in range(3))


def cyclic_identity(g: LieAlgebra, x, y, z, v) -> bool:
    """<[X,Y],V><V,Z> + <[Y,Z],V><V,X> + <[Z,X],V><V,Y> = <V,V><[X,Y],Z>."""
    lhs = (
        g.inner(g.bracket(x, y), v) * g.inner(v, z)
        + g.inner(g.bracket(y, z), v) * g.inner(v, x)
        + g.inner(g.bracket(z, x), v) * g.inner(v, y)
    )
    return lhs == g.inner(v, v) * g.inner(g.bracket(x, y), z)


def adjugate_identities(g: LieAlgebra, F: Matrix) -> bool:
    """The quadratic adjugate equals the cofactor one, and
    <adj F Z, [X,Y]> = <Z, [FX, FY]> on all basis triples."""
    adj = factorize.adjugate(F)
    if adj != adjugate_cofactor(F):
        return False
    basis = g.basis()
    return all(
        g.inner(adj.apply(basis[c]), g.bracket(basis[a], basis[b]))
        == g.inner(basis[c], g.bracket(F.col(a), F.col(b)))
        for a, b, c in itertools.product(range(3), repeat=3)
    )


def factorisation_forms(g: LieAlgebra, F: Matrix, lam) -> tuple[bool, bool, bool, bool]:
    """Whether F solves the factorisation condition in each of its four
    forms: the bracket form, the quadratic matrix form, the projected
    equations and the S/ad_V master form.  The forms are equivalent, so
    the four statuses agree."""
    split = factorize.split_sv(F, g)
    return (
        factorize.factorization_check(g, F, lam).is_zero(),
        factorize.quadratic_condition(F, g, lam).is_zero(),
        factorize.projected_equations(split, lam).is_zero(),
        factorize.master_residual(split, lam).is_zero(),
    )


def behr_round_trip() -> bool:
    """Every canonical Bianchi representative survives the Behr decomposition
    and the rebuild from it; `behr_decompose` raises if one does not."""
    for g in bianchi.canonical_representatives().values():
        bianchi.behr_decompose(g)
    return True


def suites():
    """(name, check) pairs for `semidual selftest`: each identity on both
    signatures, over samples drawn in a fixed order from one seeded source."""
    algebras = lie.isometry_algebras()
    rng = random.Random(20130824)

    def rrat():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def rvec():
        return tuple(rrat() for _ in range(3))

    def rmat():
        return Matrix([[rrat() for _ in range(3)] for _ in range(3)])

    lams = (Fraction(-1), Fraction(0), Fraction(1))
    return [
        ("epsilon identity (exhaustive, both signatures)",
         lambda: all(epsilon_identity(g) for g in algebras)),
        ("double-bracket identity [X,[Y,Z]] = <X,Z>Y - <X,Y>Z",
         lambda: all(double_bracket(g, rvec(), rvec(), rvec())
                     for g in algebras for _ in range(50))),
        ("cyclic inner-product identity",
         lambda: all(cyclic_identity(g, rvec(), rvec(), rvec(), rvec())
                     for g in algebras for _ in range(50))),
        ("adjugate: quadratic formula vs cofactors and defining property",
         lambda: all(adjugate_identities(g, rmat()) for g in algebras for _ in range(20))),
        ("equivalence of the four factorisation forms",
         lambda: all(len(set(factorisation_forms(g, rmat(), lam))) == 1
                     for g in algebras for lam in lams for _ in range(15))),
        ("Behr decomposition round trip", behr_round_trip),
    ]
