"""Exact Bianchi classification of 3-dimensional real Lie algebras.

Uses the standard decomposition of the structure constants into a symmetric
matrix n and a vector a,

    C^c_ab = eps_abd n^{dc} + a_a d^c_b - a_b d^c_a,

with a_b = -1/2 C^a_ab and n the symmetric part of m^{dc} = 1/2 eps^{dab}
C^c_ab (plain Levi-Civita symbols, no metric).  Jacobi holds iff n a = 0.

Class A (a = 0) is decided by the exact rank and Sylvester inertia of n;
class B (a != 0) with rank-2 n carries the scalar invariant h defined by
a a^T = h adj(n) (both sides are rank-one and transform identically under
basis changes).  On the canonical representatives h = -1 is exactly the
direct-sum type III, h < 0 type VI, h > 0 type VII; Jacobi forces a into
ker n so class B never has rank-3 n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lie import LieAlgebra, check_jacobi, eps, make_lie_algebra
from .linalg import Matrix, Tensor3, adjugate_cofactor, inertia, vec

LABELS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")


class NotThreeDimensional(ValueError):
    pass


class JacobiFails(ValueError):
    pass


@dataclass(frozen=True)
class BianchiType:
    label: str
    h: Fraction | None = None


@dataclass(frozen=True)
class BehrData:
    n: Matrix
    a: tuple[Fraction, ...]


@dataclass(frozen=True)
class Classification:
    bianchi: BianchiType
    behr: BehrData
    n_rank: int
    n_inertia: tuple[int, int, int]
    a_zero: bool

    @property
    def label(self) -> str:
        return self.bianchi.label

    @property
    def h(self) -> Fraction | None:
        return self.bianchi.h


# (x, y) -> (d, eps_xyd) for the six x != y; d is the remaining index
_EPS = {(x, y): (3 - x - y, eps(x, y, 3 - x - y)) for x in range(3) for y in range(3) if x != y}


def behr_decompose(g: LieAlgebra) -> BehrData:
    """Split the structure constants into (n, a), reading each entry of the
    table once; round-trip asserted.

    With f the ints of g.f.int_table() over dt: 2 dt a_b = -sum_x f_xb^x and
    2 dt m^{dc} = sum_xy eps_dxy f_xy^c, so n = (m + m^T)/2 has the ints
    m + m^T over 4 dt.
    """
    if g.dim != 3:
        raise NotThreeDimensional(f"dim {g.dim} != 3")
    dt, table = g.f.int_table()
    a2 = [0, 0, 0]
    m2 = [[0, 0, 0] for _ in range(3)]
    for (x, y), row in table.items():
        d, e = _EPS.get((x, y), (None, 0))
        for c, v in row:
            if c == x:
                a2[y] -= v
            if e:
                m2[d][c] += e * v  # eps_dxy = eps_xyd
    a = tuple(Fraction(v, 2 * dt) for v in a2)
    n = Matrix([[Fraction(m2[d][c] + m2[c][d], 4 * dt) for c in range(3)] for d in range(3)])
    if _structure_from_behr(n, a) != g.f:
        raise AssertionError("Behr decomposition does not reproduce the input")
    return BehrData(n, a)


def _structure_from_behr(n: Matrix, a: Sequence[Fraction]) -> Tensor3:
    """C^c_xy = eps_xyd n^{dc} + a_x d^c_y - a_y d^c_x; the a terms cancel
    for x = y, where eps vanishes too."""
    entries = []
    for (x, y), (d, e) in _EPS.items():
        entries += [(x, y, c, e * v) for c, v in enumerate(n.row(d)) if v]
        entries += ((x, y, y, a[x]), (x, y, x, -a[y]))
    return Tensor3.sparse(3, entries)


def algebra_from_behr(n, a) -> LieAlgebra:
    """Build the 3d algebra with the given (n, a) data; Jacobi (= n a = 0)
    is verified by construction."""
    nm = n if isinstance(n, Matrix) else Matrix(n)
    av = vec(a)
    return make_lie_algebra(_structure_from_behr(nm, av))


def classify(g: LieAlgebra) -> Classification:
    """Bianchi type of a 3-dimensional Lie algebra, exactly.

    Only ranks, inertias and exact rational ratios are used; no eigenvalues
    are ever computed.
    """
    if g.dim != 3:
        raise NotThreeDimensional(f"dim {g.dim} != 3")
    if check_jacobi(g.f):
        raise JacobiFails("structure constants do not satisfy the Jacobi identity")
    behr = behr_decompose(g)
    n, a = behr.n, behr.a
    p, mi, z = inertia(n)
    rank = p + mi
    a_zero = all(x == 0 for x in a)
    h: Fraction | None = None
    if a_zero:
        if rank == 0:
            label = "I"
        elif rank == 1:
            label = "II"
        elif rank == 2:
            label = "VII" if (p == 2 or mi == 2) else "VI"
            h = Fraction(0)
        else:
            label = "IX" if (p == 3 or mi == 3) else "VIII"
    else:
        if rank == 0:
            label = "V"
        elif rank == 1:
            label = "IV"
        elif rank == 2:
            adj = adjugate_cofactor(n)
            aat = Matrix.build(3, 3, lambda i, j: a[i] * a[j])
            pivot = next((i, j, v) for i, j, v in adj.nonzero())
            h = aat[pivot[0], pivot[1]] / pivot[2]
            if aat != h * adj:
                raise AssertionError("a a^T is not proportional to adj(n)")
            label = "III" if h == -1 else ("VI" if h < 0 else "VII")
        else:
            raise AssertionError("class B with invertible n contradicts Jacobi")
    return Classification(BianchiType(label, h), behr, rank, (p, mi, z), a_zero)


def canonical_representatives() -> dict[str, LieAlgebra]:
    """One canonical algebra per Bianchi type (VI and VII in class-B form
    with h = -4 resp. h = 2)."""
    reps = {
        "I": (Matrix.zeros(3), (0, 0, 0)),
        "II": (Matrix.diagonal([1, 0, 0]), (0, 0, 0)),
        "III": (Matrix.diagonal([0, 1, -1]), (1, 0, 0)),
        "IV": (Matrix.diagonal([0, 0, 1]), (1, 0, 0)),
        "V": (Matrix.zeros(3), (1, 0, 0)),
        "VI": (Matrix.diagonal([0, 1, -1]), (2, 0, 0)),
        "VII": (Matrix.diagonal([0, 1, 2]), (2, 0, 0)),
        "VIII": (Matrix.diagonal([1, 1, -1]), (0, 0, 0)),
        "IX": (Matrix.identity(3), (0, 0, 0)),
    }
    return {label: algebra_from_behr(n, a) for label, (n, a) in reps.items()}


def change_basis(g: LieAlgebra, A: Matrix) -> LieAlgebra:
    """Structure constants in the basis J'_a = A[b][a] J_b (A invertible)."""
    return make_lie_algebra(g.f.change_basis(A, A.inverse()))
