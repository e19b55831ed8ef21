"""Lie algebras as exact structure-constant tensors.

Conventions, fixed package-wide:
  * [J_a, J_b] = f[a][b][c] J_c; antisymmetry is stored redundantly and
    checked at construction rather than enforced by the storage layout.
  * so(3) and so(2,1) have f_ab^c = eps_abd eta^dc with eps_{012} = +1 and
    invariant metric diag(1,1,1) resp. diag(1,-1,-1).
  * complexify(g, lam) returns the 2n-dim algebra on (J_0..J_{n-1},
    Q_0..Q_{n-1}) with [Q_a, J_b] = f_ab^c Q_c, [Q_a, Q_b] = lam f_ab^c J_c.
    Indices 0..n-1 are J and n..2n-1 are Q; downstream code relies on this.
  * Code reads f through LieAlgebra.table, which is f.table: the sparse
    read-only (a, b) -> ((c, f_ab^c), ...) map that Tensor3 stores as its
    only storage, so no algebra builds it twice.  Every bracket contraction
    and every derived algebra iterates it instead of probing f at all index
    triples.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import DimensionMismatch, Matrix, Tensor3, rat, vec


class LieAlgebraError(ValueError):
    pass


class AntisymmetryViolation(LieAlgebraError):
    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"f[{a}][{b}][{c}] != -f[{b}][{a}][{c}]")
        self.indices = (a, b, c)


class JacobiViolation(LieAlgebraError):
    def __init__(self, a: int, b: int, c: int, e: int, residual: Fraction):
        super().__init__(
            f"Jacobi identity fails at (a,b,c,e)=({a},{b},{c},{e}), residual {residual}"
        )
        self.indices = (a, b, c, e)
        self.residual = residual


class MetricNotInvariant(LieAlgebraError):
    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"<[J_{a},J_{b}],J_{c}> + <J_{b},[J_{a},J_{c}]> != 0")
        self.indices = (a, b, c)


class MetricError(LieAlgebraError):
    pass


def check_antisymmetry(f: Tensor3) -> list[tuple[int, int, int]]:
    """(a, b, c) with a <= b where f_ab^c != -f_ba^c, sorted; the mirror
    row (b, a) of each table row is read once."""
    table = f.table
    bad = set()
    for (a, b), row in table.items():
        mirror = dict(table.get((b, a), ()))
        for c, v in row:
            if mirror.get(c, 0) != -v:
                bad.add((a, b, c) if a < b else (b, a, c))
    return sorted(bad)


def check_jacobi(f: Tensor3) -> list[tuple[int, int, int, int, Fraction]]:
    # given antisymmetry, the Jacobi sum is totally antisymmetric in (a,b,c),
    # so a < b < c covers every case: the terms [[J_x,J_y],J_z] reached
    # through the table are summed on the sorted triple (a,b,c) and e, for
    # the cyclic orderings (x,y,z) of a < b < c only, in ints over dt^2
    dt, table = f.int_table()
    rows_from: dict[int, list] = {}
    for (d, z), row in table.items():
        rows_from.setdefault(d, []).append((z, row))
    sums: dict[tuple[int, int, int, int], int] = defaultdict(int)
    for (x, y), row in table.items():
        for d, v in row:
            for z, inner in rows_from.get(d, ()):
                if x < y < z or y < z < x or z < x < y:
                    abc = tuple(sorted((x, y, z)))
                    for e, w in inner:
                        sums[abc + (e,)] += v * w
    den = dt * dt
    return [key + (Fraction(s, den),) for key, s in sorted(sums.items()) if s]


def check_metric_invariance(f: Tensor3, metric: Matrix) -> list[tuple[int, int, int]]:
    """(a, b, c) where <[J_a,J_b],J_c> + <J_b,[J_a,J_c]> = f_ab^d eta_dc +
    f_ac^d eta_bd is nonzero, in index order; each table row is paired with
    the metric's nonzeros, in ints over one denominator."""
    _, table = f.int_table()
    _, mrows = metric.int_rows()
    _, mcols = metric.transpose().int_rows()
    sums: dict[tuple[int, int, int], int] = defaultdict(int)
    for (a, b), row in table.items():
        for d, v in row:
            for c, m in mrows[d]:
                sums[a, b, c] += v * m  # f_ab^d eta_dc
            for e, m in mcols[d]:
                sums[a, e, b] += v * m  # f_ac^d eta_bd, row (a, c)
    return sorted(key for key, s in sums.items() if s)


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra given by its structure-constant tensor.

    Elements are plain coefficient tuples X = X^a J_a of length dim.
    """

    dim: int
    f: Tensor3
    metric: Matrix | None = None

    @property
    def table(self) -> Mapping[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
        """The nonzero structure constants, (a, b) -> ((c, f_ab^c), ...): f.table."""
        return self.f.table

    def element(self, coeffs: Sequence) -> tuple[Fraction, ...]:
        x = vec(coeffs)
        if len(x) != self.dim:
            raise DimensionMismatch(f"element length {len(x)} != dim {self.dim}")
        return x

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        xs, ys = self.element(x), self.element(y)
        table = self.table
        out = [Fraction(0)] * self.dim
        ysupport = [(b, w) for b, w in enumerate(ys) if w]
        for a, u in enumerate(xs):
            if u:
                for b, w in ysupport:
                    entries = table.get((a, b))
                    if entries:
                        xy = u * w
                        for c, v in entries:
                            out[c] += v * xy
        return tuple(out)

    def inner(self, x: Sequence, y: Sequence) -> Fraction:
        if self.metric is None:
            raise MetricError("algebra has no invariant metric")
        xs, ys = self.element(x), self.element(y)
        # metric.apply sums over the metric's nonzeros and the support of y
        return sum((u * w for u, w in zip(xs, self.metric.apply(ys)) if u and w), Fraction(0))

    def ad(self, v: Sequence) -> Matrix:
        """Matrix of ad_V: J_b -> [V, J_b], i.e. ad_V[c][b] = V^a f_ab^c."""
        vs = self.element(v)
        n = self.dim
        m = [[Fraction(0)] * n for _ in range(n)]
        for (a, b), entries in self.table.items():
            if vs[a]:
                for c, w in entries:
                    m[c][b] += vs[a] * w
        return Matrix(m)

    def basis(self) -> list[tuple[Fraction, ...]]:
        return [
            tuple(Fraction(1) if i == a else Fraction(0) for i in range(self.dim))
            for a in range(self.dim)
        ]


def make_lie_algebra(f, metric=None) -> LieAlgebra:
    """Validate and build a Lie algebra; raises naming the failing indices."""
    ft = f if isinstance(f, Tensor3) else Tensor3(f)
    bad = check_antisymmetry(ft)
    if bad:
        raise AntisymmetryViolation(*bad[0])
    bad = check_jacobi(ft)
    if bad:
        raise JacobiViolation(*bad[0])
    mm = None
    if metric is not None:
        mm = metric if isinstance(metric, Matrix) else Matrix(metric)
        if mm.rows != ft.dim or mm.cols != ft.dim:
            raise MetricError(f"metric shape ({mm.rows},{mm.cols}) != dim {ft.dim}")
        if mm != mm.transpose():
            raise MetricError("metric is not symmetric")
        if mm.det() == 0:
            raise MetricError("metric is singular")
        badm = check_metric_invariance(ft, mm)
        if badm:
            raise MetricNotInvariant(*badm[0])
    return LieAlgebra(ft.dim, ft, mm)


def eps(a: int, b: int, c: int) -> int:
    """Levi-Civita symbol with eps(0,1,2) = +1."""
    if (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        return 1
    if (a, b, c) in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        return -1
    return 0


EUCLIDEAN_METRIC = Matrix.diagonal([1, 1, 1])
LORENTZIAN_METRIC = Matrix.diagonal([1, -1, -1])


def _isometry_algebra(metric: Matrix) -> LieAlgebra:
    f = Tensor3.build(
        3,
        lambda a, b, c: sum(
            (Fraction(eps(a, b, d)) * metric[d, c] for d in range(3)), Fraction(0)
        ),
    )
    # diagonal +-1 metric: eta^{dc} = eta_{dc}
    return make_lie_algebra(f, metric)


def so3() -> LieAlgebra:
    """[J_a, J_b] = eps_abc J^c with Euclidean metric diag(1,1,1)."""
    return _isometry_algebra(EUCLIDEAN_METRIC)


def so21() -> LieAlgebra:
    """[J_a, J_b] = eps_abc J^c with Lorentzian metric diag(1,-1,-1)."""
    return _isometry_algebra(LORENTZIAN_METRIC)


@functools.cache
def isometry_algebras() -> tuple[LieAlgebra, LieAlgebra]:
    """(so3(), so21()), built once per process and shared (both are immutable)."""
    return so3(), so21()


def is_lorentzian(g: LieAlgebra) -> bool:
    return g.metric == LORENTZIAN_METRIC


def complexify(g: LieAlgebra, lam) -> LieAlgebra:
    """Generalised complexification g_lam on (J, Q), [Q,Q] = lam f J.

    lam = -1 is the complexification, lam = 0 the semidirect product
    g |x R^n, lam = 1 is isomorphic to g (+) g.  Jacobi is re-verified as a
    self-check even though it holds automatically.
    """
    lam = rat(lam)
    n = g.dim
    entries = []
    for (a, b), row in g.table.items():
        for c, v in row:
            entries += (
                (a, b, c, v),  # [J_a, J_b] = f_ab^c J_c
                (n + a, b, n + c, v),  # [Q_a, J_b] = f_ab^c Q_c
                (b, n + a, n + c, -v),  # [J_b, Q_a] = -f_ab^c Q_c
                (n + a, n + b, c, lam * v),  # [Q_a, Q_b] = lam f_ab^c J_c
            )
    return make_lie_algebra(Tensor3.sparse(2 * n, entries))


def theta(gl: LieAlgebra, x: Sequence, lam) -> tuple[Fraction, ...]:
    """The linear map J_a -> Q_a, Q_a -> lam J_a on a complexified algebra.

    On generators theta^2 is multiplication by lam.
    """
    lam = rat(lam)
    if gl.dim % 2 != 0:
        raise DimensionMismatch("theta needs an even-dimensional (complexified) algebra")
    xs = gl.element(x)
    n = gl.dim // 2
    return tuple(lam * q for q in xs[n:]) + tuple(xs[:n])


def null_basis(g: LieAlgebra, s) -> Matrix:
    """Basis change to (N, Ntilde, J_1) with N = s(J_0+J_2), Ntilde = s(J_0-J_2).

    Columns of the returned matrix are the new basis vectors in the J-basis.
    The brackets are [Ntilde, N] = 2 s^2 J_1, [J_1, N] = N, [J_1, Ntilde] =
    -Ntilde; the conventional normalisation 1/sqrt(2) corresponds to
    2 s^2 = 1, which is irrational, so the scale is an explicit parameter.
    """
    if not is_lorentzian(g):
        raise MetricError("null basis requires the Lorentzian metric diag(1,-1,-1)")
    s = rat(s)
    if s == 0:
        raise ValueError("null basis scale must be nonzero")
    return Matrix([[s, s, 0], [0, 0, 1], [s, -s, 0]])


def outer(g: LieAlgebra, x: Sequence, y: Sequence) -> Matrix:
    """The rank-one map |x><y|: Z -> x <y, Z> as a matrix in the J-basis."""
    if g.metric is None:
        raise MetricError("outer product requires a metric")
    xs, ys = g.element(x), g.element(y)
    lowered = g.metric.transpose().apply(ys)  # y^c eta_ca, over the nonzeros
    return Matrix([[u * w for w in lowered] for u in xs])
