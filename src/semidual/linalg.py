"""Exact rational scalars, small dense matrices and sparse rank-3 tensors.

Every coefficient in this package is a fractions.Fraction; nothing is ever
rounded.  Rationals serialize as "p/q" (or "p") strings and are parsed
strictly: no decimals, no zero denominators.

Matrix convention, fixed package-wide: a matrix M represents the linear map
J_a -> M[b][a] J_b, i.e. the column index is the input basis label and
M.apply(x)[b] = sum_a M[b,a] x[a].
"""

from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Sequence

Scalar = Fraction


class DimensionMismatch(ValueError):
    pass


_RATIONAL = re.compile(r"([+-]?\d+)\s*(?:/\s*(\d+))?")


def rat(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational.

    Floats are rejected (no rounding anywhere); so are bools and zero
    denominators.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret bool {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL.fullmatch(value.strip())
        if m is None:
            raise ValueError(f"not a rational: {value!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
        if den == 0:
            raise ValueError(f"zero denominator in rational: {value!r}")
        return Fraction(num, den)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def rat_str(value) -> str:
    return str(rat(value))


def vec(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def vec_is_zero(x: Sequence) -> bool:
    return all(a == 0 for a in x)


_ZERO = Fraction(0)


def _fsum(terms: list[Fraction]) -> Fraction:
    """Exact sum of Fractions, without the extra addition of a zero start."""
    if not terms:
        return _ZERO
    total = terms[0]
    for t in terms[1:]:
        total += t
    return total


class Matrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        rows = tuple(tuple(rat(v) for v in row) for row in data)
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("ragged matrix rows")
        self.rows = len(rows)
        self.cols = width
        self.data = rows

    @classmethod
    def _of(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "Matrix":
        """Wrap rows that are already a non-empty rectangular tuple of tuples
        of Fractions, with no coercion or shape check."""
        m = object.__new__(cls)
        m.rows = len(rows)
        m.cols = len(rows[0])
        m.data = rows
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        e = vec(entries)
        n = len(e)
        return cls([[e[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def build(cls, rows: int, cols: int, fn: Callable[[int, int], object]) -> "Matrix":
        return cls([[fn(i, j) for j in range(cols)] for i in range(rows)])

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return f"Matrix[{body}]"

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape ({self.rows},{self.cols}) != ({other.rows},{other.cols})"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.data, other.data)
            )
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.data, other.data)
            )
        )

    def __neg__(self) -> "Matrix":
        return Matrix._of(tuple(tuple(-a for a in row) for row in self.data))

    def __mul__(self, scalar) -> "Matrix":
        c = rat(scalar)
        return Matrix._of(tuple(tuple(c * a for a in row) for row in self.data))

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply ({self.rows},{self.cols}) by ({other.rows},{other.cols})"
            )
        ot = other.data
        return Matrix._of(
            tuple(
                tuple(
                    sum((row[k] * ot[k][j] for k in range(self.cols)), Fraction(0))
                    for j in range(other.cols)
                )
                for row in self.data
            )
        )

    def apply(self, x: Sequence) -> tuple[Fraction, ...]:
        """M x, summing only over the support of x and the nonzero entries
        of M; the dropped terms are exact zeros, so the result is the dense
        sum."""
        if len(x) != self.cols:
            raise DimensionMismatch(f"vector length {len(x)} != {self.cols} columns")
        support = [(a, v) for a, v in enumerate(vec(x)) if v]
        return tuple(
            _fsum([row[a] * v for a, v in support if row[a]]) for row in self.data
        )

    def transpose(self) -> "Matrix":
        return Matrix._of(tuple(zip(*self.data)))

    def metric_transpose(self, eta: "Matrix") -> "Matrix":
        """Transpose w.r.t. an invertible symmetric metric: eta^-1 F^T eta."""
        if eta != eta.transpose():
            raise ValueError("metric is not symmetric")
        return eta.inverse() @ self.transpose() @ eta

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), Fraction(0))

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def nonzero(self) -> list[tuple[int, int, Fraction]]:
        return [
            (i, j, v)
            for i, row in enumerate(self.data)
            for j, v in enumerate(row)
            if v
        ]

    def row_nonzeros(self) -> list[list[tuple[int, Fraction]]]:
        """The nonzero entries of each row i, as [(j, M[i, j]), ...]."""
        return [[(j, v) for j, v in enumerate(row) if v] for row in self.data]

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        a = [list(row) for row in self.data]
        n = self.rows
        det = Fraction(1)
        for k in range(n):
            pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != k:
                a[k], a[pivot] = a[pivot], a[k]
                det = -det
            det *= a[k][k]
            inv = 1 / a[k][k]
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    f = a[i][k] * inv
                    for j in range(k, n):
                        a[i][j] -= f * a[k][j]
        return det

    def rank(self) -> int:
        _, pivots = _row_reduce([list(row) for row in self.data])
        return len(pivots)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        aug = [
            list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i, row in enumerate(self.data)
        ]
        reduced, pivots = _row_reduce(aug, stop_col=n)
        if len(pivots) != n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix._of(tuple(tuple(row[n:]) for row in reduced))


def adjugate_cofactor(m: Matrix) -> Matrix:
    """Adjugate as the transpose of the cofactor matrix (minor expansion).

    Independent of the quadratic-polynomial adjugate used elsewhere; the two
    are compared in tests.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("adjugate of a non-square matrix")
    n = m.rows
    if n == 1:
        return Matrix([[1]])

    def minor(i, j):
        sub = [
            [m.data[r][c] for c in range(n) if c != j]
            for r in range(n)
            if r != i
        ]
        return Matrix(sub).det()

    sign = lambda i, j: 1 if (i + j) % 2 == 0 else -1
    # adj[j][i] = (-1)^(i+j) minor(i, j)
    return Matrix(
        [[sign(i, j) * minor(i, j) for i in range(n)] for j in range(n)]
    )


def _row_reduce(rows: list[list[Fraction]], stop_col: int | None = None):
    """In-place reduced row echelon form; returns (rows, pivot column list).

    Columns >= stop_col ride along (augmented part) and are never pivoted.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    limit = ncols if stop_col is None else stop_col
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w if w else v for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def solve(a: Matrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """Exact solution x of a @ x = b, or None if the system is inconsistent.

    For underdetermined systems the free variables are set to zero.
    """
    if len(b) != a.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != {a.rows} rows")
    bs = vec(b)
    aug = [list(row) + [bs[i]] for i, row in enumerate(a.data)]
    reduced, pivots = _row_reduce(aug, stop_col=a.cols)
    for i in range(len(pivots), a.rows):
        if reduced[i][a.cols] != 0:
            return None
    x = [Fraction(0)] * a.cols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][a.cols]
    return tuple(x)


def nullspace(a: Matrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the kernel of a (list of vectors, possibly empty)."""
    reduced, pivots = _row_reduce([list(row) for row in a.data])
    pivot_set = set(pivots)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * a.cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        basis.append(tuple(v))
    return basis


def inertia(m: Matrix) -> tuple[int, int, int]:
    """Sylvester inertia (n_plus, n_minus, n_zero) of a symmetric matrix.

    Exact symmetric Gaussian elimination by congruence.  A zero pivot with a
    nonzero off-diagonal entry is a hyperbolic pair and contributes one +1
    and one -1; the congruence row+column operation below reduces it to the
    diagonal case.
    """
    if m != m.transpose():
        raise ValueError("inertia of a non-symmetric matrix")
    a = [list(row) for row in m.data]
    n = m.rows
    active = list(range(n))
    plus = minus = zero = 0
    while active:
        k = next((i for i in active if a[i][i] != 0), None)
        if k is None:
            pair = next(
                (
                    (i, j)
                    for i in active
                    for j in active
                    if i < j and a[i][j] != 0
                ),
                None,
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            # congruence e_i -> e_i + e_j makes a[i][i] = 2 a[i][j] != 0
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            k = i
        if a[k][k] > 0:
            plus += 1
        else:
            minus += 1
        active.remove(k)
        inv = 1 / a[k][k]
        for i in active:
            if a[i][k] != 0:
                f = a[i][k] * inv
                for c in range(n):
                    a[i][c] -= f * a[k][c]
                for r in range(n):
                    a[r][i] -= f * a[r][k]
    return plus, minus, zero


class Tensor3:
    """Immutable cubical rank-3 tensor of exact rationals, indexed t[i,j,k].

    Only the nonzero entries are stored: `table` is the read-only
    (i, j) -> ((k, t_ijk), ...) map, with the keys and each row's k in index
    order.  Rows without a nonzero entry are absent.
    """

    __slots__ = ("dim", "table")

    def __init__(self, data: Iterable[Iterable[Iterable]]):
        cube = [[[rat(v) for v in row] for row in plane] for plane in data]
        d = len(cube)
        if any(len(plane) != d for plane in cube) or any(
            len(row) != d for plane in cube for row in plane
        ):
            raise DimensionMismatch("tensor is not cubical")
        self.dim = d
        self.table = Tensor3.build(d, lambda i, j, k: cube[i][j][k]).table

    @classmethod
    def zeros(cls, dim: int) -> "Tensor3":
        return cls.sparse(dim, ())

    @classmethod
    def build(cls, dim: int, fn: Callable[[int, int, int], object]) -> "Tensor3":
        return cls.sparse(
            dim,
            (
                (i, j, k, fn(i, j, k))
                for i in range(dim)
                for j in range(dim)
                for k in range(dim)
            ),
        )

    @classmethod
    def sparse(cls, dim: int, entries: Iterable[tuple[int, int, int, object]]) -> "Tensor3":
        """The tensor whose (i, j, k) entry is the sum of every v listed as
        (i, j, k, v); entries never listed are zero.

        This is where every table is built: each v is coerced with rat
        before it is summed, and exact zeros are dropped.
        """
        sums: dict[tuple[int, int, int], Fraction] = {}
        for i, j, k, v in entries:
            key = (i, j, k)
            v = rat(v)
            sums[key] = sums[key] + v if key in sums else v
        kept = {}
        for (i, j, k), v in sums.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise IndexError(f"tensor index {(i, j, k)} out of range for dim {dim}")
            if v:
                kept[i, j, k] = v
        rows: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for i, j, k in sorted(kept):
            rows.setdefault((i, j), []).append((k, kept[i, j, k]))
        t = object.__new__(cls)
        t.dim = dim
        t.table = MappingProxyType({ij: tuple(row) for ij, row in rows.items()})
        return t

    def __getitem__(self, key) -> Fraction:
        i, j, k = key
        d = self.dim
        if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
            raise IndexError(f"tensor index {key} out of range for dim {d}")
        for c, v in self.table.get((i, j), ()):
            if c == k:
                return v
        return _ZERO

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor3)
            and self.dim == other.dim
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.table.items())))

    def __repr__(self) -> str:
        nz = self.nonzero()
        if not nz:
            return f"Tensor3(dim={self.dim}, 0)"
        body = ", ".join(f"[{i},{j},{k}]={v}" for i, j, k, v in nz)
        return f"Tensor3(dim={self.dim}, {body})"

    def _same_dim(self, other: "Tensor3"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"tensor dims {self.dim} != {other.dim}")

    def __add__(self, other: "Tensor3") -> "Tensor3":
        self._same_dim(other)
        return Tensor3.sparse(self.dim, self.nonzero() + other.nonzero())

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        self._same_dim(other)
        return Tensor3.sparse(
            self.dim, self.nonzero() + [(i, j, k, -v) for i, j, k, v in other.nonzero()]
        )

    def __neg__(self) -> "Tensor3":
        return Tensor3.sparse(self.dim, [(i, j, k, -v) for i, j, k, v in self.nonzero()])

    def __mul__(self, scalar) -> "Tensor3":
        c = rat(scalar)
        return Tensor3.sparse(
            self.dim, [(i, j, k, c * v) for i, j, k, v in self.nonzero()] if c else ()
        )

    __rmul__ = __mul__

    def change_basis(self, A: Matrix, ainv: Matrix) -> "Tensor3":
        """Components in the basis J'_a = A^d_a J_d, given ainv = A^-1 (not
        checked): t'_ab^c = A^d_a A^e_b t_de^x (A^-1)^c_x.  One index is
        summed at a time, over the previous step's nonzeros and those of
        ainv's columns resp. A's rows, so the cost follows the nonzeros."""
        n = self.dim
        for m in (A, ainv):
            if m.rows != n or m.cols != n:
                raise DimensionMismatch(f"{m.rows}x{m.cols} basis change for tensor dim {n}")
        arows, icols = A.row_nonzeros(), ainv.transpose().row_nonzeros()
        upper = Tensor3.sparse(n, (
            (d, e, c, v * w)
            for (d, e), row in self.table.items()
            for x, v in row
            for c, w in icols[x]
        ))
        second = Tensor3.sparse(n, (
            (d, b, c, w * v) for d, e, c, v in upper.nonzero() for b, w in arows[e]
        ))
        return Tensor3.sparse(n, (
            (a, b, c, w * v) for d, b, c, v in second.nonzero() for a, w in arows[d]
        ))

    def is_zero(self) -> bool:
        return not self.table

    def nonzero(self) -> list[tuple[int, int, int, Fraction]]:
        return [(i, j, k, v) for (i, j), row in self.table.items() for k, v in row]
