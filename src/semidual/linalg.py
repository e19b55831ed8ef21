"""Exact rational scalars, small dense matrices and sparse rank-3 tensors.

Every coefficient in this package is a fractions.Fraction; nothing is ever
rounded.  Rationals serialize as "p/q" (or "p") strings and are parsed
strictly: no decimals, no zero denominators.

Tensor3 stores ints over one positive denominator, reduced so that equal
tensors have equal storage; its Fraction table is built only when read.
The hot kernels are fraction-free: each reads its inputs as ints over one
common denominator (Tensor3.int_table, the memoised Matrix.int_rows), sums
products of ints, and hands the sums and the product of the denominators
to Tensor3.from_ints, which divides by their gcd.  Inverse, rank, solve and
nullspace share one fraction-free Gauss-Jordan elimination on int rows, and
det is Bareiss's (Math. Comp. 22 (1968) 565); only their results are
Fractions.

Matrix convention, fixed package-wide: a matrix M represents the linear map
J_a -> M[b][a] J_b, i.e. the column index is the input basis label and
M.apply(x)[b] = sum_a M[b,a] x[a].

Facts that depend on one input value only (a metric's inverse here, an
algebra's complexification, semidual and invariant element elsewhere) are
kept in ValueCaches: each holds at most CACHE_SIZE entries, keyed by value.
"""

from __future__ import annotations

import math
import re
import threading
from collections import OrderedDict, defaultdict
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

Scalar = Fraction


class DimensionMismatch(ValueError):
    pass


# ASCII digits only: \d and int() would also take other scripts' digits
_RATIONAL = re.compile(r"([+-]?\d+)\s*(?:/\s*(\d+))?", re.ASCII)


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


IntRows = list[list[tuple[int, int]]]

# Entries per ValueCache: enough for every (algebra, lambda) pair of the
# standard sweep (ten) to stay resident.
CACHE_SIZE = 16
_MISSING = object()


class ValueCache:
    """What was built from each of the CACHE_SIZE most recently used keys.

    Keys are compared by value (hash and ==), never by id(), and keys and
    values are held by strong references, so an entry can never answer for
    a different object that happens to reuse a collected one's id.
    """

    instances: list["ValueCache"] = []

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()
        self.lock = threading.Lock()
        ValueCache.instances.append(self)

    def get(self, key, build: Callable[[], object]):
        """The value stored for key, which becomes the most recently used.
        On a miss build() is called, outside the lock (two threads may both
        build an entry; the values are equal), and stored; the least
        recently used entries beyond CACHE_SIZE are dropped."""
        with self.lock:
            value = self.entries.pop(key, _MISSING)
            if value is not _MISSING:
                self.entries[key] = value
                return value
        value = build()
        with self.lock:
            self.entries[key] = value
            while len(self.entries) > CACHE_SIZE:
                self.entries.popitem(last=False)
        return value


def clear_caches():
    """Empty every ValueCache, so the next call of each cached helper builds."""
    for cache in ValueCache.instances:
        with cache.lock:
            cache.entries.clear()


def int_vector(values: Iterable[Fraction]) -> tuple[int, list[tuple[int, int]]]:
    """(den, [(i, den * v_i), ...]) over the nonzero v_i, den the lcm of the
    denominators (1 when there is none)."""
    ratios = [(i, v.as_integer_ratio()) for i, v in enumerate(values)]
    den = math.lcm(*(q for _, (_, q) in ratios))
    return den, [(i, p * (den // q)) for i, (p, q) in ratios if p]


def _dense(rows: IntRows, width: int) -> list[list[int]]:
    """Sparse int rows as dense lists of the given width."""
    out = []
    for row in rows:
        d = [0] * width
        for j, v in row:
            d[j] = v
        out.append(d)
    return out


def _eliminate(rows: list[list[int]], stop: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of dense int rows, in place,
    pivoting in the columns before stop; returns the pivot columns.  Row r
    then divided by its entry at pivots[r] is row r of the reduced row
    echelon form.  A pivot p changes only the rows with a nonzero f in its
    column, to (p row_i - f row_r) / gcd(p, f) divided by its content."""
    pivots: list[int] = []
    r = 0
    for c in range(stop):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = math.gcd(p, f)
                s, t = p // g, f // g
                row = [s * v - t * w if w else s * v for v, w in zip(row, prow)]
                g = math.gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


class Matrix:
    """Immutable dense matrix of exact rationals; int_rows() is kept."""

    __slots__ = ("rows", "cols", "data", "_ints")

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
    def from_ints(cls, cols: int, den: int, rows: IntRows) -> "Matrix":
        """The matrix with entry v / den at each (j, v) of row i of rows
        (nonzero ints, j increasing, den > 0); rows and den divided by their
        gcd are its int_rows()."""
        g = math.gcd(den, *(v for row in rows for _, v in row))
        if g > 1:
            den, rows = den // g, [[(j, v // g) for j, v in row] for row in rows]
        data = [[_ZERO] * cols for _ in rows]
        for d, row in zip(data, rows):
            for j, v in row:
                d[j] = Fraction(v, den)
        m = cls._of(tuple(map(tuple, data)))
        m._ints = (den, rows)
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

    # int_rows() is canonical (den the lcm of the denominators), so equal
    # matrices of one shape have equal int rows
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.int_rows() == other.int_rows()
        )

    def __hash__(self) -> int:
        den, rows = self.int_rows()
        return hash((self.cols, den, tuple(map(tuple, rows))))

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
        ds, srows = self.int_rows()
        do, orows = other.int_rows()
        out = []
        for srow in srows:
            acc = [0] * other.cols
            for k, s in srow:
                for j, o in orows[k]:
                    acc[j] += s * o
            out.append([(j, v) for j, v in enumerate(acc) if v])
        return Matrix.from_ints(other.cols, ds * do, out)

    def apply(self, x: Sequence) -> tuple[Fraction, ...]:
        """M x, summed in ints over the nonzeros of M and the support of x;
        the dropped terms are exact zeros, so the result is the dense sum."""
        if len(x) != self.cols:
            raise DimensionMismatch(f"vector length {len(x)} != {self.cols} columns")
        den, rows = self.int_rows()
        dx, support = int_vector(vec(x))
        xs = dict(support)
        return tuple(Fraction(sum(v * xs[a] for a, v in row if a in xs), den * dx) for row in rows)

    def transpose(self) -> "Matrix":
        den, rows = self.int_rows()
        cols: IntRows = [[] for _ in range(self.cols)]
        for i, row in enumerate(rows):
            for j, v in row:
                cols[j].append((i, v))
        t = Matrix._of(tuple(zip(*self.data)))
        t._ints = (den, cols)
        return t

    def metric_transpose(self, eta: "Matrix") -> "Matrix":
        """Transpose w.r.t. an invertible symmetric metric: eta^-1 F^T eta."""
        if eta != eta.transpose():
            raise ValueError("metric is not symmetric")
        return _INVERSES.get(eta, eta.inverse) @ self.transpose() @ eta

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

    def int_rows(self) -> tuple[int, IntRows]:
        """(den, the nonzero entries of each row as [(j, den * M[i, j]), ...]),
        den the lcm of the denominators (1 for the zero matrix).  Built once
        per matrix and shared by every caller, which only reads it."""
        try:
            return self._ints
        except AttributeError:
            den, flat = int_vector(v for row in self.data for v in row)
            rows: IntRows = [[] for _ in self.data]
            for ij, v in flat:
                i, j = divmod(ij, self.cols)
                rows[i].append((j, v))
            self._ints = den, rows
            return self._ints

    def det(self) -> Fraction:
        """Bareiss's fraction-free elimination on den * M: each step's
        division by the previous pivot is exact."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        den, rows = self.int_rows()
        a = _dense(rows, n)
        sign, prev = 1, 1
        for k in range(n):
            pivot = next((i for i in range(k, n) if a[i][k]), None)
            if pivot is None:
                return _ZERO
            if pivot != k:
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            p, top = a[k][k], a[k]
            for row in a[k + 1:]:
                f = row[k]
                for j in range(k + 1, n):
                    row[j] = (row[j] * p - f * top[j]) // prev
            prev = p
        return Fraction(sign * prev, den**n)

    def rank(self) -> int:
        return len(_eliminate(_dense(self.int_rows()[1], self.cols), self.cols))

    def inverse(self) -> "Matrix":
        """Gauss-Jordan on [den M | 1]: row r ends as p_r e_r | p_r (den M)^-1
        row r, so M^-1 row r is den / p_r times its augmented part."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        den, rows = self.int_rows()
        aug = _dense(rows, 2 * n)
        for i, row in enumerate(aug):
            row[n + i] = 1
        if len(_eliminate(aug, n)) != n:
            raise ZeroDivisionError("matrix is singular")
        lcm = math.lcm(*(row[r] for r, row in enumerate(aug)))
        out = [
            [(j, den * (lcm // row[r]) * v) for j, v in enumerate(row[n:]) if v]
            for r, row in enumerate(aug)
        ]
        return Matrix.from_ints(n, lcm, out)


_INVERSES = ValueCache()  # metric -> its inverse, for metric_transpose


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


def solve(a: Matrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """Exact solution x of a @ x = b, or None if the system is inconsistent.

    For underdetermined systems the free variables are set to zero: x is
    minus the head of the kernel vector of [a | b] whose last entry is 1,
    and there is none when b is not in the column space of a.
    """
    if len(b) != a.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != {a.rows} rows")
    aug = Matrix._of(tuple(row + (v,) for row, v in zip(a.data, vec(b))))
    last = [v for v in nullspace(aug) if v[-1]]
    return tuple(-u for u in last[0][:-1]) if last else None


def nullspace(a: Matrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the kernel of a (list of vectors, possibly empty): one
    per free column, that column 1 and the other free columns 0."""
    reduced = _dense(a.int_rows()[1], a.cols)
    pivots = _eliminate(reduced, a.cols)
    basis = []
    for free in sorted(set(range(a.cols)) - set(pivots)):
        v = [_ZERO] * a.cols
        v[free] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = Fraction(-row[free], row[c])
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

    Stored as ints over one denominator: int_table() is (den, ints), with
    ints the read-only (i, j) -> ((k, n_ijk), ...) map of the nonzero
    entries t_ijk = n_ijk / den, keys and each row's k in index order.  den
    is positive and gcd(den, every n_ijk) = 1, so equal tensors have equal
    storage, which == and hash compare.  `table` is the same map with the
    Fraction entries; it is built on first use and kept.
    """

    __slots__ = ("dim", "_ints", "_table")

    def __init__(self, data: Iterable[Iterable[Iterable]]):
        cube = [[[rat(v) for v in row] for row in plane] for plane in data]
        d = len(cube)
        if any(len(plane) != d for plane in cube) or any(
            len(row) != d for plane in cube for row in plane
        ):
            raise DimensionMismatch("tensor is not cubical")
        self.dim = d
        self._ints = Tensor3.build(d, lambda i, j, k: cube[i][j][k])._ints

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

        Each v is coerced with rat, and the sums are taken in ints over the
        lcm of the denominators; an index out of range raises IndexError.
        """
        listed = [((i, j, k), rat(v).as_integer_ratio()) for i, j, k, v in entries]
        den = math.lcm(*(q for _, (_, q) in listed))
        sums: dict[tuple[int, int, int], int] = defaultdict(int)
        for key, (p, q) in listed:
            sums[key] += p * (den // q)
        for key in sums:
            if not all(0 <= x < dim for x in key):
                raise IndexError(f"tensor index {key} out of range for dim {dim}")
        return cls.from_ints(dim, den, sums)

    @classmethod
    def from_ints(cls, dim: int, den: int, sums: dict[tuple[int, int, int], int]) -> "Tensor3":
        """The tensor with entry v / den at each (i, j, k) of an int
        accumulator (den > 0, indices in range, zero sums allowed): the
        nonzero sums and den divided by their gcd; no Fraction is built."""
        g = math.gcd(den, *sums.values())
        rows: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        for (i, j, k), v in sums.items():
            if v:
                rows[i, j].append((k, v // g))
        t = object.__new__(cls)
        t.dim = dim
        t._ints = (den // g, MappingProxyType({ij: tuple(sorted(rows[ij])) for ij in sorted(rows)}))
        return t

    def int_table(self) -> tuple[int, Mapping[tuple[int, int], tuple[tuple[int, int], ...]]]:
        """(den, ints): the stored form, read by every fraction-free kernel."""
        return self._ints

    @property
    def table(self) -> Mapping[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
        """The read-only (i, j) -> ((k, t_ijk), ...) map of the nonzero entries."""
        try:
            return self._table
        except AttributeError:
            den, ints = self._ints
            self._table = MappingProxyType({
                ij: tuple((k, Fraction(v, den)) for k, v in row) for ij, row in ints.items()})
            return self._table

    def __getitem__(self, key) -> Fraction:
        i, j, k = key
        d = self.dim
        if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
            raise IndexError(f"tensor index {key} out of range for dim {d}")
        den, ints = self._ints
        return next((Fraction(v, den) for c, v in ints.get((i, j), ()) if c == k), _ZERO)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tensor3) and self.dim == other.dim and self._ints == other._ints

    def __hash__(self) -> int:
        den, ints = self._ints
        return hash((self.dim, den, tuple(ints.items())))

    def __repr__(self) -> str:
        nz = self.nonzero()
        if not nz:
            return f"Tensor3(dim={self.dim}, 0)"
        body = ", ".join(f"[{i},{j},{k}]={v}" for i, j, k, v in nz)
        return f"Tensor3(dim={self.dim}, {body})"

    def _same_dim(self, other: "Tensor3"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"tensor dims {self.dim} != {other.dim}")

    def _plus(self, other: "Tensor3", sign: int) -> "Tensor3":
        """self + sign * other, in ints over the lcm of the denominators."""
        self._same_dim(other)
        (ds, ts), (do, to) = self._ints, other._ints
        den = math.lcm(ds, do)
        sums: dict[tuple[int, int, int], int] = defaultdict(int)
        for table, scale in ((ts, den // ds), (to, sign * (den // do))):
            for (i, j), row in table.items():
                for k, v in row:
                    sums[i, j, k] += scale * v
        return Tensor3.from_ints(self.dim, den, sums)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        return self._plus(other, 1)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return self._plus(other, -1)

    def __neg__(self) -> "Tensor3":
        return self * -1

    def __mul__(self, scalar) -> "Tensor3":
        p, q = rat(scalar).as_integer_ratio()
        den, ints = self._ints
        return Tensor3.from_ints(self.dim, den * q, {
            (i, j, k): p * v for (i, j), row in ints.items() for k, v in row})

    __rmul__ = __mul__

    def change_basis(self, A: Matrix, ainv: Matrix) -> "Tensor3":
        """Components in the basis J'_a = A^d_a J_d, given ainv = A^-1 (not
        checked): t'_ab^c = A^d_a A^e_b t_de^x (A^-1)^c_x.  One index is
        summed at a time, over the previous step's nonzeros and those of
        ainv's columns resp. A's rows, so the cost follows the nonzeros; the
        sums are ints over the denominator dt dA^2 dA^-1 of the three inputs."""
        n = self.dim
        for m in (A, ainv):
            if m.rows != n or m.cols != n:
                raise DimensionMismatch(f"{m.rows}x{m.cols} basis change for tensor dim {n}")
        dt, table = self.int_table()
        da, arows = A.int_rows()
        di, icols = ainv.transpose().int_rows()
        upper = defaultdict(int)
        for (d, e), row in table.items():
            for x, v in row:
                for c, w in icols[x]:
                    upper[d, e, c] += v * w
        second = defaultdict(int)
        for (d, e, c), v in upper.items():
            if v:
                for b, w in arows[e]:
                    second[d, b, c] += w * v
        final = defaultdict(int)
        for (d, b, c), v in second.items():
            if v:
                for a, w in arows[d]:
                    final[a, b, c] += w * v
        return Tensor3.from_ints(n, dt * da * da * di, final)

    def is_zero(self) -> bool:
        return not self._ints[1]

    def nonzero(self) -> list[tuple[int, int, int, Fraction]]:
        return [(i, j, k, v) for (i, j), row in self.table.items() for k, v in row]
