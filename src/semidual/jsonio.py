"""JSON schemas for the file formats the CLI consumes and emits.

Lie algebra:  {"dim": n, "metric": ["1","-1","-1"] | null,
               "f": [{"a": 0, "b": 1, "c": 2, "v": "p/q"}, ...]}
              listing only entries with a < b; a > b follows by antisymmetry.
F map:        {"matrix": [[rational strings]]} with matrix[b][a] = F^b_a.
r-matrix:     {"R": [[rational strings]]}.

All rationals are "p/q" or "p" strings; nothing is ever parsed as a float.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .lie import LieAlgebra, LieAlgebraError, make_lie_algebra, so21, so3
from .linalg import Matrix, Tensor3, rat


class InputError(ValueError):
    """Malformed input file or flag; the message names the offending field."""


def load_json_file(path) -> object:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _rat_field(value, where: str) -> Fraction:
    try:
        return rat(value)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def algebra_from_json(obj, where="algebra") -> LieAlgebra:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"{where}.dim: expected a positive integer")
    metric = None
    if obj.get("metric") is not None:
        diag = obj["metric"]
        if not isinstance(diag, list) or len(diag) != dim:
            raise InputError(f"{where}.metric: expected a list of {dim} rationals")
        metric = Matrix.diagonal(
            [_rat_field(v, f"{where}.metric[{i}]") for i, v in enumerate(diag)]
        )
    entries = obj.get("f")
    if not isinstance(entries, list):
        raise InputError(f"{where}.f: expected a list of structure-constant entries")
    seen = set()
    consts = []
    for idx, entry in enumerate(entries):
        loc = f"{where}.f[{idx}]"
        if not isinstance(entry, dict):
            raise InputError(f"{loc}: expected an object with a, b, c, v")
        try:
            a, b, c = entry["a"], entry["b"], entry["c"]
        except KeyError as exc:
            raise InputError(f"{loc}: missing field {exc}") from exc
        for name, val in (("a", a), ("b", b), ("c", c)):
            if isinstance(val, bool):
                raise InputError(f"{loc}.{name}: expected an integer index, got {json.dumps(val)}")
            if not isinstance(val, int) or not 0 <= val < dim:
                raise InputError(f"{loc}.{name}: index out of range 0..{dim - 1}")
        if not a < b:
            raise InputError(f"{loc}: need a < b (a > b entries follow by antisymmetry)")
        v = _rat_field(entry.get("v"), f"{loc}.v")
        if (a, b, c) in seen:
            raise InputError(f"{loc}: duplicate entry for ({a},{b},{c})")
        seen.add((a, b, c))
        consts += ((a, b, c, v), (b, a, c, -v))
    try:
        return make_lie_algebra(Tensor3.sparse(dim, consts), metric)
    except LieAlgebraError as exc:
        raise InputError(f"{where}: not a Lie algebra: {exc}") from exc


def algebra_to_json(g: LieAlgebra) -> dict:
    f_entries = [
        {"a": a, "b": b, "c": c, "v": str(v)}
        for a, b, c, v in g.f.nonzero()
        if a < b
    ]
    metric = None
    if g.metric is not None:
        metric = [str(g.metric[i, i]) for i in range(g.dim)]
    return {"dim": g.dim, "metric": metric, "f": f_entries}


def fmap_from_json(obj, dim: int | None = None, where="F") -> Matrix:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise InputError(f'{where}: expected {{"matrix": [[...]]}}')
    rows = obj["matrix"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{where}.matrix: expected a list of rows")
    data = [
        [_rat_field(v, f"{where}.matrix[{i}][{j}]") for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    try:
        m = Matrix(data)
    except ValueError as exc:
        raise InputError(f"{where}.matrix: {exc}") from exc
    if m.rows != m.cols:
        raise InputError(f"{where}.matrix: must be square, got {m.rows}x{m.cols}")
    if dim is not None and m.rows != dim:
        raise InputError(f"{where}.matrix: is {m.rows}x{m.cols} but algebra dim is {dim}")
    return m


def fmap_to_json(F: Matrix) -> dict:
    return {"matrix": [[str(v) for v in row] for row in F.data]}


def rmatrix_to_json(R: Matrix) -> dict:
    return {"R": [[str(v) for v in row] for row in R.data]}


def tensor_components(t: Tensor3) -> list[dict]:
    return [{"i": i, "j": j, "k": k, "v": str(v)} for i, j, k, v in t.nonzero()]


def matrix_components(m: Matrix) -> list[dict]:
    return [{"i": i, "j": j, "v": str(v)} for i, j, v in m.nonzero()]


def builtin_algebra(name: str) -> LieAlgebra | None:
    if name == "so3":
        return so3()
    if name == "so21":
        return so21()
    return None


def load_algebra(spec: str) -> tuple[str, LieAlgebra]:
    """Resolve an --algebra argument: builtin name or JSON file path."""
    g = builtin_algebra(spec)
    if g is not None:
        return spec, g
    obj = load_json_file(spec)
    return str(spec), algebra_from_json(obj, where=str(spec))
