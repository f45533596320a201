"""Exact linear algebra over the rationals.

Everything is computed with ``fractions.Fraction``; there is no floating
point anywhere in the library.  Two matrix types share the attributes
``rows``, ``cols`` and ``entries``: ``RatMatrix`` stores every entry
row-major, ``SparseMatrix`` a dict of its nonzeros.  Cochain
differentials are a few percent nonzero and reach thousands of rows, so
they are built sparse, and ``mat_rank`` eliminates over the nonzeros of
either type.  Kernels and solutions use dense reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

Rat = Fraction

RatVec = Tuple[Fraction, ...]


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed; use Fraction or int")
    return Fraction(x)


class RatMatrix:
    """Dense rational matrix stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        ents = tuple(_frac(e) for e in entries)
        if len(ents) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(ents)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = ents

    @classmethod
    def from_rows(cls, row_data: Sequence[Sequence]) -> "RatMatrix":
        rows = len(row_data)
        cols = len(row_data[0]) if rows else 0
        flat: List[Fraction] = []
        for r in row_data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(_frac(e) for e in r)
        return cls(rows, cols, flat)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        ents = [Fraction(0)] * (n * n)
        for i in range(n):
            ents[i * n + i] = Fraction(1)
        return cls(n, n, ents)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> RatVec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def mul_vec(self, v: Sequence) -> RatVec:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        vv = [_frac(x) for x in v]
        return tuple(
            sum((self.entry(i, j) * vv[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                out.append(
                    sum(
                        (self.entry(i, k) * other.entry(k, j) for k in range(self.cols)),
                        Fraction(0),
                    )
                )
        return RatMatrix(self.rows, other.cols, out)

    def add(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RatMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def sub(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RatMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def scale(self, c) -> "RatMatrix":
        cc = _frac(c)
        return RatMatrix(self.rows, self.cols, [cc * e for e in self.entries])

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


class SparseMatrix:
    """Rational matrix holding only its nonzero entries, {(row, col): value}."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Dict[Tuple[int, int], object]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        ents: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), e in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside a {rows}x{cols} matrix")
            e = _frac(e)
            if e != 0:
                ents[(i, j)] = e
        self.rows = rows
        self.cols = cols
        self.entries = ents

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        by_row: Dict[int, List[Tuple[int, Fraction]]] = {}
        for (k, j), b in other.entries.items():
            by_row.setdefault(k, []).append((j, b))
        out: Dict[Tuple[int, int], Fraction] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                out[(i, j)] = out.get((i, j), 0) + a * b
        return SparseMatrix(self.rows, other.cols, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _nonzero_rows(m: Union[RatMatrix, SparseMatrix]) -> List[Dict[int, Fraction]]:
    """The nonempty rows of m as {col: value} dicts."""
    if isinstance(m, SparseMatrix):
        rows: Dict[int, Dict[int, Fraction]] = {}
        for (i, j), e in m.entries.items():
            rows.setdefault(i, {})[j] = e
        return list(rows.values())
    out = []
    for i in range(m.rows):
        row = {j: e for j, e in enumerate(m.row(i)) if e != 0}
        if row:
            out.append(row)
    return out


def mat_rank(m: Union[RatMatrix, SparseMatrix]) -> int:
    """Rank by exact row elimination over the nonzeros.

    Rows are taken shortest first, to limit fill-in.  Each is reduced by
    the pivot rows found so far at its leading column until it is zero or
    leads in a new column, where it becomes the pivot row.
    """
    pivots: Dict[int, Dict[int, Fraction]] = {}
    for row in sorted(_nonzero_rows(m), key=len):
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = 1 / row[c]
                pivots[c] = {k: v * inv for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivot.items():
                e = row.get(k, 0) - f * v
                if e:
                    row[k] = e
                else:
                    del row[k]
    return len(pivots)


def _echelon(m: RatMatrix) -> Tuple[List[List[Fraction]], List[int]]:
    """Row-reduce a copy of m; returns (reduced rows, pivot column list).

    Reduction goes all the way to reduced row echelon form; pivoting takes
    the first row with a nonzero entry in the current column.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots: List[int] = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return rows, pivots


def mat_kernel_basis(m: RatMatrix) -> List[RatVec]:
    """Basis of the right kernel; one vector per free column."""
    rows, pivots = _echelon(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def mat_solve(m: RatMatrix, b: Sequence) -> Optional[RatVec]:
    """One exact solution of m x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    bb = [_frac(x) for x in b]
    if len(bb) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    if m.rows == 0:
        return tuple([Fraction(0)] * m.cols)
    aug = RatMatrix.from_rows([list(m.row(i)) + [bb[i]] for i in range(m.rows)])
    rows, pivots = _echelon(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.cols]
    return tuple(x)
