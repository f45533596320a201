"""Exact linear algebra over the rationals.

Values are Python ints where integral and ``fractions.Fraction``
otherwise; there is no floating point anywhere in the library.  Two
matrix types share the attributes ``rows``, ``cols`` and ``entries``:
``RatMatrix`` stores every entry row-major as a Fraction and only holds
the matrix of a derivation, ``SparseMatrix`` a dict of its nonzeros,
each an int when integral.  Cochain differentials are a few percent
nonzero and reach thousands of rows, so they are built sparse, and the
one engine takes a ``SparseMatrix`` only: it eliminates fraction-free
over the nonzeros, on primitive integer rows, and ``mat_rank`` counts
its pivot rows; ``mat_kernel_basis`` and ``mat_solve`` clear the other
pivot columns of each pivot row the same way and read the reduced row
echelon form off it as ``Fraction(a, b)``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

RatVec = Tuple[Fraction, ...]


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed; use Fraction or int")
    return Fraction(x)


def _exact(x) -> Union[int, Fraction]:
    """x as an int when integral, else as a Fraction; floats are rejected."""
    if type(x) is int:
        return x
    x = _frac(x)
    return x.numerator if x.denominator == 1 else x


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
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> RatVec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

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
    """Rational matrix holding only its nonzero entries, {(row, col): value},
    each an int when integral and a Fraction otherwise."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Dict[Tuple[int, int], object]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        ents: Dict[Tuple[int, int], Union[int, Fraction]] = {}
        for (i, j), e in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside a {rows}x{cols} matrix")
            e = _exact(e)
            if e != 0:
                ents[(i, j)] = e
        self.rows = rows
        self.cols = cols
        self.entries = ents

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _nonzero_rows(m: SparseMatrix) -> Dict[int, Dict[int, Fraction]]:
    """The nonempty rows of m as {col: value} dicts, keyed by row index."""
    if not isinstance(m, SparseMatrix):
        raise TypeError(f"the elimination takes a SparseMatrix, not {type(m).__name__}")
    rows: Dict[int, Dict[int, Fraction]] = {}
    for (i, j), e in m.entries.items():
        rows.setdefault(i, {})[j] = e
    return rows


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """An integer row divided by its content."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _clear(row: Dict[int, int], pivot: Dict[int, int], c: int) -> Dict[int, int]:
    """a row - b pivot, with a and b coprime so that it is zero at column c,
    divided by its content; it is built in row, which the caller gives up."""
    p, r = pivot[c], row[c]
    g = gcd(p, r)
    a, b = p // g, r // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, v in pivot.items():
        e = row.get(k, 0) - b * v
        if e:
            row[k] = e
        else:
            del row[k]
    return _primitive(row)


def _eliminate(rows) -> Dict[int, Dict[int, int]]:
    """The pivot rows of fraction-free row elimination over the nonzeros,
    on primitive integer rows (Bareiss, Math. Comp. 22, 1968), keyed by
    their leading column.

    Rows are taken shortest first, to limit fill-in.  Each is reduced by
    the pivot rows found so far at its leading column until it is zero or
    leads in a new column, where it becomes the pivot row.  The leading
    columns are the pivot columns of the reduced row echelon form.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for row in sorted(rows, key=len):
        den = lcm(*(v.denominator for v in row.values()))
        row = _primitive({k: v.numerator * (den // v.denominator) for k, v in row.items()})
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            row = _clear(row, pivot, c)
    return pivots


def _reduced(pivots: Dict[int, Dict[int, int]]) -> Dict[int, Dict[int, int]]:
    """The pivot rows with every other pivot column cleared, fraction-free:
    row c over its entry at c is row c of the reduced row echelon form."""
    out: Dict[int, Dict[int, int]] = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k in out]:
            row = _clear(row, out[k], k)
        out[c] = row
    return out


def mat_rank(m: SparseMatrix) -> int:
    """Rank: the number of pivot rows of the fraction-free elimination."""
    return len(_eliminate(_nonzero_rows(m).values()))


def mat_kernel_basis(m: SparseMatrix) -> List[RatVec]:
    """Basis of the right kernel; one vector per free column, which is 1
    there and 0 at the other free columns."""
    pivots = _reduced(_eliminate(_nonzero_rows(m).values()))
    zero = Fraction(0)
    basis = {fc: [zero] * fc + [Fraction(1)] + [zero] * (m.cols - fc - 1) for fc in range(m.cols) if fc not in pivots}
    for c, row in pivots.items():
        for k, v in row.items():
            if k != c:
                basis[k][c] = Fraction(-v, row[c])
    return [tuple(v) for v in basis.values()]


def mat_solve(m: SparseMatrix, b: Sequence) -> Optional[RatVec]:
    """One exact solution of m x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    rows = _nonzero_rows(m)
    bb = [_frac(x) for x in b]
    if len(bb) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    for i, e in enumerate(bb):
        if e:
            rows.setdefault(i, {})[m.cols] = e
    pivots = _eliminate(rows.values())
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for c, row in _reduced(pivots).items():
        x[c] = Fraction(row.get(m.cols, 0), row[c])
    return tuple(x)
