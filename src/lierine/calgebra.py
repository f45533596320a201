"""Finite-dimensional commutative algebras over Q and their derivations.

An algebra is given by structure constants on a fixed basis e_0..e_{d-1}:
e_i * e_j = sum_k mult[i][j][k] e_k, together with the coefficient vector
of the unit.  Elements are coefficient vectors; derivations are d x d
matrices acting on coefficient vectors.  Both are compiled once into
sparse lists of their nonzero constants, integral ones as int, which
products and derivation images read; element coefficients stay Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .exactla import RatMatrix, _exact, _frac
from .reporting import Violation


class CommAlg:
    """Commutative unital algebra presented by structure constants.

    The constructor only checks shapes; ``alg_validate`` checks the axioms.
    Instances are immutable and safe to share.  _products[i][j] lists the
    nonzero (k, mult[i][j][k]) of e_i * e_j.
    """

    __slots__ = ("dim", "mult", "unit", "_products")

    def __init__(self, dim: int, mult: Sequence, unit: Sequence) -> None:
        if dim <= 0:
            raise ValueError("algebra dimension must be positive")
        if len(mult) != dim:
            raise ValueError("structure constant table has wrong outer length")
        rows = []
        for i in range(dim):
            if len(mult[i]) != dim:
                raise ValueError(f"structure constant row {i} has wrong length")
            row = []
            for j in range(dim):
                if len(mult[i][j]) != dim:
                    raise ValueError(f"structure constant entry ({i},{j}) has wrong length")
                row.append(tuple(_frac(c) for c in mult[i][j]))
            rows.append(tuple(row))
        if len(unit) != dim:
            raise ValueError("unit vector has wrong length")
        self.dim = dim
        self.mult = tuple(rows)
        self.unit = tuple(_frac(c) for c in unit)
        self._products = tuple(tuple(_sparse(entry) for entry in row) for row in rows)

    def elem(self, coeffs: Sequence) -> "AElem":
        return AElem(self, coeffs)

    def zero(self) -> "AElem":
        return AElem(self, (Fraction(0),) * self.dim)

    def one(self) -> "AElem":
        return AElem(self, self.unit)

    def basis(self, t: int) -> "AElem":
        c = [Fraction(0)] * self.dim
        c[t] = Fraction(1)
        return AElem(self, c)

    def scalar(self, q) -> "AElem":
        """q * 1 for a rational q."""
        qq = _frac(q)
        return AElem(self, tuple(qq * u for u in self.unit))

    def mul_coeffs(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        x, y = [(i, c) for i, c in enumerate(a) if c], [(j, c) for j, c in enumerate(b) if c]
        return tuple(self._times(x, y, [Fraction(0)] * self.dim))

    def _times(self, x, y, out: List) -> List:
        """out += x * y for (index, value) pairs x and y, off the compiled products."""
        for i, xi in x:
            row = self._products[i]
            for j, yj in y:
                f = xi * yj
                for k, m in row[j]:
                    out[k] += f * m
        return out

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CommAlg):
            return NotImplemented
        return self.dim == other.dim and self.mult == other.mult and self.unit == other.unit

    def __hash__(self) -> int:
        return hash((self.dim, self.mult, self.unit))

    def __repr__(self) -> str:
        return f"CommAlg(dim={self.dim})"


class AElem:
    """Algebra element: a coefficient vector over the fixed basis."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: CommAlg, coeffs: Sequence) -> None:
        cc = tuple(_frac(c) for c in coeffs)
        if len(cc) != alg.dim:
            raise ValueError("coefficient vector has wrong length")
        self.alg = alg
        self.coeffs = cc

    def __add__(self, other: "AElem") -> "AElem":
        self._same(other)
        return AElem(self.alg, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AElem") -> "AElem":
        self._same(other)
        return AElem(self.alg, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AElem":
        return AElem(self.alg, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, AElem):
            self._same(other)
            return AElem(self.alg, self.alg.mul_coeffs(self.coeffs, other.coeffs))
        return AElem(self.alg, tuple(_frac(other) * a for a in self.coeffs))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _same(self, other: "AElem") -> None:
        if self.alg != other.alg:
            raise ValueError("parent algebra mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AElem):
            return NotImplemented
        return self.alg == other.alg and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.alg, self.coeffs))

    def __repr__(self) -> str:
        return "AElem(" + " ".join(str(c) for c in self.coeffs) + ")"


class Derivation:
    """Linear endomorphism of the algebra, recorded as a matrix.

    Column j holds the coefficients of the image of e_j, and _columns[j]
    its nonzero (i, value).  Whether the map actually satisfies the
    Leibniz rule is the job of derivation_validate.
    """

    __slots__ = ("alg", "matrix", "_columns")

    def __init__(self, alg: CommAlg, matrix: RatMatrix) -> None:
        if matrix.rows != alg.dim or matrix.cols != alg.dim:
            raise ValueError("derivation matrix shape does not match algebra dimension")
        self.alg = alg
        self.matrix = matrix
        self._columns = tuple(_sparse(matrix.entries[j :: matrix.cols]) for j in range(matrix.cols))

    @classmethod
    def zero(cls, alg: CommAlg) -> "Derivation":
        return cls(alg, RatMatrix.zero(alg.dim, alg.dim))

    @classmethod
    def from_images(cls, alg: CommAlg, images: Sequence[AElem]) -> "Derivation":
        if len(images) != alg.dim:
            raise ValueError("need one image per basis vector")
        d = alg.dim
        ents = [images[j].coeffs[i] for i in range(d) for j in range(d)]
        return cls(alg, RatMatrix(d, d, ents))

    def apply(self, a: AElem) -> AElem:
        if a.alg != self.alg:
            raise ValueError("parent algebra mismatch")
        return AElem(self.alg, self._image(enumerate(a.coeffs), [Fraction(0)] * self.alg.dim))

    def _image(self, x, out: List) -> List:
        """out += D(x) for (index, value) pairs x, off the compiled columns."""
        for j, xj in x:
            if xj:
                for i, m in self._columns[j]:
                    out[i] += xj * m
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.alg == other.alg and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.alg, self.matrix))


def _sparse(coeffs: Sequence[Fraction]) -> Tuple[Tuple[int, object], ...]:
    """The nonzero (index, value) of a coefficient vector, integral values as int."""
    return tuple((k, _exact(c)) for k, c in enumerate(coeffs) if c)


def alg_validate(alg: CommAlg) -> List[Violation]:
    """Check commutativity, associativity, and the unit law on basis tuples.

    Every violating tuple is reported, so a broken input pinpoints exactly
    which structure constants are wrong.
    """
    out: List[Violation] = []
    d = alg.dim
    for i in range(d):
        for j in range(i + 1, d):
            if alg.mult[i][j] != alg.mult[j][i]:
                out.append(Violation("commutativity", (i, j), "e_i*e_j != e_j*e_i"))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = alg._times(alg._products[i][j], ((k, 1),), [0] * d)
                right = alg._times(((i, 1),), alg._products[j][k], [0] * d)
                if left != right:
                    out.append(Violation("associativity", (i, j, k), "(e_i e_j)e_k != e_i(e_j e_k)"))
    unit = _sparse(alg.unit)
    for i in range(d):
        e = [int(k == i) for k in range(d)]
        if alg._times(unit, ((i, 1),), [0] * d) != e:
            out.append(Violation("unit", (i,), "1*e_i != e_i"))
        if alg._times(((i, 1),), unit, [0] * d) != e:
            out.append(Violation("unit", (i,), "e_i*1 != e_i"))
    return out


def derivation_validate(alg: CommAlg, d: Derivation) -> List[Violation]:
    """Leibniz rule on all basis pairs; derivations also kill the unit."""
    if d.alg != alg:
        raise ValueError("parent algebra mismatch")
    out: List[Violation] = []
    n, cols = alg.dim, d._columns
    for i in range(n):
        for j in range(n):
            lhs = d._image(alg._products[i][j], [0] * n)
            rhs = alg._times(cols[i], ((j, 1),), alg._times(((i, 1),), cols[j], [0] * n))
            if lhs != rhs:
                out.append(Violation("leibniz", (i, j), "D(e_i e_j) != D(e_i)e_j + e_i D(e_j)"))
    if any(d._image(enumerate(alg.unit), [0] * n)):
        out.append(Violation("unit-killed", (), "D(1) != 0"))
    return out

