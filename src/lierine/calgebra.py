"""Finite-dimensional commutative algebras over Q and their derivations.

An algebra is given by structure constants on a fixed basis e_0..e_{d-1}:
e_i * e_j = sum_k mult[i][j][k] e_k, together with the coefficient vector
of the unit.  Elements are coefficient vectors; derivations are d x d
matrices acting on coefficient vectors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .exactla import RatMatrix, _frac
from .reporting import Violation


class CommAlg:
    """Commutative unital algebra presented by structure constants.

    The constructor only checks shapes; ``alg_validate`` checks the axioms.
    Instances are immutable and safe to share.
    """

    __slots__ = ("dim", "mult", "unit")

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
        out = [Fraction(0)] * self.dim
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                f = ai * bj
                for k, m in enumerate(self.mult[i][j]):
                    if m != 0:
                        out[k] += f * m
        return tuple(out)

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
        return all(c == 0 for c in self.coeffs)

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

    Column j holds the coefficients of the image of e_j.  Whether the map
    actually satisfies the Leibniz rule is the job of derivation_validate.
    """

    __slots__ = ("alg", "matrix")

    def __init__(self, alg: CommAlg, matrix: RatMatrix) -> None:
        if matrix.rows != alg.dim or matrix.cols != alg.dim:
            raise ValueError("derivation matrix shape does not match algebra dimension")
        self.alg = alg
        self.matrix = matrix

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
        return AElem(self.alg, self.matrix.mul_vec(a.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.alg == other.alg and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.alg, self.matrix))


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
                left = alg.mul_coeffs(alg.mul_coeffs(alg.basis(i).coeffs, alg.basis(j).coeffs), alg.basis(k).coeffs)
                right = alg.mul_coeffs(alg.basis(i).coeffs, alg.mul_coeffs(alg.basis(j).coeffs, alg.basis(k).coeffs))
                if left != right:
                    out.append(Violation("associativity", (i, j, k), "(e_i e_j)e_k != e_i(e_j e_k)"))
    for i in range(d):
        e = alg.basis(i)
        if alg.mul_coeffs(alg.unit, e.coeffs) != e.coeffs:
            out.append(Violation("unit", (i,), "1*e_i != e_i"))
        if alg.mul_coeffs(e.coeffs, alg.unit) != e.coeffs:
            out.append(Violation("unit", (i,), "e_i*1 != e_i"))
    return out


def derivation_validate(alg: CommAlg, d: Derivation) -> List[Violation]:
    """Leibniz rule on all basis pairs; derivations also kill the unit."""
    if d.alg != alg:
        raise ValueError("parent algebra mismatch")
    out: List[Violation] = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            ei, ej = alg.basis(i), alg.basis(j)
            lhs = d.apply(ei * ej)
            rhs = d.apply(ei) * ej + ei * d.apply(ej)
            if lhs != rhs:
                out.append(Violation("leibniz", (i, j), "D(e_i e_j) != D(e_i)e_j + e_i D(e_j)"))
    if not d.apply(alg.one()).is_zero():
        out.append(Violation("unit-killed", (), "D(1) != 0"))
    return out

