"""Exterior algebra over L, the Schouten bracket, and bracket generators.

Multivectors carry algebra coefficients on sorted basis subsets.  The
bracket extends the degree-1 bracket through the biderivation rules

    [u ^ v, w] = u ^ [v, w] + (-1)^{|u||v|} v ^ [u, w]
    [x, u ^ v] = [x, u] ^ v + u ^ [x, v]        (x of degree 1)
    [x, a]     = x(a)
    [a, u]     = (-1)^{|u|} [u, a]

which both terminate the recursion and pin every sign.  Generators are
degree -1 operators reproducing the bracket through the defect of the
Leibniz rule; they correspond to connections on the top exterior power
via conjugation by the contraction isomorphism.  The per-degree sign
s(p) = (-1)^p in that conjugation is forced by the generator identity;
see the test suite for the exhaustive sign-family search that pins it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .calgebra import AElem
from .exactla import _frac
from .lrcore import (
    AltForm,
    LElem,
    LieRinehart,
    LRModule,
    ce_differential,
    lr_bracket,
)
from .instances import line_with_connection
from .reporting import Violation
from .signs import merge_sign


class Multivector:
    """Element of the exterior algebra: sorted index subsets -> coefficients."""

    __slots__ = ("lr", "values")

    def __init__(self, lr: LieRinehart, values: Dict) -> None:
        norm: Dict[Tuple[int, ...], AElem] = {}
        for key, c in values.items():
            k = tuple(key)
            if list(k) != sorted(k) or len(set(k)) != len(k):
                raise ValueError(f"subset key {k} must be strictly increasing")
            if any(x < 0 or x >= lr.rank for x in k):
                raise ValueError(f"index out of range in key {k}")
            if not isinstance(c, AElem) or c.alg != lr.alg:
                raise ValueError("coefficients must live in the base algebra")
            if not c.is_zero():
                norm[k] = c
        self.lr = lr
        self.values = norm

    @classmethod
    def zero(cls, lr: LieRinehart) -> "Multivector":
        return cls(lr, {})

    @classmethod
    def from_scalar(cls, lr: LieRinehart, a: AElem) -> "Multivector":
        return cls(lr, {(): a})

    @classmethod
    def basis(cls, lr: LieRinehart, i: int) -> "Multivector":
        return cls(lr, {(i,): lr.alg.one()})

    @classmethod
    def from_lelem(cls, u: LElem) -> "Multivector":
        return cls(u.lr, {(i,): c for i, c in enumerate(u.coeffs)})

    @classmethod
    def top(cls, lr: LieRinehart) -> "Multivector":
        return cls(lr, {tuple(range(lr.rank)): lr.alg.one()})

    def coeff(self, key: Tuple[int, ...]) -> AElem:
        return self.values.get(tuple(key), self.lr.alg.zero())

    def degrees(self) -> List[int]:
        return sorted({len(k) for k in self.values})

    def pure_degree(self) -> Optional[int]:
        """The common degree of all terms; None for 0 or mixed elements."""
        ds = self.degrees()
        return ds[0] if len(ds) == 1 else None

    def component(self, p: int) -> "Multivector":
        return Multivector(self.lr, {k: c for k, c in self.values.items() if len(k) == p})

    def add(self, other: "Multivector") -> "Multivector":
        self._same(other)
        keys = set(self.values) | set(other.values)
        return Multivector(self.lr, {k: self.coeff(k) + other.coeff(k) for k in keys})

    def sub(self, other: "Multivector") -> "Multivector":
        return self.add(other.neg())

    def neg(self) -> "Multivector":
        return Multivector(self.lr, {k: -c for k, c in self.values.items()})

    def scale(self, c) -> "Multivector":
        if isinstance(c, AElem):
            return Multivector(self.lr, {k: c * v for k, v in self.values.items()})
        cc = _frac(c)
        return Multivector(self.lr, {k: v * cc for k, v in self.values.items()})

    def is_zero(self) -> bool:
        return not self.values

    def _same(self, other: "Multivector") -> None:
        if self.lr != other.lr:
            raise ValueError("parent structure mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.lr == other.lr and self.values == other.values

    def __repr__(self) -> str:
        if not self.values:
            return "Multivector(0)"
        parts = [f"{k}:{c!r}" for k, c in sorted(self.values.items())]
        return "Multivector(" + ", ".join(parts) + ")"


def wedge(u: Multivector, v: Multivector) -> Multivector:
    u._same(v)
    out: Dict[Tuple[int, ...], AElem] = {}
    for s, a in u.values.items():
        for t, b in v.values.items():
            ms = merge_sign(s, t)
            if ms is None:
                continue
            key, sign = ms
            c = a * b if sign == 1 else -(a * b)
            out[key] = out.get(key, u.lr.alg.zero()) + c
    return Multivector(u.lr, out)


def _add_term(out: Dict, key: Tuple[int, ...], c: AElem) -> None:
    if key in out:
        out[key] = out[key] + c
    else:
        out[key] = c


def _wedge_into(lr: LieRinehart, a: AElem, s: Tuple[int, ...], terms: Dict, sign: int, out: Dict) -> None:
    """out += sign * (a e_s) ^ terms."""
    for t, b in terms.items():
        ms = merge_sign(s, t)
        if ms is None:
            continue
        key, msign = ms
        c = a * b
        _add_term(out, key, c if sign * msign == 1 else -c)


def _term_bracket(lr: LieRinehart, a: AElem, s: Tuple[int, ...], b: AElem, t: Tuple[int, ...], out: Dict) -> None:
    """out += [a e_s, b e_t], by structural recursion on the factors."""
    p, q = len(s), len(t)
    if p == 0 and q == 0:
        return
    if p == 0:
        tmp: Dict = {}
        _term_bracket(lr, b, t, a, (), tmp)
        sign = 1 if q % 2 == 0 else -1
        for k, c in tmp.items():
            _add_term(out, k, c if sign == 1 else -c)
        return
    if q == 0:
        for pos in range(p):
            c = a * lr.anchor[s[pos]].apply(b)
            if c.is_zero():
                continue
            sign = 1 if (p - 1 - pos) % 2 == 0 else -1
            _add_term(out, s[:pos] + s[pos + 1 :], c if sign == 1 else -c)
        return
    if p == 1:
        if q == 1:
            x = [lr.alg.zero()] * lr.rank
            x[s[0]] = a
            y = [lr.alg.zero()] * lr.rank
            y[t[0]] = b
            w = lr_bracket(lr, LElem(lr, x), LElem(lr, y))
            for k, c in enumerate(w.coeffs):
                if not c.is_zero():
                    _add_term(out, (k,), c)
            return
        head, rest = (t[0],), t[1:]
        tmp1: Dict = {}
        _term_bracket(lr, a, s, b, head, tmp1)
        for k, c in tmp1.items():
            _wedge_into(lr, c, k, {rest: lr.alg.one()}, 1, out)
        tmp2: Dict = {}
        _term_bracket(lr, a, s, lr.alg.one(), rest, tmp2)
        _wedge_into(lr, b, head, tmp2, 1, out)
        return
    head, rest = (s[0],), s[1:]
    tmp1 = {}
    _term_bracket(lr, lr.alg.one(), rest, b, t, tmp1)
    _wedge_into(lr, a, head, tmp1, 1, out)
    tmp2 = {}
    _term_bracket(lr, a, head, b, t, tmp2)
    sign = 1 if (p - 1) % 2 == 0 else -1
    for k, c in tmp2.items():
        _wedge_into(lr, lr.alg.one(), rest, {k: c}, sign, out)


def schouten_bracket(u: Multivector, v: Multivector) -> Multivector:
    """Bracket on the exterior algebra, rational-bilinear over terms."""
    u._same(v)
    lr = u.lr
    out: Dict[Tuple[int, ...], AElem] = {}
    for s, a in u.values.items():
        for t, b in v.values.items():
            _term_bracket(lr, a, s, b, t, out)
    return Multivector(lr, out)


def _basis_multivectors(lr: LieRinehart, max_degree: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Rational basis labels (algebra index, subset) through a degree cap."""
    for p in range(min(max_degree, lr.rank) + 1):
        for key in combinations(range(lr.rank), p):
            for t in range(lr.alg.dim):
                yield t, key


def _label_mv(lr: LieRinehart, t: int, key: Tuple[int, ...]) -> Multivector:
    return Multivector(lr, {key: lr.alg.basis(t)})


def gerstenhaber_validate(lr: LieRinehart, max_degree: int) -> List[Violation]:
    """Graded antisymmetry, odd Leibniz, and graded Jacobi on all rational
    basis multivectors through the degree cap.  One witness per axiom.
    Does not require a valid parent: a corrupted bracket table shows up
    here as a Jacobi witness.
    """
    labels = list(_basis_multivectors(lr, max_degree))
    elems = [(t, k, _label_mv(lr, t, k)) for t, k in labels]

    for t1, k1, u in elems:
        found = None
        for t2, k2, v in elems:
            lhs = schouten_bracket(u, v)
            sign = -1 if ((len(k1) - 1) * (len(k2) - 1)) % 2 == 0 else 1
            rhs = schouten_bracket(v, u).scale(sign)
            if not lhs.sub(rhs).is_zero():
                found = Violation("graded-antisymmetry", (t1, k1, t2, k2), "")
                break
        if found:
            return [found]

    for t1, k1, u in elems:
        for t2, k2, v in elems:
            for t3, k3, w in elems:
                lhs = schouten_bracket(u, wedge(v, w))
                sign = 1 if ((len(k1) - 1) * len(k2)) % 2 == 0 else -1
                rhs = wedge(schouten_bracket(u, v), w).add(
                    wedge(v, schouten_bracket(u, w)).scale(sign)
                )
                if not lhs.sub(rhs).is_zero():
                    return [Violation("odd-leibniz", (t1, k1, t2, k2, t3, k3), "")]

    for t1, k1, u in elems:
        for t2, k2, v in elems:
            for t3, k3, w in elems:
                lhs = schouten_bracket(u, schouten_bracket(v, w))
                sign = 1 if ((len(k1) - 1) * (len(k2) - 1)) % 2 == 0 else -1
                rhs = schouten_bracket(schouten_bracket(u, v), w).add(
                    schouten_bracket(v, schouten_bracket(u, w)).scale(sign)
                )
                if not lhs.sub(rhs).is_zero():
                    return [Violation("graded-jacobi", (t1, k1, t2, k2, t3, k3), "")]

    return []


class TopConnection:
    """Connection on the top exterior power in its basis trivialization:
    the action of e_i multiplies the top generator by omega[i]."""

    __slots__ = ("lr", "omega")

    def __init__(self, lr: LieRinehart, omega: Sequence[AElem]) -> None:
        oo = tuple(omega)
        if len(oo) != lr.rank:
            raise ValueError("connection form has wrong length")
        for c in oo:
            if not isinstance(c, AElem) or c.alg != lr.alg:
                raise ValueError("connection coefficients must live in the base algebra")
        self.lr = lr
        self.omega = oo

    def line_module(self) -> LRModule:
        return line_with_connection(self.lr, self.omega)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopConnection):
            return NotImplemented
        return self.lr == other.lr and self.omega == other.omega

    def __repr__(self) -> str:
        return f"TopConnection({self.omega!r})"


def connection_curvature(lr: LieRinehart, c: TopConnection) -> AltForm:
    """F(e_i, e_j) = e_i(omega_j) - e_j(omega_i) - omega([e_i, e_j]);
    zero exactly when the line module is flat."""
    if c.lr != lr:
        raise ValueError("parent mismatch")
    m = c.line_module()
    vals: Dict[Tuple[int, ...], Tuple[AElem, ...]] = {}
    for i in range(lr.rank):
        for j in range(i + 1, lr.rank):
            f = lr.anchor[i].apply(c.omega[j]) - lr.anchor[j].apply(c.omega[i])
            for k, ck in enumerate(lr.bracket[i][j]):
                if not ck.is_zero():
                    f = f - ck * c.omega[k]
            vals[(i, j)] = (f,)
    return AltForm(lr, m, 2, vals)


def contraction_iso(lr: LieRinehart, u: Multivector, module: Optional[LRModule] = None) -> AltForm:
    """Degree-p multivectors to degree-(n-p) forms valued in the top line:
    the form pairs u with complementary basis vectors and reads off the
    top coefficient.  Nonzero only on the complementary subset."""
    if u.lr != lr:
        raise ValueError("parent mismatch")
    p = u.pure_degree()
    if p is None and not u.is_zero():
        raise ValueError("contraction needs a pure-degree multivector")
    if module is None:
        module = line_with_connection(lr, [lr.alg.zero()] * lr.rank)
    if module.rank != 1:
        raise ValueError("target module must have rank 1")
    if u.is_zero():
        return AltForm(lr, module, lr.rank, {})
    full = set(range(lr.rank))
    vals: Dict[Tuple[int, ...], Tuple[AElem, ...]] = {}
    for s, a in u.values.items():
        comp = tuple(sorted(full - set(s)))
        ms = merge_sign(s, comp)
        if ms is None:
            continue
        _, sign = ms
        vals[comp] = (a if sign == 1 else -a,)
    return AltForm(lr, module, lr.rank - p, vals)


def contraction_inverse(lr: LieRinehart, w: AltForm) -> Multivector:
    """Inverse of the contraction: read each value off the complementary
    subset with the same interleaving sign."""
    if w.lr != lr or w.module.rank != 1:
        raise ValueError("expected a rank-1-valued form on the parent")
    full = set(range(lr.rank))
    out: Dict[Tuple[int, ...], AElem] = {}
    for key, vec in w.values.items():
        comp = tuple(sorted(full - set(key)))
        ms = merge_sign(comp, key)
        if ms is None:
            continue
        _, sign = ms
        out[comp] = vec[0] if sign == 1 else -vec[0]
    return Multivector(lr, out)


class GeneratorOp:
    """Degree -1 operator tabulated on the rational basis of the exterior
    algebra; rational-linear extension is the only extension used."""

    __slots__ = ("lr", "table")

    def __init__(self, lr: LieRinehart, table: Dict) -> None:
        self.lr = lr
        norm: Dict[Tuple[int, Tuple[int, ...]], Multivector] = {}
        for (t, key), mv in table.items():
            k = tuple(key)
            if mv.lr != lr:
                raise ValueError("table value parent mismatch")
            d = mv.pure_degree()
            if d is not None and d != len(k) - 1:
                raise ValueError(f"table entry ({t},{k}) does not lower degree by 1")
            norm[(t, k)] = mv
        self.table = norm

    def apply(self, u: Multivector) -> Multivector:
        if u.lr != self.lr:
            raise ValueError("parent mismatch")
        out = Multivector.zero(self.lr)
        for key, a in u.values.items():
            for t, q in enumerate(a.coeffs):
                if q == 0:
                    continue
                entry = self.table.get((t, key))
                if entry is not None:
                    out = out.add(entry.scale(q))
        return out

    def inputs(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        return iter(sorted(self.table))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorOp):
            return NotImplemented
        return self.lr == other.lr and self.table == other.table


def generator_from_connection(lr: LieRinehart, c: TopConnection, _signs: Optional[Dict[int, int]] = None) -> GeneratorOp:
    """Conjugate the connection differential by the contraction:

        D(u) = s(p) * contraction_inverse(d_line(contraction(u)))

    on degree-p inputs, with the hard-coded sign family s(p) = (-1)^p.
    The family is the unique one satisfying the generator identity; the
    _signs override exists for the exhaustive search in the test suite.
    The differential runs formally, so curved connections are accepted
    (they yield generators whose square detects the curvature).
    """
    if c.lr != lr:
        raise ValueError("parent mismatch")
    line = c.line_module()
    table: Dict[Tuple[int, Tuple[int, ...]], Multivector] = {}
    for t, key in _basis_multivectors(lr, lr.rank):
        p = len(key)
        if p == 0:
            table[(t, key)] = Multivector.zero(lr)
            continue
        sign = _signs[p] if _signs is not None else (1 if p % 2 == 0 else -1)
        u = _label_mv(lr, t, key)
        form = contraction_iso(lr, u, line)
        image = ce_differential(lr, line, form, formal=True)
        mv = contraction_inverse(lr, image)
        table[(t, key)] = mv.scale(sign)
    return GeneratorOp(lr, table)


def generator_validate(lr: LieRinehart, g: GeneratorOp) -> List[Violation]:
    """Check the generator identity

        [u,v] = (-1)^{|u|} ( D(u^v) - (Du)^v - (-1)^{|u|} u^(Dv) )

    on all rational basis pairs; first witness reported."""
    if g.lr != lr:
        raise ValueError("parent mismatch")
    labels = list(_basis_multivectors(lr, lr.rank))
    for t1, k1 in labels:
        u = _label_mv(lr, t1, k1)
        p = len(k1)
        su = 1 if p % 2 == 0 else -1
        for t2, k2 in labels:
            v = _label_mv(lr, t2, k2)
            lhs = schouten_bracket(u, v)
            inner = g.apply(wedge(u, v)).sub(wedge(g.apply(u), v)).sub(
                wedge(u, g.apply(v)).scale(su)
            )
            if not lhs.sub(inner.scale(su)).is_zero():
                return [Violation("generator-identity", (t1, k1, t2, k2), "")]
    return []


def generator_square(g: GeneratorOp) -> Tuple[bool, Optional[Tuple[int, Tuple[int, ...]]]]:
    """(True, None) when D.D kills every tabulated input, else the first
    witnessing input label."""
    for t, key in g.inputs():
        u = _label_mv(g.lr, t, key)
        if not g.apply(g.apply(u)).is_zero():
            return False, (t, key)
    return True, None


def generator_to_connection(lr: LieRinehart, g: GeneratorOp) -> TopConnection:
    """Recover the connection form from the top-degree action: with the
    same sign family, omega_i is the complementary coefficient of D(top).
    Rejects operators that fail the generator identity."""
    bad = generator_validate(lr, g)
    if bad:
        raise ValueError(f"not a generator: {bad[0]}")
    n = lr.rank
    top = Multivector.top(lr)
    image = g.apply(top)
    sn = 1 if n % 2 == 0 else -1
    full = set(range(n))
    omega = []
    for i in range(n):
        comp = tuple(sorted(full - {i}))
        ms = merge_sign(comp, (i,))
        assert ms is not None
        _, sign = ms
        c = image.coeff(comp)
        omega.append(c if sn * sign == 1 else -c)
    return TopConnection(lr, omega)


def generator_derivation_check(lr: LieRinehart, g: GeneratorOp) -> List[Violation]:
    """For exact generators: D[u,v] = [Du,v] - (-1)^{|u|}[u,Dv] on all
    rational basis pairs."""
    labels = list(_basis_multivectors(lr, lr.rank))
    for t1, k1 in labels:
        u = _label_mv(lr, t1, k1)
        su = 1 if len(k1) % 2 == 0 else -1
        for t2, k2 in labels:
            v = _label_mv(lr, t2, k2)
            lhs = g.apply(schouten_bracket(u, v))
            rhs = schouten_bracket(g.apply(u), v).sub(
                schouten_bracket(u, g.apply(v)).scale(su)
            )
            if not lhs.sub(rhs).is_zero():
                return [Violation("generator-derivation", (t1, k1, t2, k2), "")]
    return []
