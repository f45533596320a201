"""Reference implementations the tests compare the library against.

Elements of L as tuples of algebra coefficients, their bracket through
the full Leibniz expansion, the anchor as a dense matrix, and the two
checks that the library now reads off the formal square d.d of
``ce_matrix``: the anchor-morphism loop of ``lr_validate`` and the
flatness loop of ``module_validate``, here on dense products of basis
data.  Also the derivation and generator witnesses of ``gerst`` in their
vector form, each pair's residual a ``_lincomb`` of whole bracket,
product and operator images.  And the element recursion of the Schouten
and crossed brackets, ``bracket_terms``, which splits any pair of terms
on elements by the biderivation rules with its own sign conventions,
where the library splits labels only in its label tables.  And the
element loop of the cochain differential, ``ce_differential``, which
evaluates d w one sorted basis tuple at a time with algebra elements,
where the library sums columns of ``ce_matrix``; the element paths of
d', d'' on forms and d'' on multivectors of ``twilled`` and of the
transported differential of ``bialg`` are that loop applied to one
element read as a form.  And the Fraction arithmetic that the library
replaced by compiled int tables: the dense product of structure
constants, the dense derivation image, the algebra and derivation
checks on them, the degree-one Leibniz expansion on algebra elements,
``leibniz``, and the rank by row elimination that
divides by each pivot, ``mat_rank``.  None of this is used by the
library itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from lierine.calgebra import AElem, CommAlg, Derivation
from lierine.exactla import RatMatrix, _nonzero_rows
from lierine.gerst import Multivector, _lincomb, _product
from lierine.lrcore import (
    AltForm,
    LieRinehart,
    LRModule,
    _bracket_vectors,
    dual_module,
    exterior_power,
    tensor_line,
    zero_form,
)
from lierine.reporting import Violation
from lierine.signs import sort_with_sign
from lierine.twilled import AlmostTwilled, Bigraded


class LElem:
    """Element of L: a tuple of algebra coefficients over the L-basis."""

    __slots__ = ("lr", "coeffs")

    def __init__(self, lr: LieRinehart, coeffs: Sequence[AElem]) -> None:
        cc = tuple(coeffs)
        if len(cc) != lr.rank:
            raise ValueError("coefficient tuple has wrong length")
        for c in cc:
            if c.alg != lr.alg:
                raise ValueError("parent algebra mismatch")
        self.lr = lr
        self.coeffs = cc

    def __add__(self, other: "LElem") -> "LElem":
        self._same(other)
        return LElem(self.lr, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LElem") -> "LElem":
        self._same(other)
        return LElem(self.lr, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LElem":
        return LElem(self.lr, tuple(-a for a in self.coeffs))

    def scale(self, a: AElem) -> "LElem":
        return LElem(self.lr, tuple(a * c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _same(self, other: "LElem") -> None:
        if self.lr != other.lr:
            raise ValueError("parent structure mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LElem):
            return NotImplemented
        return self.lr == other.lr and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return "LElem(" + ", ".join(repr(c) for c in self.coeffs) + ")"


def basis_l(lr: LieRinehart, i: int) -> LElem:
    c = [lr.alg.zero()] * lr.rank
    c[i] = lr.alg.one()
    return LElem(lr, c)


def bracket_elem(lr: LieRinehart, i: int, j: int) -> LElem:
    """[e_i, e_j] as the literal table entry."""
    return LElem(lr, lr.bracket[i][j])


def mul_coeffs(alg: CommAlg, a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """a * b on coefficient vectors, walking every structure constant."""
    out = [Fraction(0)] * alg.dim
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            for k, m in enumerate(alg.mult[i][j]):
                out[k] += ai * bj * m
    return tuple(out)


def derivation_apply(d: Derivation, a: AElem) -> AElem:
    """D(a) as the dense matrix-vector product of D's matrix."""
    return AElem(d.alg, d.matrix.mul_vec(a.coeffs))


def alg_violations(alg: CommAlg) -> List[Violation]:
    """``alg_validate`` on the dense product: commutativity, associativity
    and the unit law on basis tuples, every violation."""
    out: List[Violation] = []
    d = alg.dim
    basis = [alg.basis(i).coeffs for i in range(d)]
    for i, j in combinations(range(d), 2):
        if alg.mult[i][j] != alg.mult[j][i]:
            out.append(Violation("commutativity", (i, j), "e_i*e_j != e_j*e_i"))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = mul_coeffs(alg, mul_coeffs(alg, basis[i], basis[j]), basis[k])
                if left != mul_coeffs(alg, basis[i], mul_coeffs(alg, basis[j], basis[k])):
                    out.append(Violation("associativity", (i, j, k), "(e_i e_j)e_k != e_i(e_j e_k)"))
    for i in range(d):
        if mul_coeffs(alg, alg.unit, basis[i]) != basis[i]:
            out.append(Violation("unit", (i,), "1*e_i != e_i"))
        if mul_coeffs(alg, basis[i], alg.unit) != basis[i]:
            out.append(Violation("unit", (i,), "e_i*1 != e_i"))
    return out


def derivation_violations(alg: CommAlg, d: Derivation) -> List[Violation]:
    """``derivation_validate`` on the dense product and matrix image."""
    out: List[Violation] = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            ei, ej = alg.basis(i).coeffs, alg.basis(j).coeffs
            lhs = derivation_apply(d, alg.elem(mul_coeffs(alg, ei, ej))).coeffs
            dei, dej = derivation_apply(d, alg.elem(ei)).coeffs, derivation_apply(d, alg.elem(ej)).coeffs
            rhs = tuple(a + b for a, b in zip(mul_coeffs(alg, dei, ej), mul_coeffs(alg, ei, dej)))
            if lhs != rhs:
                out.append(Violation("leibniz", (i, j), "D(e_i e_j) != D(e_i)e_j + e_i D(e_j)"))
    if any(derivation_apply(d, alg.one()).coeffs):
        out.append(Violation("unit-killed", (), "D(1) != 0"))
    return out


def leibniz(lr: LieRinehart, i: int, x: AElem, j: int, y: AElem) -> List[Tuple[int, Tuple[Fraction, ...]]]:
    """[x e_i, y e_j] = xy [e_i, e_j] + x rho(e_i)(y) e_j - y rho(e_j)(x) e_i,
    the nonzero (k, coefficients) on algebra elements."""
    xy = x * y
    out = [xy * c if not c.is_zero() else c for c in lr.bracket[i][j]]
    out[j] = out[j] + x * lr.anchor[i].apply(y)
    out[i] = out[i] - y * lr.anchor[j].apply(x)
    return [(k, c.coeffs) for k, c in enumerate(out) if not c.is_zero()]


def mat_rank(m) -> int:
    """Rank by Fraction row elimination over the nonzeros, shortest rows
    first; each new pivot row is divided by its leading entry."""
    pivots: Dict[int, Dict[int, Fraction]] = {}
    for row in sorted(_nonzero_rows(m), key=len):
        row = {k: Fraction(v) for k, v in row.items()}
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


def from_lelem(u: LElem) -> Multivector:
    return Multivector(u.lr, {(i,): c for i, c in enumerate(u.coeffs)})


def mult_matrix(alg: CommAlg, a: AElem) -> RatMatrix:
    """Matrix of multiplication by a, acting on coefficient vectors."""
    cols = [alg.mul_coeffs(a.coeffs, alg.basis(j).coeffs) for j in range(alg.dim)]
    return RatMatrix(alg.dim, alg.dim, [cols[j][i] for i in range(alg.dim) for j in range(alg.dim)])


def der_bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """Commutator of two derivations; again a derivation when the inputs are."""
    if d1.alg != d2.alg:
        raise ValueError("parent algebra mismatch")
    m = d1.matrix.matmul(d2.matrix).sub(d2.matrix.matmul(d1.matrix))
    return Derivation(d1.alg, m)


def lr_anchor_apply(lr: LieRinehart, u: LElem, a: AElem) -> AElem:
    """rho(u)(a) for a general element u = sum u_k e_k."""
    if u.lr != lr or a.alg != lr.alg:
        raise ValueError("parent mismatch")
    out = lr.alg.zero()
    for k, uk in enumerate(u.coeffs):
        if not uk.is_zero():
            out = out + uk * lr.anchor[k].apply(a)
    return out


def anchor_matrix(lr: LieRinehart, u: LElem) -> RatMatrix:
    """Matrix of rho(u) on algebra coefficient vectors."""
    m = RatMatrix.zero(lr.alg.dim, lr.alg.dim)
    for k, uk in enumerate(u.coeffs):
        if not uk.is_zero():
            m = m.add(mult_matrix(lr.alg, uk).matmul(lr.anchor[k].matrix))
    return m


def lr_bracket(lr: LieRinehart, u: LElem, v: LElem) -> LElem:
    """Bracket of general elements via the full Leibniz expansion:

    [sum a_i e_i, sum b_j e_j]
        = sum a_i b_j [e_i, e_j] + a_i rho(e_i)(b_j) e_j - b_j rho(e_j)(a_i) e_i
    """
    if u.lr != lr or v.lr != lr:
        raise ValueError("parent mismatch")
    out = [lr.alg.zero() for _ in range(lr.rank)]
    for i, ai in enumerate(u.coeffs):
        if ai.is_zero():
            continue
        for j, bj in enumerate(v.coeffs):
            if bj.is_zero():
                continue
            ab = ai * bj
            for k, ck in enumerate(lr.bracket[i][j]):
                if not ck.is_zero():
                    out[k] = out[k] + ab * ck
            out[j] = out[j] + ai * lr.anchor[i].apply(bj)
            out[i] = out[i] - bj * lr.anchor[j].apply(ai)
    return LElem(lr, out)


def act_lelem(m: LRModule, u: LElem, vec: Sequence[AElem]) -> Tuple[AElem, ...]:
    """(sum a_i e_i) . v = sum a_i (e_i . v)."""
    out = [m.lr.alg.zero()] * m.rank
    for i, ai in enumerate(u.coeffs):
        if ai.is_zero():
            continue
        step = m.act_basis(i, vec)
        for k in range(m.rank):
            out[k] = out[k] + ai * step[k]
    return tuple(out)


def anchor_morphism_violations(lr: LieRinehart) -> List[Violation]:
    """The first (i, j), i < j, with rho([e_i,e_j]) != [rho(e_i),rho(e_j)]
    as dense matrices, as ``lr_validate`` reports it."""
    for i in range(lr.rank):
        for j in range(i + 1, lr.rank):
            lhs = anchor_matrix(lr, bracket_elem(lr, i, j))
            rhs = der_bracket(lr.anchor[i], lr.anchor[j]).matrix
            if lhs != rhs:
                return [Violation("anchor-morphism", (i, j), "rho([e_i,e_j]) != [rho(e_i),rho(e_j)]")]
    return []


def flatness_violations(lr: LieRinehart, m: LRModule) -> List[Violation]:
    """[e_i,e_j].f_k against e_i.(e_j.f_k) - e_j.(e_i.f_k), one violation
    per failing pair i < j with its first k, as ``module_validate``
    reports it."""
    out: List[Violation] = []
    for i in range(lr.rank):
        for j in range(i + 1, lr.rank):
            bij = bracket_elem(lr, i, j)
            for k in range(m.rank):
                f = tuple(lr.alg.one() if x == k else lr.alg.zero() for x in range(m.rank))
                lhs = act_lelem(m, bij, f)
                rhs = m.act_basis(i, m.act_basis(j, f))
                rhs2 = m.act_basis(j, m.act_basis(i, f))
                if any(not (a - (b - c)).is_zero() for a, b, c in zip(lhs, rhs, rhs2)):
                    out.append(Violation("flatness", (i, j, k), "curvature acts nontrivially on f_k"))
                    break
    return out


def bilinear(entry, u, v):
    """A label-table operation extended bilinearly to label vectors u, v."""
    return _lincomb(*[(a * b, entry(x, y)) for x, a in u.items() for y, b in v.items()])


def derivation_witness(elems, tables, d):
    """The first (label1, label2, residual) of d[u,v] - [du,v] + (-1)^{|u|} [u,dv]
    over pairs of elems, a list of (label, label vector, degree), or None."""
    br = partial(bilinear, tables.bracket)
    images = [d.apply(u) for _, u, _ in elems]
    for a, (label1, u, p) in enumerate(elems):
        su = 1 if p % 2 == 0 else -1
        for b, (label2, v, _) in enumerate(elems):
            residual = _lincomb((1, d.apply(br(u, v))), (-1, br(images[a], v)), (su, br(u, images[b])))
            if residual:
                return label1, label2, tables.carrier(residual)
    return None


def generator_witness(elems, tables, D):
    """The first (label1, label2, residual) of
    [u,v] - (-1)^{|u|} ( D(uv) - (Du)v - (-1)^{|u|} u(Dv) ) over pairs of elems,
    a list of (label, label vector, degree), or None."""
    br, prod = partial(bilinear, tables.bracket), partial(bilinear, tables.product)
    images = [D.apply(u) for _, u, _ in elems]
    for a, (label1, u, p) in enumerate(elems):
        su = 1 if p % 2 == 0 else -1
        for b, (label2, v, _) in enumerate(elems):
            residual = _lincomb(
                (1, br(u, v)), (-su, D.apply(prod(u, v))), (su, prod(images[a], v)), (1, prod(u, images[b]))
            )
            if residual:
                return label1, label2, tables.carrier(residual)
    return None


def _product_into(left: Dict, right: Dict, sign: int, out: Dict) -> None:
    """out += sign * left . right for term dicts."""
    for key, c in _product(left, right).items():
        c = c if sign == 1 else -c
        out[key] = c if key not in out else out[key] + c


def _split(a: AElem, outer: Tuple[int, ...], inner: Tuple[int, ...]):
    """A product x . y = a (outer, inner) of lower factors as (x, y, |x|,
    |y|), or None for an atom: a single vector or a pure form."""
    if outer and inner:
        return {(outer, ()): a}, {((), inner): a.alg.one()}, len(outer), len(inner)
    if len(inner) >= 2:
        return {((), inner[:1]): a}, {((), inner[1:]): a.alg.one()}, 1, len(inner) - 1
    return None


def bracket_terms(lr: LieRinehart, left: Dict, right: Dict, lie=None) -> Dict:
    """[left, right] for term dicts {(outer, inner): coefficient}: inner
    subsets index exterior factors of lr, outer subsets index form slots.

    The biderivation rules with total degrees
        [x y, v] = x [y, v] + (-1)^{|x||y|} y [x, v]
        [u, x y] = [u, x] y + x [u, y]               (u of degree one)
        [u, v]   = -(-1)^{(|u|-1)(|v|-1)} [v, u]
    split every term down to three base cases: two pure forms bracket to
    zero, a vector a e_i on b times the form of outer slots S gives
    a e_i . (b e*_S), and [a e_i, b e_j] comes from the compiled
    degree-one table.  With S empty the action is the anchor; otherwise
    lie(i, b, S) supplies it as {outer subset: coefficient}.  When every
    outer key is empty this is the Schouten bracket of lr.
    """
    out: Dict = {}
    for (o1, i1), a in left.items():
        for (o2, i2), b in right.items():
            _bracket_into(lr, lie, a, o1, i1, b, o2, i2, 1, out)
    return out


def _bracket_into(lr: LieRinehart, lie, a, o1, i1, b, o2, i2, sign: int, out: Dict) -> None:
    """out += sign [a (o1, i1), b (o2, i2)]; see bracket_terms."""
    if not i1:
        if i2:
            flip = -1 if ((len(o1) - 1) * (len(o2) + len(i2) - 1)) % 2 == 0 else 1
            _bracket_into(lr, lie, b, o2, i2, a, o1, i1, sign * flip, out)
        return
    u, v = {(o1, i1): a}, {(o2, i2): b}
    split = _split(a, o1, i1)
    if split is not None:
        x, y, dx, dy = split
        _product_into(x, bracket_terms(lr, y, v, lie), sign, out)
        _product_into(y, bracket_terms(lr, x, v, lie), sign if (dx * dy) % 2 == 0 else -sign, out)
        return
    i = i1[0]
    if not i2:
        action = lie(i, b, o2) if o2 else {(): lr.anchor[i].apply(b)}
        _product_into({((), ()): a}, {(k, ()): c for k, c in action.items()}, sign, out)
        return
    split = _split(b, o2, i2)
    if split is not None:
        x, y, _, _ = split
        _product_into(bracket_terms(lr, u, x, lie), y, sign, out)
        _product_into(x, bracket_terms(lr, u, y, lie), sign, out)
        return
    for k, vec in _bracket_vectors(lr, {i: a.coeffs}, {i2[0]: b.coeffs}, sign=sign).items():
        key = ((), (k,))
        c = lr.alg.elem(vec)
        out[key] = c if key not in out else out[key] + c


def ce_differential(lr: LieRinehart, module: LRModule, w: AltForm, formal: bool = False) -> AltForm:
    """Cochain differential

        (d w)(x_0..x_q) = sum_i (-1)^i x_i . w(..no x_i..)
                        + sum_{i<j} (-1)^{i+j} w([x_i,x_j], ..no x_i, x_j..)

    evaluated on sorted basis tuples, one tuple at a time, with algebra
    elements; bracket arguments are expanded A-linearly back into basis
    evaluations, and keys absent from w are skipped.  The same checks and
    messages as ``lrcore.ce_differential``, in the same order.
    """
    if w.lr != lr or w.module != module:
        raise ValueError("parent mismatch")
    if not formal and not module.is_flat():
        raise ValueError("action table is not flat; pass formal=True for the formal operator")
    q = w.degree
    n = lr.rank
    if q + 1 > n:
        return zero_form(lr, module, q + 1)
    values = w.values
    out: Dict[Tuple[int, ...], Tuple[AElem, ...]] = {}
    for key in combinations(range(n), q + 1):
        total: Optional[List[AElem]] = None
        for i, xi in enumerate(key):
            vec = values.get(key[:i] + key[i + 1 :])
            if vec is not None:
                total = _signed_sum(total, module.act_basis(xi, vec), i % 2 == 0)
        for i in range(q + 1):
            for j in range(i + 1, q + 1):
                rest = key[:i] + key[i + 1 : j] + key[j + 1 :]
                for k, ck in enumerate(lr.bracket[key[i]][key[j]]):
                    if ck.is_zero() or k in rest:
                        continue
                    rkey, sign = sort_with_sign((k,) + rest)
                    vec = values.get(rkey)
                    if vec is not None:
                        positive = ((i + j) % 2 == 0) == (sign == 1)
                        total = _signed_sum(total, [ck * b for b in vec], positive)
        if total is not None:
            out[key] = tuple(total)
    return AltForm(lr, module, q + 1, out)


def _signed_sum(total: Optional[List[AElem]], vec: Sequence[AElem], positive: bool) -> List[AElem]:
    """total + vec or total - vec, with None standing for zero."""
    if total is None:
        return list(vec) if positive else [-b for b in vec]
    if positive:
        return [a + b for a, b in zip(total, vec)]
    return [a - b for a, b in zip(total, vec)]


def ce_bigraded(t: AlmostTwilled, w: Bigraded, outer: bool, module: LRModule) -> Bigraded:
    """Apply ce_differential to w read as an alternating form with values
    in `module`, whose basis is the sorted subsets of the other slot.

    With outer=True the form lives on L'' (outer subsets) and the inner
    subsets index the module basis; with outer=False the roles swap.
    """
    if outer:
        lr, form_deg, slot_rank, slot_deg = t.lsecond, w.qdeg, t.lprime.rank, w.pdeg
    else:
        lr, form_deg, slot_rank, slot_deg = t.lprime, w.pdeg, t.lsecond.rank, w.qdeg
    slots = list(combinations(range(slot_rank), slot_deg))
    index = {s: k for k, s in enumerate(slots)}
    zero = t.alg.zero()
    vals: Dict = {}
    for (ss, sp), c in w.values.items():
        key, slot = (ss, sp) if outer else (sp, ss)
        vals.setdefault(key, [zero] * len(slots))[index[slot]] = c
    form = AltForm(lr, module, form_deg, vals)
    out: Dict = {}
    for key, vec in ce_differential(lr, module, form, formal=True).values.items():
        for slot, c in zip(slots, vec):
            if not c.is_zero():
                out[(key, slot) if outer else (slot, key)] = c
    if outer:
        return Bigraded(t, w.qdeg + 1, w.pdeg, out)
    return Bigraded(t, w.qdeg, w.pdeg + 1, out)


def dsecond_form(t: AlmostTwilled, w: Bigraded) -> Bigraded:
    """d'' on forms: values in Lambda^p of the dual of L' over L''."""
    return ce_bigraded(t, w, True, exterior_power(dual_module(t.module_on_prime()), w.pdeg))


def dsecond_multi(t: AlmostTwilled, w: Bigraded) -> Bigraded:
    """d'' on multivectors: values in Lambda^p of L' over L''."""
    return ce_bigraded(t, w, True, exterior_power(t.module_on_prime(), w.pdeg))


def dprime_form(t: AlmostTwilled, w: Bigraded, line: Optional[Sequence[AElem]] = None) -> Bigraded:
    """d': (-1)^q times the differential of L' with values in Lambda^q of
    the dual of L'' over L', tensored with the optional line."""
    q = w.qdeg
    module = exterior_power(dual_module(t.module_on_second()), q)
    d = ce_bigraded(t, w, False, module if line is None else tensor_line(module, line))
    return d if q % 2 == 0 else d.neg()


def transport_differential(source: LieRinehart, triv: LRModule, target: LieRinehart, w: Multivector) -> Multivector:
    """Apply the differential of `source` to a multivector over `target`,
    reading wedges over the target as forms on the source through the
    Kronecker pairing, degree by degree; `triv` is the trivial module of
    `source`."""
    by_degree: Dict[int, Dict] = {}
    for key, c in w.values.items():
        by_degree.setdefault(len(key), {})[key] = (c,)
    out = Multivector.zero(target)
    for q, vals in by_degree.items():
        form = AltForm(source, triv, q, vals)
        df = ce_differential(source, triv, form)
        out = out.add(Multivector(target, {k: v[0] for k, v in df.values.items()}))
    return out
