"""Pairs of Lie-Rinehart algebras acting on one another.

(A, L', L'') with mutual action tables has a candidate bracket on
L' + L'' combining the component brackets with the action terms

    [x' + x'', y' + y''] = [x', y'] + [x'', y''] + x'.y'' - y''.x'
                          + x''.y' - y'.x''

and the pair is called twilled when that sum satisfies the full axiom
set.  Twilledness is equivalent to square and compatibility conditions
on a pair of formal differentials d' and d'' acting on bigraded forms,
and to the crossed bracket on Alt(L'', Lambda L') being compatible with
d''.  Every equivalence here is checked in both directions on concrete
instances, never assumed.  The crossed bracket is the biderivation
recursion of ``gerst`` with outer slots; with L'' = 0 it is the Schouten
bracket of L'.

Each differential is lrcore's cochain differential of one constituent,
applied to a bigraded element read as a form on that constituent with
values in a module over it:

    d'' on forms          L'' with values in Lambda^p(dual of L' over L'')
    d'' on multivectors   L'' with values in Lambda^p(L' over L'')
    d'                    L'  with values in Lambda^q(dual of L'' over L'),
                          optionally tensored with a line, times (-1)^q

where p is the inner and q the outer degree.  Conventions fixed by the degenerate cases: with L'' = 0 the operator d'
is the plain cochain differential of L' (so d' carries the global sign
(-1)^q past the q external slots), and d'' uses the Lie-derivative
action on inner form slots.  The total-complex dimension comparison
calibrates the pair globally.

The square, derivation and generator checks run the identity checkers
of ``gerst`` on the bigraded basis labels; this module only lists the
labels and maps the witnesses back to its report formats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .calgebra import AElem
from .exactla import SparseMatrix, _frac, mat_rank
from .gerst import (
    GeneratorOp,
    _bracket_terms,
    _derivation_witness,
    _first_nonzero,
    _generator_witness,
    _product_into,
    generator_to_connection,
)
from .lrcore import (
    AltForm,
    LieRinehart,
    LRModule,
    _action_table,
    ce_differential,
    cohomology_dims,
    dual_module,
    exterior_power,
    lr_violations,
    tensor_line,
    trivial_coefficients,
)
from .reporting import Violation
from .signs import merge_sign


class AlmostTwilled:
    """Two structures over one base with mutual action tables.

    act_p_on_s[i][j] = e'_i . e''_j as a coefficient tuple over the
    L''-basis; act_s_on_p[i][j] = e''_i . e'_j over the L'-basis.  The
    tables are connection data; flatness of either action is a computed
    property, not an assumption.  The two action modules are kept from
    construction.  The combined structure, the coefficient modules of the
    differentials and the semidirect dual pair (built in ``bialg``) are
    built on first use and kept on the pair.
    """

    __slots__ = (
        "alg", "lprime", "lsecond", "act_p_on_s", "act_s_on_p", "_modules", "_sum", "_dual_pair"
    )

    def __init__(
        self,
        lprime: LieRinehart,
        lsecond: LieRinehart,
        act_p_on_s: Sequence,
        act_s_on_p: Sequence,
    ) -> None:
        if lprime.alg != lsecond.alg:
            raise ValueError("constituents must share the base algebra")
        self.alg = lprime.alg
        self.lprime = lprime
        self.lsecond = lsecond
        on_second = LRModule(lprime, lsecond.rank, act_p_on_s)
        on_prime = LRModule(lsecond, lprime.rank, act_s_on_p)
        self.act_p_on_s = on_second.action
        self.act_s_on_p = on_prime.action
        self._modules: Dict[Tuple, LRModule] = {("on_second",): on_second, ("on_prime",): on_prime}
        self._sum: Optional[LieRinehart] = None
        self._dual_pair = None

    def module_on_second(self) -> LRModule:
        """L'' as a connection over L'."""
        return self._modules[("on_second",)]

    def module_on_prime(self) -> LRModule:
        """L' as a connection over L''."""
        return self._modules[("on_prime",)]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AlmostTwilled):
            return NotImplemented
        return (
            self.lprime == other.lprime
            and self.lsecond == other.lsecond
            and self.act_p_on_s == other.act_p_on_s
            and self.act_s_on_p == other.act_s_on_p
        )

    def __repr__(self) -> str:
        return f"AlmostTwilled(rank'={self.lprime.rank}, rank''={self.lsecond.rank})"


def twilled_sum(t: AlmostTwilled) -> LieRinehart:
    """The combined structure on L' + L'' (primed block first), built once
    per pair."""
    if t._sum is None:
        t._sum = _build_sum(t)
    return t._sum


def _build_sum(t: AlmostTwilled) -> LieRinehart:
    np, ns = t.lprime.rank, t.lsecond.rank
    n = np + ns
    alg = t.alg
    z = alg.zero()

    def pad(prime_part: Sequence[AElem], second_part: Sequence[AElem]) -> Tuple[AElem, ...]:
        return tuple(prime_part) + tuple(second_part)

    table = [[None] * n for _ in range(n)]
    for i in range(np):
        for j in range(np):
            table[i][j] = pad(t.lprime.bracket[i][j], (z,) * ns)
    for i in range(ns):
        for j in range(ns):
            table[np + i][np + j] = pad((z,) * np, t.lsecond.bracket[i][j])
    for i in range(np):
        for j in range(ns):
            prime_part = tuple(-c for c in t.act_s_on_p[j][i])
            second_part = t.act_p_on_s[i][j]
            table[i][np + j] = pad(prime_part, second_part)
            table[np + j][i] = tuple(-c for c in table[i][np + j])
    anchors = list(t.lprime.anchor) + list(t.lsecond.anchor)
    return LieRinehart(alg, n, table, anchors)


def is_twilled(t: AlmostTwilled) -> List[Violation]:
    """Axiom report for the combined bracket; empty iff twilled."""
    return lr_violations(twilled_sum(t))


class Bigraded:
    """Element of bidegree (q, p): values on pairs of sorted subsets,
    the first over the L''-basis, the second over the L'-basis.

    The same storage carries both the form interpretation (inner values
    are alternating-form values on L') and the multivector one (inner
    values are exterior coefficients); the operators select the meaning.
    """

    __slots__ = ("t", "qdeg", "pdeg", "values")

    def __init__(self, t: AlmostTwilled, qdeg: int, pdeg: int, values: Dict) -> None:
        if qdeg < 0 or pdeg < 0:
            raise ValueError("bidegree must be nonnegative")
        norm: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], AElem] = {}
        for (ss, sp), c in values.items():
            kss, ksp = tuple(ss), tuple(sp)
            if len(kss) != qdeg or list(kss) != sorted(set(kss)):
                raise ValueError(f"bad outer key {kss}")
            if len(ksp) != pdeg or list(ksp) != sorted(set(ksp)):
                raise ValueError(f"bad inner key {ksp}")
            if any(x < 0 or x >= t.lsecond.rank for x in kss):
                raise ValueError("outer index out of range")
            if any(x < 0 or x >= t.lprime.rank for x in ksp):
                raise ValueError("inner index out of range")
            if not isinstance(c, AElem) or c.alg != t.alg:
                raise ValueError("coefficients must live in the base algebra")
            if not c.is_zero():
                norm[(kss, ksp)] = c
        self.t = t
        self.qdeg = qdeg
        self.pdeg = pdeg
        self.values = norm

    @classmethod
    def zero(cls, t: AlmostTwilled, qdeg: int, pdeg: int) -> "Bigraded":
        return cls(t, qdeg, pdeg, {})

    @classmethod
    def term(cls, t: AlmostTwilled, a: AElem, ss, sp) -> "Bigraded":
        return cls(t, len(tuple(ss)), len(tuple(sp)), {(tuple(ss), tuple(sp)): a})

    def coeff(self, ss, sp) -> AElem:
        return self.values.get((tuple(ss), tuple(sp)), self.t.alg.zero())

    def add(self, other: "Bigraded") -> "Bigraded":
        if self.t != other.t:
            raise ValueError("parent mismatch")
        if (self.qdeg, self.pdeg) != (other.qdeg, other.pdeg):
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("bidegree mismatch")
        keys = set(self.values) | set(other.values)
        vals = {k: self.values.get(k, self.t.alg.zero()) + other.values.get(k, self.t.alg.zero()) for k in keys}
        return Bigraded(self.t, self.qdeg, self.pdeg, vals)

    def sub(self, other: "Bigraded") -> "Bigraded":
        return self.add(other.neg())

    def neg(self) -> "Bigraded":
        return Bigraded(self.t, self.qdeg, self.pdeg, {k: -c for k, c in self.values.items()})

    def scale(self, c) -> "Bigraded":
        if isinstance(c, AElem):
            return Bigraded(self.t, self.qdeg, self.pdeg, {k: c * v for k, v in self.values.items()})
        cc = _frac(c)
        return Bigraded(self.t, self.qdeg, self.pdeg, {k: v * cc for k, v in self.values.items()})

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bigraded):
            return NotImplemented
        return (
            self.t == other.t
            and self.qdeg == other.qdeg
            and self.pdeg == other.pdeg
            and self.values == other.values
        )

    def __repr__(self) -> str:
        parts = [f"{k}:{c!r}" for k, c in sorted(self.values.items())]
        return f"Bigraded(q={self.qdeg}, p={self.pdeg}, " + ", ".join(parts) + ")"


def bigraded_labels(t: AlmostTwilled):
    """Canonical rational basis labels (algebra index, outer subset,
    inner subset), all bidegrees."""
    for q in range(t.lsecond.rank + 1):
        for ss in combinations(range(t.lsecond.rank), q):
            for p in range(t.lprime.rank + 1):
                for sp in combinations(range(t.lprime.rank), p):
                    for ta in range(t.alg.dim):
                        yield ta, ss, sp


def _label_elem(t: AlmostTwilled, ta: int, ss, sp) -> Bigraded:
    return Bigraded.term(t, t.alg.basis(ta), ss, sp)


def bigraded_product(u: Bigraded, v: Bigraded) -> Bigraded:
    """(alpha (x) x)(beta (x) y) = (-1)^{p1 q2} (alpha ^ beta) (x) (x ^ y);
    graded commutative for the total degree."""
    if u.t != v.t:
        raise ValueError("parent mismatch")
    out: Dict = {}
    _product_into(u.values, v.values, 1, out)
    return Bigraded(u.t, u.qdeg + v.qdeg, u.pdeg + v.pdeg, out)


def _cached_module(t: AlmostTwilled, key: Tuple, build) -> LRModule:
    """Coefficient modules are built once per pair and kept on it."""
    m = t._modules.get(key)
    if m is None:
        m = t._modules[key] = build()
    return m


def _ce_bigraded(t: AlmostTwilled, w: Bigraded, outer: bool, module: LRModule) -> Bigraded:
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
    index = {s: pos for pos, s in enumerate(slots)}
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
    """Raise the outer degree by one: the differential of L'' with values in
    Lambda^p of the dual of L' over L'', so inner values are forms on L'
    carried along by the Lie-derivative action of L''."""
    p = w.pdeg
    module = _cached_module(
        t, ("form", p), lambda: exterior_power(dual_module(t.module_on_prime()), p)
    )
    return _ce_bigraded(t, w, True, module)


def _dprime_module(t: AlmostTwilled, q: int, line: Optional[Sequence[AElem]] = None) -> LRModule:
    """Coefficients of d' on outer degree q: Lambda^q of the dual of L''
    over L', tensored with the optional line connection."""

    def build() -> LRModule:
        m = exterior_power(dual_module(t.module_on_second()), q)
        return m if line is None else tensor_line(m, line)

    return _cached_module(t, ("dprime", q, None if line is None else tuple(line)), build)


def dprime_form(t: AlmostTwilled, w: Bigraded, line: Optional[Sequence[AElem]] = None) -> Bigraded:
    """Raise the inner degree by one: (-1)^q times the differential of L'
    with values in Lambda^q of the dual of L'' over L', tensored with the
    optional line connection.

    The action of a basis vector of L' thus reaches the value (through
    the anchor, twisted by the line), the outer L''-slots (through the
    first action table), and the bracket terms of L'.  With no outer
    slots and no line this is exactly the plain differential of L'.
    """
    q = w.qdeg
    d = _ce_bigraded(t, w, False, _dprime_module(t, q, line))
    return d if q % 2 == 0 else d.neg()


def dsecond_multi(t: AlmostTwilled, w: Bigraded) -> Bigraded:
    """Outer differential on the multivector carrier: the differential of
    L'' with values in Lambda^p of L' over L'', so inner subsets are
    exterior factors moved covariantly by the second action table."""
    p = w.pdeg
    module = _cached_module(t, ("multi", p), lambda: exterior_power(t.module_on_prime(), p))
    return _ce_bigraded(t, w, True, module)


def _lie_derivative(t: AlmostTwilled, i: int, b: AElem, outer: Tuple[int, ...]) -> Dict:
    """e'_i . (b e''*_outer) as {outer subset: coefficient}: the Lie
    derivative of an outer form along a basis vector of L', read off the
    compiled action of the d' coefficient module."""
    dim = t.alg.dim
    slots = list(combinations(range(t.lsecond.rank), len(outer)))
    images = _action_table(_dprime_module(t, len(outer)))[i]
    col = slots.index(outer) * dim
    acc: Dict[int, List[Fraction]] = {}
    for s, c in enumerate(b.coeffs):
        if c != 0:
            for v, x in images[col + s]:
                acc.setdefault(v // dim, [Fraction(0)] * dim)[v % dim] += c * x
    return {slots[k]: t.alg.elem(vec) for k, vec in acc.items()}


def crossed_bracket(t: AlmostTwilled, u: Bigraded, v: Bigraded) -> Bigraded:
    """Bracket on the multivector carrier: the biderivation recursion of
    ``gerst`` on L' with outer form slots, the vectors of L' acting on them
    by the Lie derivative.  Every term bracket expands in the fixed basis
    before summation, so the result is representation independent."""
    if u.t != t or v.t != t:
        raise ValueError("parent mismatch")
    out = _bracket_terms(t.lprime, u.values, v.values, partial(_lie_derivative, t))
    return Bigraded(t, u.qdeg + v.qdeg, max(u.pdeg + v.pdeg - 1, 0), out)


def _bigraded_elems(t: AlmostTwilled) -> List[Tuple]:
    """(label, basis element, total degree) for every bigraded basis label."""
    return [(lab, _label_elem(t, *lab), len(lab[1]) + len(lab[2])) for lab in bigraded_labels(t)]


def _first_witnesses(labels: List[Tuple], **images) -> Dict[str, Tuple]:
    """For each named sequence of images of labels, the label of its first
    nonzero image; ordered by label, ties in argument order."""
    first = {name: _first_nonzero(zip(labels, seq)) for name, seq in images.items()}
    found = [(name, label) for name, label in first.items() if label is not None]
    return dict(sorted(found, key=lambda item: labels.index(item[1])))


def bicomplex_square_check(t: AlmostTwilled) -> Dict:
    """Squares and anticommutation of d', d'' on every basis form,
    against twilledness of the sum; the two sides of the equivalence are
    computed independently."""
    labels = list(bigraded_labels(t))
    forms = [_label_elem(t, *lab) for lab in labels]
    dp = [dprime_form(t, w) for w in forms]
    ds = [dsecond_form(t, w) for w in forms]
    witnesses = _first_witnesses(
        labels,
        dprime_square=(dprime_form(t, a) for a in dp),
        dsecond_square=(dsecond_form(t, b) for b in ds),
        anticommute=(dprime_form(t, b).add(dsecond_form(t, a)) for a, b in zip(dp, ds)),
    )
    twilled = is_twilled(t)
    report = {key: key not in witnesses for key in ("dprime_square", "dsecond_square", "anticommute")}
    report["twilled"] = not twilled
    report["witnesses"] = witnesses
    report["equivalent"] = (not witnesses) == report["twilled"]
    if twilled:
        report["twilled_witness"] = (twilled[0].axiom, twilled[0].witness)
    return report


def _dg_check(t: AlmostTwilled, elems: List[Tuple]) -> Dict:
    """d'' squares to zero and derives the crossed bracket on the basis
    elements elems, against twilledness."""
    d = partial(dsecond_multi, t)
    label = _first_nonzero((lab, d(d(w))) for lab, w, _ in elems)
    witnesses = {} if label is None else {"square": label}
    found = _derivation_witness(elems, partial(crossed_bracket, t), d)
    if found is not None:
        witnesses["derivation"] = found[0] + found[1]
    square = "square" not in witnesses
    derivation = found is None
    twilled = not is_twilled(t)
    return {
        "square": square,
        "derivation": derivation,
        "twilled": twilled,
        "equivalent": (square and derivation) == twilled,
        "witnesses": witnesses,
    }


def dg_lie_check(t: AlmostTwilled) -> Dict:
    """On the inner-degree-1 carrier: d'' squares to zero and derives the
    crossed bracket; equivalence against twilledness."""
    elems = [
        ((ta, ss, i), _label_elem(t, ta, ss, (i,)), q + 1)
        for q in range(t.lsecond.rank + 1)
        for ss in combinations(range(t.lsecond.rank), q)
        for ta in range(t.alg.dim)
        for i in range(t.lprime.rank)
    ]
    return _dg_check(t, elems)


def dg_gerstenhaber_check(t: AlmostTwilled) -> Dict:
    """d'' is a square-zero odd derivation of the crossed bracket on the
    whole multivector carrier; equivalence against twilledness."""
    return _dg_check(t, _bigraded_elems(t))


def total_complex_cohomology_check(t: AlmostTwilled, max_total_degree: int) -> Dict:
    """Dimensions of the total-complex cohomology against the combined
    structure's own cohomology; requires a twilled instance."""
    bad = is_twilled(t)
    if bad:
        raise ValueError(f"not twilled: {bad[0]}")
    ns, np = t.lsecond.rank, t.lprime.rank
    top = min(max_total_degree, ns + np)

    by_degree: Dict[int, List[Tuple]] = {}
    for lab in bigraded_labels(t):
        by_degree.setdefault(len(lab[1]) + len(lab[2]), []).append(lab)

    def diff_matrix(k: int) -> SparseMatrix:
        cols, rows = by_degree[k], by_degree.get(k + 1, [])
        index = {lab: pos for pos, lab in enumerate(rows)}
        entries: Dict[Tuple[int, int], Fraction] = {}
        for cpos, (ta, ss, sp) in enumerate(cols):
            w = _label_elem(t, ta, ss, sp)
            image = dprime_form(t, w).values.items()
            image2 = dsecond_form(t, w).values.items()
            for (kss, ksp), val in list(image) + list(image2):
                for tt in range(t.alg.dim):
                    c = val.coeffs[tt]
                    if c != 0:
                        at = (index[(tt, kss, ksp)], cpos)
                        entries[at] = entries.get(at, 0) + c
        return SparseMatrix(len(rows), len(cols), entries)

    dims_total = []
    ranks = [mat_rank(diff_matrix(k)) for k in range(top + 1)]
    for k in range(top + 1):
        size = len(by_degree[k])
        below = ranks[k - 1] if k > 0 else 0
        dims_total.append(size - ranks[k] - below)
    s = twilled_sum(t)
    dims_sum = cohomology_dims(s, trivial_coefficients(s), top)
    return {
        "total_dims": dims_total,
        "sum_dims": dims_sum,
        "equal": dims_total == dims_sum,
    }


def bigraded_generator_extend(t: AlmostTwilled, g: GeneratorOp) -> GeneratorOp:
    """Extend a generator of the inner exterior algebra over the outer
    form slots.

    The inner contraction transports basis elements to line-valued
    forms, the d'-shaped operator with the connection-twisted value
    action is applied, and the result is contracted back with the same
    per-degree sign family as in the ungraded case.  The plain
    tensor-style extension (sign times the inner operator) is not a
    generator once the mutual actions are nonzero; the conjugated form
    is, and the construction fails loudly if the identity breaks.
    """
    lp = t.lprime
    if g.parent != lp:
        raise ValueError("generator must live on the inner factor")
    conn = generator_to_connection(lp, g)
    omega = conn.omega
    np = lp.rank
    full = set(range(np))
    table: Dict = {}
    for ta, ss, sp in bigraded_labels(t):
        p = len(sp)
        if p == 0:
            table[(ta, ss, sp)] = Bigraded.zero(t, len(ss), 0)
            continue
        comp = tuple(sorted(full - set(sp)))
        ms = merge_sign(sp, comp)
        assert ms is not None
        phi_val = t.alg.basis(ta) if ms[1] == 1 else -t.alg.basis(ta)
        phi = Bigraded(t, len(ss), len(comp), {(ss, comp): phi_val})
        image = dprime_form(t, phi, line=omega)
        out: Dict = {}
        sgn_p = 1 if p % 2 == 0 else -1
        for (kss, ksp), val in image.values.items():
            back = tuple(sorted(full - set(ksp)))
            mb = merge_sign(back, ksp)
            if mb is None:
                continue
            s = sgn_p * mb[1]
            out[(kss, back)] = val if s == 1 else -val
        table[(ta, ss, sp)] = Bigraded(t, len(ss), p - 1, out)
    op = GeneratorOp(t, table)
    bad = bigraded_generator_validate(t, op)
    if bad:
        raise RuntimeError(f"extension does not generate the crossed bracket: {bad[0]}")
    return op


def bigraded_generator_validate(t: AlmostTwilled, op: GeneratorOp) -> List[Violation]:
    """Generator identity with total degrees against the crossed bracket
    and the bigraded product, on all basis pairs."""
    found = _generator_witness(_bigraded_elems(t), partial(crossed_bracket, t), bigraded_product, op.apply)
    return [] if found is None else [Violation("bigraded-generator-identity", found[0] + found[1], "")]


def bv_commutator_check(t: AlmostTwilled, op: GeneratorOp) -> Dict:
    """Graded commutator of the outer differential with a generator on
    every basis element: both operators are odd, so the commutator is
    d''G + Gd''.  Vanishing makes the pair a weak differential
    structure; with an exact generator it upgrades to the full one."""
    labels = list(bigraded_labels(t))
    elems = [_label_elem(t, *lab) for lab in labels]
    witnesses = _first_witnesses(
        labels,
        commutator=(dsecond_multi(t, op.apply(u)).add(op.apply(dsecond_multi(t, u))) for u in elems),
        square=(op.apply(op.apply(u)) for u in elems),
    )
    commutes, exact = "commutator" not in witnesses, "square" not in witnesses
    return {"commutes": commutes, "exact": exact, "full_bv": commutes and exact, "witnesses": witnesses}
