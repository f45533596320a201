"""Pairs of Lie-Rinehart algebras acting on one another.

(A, L', L'') with mutual action tables has a candidate bracket on
L' + L'' combining the component brackets with the action terms

    [x' + x'', y' + y''] = [x', y'] + [x'', y''] + x'.y'' - y''.x'
                          + x''.y' - y'.x''

and the pair is called twilled when that sum satisfies the full axiom
set.  Twilledness is equivalent to square and compatibility conditions
on a pair of formal differentials d' and d'' acting on bigraded forms,
and to the crossed bracket on Alt(L'', Lambda L') being compatible with
d''.  The crossed bracket is a Gerstenhaber bracket only when L' acts
flatly on L'', so the dg-Lie and dG verdicts include that flatness, read
as d'^2 on the labels of outer degree 1 and inner degree 0.  Every
equivalence here is checked in both directions on concrete instances,
never assumed.  The crossed bracket is the Schouten bracket
of ``gerst`` with outer slots, read off the label tables of the pair;
with L'' = 0 it is the Schouten bracket of L'.  The bigraded elements,
``Bigraded``, are defined in ``gerst`` beside the multivectors and
imported here.

Each differential is lrcore's cochain differential of one constituent,
applied to a bigraded element read as a form on that constituent with
values in a module over it, and is read off the columns of that
differential that ``lrcore.ce_columns`` keeps on the coefficient module,
one exterior algebra per operator, built once per form degree:

    d'' on forms          L'' with values in Lambda(dual of L' over L'')
    d'' on multivectors   L'' with values in Lambda(L' over L'')
    d'                    L'  with values in Lambda(dual of L'' over L'),
                          optionally tensored with a line, times (-1)^q

over all slot degrees, q the outer degree.  A label's image is the kept
column of its form label, the module slot read as a subset of the other
constituent (``lrcore._subsets``); an element's image sums its columns.
Conventions fixed by the degenerate cases: with L'' = 0 the operator d'
is the plain cochain differential of L' (so d' carries the global sign
(-1)^q past the q external slots), and d'' uses the Lie-derivative
action on inner form slots.  The total-complex dimension comparison
calibrates the pair.

The square, derivation and generator checks and the total complex run on
label tables of ``gerst``, built afresh by each call: the crossed bracket
and bigraded product per label pair, filled on first use (a pair of two
atoms, single vectors or pure forms, is ``crossed_bracket`` on the two
label elements, which brackets atoms term by term with the Lie
derivative on outer slots); ``bigraded_product`` of two elements sums
their product entries, signed as every product of the package.  d',
both d'' and the generators are one operator class, ``gerst.GeneratorOp``:
a generator's label columns are filled when it is built, and those of d'
and d'' are read off the kept columns on first use.  The dg-Lie and dG
checks of one ``check-twilled`` share one set of tables.  This module
lists the labels and maps the witnesses back to its report formats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .calgebra import AElem, derivation_validate
from .exactla import SparseMatrix, mat_rank
from .gerst import (
    Bigraded,
    GeneratorOp,
    _element,
    _derivation_witness,
    _first_nonzero,
    _generator_table,
    _generator_witness,
    _LabelTables,
    _bracket,
    _lincomb,
    _tabulated,
    _term_dict,
    _vector,
    generator_to_connection,
)
from .lrcore import (
    LieRinehart,
    LRModule,
    _action_table,
    _subsets,
    ce_columns,
    cohomology_dims,
    dual_module,
    exterior_algebra,
    lr_violations,
    tensor_line,
    trivial_coefficients,
)
from .reporting import Violation


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
    zp, zs = (t.alg.zero(),) * np, (t.alg.zero(),) * ns
    table = [[None] * (np + ns) for _ in range(np + ns)]
    for i in range(np):
        for j in range(np):
            table[i][j] = tuple(t.lprime.bracket[i][j]) + zs
    for i in range(ns):
        for j in range(ns):
            table[np + i][np + j] = zp + tuple(t.lsecond.bracket[i][j])
    for i in range(np):
        for j in range(ns):
            back, fwd = tuple(t.act_s_on_p[j][i]), tuple(t.act_p_on_s[i][j])
            table[i][np + j] = tuple(-c for c in back) + fwd
            table[np + j][i] = back + tuple(-c for c in fwd)
    return LieRinehart(t.alg, np + ns, table, list(t.lprime.anchor) + list(t.lsecond.anchor))


def is_twilled(t: AlmostTwilled) -> List[Violation]:
    """Axiom report for the combined bracket; empty iff twilled."""
    return lr_violations(twilled_sum(t))


def bigraded_labels(t: AlmostTwilled):
    """Canonical rational basis labels (algebra index, outer subset,
    inner subset), all bidegrees."""
    for q in range(t.lsecond.rank + 1):
        for ss in combinations(range(t.lsecond.rank), q):
            for p in range(t.lprime.rank + 1):
                for sp in combinations(range(t.lprime.rank), p):
                    for ta in range(t.alg.dim):
                        yield ta, ss, sp


def _label_tables(t: AlmostTwilled) -> _LabelTables:
    """Label tables of the crossed bracket and bigraded product, for one call."""
    return _LabelTables(t, partial(crossed_bracket, t))


def bigraded_product(u: Bigraded, v: Bigraded) -> Bigraded:
    """(alpha (x) x)(beta (x) y) = (-1)^{p1 q2} (alpha ^ beta) (x) (x ^ y);
    graded commutative for the total degree."""
    u._same(v)
    return Bigraded(u.t, u.qdeg + v.qdeg, u.pdeg + v.pdeg, _tabulated(_label_tables(u.t), "product", u, v))


def _coefficients(t: AlmostTwilled, kind: str, line: Optional[Sequence[AElem]] = None) -> LRModule:
    """The coefficient module of d'' on forms ("form"), d'' on multivectors
    ("multi") or d' ("dprime") on every slot degree, as listed in the module
    docstring, built once per pair and kept on it (a line on the kept one)."""
    key = (kind, None if line is None else tuple(line))
    if key not in t._modules:
        if line is not None:
            t._modules[key] = tensor_line(_coefficients(t, kind), line)
        else:
            m = t.module_on_second() if kind == "dprime" else t.module_on_prime()
            t._modules[key] = exterior_algebra(m if kind == "multi" else dual_module(m))
    return t._modules[key]


def _ce_column(t: AlmostTwilled, kind: str, line: Optional[Sequence[AElem]], label: Tuple) -> Dict:
    """One differential on one Q-basis label (t, outer, inner), as a label
    vector: a kept column of ``ce_columns`` of the constituent the form
    lives on (L'' for d'', L' for d') with values in the coefficient
    module, whose basis is the sorted subsets of the other slot.  d'
    carries the sign (-1)^q of the outer degree q."""
    ta, ss, sp = label
    outer = kind != "dprime"
    key, slot = (ss, sp) if outer else (sp, ss)
    lr, other = (t.lsecond, t.lprime) if outer else (t.lprime, t.lsecond)
    slots, index = _subsets(other.rank)
    columns = ce_columns(lr, _coefficients(t, kind, line), len(key), formal=True)
    negate = not outer and len(ss) % 2 == 1
    out: Dict = {}
    for (rkey, j, s), x in columns.get((key, index[slot], ta), ()):
        out[(s, rkey, slots[j]) if outer else (s, slots[j], rkey)] = -x if negate else x
    return out


def _differential(t: AlmostTwilled, kind: str, line: Optional[Sequence[AElem]] = None) -> GeneratorOp:
    """d' (with an optional line, bidegree (0, 1)) or one of the two d''
    (bidegree (1, 0)) as an operator whose columns are read on first use."""
    return GeneratorOp._of(t, {}, partial(_ce_column, t, kind, line), (0, 1) if kind == "dprime" else (1, 0))


def _ce_bigraded(t: AlmostTwilled, w: Bigraded, kind: str, line: Optional[Sequence[AElem]] = None) -> Bigraded:
    """One differential applied to w: the columns of its Q-basis terms
    summed, terms in ``basis_forms`` order of the form keys, as
    ``ce_differential`` gives them."""
    terms = _term_dict(t.alg, _differential(t, kind, line).image(_vector(w.values)))
    if kind == "dprime":
        return Bigraded(t, w.qdeg, w.pdeg + 1, {k: terms[k] for k in sorted(terms, key=lambda k: (k[1], k[0]))})
    return Bigraded(t, w.qdeg + 1, w.pdeg, {k: terms[k] for k in sorted(terms)})


def dsecond_form(t: AlmostTwilled, w: Bigraded) -> Bigraded:
    """Raise the outer degree by one: the differential of L'' with values in
    Lambda^p of the dual of L' over L'', so inner values are forms on L'
    carried along by the Lie-derivative action of L''."""
    return _ce_bigraded(t, w, "form")


def dprime_form(t: AlmostTwilled, w: Bigraded, line: Optional[Sequence[AElem]] = None) -> Bigraded:
    """Raise the inner degree by one: (-1)^q times the differential of L'
    with values in Lambda^q of the dual of L'' over L', tensored with the
    optional line connection.

    The action of a basis vector of L' thus reaches the value (through
    the anchor, twisted by the line), the outer L''-slots (through the
    first action table), and the bracket terms of L'.  With no outer
    slots and no line this is exactly the plain differential of L'.
    """
    return _ce_bigraded(t, w, "dprime", line)


def dsecond_multi(t: AlmostTwilled, w: Bigraded) -> Bigraded:
    """Outer differential on the multivector carrier: the differential of
    L'' with values in Lambda^p of L' over L'', so inner subsets are
    exterior factors moved covariantly by the second action table."""
    return _ce_bigraded(t, w, "multi")


def _lie_derivative(t: AlmostTwilled, i: int, b: AElem, outer: Tuple[int, ...]) -> Dict:
    """e'_i . (b e''*_outer) as {outer subset: coefficient}: the Lie
    derivative of an outer form along a basis vector of L', read off the
    compiled action of the d' coefficient module."""
    dim = t.alg.dim
    slots, index = _subsets(t.lsecond.rank)
    images = _action_table(_coefficients(t, "dprime"))[i]
    col = index[outer] * dim
    acc: Dict[int, List[Fraction]] = {}
    for s, c in enumerate(b.coeffs):
        if c != 0:
            for v, x in images.get(col + s, ()):
                acc.setdefault(v // dim, [Fraction(0)] * dim)[v % dim] += c * x
    return {slots[k]: t.alg.elem(vec) for k, vec in acc.items()}


def crossed_bracket(t: AlmostTwilled, u: Bigraded, v: Bigraded) -> Bigraded:
    """Bracket on the multivector carrier: the Schouten bracket of L' with
    outer form slots, the vectors of L' acting on them by the Lie
    derivative; term by term on atoms, from fresh label tables otherwise."""
    if u.t != t or v.t != t:
        raise ValueError("parent mismatch")
    return _bracket(u, v, t.lprime, partial(_label_tables, t), partial(_lie_derivative, t))


def _bigraded_elems(t: AlmostTwilled) -> List[Tuple]:
    """(label, label vector, total degree) for every bigraded basis label."""
    return [(lab, {lab: 1}, len(lab[1]) + len(lab[2])) for lab in bigraded_labels(t)]


def _first_witnesses(labels: List[Tuple], **images) -> Dict[str, Tuple]:
    """For each named sequence of images of labels, the label of its first
    nonzero image; ordered by label, ties in argument order."""
    first = {name: _first_nonzero(zip(labels, seq)) for name, seq in images.items()}
    found = [(name, label) for name, label in first.items() if label is not None]
    return dict(sorted(found, key=lambda item: labels.index(item[1])))


def _anchors_derive(t: AlmostTwilled) -> bool:
    """Whether every anchor derives A, so d' and both d'' derive the bigraded product."""
    return not any(derivation_validate(t.alg, rho) for rho in (*t.lprime.anchor, *t.lsecond.anchor))


def bicomplex_square_check(t: AlmostTwilled) -> Dict:
    """Squares and anticommutation of d', d'' on every basis form,
    against twilledness of the sum; the two sides of the equivalence are
    computed independently.  Where ``_anchors_derive``, each identity is
    decided on the generators first, and only one failing there runs over
    every label, for its witness."""
    labels = list(bigraded_labels(t))
    dp, ds = _differential(t, "dprime"), _differential(t, "form")
    squares = {
        "dprime_square": lambda lab: dp.image(dp.column(lab)),
        "dsecond_square": lambda lab: ds.image(ds.column(lab)),
        "anticommute": lambda lab: _lincomb((1, dp.image(ds.column(lab))), (1, ds.image(dp.column(lab)))),
    }
    gens = [lab for lab in labels if len(lab[1]) + len(lab[2]) <= 1] if _anchors_derive(t) else labels
    witnesses = _first_witnesses(gens, **{key: map(f, gens) for key, f in squares.items()})
    if witnesses and gens is not labels:
        witnesses = _first_witnesses(labels, **{key: map(f, labels) for key, f in squares.items() if key in witnesses})
    twilled = is_twilled(t)
    report = {key: key not in witnesses for key in squares}
    report["twilled"] = not twilled
    report["witnesses"] = witnesses
    report["equivalent"] = (not witnesses) == report["twilled"]
    if twilled:
        report["twilled_witness"] = (twilled[0].axiom, twilled[0].witness)
    return report


def _dg_checks(t: AlmostTwilled, *carriers: List[Tuple]) -> List[Dict]:
    """For each carrier, a list of basis elements (label, label vector,
    degree): d'' squares to zero and derives the crossed bracket on it, and
    L' acts flatly on L'' (the crossed bracket is a Gerstenhaber bracket
    only then), against twilledness.  Flatness is read as d'^2 on the
    labels of outer degree 1 and inner degree 0, where it is the curvature
    of that action, off the columns of d' the bicomplex squares read.  The
    carriers share one set of tables and one d'', tabulated once per label.

    Where ``_anchors_derive``, the square and the derivation residual are
    each decided on the generators first (see ``gerst``), and only a
    failing pass sends each carrier through its ordered loop, for its
    witness."""
    tables = _label_tables(t)
    d, dp = _differential(t, "multi"), _differential(t, "dprime")
    outer_ones = ((ta, (a,), ()) for a in range(t.lsecond.rank) for ta in range(t.alg.dim))
    curved = _first_nonzero((lab, dp.image(dp.column(lab))) for lab in outer_ones)
    gens = [e for e in _bigraded_elems(t) if e[2] <= 1] if _anchors_derive(t) else None
    squares = gens is not None and _first_nonzero((lab, d.image(d.image(w))) for lab, w, _ in gens) is None
    clean = gens is not None and _derivation_witness(gens, tables, d) is None
    reports = []
    for elems in carriers:
        square = None if squares else _first_nonzero((lab, d.image(d.image(w))) for lab, w, _ in elems)
        found = None if clean else _derivation_witness(elems, tables, d)
        first = (("square", square), ("derivation", found and found[0] + found[1]), ("flatness", curved))
        witnesses = {key: label for key, label in first if label is not None}
        ok = {key: key not in witnesses for key, _ in first}
        twilled = not is_twilled(t)
        reports.append({**ok, "twilled": twilled, "equivalent": all(ok.values()) == twilled, "witnesses": witnesses})
    return reports


def _lie_elems(t: AlmostTwilled) -> List[Tuple]:
    """(label, label vector, total degree) on the inner-degree-1 carrier."""
    return [
        ((ta, ss, i), {(ta, ss, (i,)): 1}, q + 1)
        for q in range(t.lsecond.rank + 1)
        for ss in combinations(range(t.lsecond.rank), q)
        for ta in range(t.alg.dim)
        for i in range(t.lprime.rank)
    ]


def dg_lie_check(t: AlmostTwilled) -> Dict:
    """On the inner-degree-1 carrier: d'' squares to zero and derives the
    crossed bracket; equivalence against twilledness."""
    return _dg_checks(t, _lie_elems(t))[0]


def dg_gerstenhaber_check(t: AlmostTwilled) -> Dict:
    """d'' is a square-zero odd derivation of the crossed bracket on the
    whole multivector carrier; equivalence against twilledness."""
    return _dg_checks(t, _bigraded_elems(t))[0]


def _dg_lie_and_gerstenhaber(t: AlmostTwilled) -> List[Dict]:
    """The reports of ``dg_lie_check`` and ``dg_gerstenhaber_check`` on one
    set of tables: the dg-Lie carrier is the inner-degree-1 part of the
    whole one, so its entries and columns are filled once."""
    return _dg_checks(t, _lie_elems(t), _bigraded_elems(t))


def total_complex_cohomology_check(t: AlmostTwilled, max_total_degree: int) -> Dict:
    """Dimensions of the total-complex cohomology against the combined
    structure's own cohomology; requires a twilled instance, and a
    nonnegative cap, which ``cohomology_dims`` checks."""
    bad = is_twilled(t)
    if bad:
        raise ValueError(f"not twilled: {bad[0]}")
    top = min(max_total_degree, t.lsecond.rank + t.lprime.rank)

    by_degree: Dict[int, List[Tuple]] = {}
    for lab in bigraded_labels(t):
        by_degree.setdefault(len(lab[1]) + len(lab[2]), []).append(lab)

    dp, ds = _differential(t, "dprime"), _differential(t, "form")

    def diff_matrix(k: int) -> SparseMatrix:
        cols, rows = by_degree[k], by_degree.get(k + 1, [])
        index = {lab: pos for pos, lab in enumerate(rows)}
        entries = {
            (index[lab], cpos): c
            for cpos, col in enumerate(cols)
            for lab, c in _lincomb((1, dp.column(col)), (1, ds.column(col))).items()
        }
        return SparseMatrix(len(rows), len(cols), entries)

    ranks = [mat_rank(diff_matrix(k)) for k in range(top + 1)]
    dims_total = [len(by_degree[k]) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(top + 1)]
    s = twilled_sum(t)
    dims_sum = cohomology_dims(s, trivial_coefficients(s), top)
    return {
        "total_dims": dims_total,
        "sum_dims": dims_sum,
        "equal": dims_total == dims_sum,
    }


def bigraded_generator_extend(t: AlmostTwilled, g: GeneratorOp) -> GeneratorOp:
    """Extend a generator of the inner exterior algebra over the outer
    form slots: the loop of ``generator_from_connection`` on every
    bigraded label, with d' twisted by the generator's connection.  The
    plain tensor-style extension (sign times the inner operator) is not a
    generator once the mutual actions are nonzero; the conjugated form is,
    and the construction fails loudly if the identity breaks.
    """
    lp = t.lprime
    if g.parent != lp:
        raise ValueError("generator must live on the inner factor")
    omega = generator_to_connection(lp, g).omega
    d = lambda terms: dprime_form(t, _element(t, terms), omega).values
    op = GeneratorOp._of(t, _generator_table(lp.rank, t.alg, bigraded_labels(t), d))
    bad = bigraded_generator_validate(t, op)
    if bad:
        raise RuntimeError(f"extension does not generate the crossed bracket: {bad[0]}")
    return op


def bigraded_generator_validate(t: AlmostTwilled, op: GeneratorOp) -> List[Violation]:
    """Generator identity with total degrees against the crossed bracket
    and the bigraded product, on all basis pairs."""
    if op.parent != t:
        raise ValueError("parent mismatch")
    found = _generator_witness(_bigraded_elems(t), _label_tables(t), op)
    return [] if found is None else [Violation("bigraded-generator-identity", found[0] + found[1], "")]


def bv_commutator_check(t: AlmostTwilled, op: GeneratorOp) -> Dict:
    """Graded commutator of the outer differential with a generator on
    every basis element: both operators are odd, so the commutator is
    d''G + Gd''.  Vanishing makes the pair a weak differential
    structure; with an exact generator it upgrades to the full one."""
    if op.parent != t:
        raise ValueError("parent mismatch")
    labels = list(bigraded_labels(t))
    d = _differential(t, "multi")
    witnesses = _first_witnesses(
        labels,
        commutator=(_lincomb((1, d.image(op.column(lab))), (1, op.image(d.column(lab)))) for lab in labels),
        square=(op.image(op.column(lab)) for lab in labels),
    )
    commutes, exact = "commutator" not in witnesses, "square" not in witnesses
    return {"commutes": commutes, "exact": exact, "full_bv": commutes and exact, "witnesses": witnesses}
