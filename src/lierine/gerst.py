"""Exterior algebra over L, the Schouten bracket, and bracket generators.

Multivectors carry algebra coefficients on sorted basis subsets, and the
bigraded elements of a pair (``Bigraded``, used by ``twilled``) on pairs
of them; both are one element class (``_Element``), whose subclasses
differ only in their key checks, key shape and constructors.  The
bracket extends the degree-1 bracket through the biderivation rules

    [u ^ v, w] = u ^ [v, w] + (-1)^{|u||v|} v ^ [u, w]
    [x, u ^ v] = [x, u] ^ v + u ^ [x, v]        (x of degree 1)
    [x, a]     = x(a)
    [a, u]     = (-1)^{|u|} [u, a]

which both terminate the recursion and pin every sign.  Terms are keyed
(outer form slots, inner subset), so the same code gives the crossed
bracket on Alt(L'', Lambda L') of ``twilled``; Lambda L is the case
L'' = 0, where every outer key is empty; ``_element`` and
``_Element.terms`` convert between the elements and their term dicts.
The only recursion is that of the label tables (``_LabelTables._fill``),
which split products down to atoms (a single vector or a pure form).
Both public brackets go through ``_bracket``: on atoms term by term
(``_bracket_terms``), otherwise summed from label-table entries by
``_tabulated``, whose atom x atom entries are the public bracket on two
atoms.  ``wedge`` and the bigraded product of ``twilled`` are
``_tabulated`` on product entries, so ``_product_sign`` is the package's
one exterior product sign.  Generators
are degree -1 operators reproducing the bracket through the defect of
the Leibniz rule; they correspond to connections on the top exterior
power via conjugation by the contraction isomorphism, one loop
(``_generator_table``) for Lambda L and the bigraded carrier.  The
per-degree sign s(p) = (-1)^p in that conjugation is forced by the
generator identity; the test suite pins it by rescaling each degree of
a generator's table.

The graded identities are each checked by one loop here, for every
carrier: ``_derivation_witness`` (d[u,v] = [du,v] - (-1)^{|u|}[u,dv]),
``_generator_witness`` (the generator identity) and ``_first_nonzero``
(square-zero and commutator checks).  They serve Lambda L here, the
bigraded carrier Alt(L'', Lambda L') in ``twilled`` and the exterior
algebras of a dual pair in ``bialg``; each caller supplies its basis
labels in its own order, its label tables and its operator.  The labels
of degree at most 1 generate each carrier, and a residual that derives
the product in each slot vanishes once it does on them (Koszul 1985;
Kosmann-Schwarzbach 1995): d[u,v] - [du,v] + (-1)^{|u|}[u,dv] when d
derives the product and the bracket is a biderivation, and the square of
an odd derivation.  d' and both d'' derive it where every anchor is a
derivation, as does the transported differential of a valid side, and
the label tables build every bracket from atoms by the biderivation
rules, so ``twilled``, ``bialg``'s second reading and
``gerstenhaber_validate`` run such a generator pass first, and an ordered
loop only for a witness.  The generator identity, second order, keeps
the full loop.  Label tables (``_LabelTables``) live for one checker
call, or one call of checkers sharing them: the bracket and product as
structure constants on the Q-basis labels (t, outer, inner), each coded
as the int t << (ro + ri) | outer mask << ri | inner mask, every entry
keyed by the code of its label pair in one dict and filled on first use,
read off entries of smaller labels down to atom x atom entries, the
public bracket on the two label elements; a product entry is read off
the compiled products of the base, its sign popcounts of the masks.
Every operator is one class of sparse label columns, ``GeneratorOp``,
which records its bidegree: a generator (0, -1) fills them when built, a
cochain differential (d'' (1, 0), d' and the transported one (0, 1)) on
first read off the columns ``lrcore.ce_columns`` keeps.

Both witnesses run one pair loop, ``_pair_witness``.  Every element of a
carrier is homogeneous in (outer, inner) degree and every operator has a
bidegree, so the residual of a pair lies in one bidegree, fixed by those
of its two elements.  The loop pairs each element only with the elements
for which that bidegree has labels (outer degree at most rank L'', inner
degree 0..rank L'), keeping the caller's order; the list is made once per
bidegree class of the first element.  A pair left out has no label to
put its residual on, so it is zero, and the first failing pair and its
residual are those of the loop over all pairs.  Where R(v, u) = +-R(u, v),
each list starts at the element's own position: the first failing pair
(u, v) has u no later than v, or (v, u) fails first; the first failing
Jacobi triple is sorted.  ``_LabelTables.symmetric`` reads the gates: the
product is graded commutative over a commutative base, the bracket
graded antisymmetric where the base is also associative with unit and
the literal table antisymmetric; then so are atom x atom entries, and the
splits sum the Koszul-signed biderivation expansion over the atoms of
each label, which swaps term by term.  Residuals are summed on codes from
table entries and operator columns, each coded once per label and set of
tables, decoded only for an atom, a column read and the witness.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import combinations, islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .calgebra import AElem, CommAlg, alg_validate
from .exactla import _frac
from .lrcore import (
    AltForm,
    LieRinehart,
    LRModule,
    _antisymmetry_witness,
    _bracket_vectors,
    ce_differential,
    tensor_line,
    trivial_coefficients,
)
from .reporting import Violation


class _Element:
    """Element of a carrier: keys -> nonzero coefficients in the base
    algebra of its parent, a structure (``Multivector``) or a pair
    (``Bigraded``).  A subclass checks its keys in its constructor, which
    hands them on to this one, and copies itself onto new values with
    ``_new``; ``_shape`` is the bidegree a bigraded element keeps, (0, 0)
    on multivectors, whose terms may mix degrees."""

    __slots__ = ("parent", "values")
    _shape = (0, 0)

    def __init__(self, parent, values: Dict) -> None:
        for c in values.values():
            if not isinstance(c, AElem) or c.alg != parent.alg:
                raise ValueError("coefficients must live in the base algebra")
        self.parent = parent
        self.values = {k: c for k, c in values.items() if not c.is_zero()}

    def terms(self) -> Dict:
        """The terms keyed (outer, inner)."""
        return self.values

    def add(self, other):
        self._same(other)
        if self._shape != other._shape:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("bidegree mismatch")
        zero = self.parent.alg.zero()
        keys = set(self.values) | set(other.values)
        return self._new({k: self.values.get(k, zero) + other.values.get(k, zero) for k in keys})

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return self._new({k: -c for k, c in self.values.items()})

    def scale(self, c):
        c = c if isinstance(c, AElem) else _frac(c)
        return self._new({k: c * v for k, v in self.values.items()})

    def is_zero(self) -> bool:
        return not self.values

    def _same(self, other: "_Element") -> None:
        if self.parent != other.parent:
            raise ValueError("parent mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Element):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.parent == other.parent
            and self._shape == other._shape
            and self.values == other.values
        )


class Multivector(_Element):
    """Element of the exterior algebra: sorted index subsets -> coefficients."""

    __slots__ = ()

    def __init__(self, lr: LieRinehart, values: Dict) -> None:
        values = {tuple(key): c for key, c in values.items()}
        for k in values:
            if list(k) != sorted(k) or len(set(k)) != len(k):
                raise ValueError(f"subset key {k} must be strictly increasing")
            if any(x < 0 or x >= lr.rank for x in k):
                raise ValueError(f"index out of range in key {k}")
        super().__init__(lr, values)

    @property
    def lr(self) -> LieRinehart:
        return self.parent

    def _new(self, values: Dict) -> "Multivector":
        return Multivector(self.parent, values)

    def terms(self) -> Dict:
        return {((), k): c for k, c in self.values.items()}

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

    def __repr__(self) -> str:
        if not self.values:
            return "Multivector(0)"
        parts = [f"{k}:{c!r}" for k, c in sorted(self.values.items())]
        return "Multivector(" + ", ".join(parts) + ")"


class Bigraded(_Element):
    """Element of bidegree (q, p) of a pair: values on pairs of sorted
    subsets, the first over the L''-basis, the second over the L'-basis.

    The same storage carries both the form interpretation (inner values
    are alternating-form values on L') and the multivector one (inner
    values are exterior coefficients); the operators select the meaning.
    """

    __slots__ = ("qdeg", "pdeg")

    def __init__(self, t, qdeg: int, pdeg: int, values: Dict) -> None:
        if qdeg < 0 or pdeg < 0:
            raise ValueError("bidegree must be nonnegative")
        values = {(tuple(ss), tuple(sp)): c for (ss, sp), c in values.items()}
        for kss, ksp in values:
            if len(kss) != qdeg or list(kss) != sorted(set(kss)):
                raise ValueError(f"bad outer key {kss}")
            if len(ksp) != pdeg or list(ksp) != sorted(set(ksp)):
                raise ValueError(f"bad inner key {ksp}")
            if any(x < 0 or x >= t.lsecond.rank for x in kss):
                raise ValueError("outer index out of range")
            if any(x < 0 or x >= t.lprime.rank for x in ksp):
                raise ValueError("inner index out of range")
        self.qdeg = qdeg
        self.pdeg = pdeg
        super().__init__(t, values)

    @property
    def t(self):
        return self.parent

    @property
    def _shape(self) -> Tuple[int, int]:
        return self.qdeg, self.pdeg

    def _new(self, values: Dict) -> "Bigraded":
        return Bigraded(self.parent, self.qdeg, self.pdeg, values)

    @classmethod
    def zero(cls, t, qdeg: int, pdeg: int) -> "Bigraded":
        return cls(t, qdeg, pdeg, {})

    @classmethod
    def term(cls, t, a: AElem, ss, sp) -> "Bigraded":
        return cls(t, len(tuple(ss)), len(tuple(sp)), {(tuple(ss), tuple(sp)): a})

    def coeff(self, ss, sp) -> AElem:
        return self.values.get((tuple(ss), tuple(sp)), self.parent.alg.zero())

    def __repr__(self) -> str:
        parts = [f"{k}:{c!r}" for k, c in sorted(self.values.items())]
        return f"Bigraded(q={self.qdeg}, p={self.pdeg}, " + ", ".join(parts) + ")"


def _element(parent, terms: Dict, bidegree: Optional[Tuple[int, int]] = None) -> _Element:
    """The carrier element of a term dict {(outer, inner): coefficient}: a
    multivector of a structure, or a bigraded element of a pair, of the
    given bidegree, by default that of its first term."""
    if isinstance(parent, LieRinehart):
        return Multivector(parent, {k: c for (_, k), c in terms.items()})
    ss, sp = next(iter(terms), ((), ()))
    return Bigraded(parent, *(bidegree or (len(ss), len(sp))), terms)


def wedge(u: Multivector, v: Multivector) -> Multivector:
    u._same(v)
    return _element(u.lr, _tabulated(_flat_tables(u.lr), "product", u, v))


def _tabulated(tables: "_LabelTables", entry: str, u: _Element, v: _Element) -> Dict:
    """The term dict of the label-table entry ("bracket" or "product")
    extended bilinearly over the terms of u and v."""
    x, y, f = tables.encode(_vector(u.terms())), tables.encode(_vector(v.terms())), getattr(tables, entry)
    return _term_dict(tables.alg, tables.decode(_lincomb(*[(a * b, f(k, l)) for k, a in x.items() for l, b in y.items()])))


def _atom(outer: Tuple[int, ...], inner: Tuple[int, ...]) -> bool:
    """Whether the term (outer, inner) is a pure form or a single vector."""
    return not inner or (not outer and len(inner) == 1)


def _bracket_terms(lr: LieRinehart, left: Dict, right: Dict, lie=None) -> Dict:
    """[left, right] for term dicts {(outer, inner): coefficient} of atoms:
    inner subsets index exterior factors of lr, outer subsets index form
    slots.

    Two pure forms bracket to zero; a vector a e_i on b times the form of
    outer slots S gives a e_i . (b e*_S), and the form on the vector its
    negative; [a e_i, b e_j] comes from the compiled degree-one table.
    With S empty the action is the anchor; otherwise lie(i, b, S) supplies
    it as {outer subset: coefficient}.
    """
    out: Dict = {}
    for (o1, i1), a in left.items():
        for (o2, i2), b in right.items():
            if i1 and i2:
                vecs = _bracket_vectors(lr, {i1[0]: a.coeffs}, {i2[0]: b.coeffs})
                terms = {((), (k,)): lr.alg.elem(vec) for k, vec in vecs.items()}
            elif i1 or i2:
                (i, x), (y, o) = ((i1[0], a), (b, o2)) if i1 else ((i2[0], b), (a, o1))
                action = lie(i, y, o) if o else {(): lr.anchor[i].apply(y)}
                terms = {(k, ()): x * c if i1 else -(x * c) for k, c in action.items()}
            else:
                continue
            for key, c in terms.items():
                out[key] = c if key not in out else out[key] + c
    return out


def _bracket(u: _Element, v: _Element, lr: LieRinehart, tables, lie=None) -> _Element:
    """[u, v] on the carrier of u and v, bilinear over terms: term by term
    (``_bracket_terms``) when every term of both is an atom, otherwise
    summed from the entries of the fresh label tables that tables() makes."""
    left, right = u.terms(), v.terms()
    if all(_atom(*key) for key in (*left, *right)):
        out = _bracket_terms(lr, left, right, lie)
    else:
        out = _tabulated(tables(), "bracket", u, v)
    (q1, p1), (q2, p2) = u._shape, v._shape
    return _element(u.parent, out, (q1 + q2, max(p1 + p2 - 1, 0)))


def schouten_bracket(u: Multivector, v: Multivector) -> Multivector:
    """Bracket on the exterior algebra, rational-bilinear over terms."""
    u._same(v)
    return _bracket(u, v, u.lr, partial(_flat_tables, u.lr))


def _basis_multivectors(lr: LieRinehart, max_degree: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Rational basis labels (algebra index, subset) through a degree cap."""
    for p in range(min(max_degree, lr.rank) + 1):
        for key in combinations(range(lr.rank), p):
            for t in range(lr.alg.dim):
                yield t, key


_ZERO: Dict = {}  # the zero label vector, shared: label vectors are never changed in place


def _vector(terms: Dict) -> Dict:
    """A term dict {(outer, inner): coefficient} as a label vector
    {(t, outer, inner): rational} on the Q-basis labels.  Integral
    coefficients are kept as int, which is exact and much faster."""
    vec = {
        (t, *key): q.numerator if q.denominator == 1 else q
        for key, a in terms.items()
        for t, q in enumerate(a.coeffs)
        if q != 0
    }
    return vec or _ZERO


def _term_dict(alg: CommAlg, vec: Dict) -> Dict:
    """The term dict {(outer, inner): coefficient} of a label vector."""
    coeffs: Dict = {}
    for (t, *key), q in vec.items():
        coeffs.setdefault(tuple(key), [0] * alg.dim)[t] = q
    return {key: alg.elem(c) for key, c in coeffs.items()}


def _lincomb(*pairs: Tuple) -> Dict:
    """The sum of c * vec over (c, vec) pairs of label vectors, zeros
    dropped.  A single pair with c = 1 returns vec itself."""
    if len(pairs) == 1 and pairs[0][0] == 1:
        return pairs[0][1]
    out: Dict = {}
    for c, vec in pairs:
        unit = c == 1
        for k, x in vec.items():
            x = x if unit else c * x
            y = out.get(k)
            out[k] = x if y is None else y + x
    return {k: x for k, x in out.items() if x} or _ZERO


def _add(out: Dict, c, vec: Dict) -> None:
    """out += c * vec for label vectors, in place; zeros are left in."""
    for k, x in vec.items():
        y = out.get(k)
        out[k] = c * x if y is None else y + c * x


def _product_sign(a: int, b: int, ri: int) -> int:
    """The sign of the product of the labels of masks a, b (outer bits
    above ri inner bits), 0 when a slot overlaps: the package's one product
    sign, (alpha (x) x)(beta (x) y) = (-1)^{|x||beta|} (alpha ^ beta) (x) (x ^ y)
    with each wedge signed by the shuffle of its slot.  That is the whole
    masks' inversions, less |outer a| |inner b|, plus |inner a| |outer b|."""
    if a & b:
        return 0
    inner = (1 << ri) - 1
    n = (a >> ri).bit_count() * (b & inner).bit_count() + (a & inner).bit_count() * (b >> ri).bit_count()
    while b:
        low = b & -b
        n += (a & -low).bit_count()  # the bits of a above this bit of b
        b ^= low
    return -1 if n % 2 else 1


class _LabelTables:
    """The bracket and product of the carrier of parent (a structure or a
    pair) on the codes of its Q-basis labels (see the module docstring), as
    code vectors keyed by codes, memoised per pair code x << width | y and
    filled on first use.  Built for one checker call and dropped with it.

    Every entry is read off entries of smaller labels (see ``_factors``).  A
    left label x y splits by [x y, v] = x [y, v] + (-1)^{|x||y|} y [x, v];
    an atom u on the left (a single vector or a pure form) splits a right
    label f g by [u, f g] = [u, f] g + (-1)^{(|u|-1)|f|} f [u, g]: the
    package's only splits.  An atom x atom entry is bracket, the carrier's
    public bracket (``schouten_bracket`` or the crossed bracket), on the
    elements of the two labels, each built once per table.
    """

    def __init__(self, parent, bracket) -> None:
        ro, self.ri = _ranks(parent)
        self.shift, self.inner = ro + self.ri, (1 << self.ri) - 1
        self.low, self.width = (1 << self.shift) - 1, self.shift + parent.alg.dim.bit_length()
        self.parent, self.atom_bracket, self.alg = parent, bracket, parent.alg
        self.ones = [(t << self.shift, c) for (t, _, _), c in _vector({((), ()): self.alg.one()}).items()]
        self.brackets: Dict = {}
        self.products: Dict = {}
        self.factors: Dict = {}  # code -> its factors (f, g, |f|, |g|) as code vectors, or None
        self.atoms: Dict = {}  # atom code -> its carrier element
        self.readers: Dict = {}  # id(op) -> (op, its columns coded so far); op held so its id stays unique

    @cached_property
    def symmetric(self) -> Tuple[bool, bool]:
        """The gates of the module docstring: whether the product, and whether also the bracket, is graded symmetric."""
        broken = {v.axiom for v in alg_validate(self.alg)}
        side = self.parent if isinstance(self.parent, LieRinehart) else self.parent.lprime
        return "commutativity" not in broken, not broken and _antisymmetry_witness(side) is None

    def code(self, label: Tuple) -> int:
        t, outer, inner = label
        return t << self.shift | sum(1 << i for i in outer) << self.ri | sum(1 << i for i in inner)

    def label(self, x: int) -> Tuple:
        bits = lambda m: tuple(i for i in range(m.bit_length()) if m >> i & 1)
        return x >> self.shift, bits((x & self.low) >> self.ri), bits(x & self.inner)

    def encode(self, vec: Dict) -> Dict:
        """The code vector of a label vector."""
        return {self.code(x): c for x, c in vec.items()}

    def decode(self, vec: Dict) -> Dict:
        """The label vector of a code vector."""
        return {self.label(x): c for x, c in vec.items()}

    def carrier(self, vec: Dict) -> _Element:
        """The carrier element of a code vector."""
        return _element(self.parent, _term_dict(self.alg, self.decode(vec)))

    def operator(self, op: "GeneratorOp"):
        """code -> the column of op on its label as a code vector, each coded
        on first read and kept on the tables, so the checkers sharing them
        code it once."""
        _, columns = self.readers.setdefault(id(op), (op, {}))

        def column(x: int) -> Dict:
            if x not in columns:
                columns[x] = self.encode(op.column(self.label(x)))
            return columns[x]

        return column

    def _atom(self, x: int) -> _Element:
        u = self.atoms.get(x)
        if u is None:
            t, *key = self.label(x)
            u = self.atoms[x] = _element(self.parent, {tuple(key): self.alg.basis(t)})
        return u

    def _factors(self, x: int):
        """x = f g as (f, g, |f|, |g|), code vectors: the outer form times the
        inner wedge, or the first vector times the rest; None for an atom."""
        if x not in self.factors:
            inner = x & self.inner
            outer, first = x & self.low ^ inner, inner & -inner
            f, g = (x ^ inner, inner) if outer else (x ^ inner ^ first, inner ^ first)
            self.factors[x] = None if not g else (
                {f: 1}, {t | g: c for t, c in self.ones}, (f & self.low).bit_count(), g.bit_count()
            )
        return self.factors[x]

    def bracket(self, x: int, y: int) -> Dict:
        """[x, y] of two codes as a code vector."""
        entry = self.brackets.get(key := x << self.width | y)
        if entry is None:
            entry = self.brackets[key] = self._fill(x, y)
        return entry

    def _fill(self, x: int, y: int) -> Dict:
        out: Dict = {}
        split = self._factors(x)
        if split is not None:  # [f g, y] = f [g, y] + (-1)^{|f||g|} g [f, y]
            f, g, df, dg = split
            for z, b in g.items():
                self._times(out, b, f, self.bracket(z, y))
            sign = 1 if (df * dg) % 2 == 0 else -1
            for z, a in f.items():
                self._times(out, sign * a, g, self.bracket(z, y))
        elif self._factors(y) is not None:  # [x, f g] = [x, f] g + (-1)^{(|x|-1)|f|} f [x, g]
            f, g, df, _ = self.factors[y]
            for z, a in f.items():
                self._times(out, a, self.bracket(x, z), g)
            sign = 1 if (((x & self.low).bit_count() - 1) * df) % 2 == 0 else -1
            for z, b in g.items():
                self._times(out, sign * b, f, self.bracket(x, z))
        else:
            return self.encode(_vector(self.atom_bracket(self._atom(x), self._atom(y)).terms()))
        return {k: c for k, c in out.items() if c} or _ZERO

    def _times(self, out: Dict, c, u: Dict, v: Dict) -> None:
        """out += c u v for code vectors u, v."""
        if u and v:
            for x, a in u.items():
                for y, b in v.items():
                    _add(out, c * a * b, self.product(x, y))

    def product(self, x: int, y: int) -> Dict:
        """x y of two codes as a code vector."""
        entry = self.products.get(key := x << self.width | y)
        if entry is None:
            entry = self.products[key] = self._multiply(x, y)
        return entry

    def _multiply(self, x: int, y: int) -> Dict:
        """x y off the compiled products of the base, signed by popcounts."""
        a, b = x & self.low, y & self.low
        sign = _product_sign(a, b, self.ri)
        if not sign:
            return _ZERO
        terms = self.alg._products[x >> self.shift][y >> self.shift]
        return {k << self.shift | a | b: m if sign == 1 else -m for k, m in terms} or _ZERO


def _flat_tables(lr: LieRinehart) -> _LabelTables:
    """Label tables of Lambda L, whose labels carry an empty outer key."""
    return _LabelTables(lr, schouten_bracket)


def gerstenhaber_validate(lr: LieRinehart, max_degree: int) -> List[Violation]:
    """Graded antisymmetry, odd Leibniz, and graded Jacobi on all rational
    basis multivectors through the degree cap, decided on those of degree
    at most 1 (see the module docstring).  One witness per axiom.  Does
    not require a valid parent: a corrupted bracket table shows up here as
    a Jacobi witness.  A negative cap is rejected.
    """
    if max_degree < 0:
        raise ValueError(f"the degree cap must be at least 0, got {max_degree}")
    tables = _flat_tables(lr)
    if max_degree > 1 and not _gerstenhaber_violations(tables, _label_elems(lr, 1)):
        return []
    return _gerstenhaber_violations(tables, _label_elems(lr, max_degree))


def _gerstenhaber_violations(tables: _LabelTables, elems: Sequence[Tuple]) -> List[Violation]:
    """The first failing axiom of ``gerstenhaber_validate`` on elems, or []."""
    br, prod, low = tables.bracket, tables.product, tables.low

    def antisymmetry(out: Dict, c, _, x: int, y: int) -> None:
        # [x, y] + (-1)^{(|x|-1)(|y|-1)} [y, x]
        _add(out, c, br(x, y))
        _add(out, c if (((x & low).bit_count() - 1) * ((y & low).bit_count() - 1)) % 2 == 0 else -c, br(y, x))

    def leibniz(u: int, pu: int, out: Dict, c, sv: int, v: int, w: int) -> None:
        # [u, v w] - [u, v] w - (-1)^{(|u|-1)|v|} v [u, w]
        sign = 1 if pu % 2 == 1 else sv
        for z, e in prod(v, w).items():
            _add(out, c * e, br(u, z))
        for z, e in br(u, v).items():
            _add(out, -c * e, prod(z, w))
        for z, e in br(u, w).items():
            _add(out, -sign * c * e, prod(v, z))

    def jacobi(u: int, pu: int, out: Dict, c, sv: int, v: int, w: int) -> None:
        # [u, [v, w]] - [[u, v], w] - (-1)^{(|u|-1)(|v|-1)} [v, [u, w]]
        sign = 1 if pu % 2 == 1 else -sv
        for z, e in br(v, w).items():
            _add(out, c * e, br(u, z))
        for z, e in br(u, v).items():
            _add(out, -c * e, br(z, w))
        for z, e in br(u, w).items():
            _add(out, -sign * c * e, br(v, z))

    # residual degrees: |x| + |y| - 1; |u| + |v| + |w| - 1; |u| + |v| + |w| - 2
    ranks, (commutative, antisymmetric) = _ranks(tables.parent), tables.symmetric
    found = _pair_witness(elems, tables, antisymmetry, ranks, (0, -1), 0)
    if found:
        return [Violation("graded-antisymmetry", found[0] + found[1], "")]
    for axiom, residual, shift, sym in (("odd-leibniz", leibniz, -1, commutative), ("graded-jacobi", jacobi, -2, antisymmetric)):
        for pos, (l1, (u,), pu) in enumerate(elems):
            first = (pos if residual is jacobi else 0) if sym else None
            found = _pair_witness(elems, tables, partial(residual, tables.code(u), pu), ranks, (0, pu + shift), first)
            if found:
                return [Violation(axiom, l1 + found[0] + found[1], "")]
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
        return tensor_line(trivial_coefficients(self.lr), self.omega)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopConnection):
            return NotImplemented
        return self.lr == other.lr and self.omega == other.omega

    def __repr__(self) -> str:
        return f"TopConnection({self.omega!r})"


def connection_curvature(lr: LieRinehart, c: TopConnection) -> AltForm:
    """F(e_i, e_j) = e_i(omega_j) - e_j(omega_i) - omega([e_i, e_j]), which
    is d omega for omega a 1-form on A, restated on the line module; zero
    exactly when that module is flat.  The differential is formal, so an
    anchor that is not a bracket morphism still has a curvature."""
    if c.lr != lr:
        raise ValueError("parent mismatch")
    a = trivial_coefficients(lr)
    omega = AltForm(lr, a, 1, {(i,): (w,) for i, w in enumerate(c.omega)})
    return AltForm(lr, c.line_module(), 2, ce_differential(lr, a, omega, formal=True).values)


def _complement(n: int, key: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    """The complement of a sorted subset of range(n) and the sign of the
    shuffle e_key ^ e_complement = sign e_top."""
    comp = tuple(i for i in range(n) if i not in key)
    # entry k of key passes the key[k] - k smaller entries of the complement
    return comp, -1 if (sum(key) - len(key) * (len(key) - 1) // 2) % 2 else 1


def _contract(n: int, terms: Dict, sign: int = 1) -> Dict:
    """sign times the contraction C with the top on term dicts {(outer, S):
    a}: a (outer, S) goes to a (outer, complement of S) times the sign of
    ``_complement``.  Its inverse on degree k is (-1)^{k(n-k)} C."""
    out: Dict = {}
    for (outer, key), a in terms.items():
        comp, shuffle = _complement(n, key)
        out[(outer, comp)] = a if shuffle * sign == 1 else -a
    return out


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
        module = trivial_coefficients(lr)
    if module.rank != 1:
        raise ValueError("target module must have rank 1")
    vals = {key: (a,) for (_, key), a in _contract(lr.rank, u.terms()).items()}
    return AltForm(lr, module, lr.rank - (p or 0), vals)


def contraction_inverse(lr: LieRinehart, w: AltForm) -> Multivector:
    """Inverse of the contraction: read each value off the complementary
    subset with the same interleaving sign."""
    if w.lr != lr or w.module.rank != 1:
        raise ValueError("expected a rank-1-valued form on the parent")
    sign = -1 if (w.degree * (lr.rank - w.degree)) % 2 else 1
    return _element(lr, _contract(lr.rank, {((), key): vec[0] for key, vec in w.values.items()}, sign))


def _ranks(parent) -> Tuple[int, int]:
    """The largest outer and inner degree of the carrier of a structure
    (Lambda L, no outer slots) or of a pair (Alt(L'', Lambda L'))."""
    return (0, parent.rank) if isinstance(parent, LieRinehart) else (parent.lsecond.rank, parent.lprime.rank)


def _subset(key: Tuple, rank: int) -> bool:
    """Whether key is a strictly increasing subset of range(rank)."""
    return all(x in range(rank) for x in key) and all(a < b for a, b in zip(key, key[1:]))


class GeneratorOp:
    """Rational-linear operator on a carrier as sparse label columns
    {(t, outer, inner): label vector}, outer empty on the multivectors of
    a structure.  The constructor takes a table of carrier elements, keyed
    (t, subset) on multivectors and (t, outer, inner) on the bigraded
    carrier of a pair, each lowering the inner degree by one and keeping
    the outer degree; ``table`` views the columns in that form."""

    __slots__ = ("parent", "columns", "read", "_bidegree")

    def __init__(self, parent, table: Dict) -> None:
        ranks = _ranks(parent)
        columns: Dict = {}
        for (t, *keys), val in table.items():
            label = (t, *map(tuple, keys))
            outer, inner = label[1:] if len(label) == 3 else ((), label[1])
            if t not in range(parent.alg.dim) or not all(map(_subset, (outer, inner), ranks)):
                raise ValueError(f"table label {label} is not a basis label of the carrier")
            if val.parent != parent:
                raise ValueError("table value parent mismatch")
            terms = val.terms()
            if any(len(o) != len(outer) or len(i) != len(inner) - 1 for o, i in terms):
                raise ValueError(f"table entry {label} does not lower the inner degree by 1")
            columns[(t, outer, inner)] = _vector(terms)
        self.parent, self.columns, self.read, self._bidegree = parent, columns, None, (0, -1)

    @classmethod
    def _of(cls, parent, columns: Dict, read=None, bidegree: Tuple[int, int] = (0, -1)) -> "GeneratorOp":
        """The operator of these columns, unchecked, moving (outer, inner)
        degrees by bidegree; read(label) -> label vector, if given, supplies
        any other column on first use, kept."""
        op = cls.__new__(cls)
        op.parent, op.columns, op.read, op._bidegree = parent, columns, read, bidegree
        return op

    def column(self, label: Tuple) -> Dict:
        """The image of one label as a label vector."""
        col = self.columns.get(label)
        if col is None and self.read is not None:
            col = self.columns[label] = self.read(label)
        return _ZERO if col is None else col

    def image(self, vec: Dict) -> Dict:
        """The image of a label vector."""
        return _lincomb(*[(a, self.column(x)) for x, a in vec.items()])

    def _key(self, label: Tuple) -> Tuple:
        """A label in the constructor's key shape: (t, subset) on multivectors."""
        return (label[0], label[2]) if isinstance(self.parent, LieRinehart) else label

    def _carrier(self, vec: Dict, q: int, p: int) -> _Element:
        """The carrier element of the image vec of an input of bidegree (q, p)."""
        dq, dp = self._bidegree
        return _element(self.parent, _term_dict(self.parent.alg, vec), (q + dq, max(p + dp, 0)))

    @property
    def table(self) -> Dict:
        """The columns as carrier elements, keyed as in the constructor."""
        return {self._key(label): self._carrier(vec, len(label[1]), len(label[2])) for label, vec in self.columns.items()}

    def apply(self, u: _Element) -> _Element:
        """The columns extended rational-linearly over the terms of u."""
        if u.parent != self.parent:
            raise ValueError("parent mismatch")
        return self._carrier(self.image(_vector(u.terms())), *u._shape)

    def inputs(self) -> Iterator[Tuple]:
        return iter(sorted(self.table))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorOp):
            return NotImplemented
        return self.parent == other.parent and self.columns == other.columns


def _generator_table(n: int, alg: CommAlg, labels: Iterable[Tuple], differential) -> Dict:
    """D(u) = (-1)^p C^{-1} d C(u) as a label vector on every label (t,
    outer, inner) of inner degree p: C contracts the inner subset with the
    top (``_contract``) and differential(terms) -> terms is the
    line-twisted differential on form terms.  A top form has differential
    zero, so D kills inner degree 0."""
    table: Dict = {}
    for t, outer, inner in labels:
        image = differential(_contract(n, {(outer, inner): alg.basis(t)}))
        # C^{-1} on degree n - p + 1, times (-1)^p: (-1)^{1 + (p-1) n} C
        table[(t, outer, inner)] = _vector(_contract(n, image, -1 if (1 + (len(inner) - 1) * n) % 2 else 1))
    return table


def generator_from_connection(lr: LieRinehart, c: TopConnection) -> GeneratorOp:
    """Conjugate the connection differential by the contraction:

        D(u) = s(p) * contraction_inverse(d_line(contraction(u)))

    on degree-p inputs, with the sign family s(p) = (-1)^p, the unique one
    satisfying the generator identity.  The differential runs formally, so
    curved connections are accepted (they yield generators whose square
    detects the curvature).
    """
    if c.lr != lr:
        raise ValueError("parent mismatch")
    line = c.line_module()

    def differential(terms: Dict) -> Dict:
        (((), key), a), = terms.items()
        image = ce_differential(lr, line, AltForm(lr, line, len(key), {key: (a,)}), formal=True)
        return {((), k): vec[0] for k, vec in image.values.items()}

    labels = [(t, (), key) for t, key in _basis_multivectors(lr, lr.rank)]
    return GeneratorOp._of(lr, _generator_table(lr.rank, lr.alg, labels, differential))


def _label_elems(lr: LieRinehart, max_degree: int) -> List[Tuple]:
    """(label, label vector, degree) for every rational basis label through
    the degree cap."""
    return [((t, k), {(t, (), k): 1}, len(k)) for t, k in _basis_multivectors(lr, max_degree)]


def _first_nonzero(images: Iterable[Tuple]) -> Optional[Tuple]:
    """The first label of (label, image vector) pairs whose image is
    nonzero, or None; images after that label are never computed."""
    return next((label for label, image in images if image), None)


def _pair_witness(elems: Sequence[Tuple], tables: _LabelTables, residual, ranks: Tuple, shift: Tuple,
                  first: Optional[int] = None) -> Optional[Tuple]:
    """The first pair (label1, label2, residual) of elems, a list of
    (label, label vector, degree), whose residual is nonzero, or None.
    The residual of labels of bidegrees (q1, p1) and (q2, p2) lies in
    (q1 + q2, p1 + p2) + shift; only the pairs for which that bidegree has
    labels, outer degree 0..ranks[0] and inner 0..ranks[1], are visited,
    in the order of elems; with first given, only those with first <= pos
    u <= pos v, where R(v, u) = eR(u, v) and no pair before first fails:
    e = -(-1)^{(|u|-1)(|v|-1)} for the derivation, generator and Jacobi (in
    u, v and in v, w) residuals of an antisymmetric bracket, (-1)^{|v||w|}
    for Leibniz (in v, w) of a commutative product, -e for antisymmetry.
    Each pair's residual is summed bilinearly over the codes of its two
    vectors: residual(out, c, s, x, y) adds c times the residual of the
    codes x, y to out, where s = (-1)^{|u|} for the first element u."""
    (qtop, ptop), (dq, dp) = ranks, shift
    degrees = [frozenset((len(outer), len(inner)) for _, outer, inner in v) for _, v, _ in elems]
    codes = [(label, tables.encode(v)) for label, v, _ in elems]
    partners: Dict = {}  # bidegree class of the first element -> (position, label, code vector) of its second elements
    for i, ((label1, _, p), (_, u), du) in islice(enumerate(zip(elems, codes, degrees)), first or 0, None):
        if du not in partners:
            partners[du] = [
                (j, *e) for j, (e, dv) in enumerate(zip(codes, degrees))
                if any(0 <= q1 + q2 + dq <= qtop and 0 <= p1 + p2 + dp <= ptop for q1, p1 in du for q2, p2 in dv)
            ]
        su = 1 if p % 2 == 0 else -1
        for _, label2, v in partners[du] if first is None else [e for e in partners[du] if e[0] >= i]:
            acc: Dict = {}
            for x, a in u.items():
                for y, b in v.items():
                    residual(acc, a * b, su, x, y)
            if any(acc.values()):
                return label1, label2, tables.carrier({k: c for k, c in acc.items() if c})
    return None


def _derivation_witness(elems: Sequence[Tuple], tables: _LabelTables, d: GeneratorOp) -> Optional[Tuple]:
    """The first pair (label1, label2, residual) of elems, a list of
    (label, label vector, degree), on which

        d[u,v] = [du,v] - (-1)^{|u|} [u,dv]

    fails, or None.  The residual is read off bracket entries and the
    label columns of d, and returned as a carrier element.  Run on the
    labels of degree at most 1 alone, it decides every pair when d derives
    the product and the bracket is a biderivation (see the module
    docstring)."""
    entry, column = tables.bracket, tables.operator(d)

    def residual(out: Dict, c, su: int, x: int, y: int) -> None:
        for z, e in entry(x, y).items():
            _add(out, c * e, column(z))
        for w, e in column(x).items():
            _add(out, -c * e, entry(w, y))
        for w, e in column(y).items():
            _add(out, su * c * e, entry(x, w))

    dq, dp = d._bidegree
    return _pair_witness(elems, tables, residual, _ranks(d.parent), (dq, dp - 1), 0 if tables.symmetric[1] else None)


def _generator_witness(elems: Sequence[Tuple], tables: _LabelTables, D: GeneratorOp) -> Optional[Tuple]:
    """The first pair (label1, label2, residual) of elems, a list of
    (label, label vector, degree), on which the generator identity

        [u,v] = (-1)^{|u|} ( D(uv) - (Du)v - (-1)^{|u|} u(Dv) )

    fails, or None.  The residual is read off bracket and product entries
    and the label columns of D, and returned as a carrier element."""
    entry, prod, column = tables.bracket, tables.product, tables.operator(D)

    def residual(out: Dict, c, su: int, x: int, y: int) -> None:
        _add(out, c, entry(x, y))
        for z, e in prod(x, y).items():
            _add(out, -su * c * e, column(z))
        for w, e in column(x).items():
            _add(out, su * c * e, prod(w, y))
        for w, e in column(y).items():
            _add(out, c * e, prod(x, w))

    return _pair_witness(elems, tables, residual, _ranks(D.parent), D._bidegree, 0 if tables.symmetric[1] else None)


def generator_validate(lr: LieRinehart, g: GeneratorOp) -> List[Violation]:
    """Check the generator identity

        [u,v] = (-1)^{|u|} ( D(u^v) - (Du)^v - (-1)^{|u|} u^(Dv) )

    on all rational basis pairs; first witness reported."""
    if g.parent != lr:
        raise ValueError("parent mismatch")
    found = _generator_witness(_label_elems(lr, lr.rank), _flat_tables(lr), g)
    return [] if found is None else [Violation("generator-identity", found[0] + found[1], "")]


def generator_square(g: GeneratorOp) -> Tuple[bool, Optional[Tuple]]:
    """(True, None) when D.D kills every tabulated input, else the first
    witnessing input label, keyed as in the constructor."""
    label = _first_nonzero((label, g.image(g.columns[label])) for label in sorted(g.columns))
    return label is None, label and g._key(label)


def generator_to_connection(lr: LieRinehart, g: GeneratorOp) -> TopConnection:
    """Recover the connection form from the top-degree action: with the
    same sign family, omega_i is the complementary coefficient of D(top).
    Rejects operators that fail the generator identity."""
    bad = generator_validate(lr, g)
    if bad:
        raise ValueError(f"not a generator: {bad[0]}")
    return _connection_form(lr, g)


def _connection_form(lr: LieRinehart, g: GeneratorOp) -> TopConnection:
    """``generator_to_connection`` on an operator already validated."""
    # D(top) = (-1)^n C^{-1}(d 1), and d 1 is the degree-one form omega
    omega = _contract(lr.rank, g.apply(Multivector.top(lr)).terms(), -1 if lr.rank % 2 else 1)
    return TopConnection(lr, [omega.get(((), (i,)), lr.alg.zero()) for i in range(lr.rank)])


def generator_derivation_check(lr: LieRinehart, g: GeneratorOp) -> List[Violation]:
    """For exact generators: D[u,v] = [Du,v] - (-1)^{|u|}[u,Dv] on all
    rational basis pairs."""
    if g.parent != lr:
        raise ValueError("parent mismatch")
    found = _derivation_witness(_label_elems(lr, lr.rank), _flat_tables(lr), g)
    return [] if found is None else [Violation("generator-derivation", found[0] + found[1], "")]
