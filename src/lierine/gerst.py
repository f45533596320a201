"""Exterior algebra over L, the Schouten bracket, and bracket generators.

Multivectors carry algebra coefficients on sorted basis subsets.  The
bracket extends the degree-1 bracket through the biderivation rules

    [u ^ v, w] = u ^ [v, w] + (-1)^{|u||v|} v ^ [u, w]
    [x, u ^ v] = [x, u] ^ v + u ^ [x, v]        (x of degree 1)
    [x, a]     = x(a)
    [a, u]     = (-1)^{|u|} [u, a]

which both terminate the recursion and pin every sign.  Terms are keyed
(outer form slots, inner subset), so the same code gives the crossed
bracket on Alt(L'', Lambda L') of ``twilled``; Lambda L is the case
L'' = 0, where every outer key is empty.  The only recursion is that of
the label tables (``_LabelTables._fill``), which split products down to
atoms (a single vector or a pure form); ``_bracket_terms`` brackets two
atoms.  Generators are degree -1 operators reproducing the bracket
through the defect of the Leibniz rule; they correspond to connections
on the top exterior power via conjugation by the contraction
isomorphism, one loop (``_generator_table``) for Lambda L and the
bigraded carrier.  The per-degree sign s(p) = (-1)^p in that conjugation
is forced by the generator identity; the test suite pins it by rescaling
each degree of a generator's table.

The graded identities are each checked by one loop here, for every
carrier: ``_derivation_witness`` (d[u,v] = [du,v] - (-1)^{|u|}[u,dv]),
``_generator_witness`` (the generator identity) and ``_first_nonzero``
(square-zero and commutator checks).  They serve Lambda L here, the
bigraded carrier Alt(L'', Lambda L') in ``twilled`` and the exterior
algebras of a dual pair in ``bialg``; each caller supplies its basis
labels in its own order, its label tables and its operator.

The checkers are sparse contractions over label tables that live for one
checker call (``_LabelTables``): the bracket and product as structure
constants on the Q-basis labels (t, outer, inner), filled on first use
per label pair, and each operator as sparse label columns read once per
label (``_Columns``): a tabulated generator applied to the label's
element, a cochain differential read off a column that
``lrcore.ce_columns`` keeps.  A pair is read off the pairs of the factors
of its left label or, when that is an atom, of its right label; only atom
x atom pairs call ``schouten_bracket`` or ``crossed_bracket``, and those
two sum the entries of fresh label tables for any pair of non-atoms.
Each pair's residual is summed in one accumulator straight from table
entries and label columns.  Label tables are never kept on the
structures.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .calgebra import AElem, CommAlg
from .exactla import _frac
from .lrcore import (
    AltForm,
    LieRinehart,
    LRModule,
    _bracket_vectors,
    ce_differential,
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


def _terms(u) -> Dict:
    """The terms of a multivector or a bigraded element keyed (outer,
    inner); a multivector's outer keys are empty."""
    if not isinstance(u, Multivector):
        return u.values
    return {((), k): c for k, c in u.values.items()}


def _from_terms(lr: LieRinehart, terms: Dict) -> Multivector:
    return Multivector(lr, {k: c for (_, k), c in terms.items()})


def wedge(u: Multivector, v: Multivector) -> Multivector:
    u._same(v)
    return _from_terms(u.lr, _product(_terms(u), _terms(v)))


def _product(left: Dict, right: Dict) -> Dict:
    """left . right for term dicts {(outer, inner): coefficient}, each term
    pair carrying (-1)^{p_left q_right} times the merge signs."""
    out: Dict = {}
    for (ss1, sp1), a in left.items():
        for (ss2, sp2), b in right.items():
            mo = merge_sign(ss1, ss2)
            if mo is None:
                continue
            mi = merge_sign(sp1, sp2)
            if mi is None:
                continue
            kss, so = mo
            ksp, si = mi
            cross = 1 if (len(sp1) * len(ss2)) % 2 == 0 else -1
            val = a * b
            key = (kss, ksp)
            cur = out.get(key)
            add = val if cross * so * si == 1 else -val
            out[key] = add if cur is None else cur + add
    return out


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


def _bracket(lr: LieRinehart, left: Dict, right: Dict, lie, tables) -> Dict:
    """[left, right] for term dicts: two elements of atoms term by term
    (``_bracket_terms``), any other pair summed from the entries of
    tables(), fresh label tables whose entries split down to atom pairs."""
    if all(_atom(*key) for key in left) and all(_atom(*key) for key in right):
        return _bracket_terms(lr, left, right, lie)
    tables, x, y = tables(), _vector(left), _vector(right)
    return tables.terms(_lincomb(*[(a * b, tables.bracket(k, l)) for k, a in x.items() for l, b in y.items()]))


def schouten_bracket(u: Multivector, v: Multivector) -> Multivector:
    """Bracket on the exterior algebra, rational-bilinear over terms."""
    u._same(v)
    return _from_terms(u.lr, _bracket(u.lr, _terms(u), _terms(v), None, partial(_flat_tables, u.lr)))


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


class _LabelTables:
    """The bracket and product of one carrier on its Q-basis labels
    (t, outer, inner), memoised per label pair (rows keyed by the left
    label) and filled on first use.  Built for one checker call and
    dropped with it.

    Every entry is read off entries of smaller labels (see ``_factors``).  A
    left label x y splits by [x y, v] = x [y, v] + (-1)^{|x||y|} y [x, v];
    an atom u on the left (a single vector or a pure form) splits a right
    label f g by [u, f g] = [u, f] g + (-1)^{(|u|-1)|f|} f [u, g], with the
    sub-entries kept in the row of u: the package's only splits.  Only
    atom x atom pairs call the constructor's ``bracket`` (``schouten_bracket``
    or the crossed bracket, on atoms ``_bracket_terms``).  ``element`` turns
    a term dict back into a carrier element; ``operator`` tabulates a
    rational-linear map as label columns.
    """

    def __init__(self, alg: CommAlg, element, bracket) -> None:
        self.alg, self.element, self.base_bracket = alg, element, bracket
        self.basis = [alg.basis(t) for t in range(alg.dim)]
        self.brackets: Dict = {}
        self.products: Dict = {}
        self.factors: Dict = {}  # label -> its factors (f, g, |f|, |g|) as label vectors, or None

    def _term(self, label: Tuple) -> Dict:
        return {label[1:]: self.basis[label[0]]}

    def label_element(self, label: Tuple):
        """The carrier element of one Q-basis label."""
        return self.element(self._term(label))

    def vector(self, u) -> Dict:
        """The label vector of a carrier element."""
        return _vector(_terms(u))

    def terms(self, vec: Dict) -> Dict:
        """The term dict of a label vector."""
        coeffs: Dict = {}
        for (t, *key), q in vec.items():
            coeffs.setdefault(tuple(key), [0] * len(self.basis))[t] = q
        return {key: self.alg.elem(c) for key, c in coeffs.items()}

    def carrier(self, vec: Dict):
        """The carrier element of a label vector."""
        return self.element(self.terms(vec))

    def _factors(self, x: Tuple):
        """x = f g as (f, g, |f|, |g|), label vectors: the outer form times the
        inner wedge, or the first vector times the rest; None for an atom."""
        if x not in self.factors:
            t, outer, inner = x
            f, g = ((outer, ()), ((), inner)) if outer else (((), inner[:1]), ((), inner[1:]))
            self.factors[x] = None if _atom(outer, inner) else (
                {(t, *f): 1}, _vector({g: self.alg.one()}), len(f[0] + f[1]), len(g[0] + g[1])
            )
        return self.factors[x]

    def bracket(self, x: Tuple, y: Tuple) -> Dict:
        """[x, y] of two labels as a label vector."""
        row = self.brackets.get(x)
        if row is None:
            row = self.brackets[x] = {}
        entry = row.get(y)
        if entry is None:
            entry = row[y] = self._fill(x, y)
        return entry

    def _fill(self, x: Tuple, y: Tuple) -> Dict:
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
            sign = 1 if ((len(x[1]) + len(x[2]) - 1) * df) % 2 == 0 else -1
            for z, b in g.items():
                self._times(out, sign * b, f, self.bracket(x, z))
        else:
            return self.vector(self.base_bracket(self.label_element(x), self.label_element(y)))
        return {k: c for k, c in out.items() if c} or _ZERO

    def _times(self, out: Dict, c, u: Dict, v: Dict) -> None:
        """out += c u v for label vectors u, v."""
        if u and v:
            for x, a in u.items():
                for y, b in v.items():
                    _add(out, c * a * b, self.product(x, y))

    def product(self, x: Tuple, y: Tuple) -> Dict:
        """x y of two labels as a label vector."""
        row = self.products.get(x)
        if row is None:
            row = self.products[x] = {}
        entry = row.get(y)
        if entry is None:
            entry = row[y] = _vector(_product(self._term(x), self._term(y)))
        return entry

    def operator(self, op) -> "_Columns":
        """A rational-linear map on carrier elements as label columns, each
        the image of one label element under op."""
        return _Columns(lambda label: self.vector(op(self.label_element(label))))


class _Columns:
    """A rational-linear operator on a carrier as sparse label columns,
    each read once per label on first use by read(label) -> label vector
    and kept."""

    def __init__(self, read) -> None:
        self.read = read
        self.columns: Dict = {}

    def column(self, label: Tuple) -> Dict:
        col = self.columns.get(label)
        if col is None:
            col = self.columns[label] = self.read(label)
        return col

    def apply(self, vec: Dict) -> Dict:
        return _lincomb(*[(a, self.column(x)) for x, a in vec.items()])


def _flat_tables(lr: LieRinehart) -> _LabelTables:
    """Label tables of Lambda L, whose labels carry an empty outer key."""
    return _LabelTables(lr.alg, partial(_from_terms, lr), schouten_bracket)


def gerstenhaber_validate(lr: LieRinehart, max_degree: int) -> List[Violation]:
    """Graded antisymmetry, odd Leibniz, and graded Jacobi on all rational
    basis multivectors through the degree cap.  One witness per axiom.
    Does not require a valid parent: a corrupted bracket table shows up
    here as a Jacobi witness.
    """
    tables = _flat_tables(lr)
    br, prod = tables.bracket, tables.product
    elems = [((t, k), {(t, (), k): 1}, len(k)) for t, k in _basis_multivectors(lr, max_degree)]

    def antisymmetry(out: Dict, c, _, x: Tuple, y: Tuple) -> None:
        # [x, y] + (-1)^{(|x|-1)(|y|-1)} [y, x]
        _add(out, c, br(x, y))
        _add(out, c if ((len(x[2]) - 1) * (len(y[2]) - 1)) % 2 == 0 else -c, br(y, x))

    def leibniz(u: Tuple, pu: int, out: Dict, c, sv: int, v: Tuple, w: Tuple) -> None:
        # [u, v w] - [u, v] w - (-1)^{(|u|-1)|v|} v [u, w]
        sign = 1 if pu % 2 == 1 else sv
        for z, e in prod(v, w).items():
            _add(out, c * e, br(u, z))
        for z, e in br(u, v).items():
            _add(out, -c * e, prod(z, w))
        for z, e in br(u, w).items():
            _add(out, -sign * c * e, prod(v, z))

    def jacobi(u: Tuple, pu: int, out: Dict, c, sv: int, v: Tuple, w: Tuple) -> None:
        # [u, [v, w]] - [[u, v], w] - (-1)^{(|u|-1)(|v|-1)} [v, [u, w]]
        sign = 1 if pu % 2 == 1 else -sv
        for z, e in br(v, w).items():
            _add(out, c * e, br(u, z))
        for z, e in br(u, v).items():
            _add(out, -c * e, br(z, w))
        for z, e in br(u, w).items():
            _add(out, -sign * c * e, br(v, z))

    found = _pair_witness(elems, tables, antisymmetry)
    if found:
        return [Violation("graded-antisymmetry", found[0] + found[1], "")]
    for axiom, residual in (("odd-leibniz", leibniz), ("graded-jacobi", jacobi)):
        for l1, (u,), pu in elems:
            found = _pair_witness(elems, tables, partial(residual, u, pu))
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
        module = line_with_connection(lr, [lr.alg.zero()] * lr.rank)
    if module.rank != 1:
        raise ValueError("target module must have rank 1")
    vals = {key: (a,) for (_, key), a in _contract(lr.rank, _terms(u)).items()}
    return AltForm(lr, module, lr.rank - (p or 0), vals)


def contraction_inverse(lr: LieRinehart, w: AltForm) -> Multivector:
    """Inverse of the contraction: read each value off the complementary
    subset with the same interleaving sign."""
    if w.lr != lr or w.module.rank != 1:
        raise ValueError("expected a rank-1-valued form on the parent")
    sign = -1 if (w.degree * (lr.rank - w.degree)) % 2 else 1
    return _from_terms(lr, _contract(lr.rank, {((), key): vec[0] for key, vec in w.values.items()}, sign))


class GeneratorOp:
    """Rational-linear operator tabulated on basis labels: (t, subset) on
    the multivectors of a structure, (t, outer, inner) on the bigraded
    carrier of a pair.  Every entry lowers the inner degree by one and
    keeps the outer degree."""

    __slots__ = ("parent", "table")

    def __init__(self, parent, table: Dict) -> None:
        norm: Dict[Tuple, object] = {}
        for (t, *keys), val in table.items():
            label = (t, *map(tuple, keys))
            outer, inner = label[1:] if len(label) == 3 else ((), label[1])
            if (val.lr if isinstance(val, Multivector) else val.t) != parent:
                raise ValueError("table value parent mismatch")
            if any(len(o) != len(outer) or len(i) != len(inner) - 1 for o, i in _terms(val)):
                raise ValueError(f"table entry {label} does not lower the inner degree by 1")
            norm[label] = val
        self.parent = parent
        self.table = norm

    def apply(self, u):
        """The table extended rational-linearly over the terms of u."""
        flat = isinstance(u, Multivector)
        if (u.lr if flat else u.t) != self.parent:
            raise ValueError("parent mismatch")
        out: Dict = {}
        for key, a in u.values.items():
            for t, q in enumerate(a.coeffs):
                entry = self.table.get((t, key) if flat else (t, *key)) if q != 0 else None
                if entry is None:
                    continue
                for k, c in entry.values.items():
                    out[k] = c * q if k not in out else out[k] + c * q
        if flat:
            return Multivector(self.parent, out)
        # a bigraded element: the result sits one inner degree lower
        return type(u)(self.parent, u.qdeg, max(u.pdeg - 1, 0), out)

    def inputs(self) -> Iterator[Tuple]:
        return iter(sorted(self.table))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorOp):
            return NotImplemented
        return self.parent == other.parent and self.table == other.table


def _generator_table(n: int, alg: CommAlg, labels: Iterable[Tuple], differential) -> Dict:
    """D(u) = (-1)^p C^{-1} d C(u) as a term dict on every label (t, outer,
    inner) of inner degree p: C contracts the inner subset with the top
    (``_contract``) and differential(terms) -> terms is the line-twisted
    differential on form terms.  A top form has differential zero, so D
    kills inner degree 0."""
    table: Dict = {}
    for t, outer, inner in labels:
        image = differential(_contract(n, {(outer, inner): alg.basis(t)}))
        # C^{-1} on degree n - p + 1, times (-1)^p: (-1)^{1 + (p-1) n} C
        table[(t, outer, inner)] = _contract(n, image, -1 if (1 + (len(inner) - 1) * n) % 2 else 1)
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
    table = _generator_table(lr.rank, lr.alg, labels, differential)
    return GeneratorOp(lr, {(t, key): _from_terms(lr, terms) for (t, _, key), terms in table.items()})


def _label_elems(lr: LieRinehart) -> List[Tuple]:
    """(label, label vector, degree) for every rational basis label."""
    return [((t, k), {(t, (), k): 1}, len(k)) for t, k in _basis_multivectors(lr, lr.rank)]


def _first_nonzero(images: Iterable[Tuple]) -> Optional[Tuple]:
    """The first label of (label, image vector) pairs whose image is
    nonzero, or None; images after that label are never computed."""
    return next((label for label, image in images if image), None)


def _pair_witness(elems: Sequence[Tuple], tables: _LabelTables, residual) -> Optional[Tuple]:
    """The first pair (label1, label2, residual) of elems, a list of
    (label, label vector, degree), whose residual is nonzero, or None.
    Each pair's residual is summed in one accumulator, bilinearly over
    the terms of its two vectors: residual(out, c, s, x, y) adds c times
    the residual of the labels x, y to out, where s = (-1)^{|u|} for the
    first element u of the pair."""
    for label1, u, p in elems:
        su = 1 if p % 2 == 0 else -1
        for label2, v, _ in elems:
            acc: Dict = {}
            for x, a in u.items():
                for y, b in v.items():
                    residual(acc, a * b, su, x, y)
            if any(acc.values()):
                return label1, label2, tables.carrier({k: c for k, c in acc.items() if c})
    return None


def _derivation_witness(elems: Sequence[Tuple], tables: _LabelTables, d: _Columns) -> Optional[Tuple]:
    """The first pair (label1, label2, residual) of elems, a list of
    (label, label vector, degree), on which

        d[u,v] = [du,v] - (-1)^{|u|} [u,dv]

    fails, or None.  The residual is read off bracket entries and the
    label columns of d, and returned as a carrier element."""
    entry, column = tables.bracket, d.column

    def residual(out: Dict, c, su: int, x: Tuple, y: Tuple) -> None:
        for z, e in entry(x, y).items():
            _add(out, c * e, column(z))
        for w, e in column(x).items():
            _add(out, -c * e, entry(w, y))
        for w, e in column(y).items():
            _add(out, su * c * e, entry(x, w))

    return _pair_witness(elems, tables, residual)


def _generator_witness(elems: Sequence[Tuple], tables: _LabelTables, D: _Columns) -> Optional[Tuple]:
    """The first pair (label1, label2, residual) of elems, a list of
    (label, label vector, degree), on which the generator identity

        [u,v] = (-1)^{|u|} ( D(uv) - (Du)v - (-1)^{|u|} u(Dv) )

    fails, or None.  The residual is read off bracket and product entries
    and the label columns of D, and returned as a carrier element."""
    entry, prod, column = tables.bracket, tables.product, D.column

    def residual(out: Dict, c, su: int, x: Tuple, y: Tuple) -> None:
        _add(out, c, entry(x, y))
        for z, e in prod(x, y).items():
            _add(out, -su * c * e, column(z))
        for w, e in column(x).items():
            _add(out, su * c * e, prod(w, y))
        for w, e in column(y).items():
            _add(out, c * e, prod(x, w))

    return _pair_witness(elems, tables, residual)


def generator_validate(lr: LieRinehart, g: GeneratorOp) -> List[Violation]:
    """Check the generator identity

        [u,v] = (-1)^{|u|} ( D(u^v) - (Du)^v - (-1)^{|u|} u^(Dv) )

    on all rational basis pairs; first witness reported."""
    if g.parent != lr:
        raise ValueError("parent mismatch")
    tables = _flat_tables(lr)
    found = _generator_witness(_label_elems(lr), tables, tables.operator(g.apply))
    return [] if found is None else [Violation("generator-identity", found[0] + found[1], "")]


def generator_square(g: GeneratorOp) -> Tuple[bool, Optional[Tuple[int, Tuple[int, ...]]]]:
    """(True, None) when D.D kills every tabulated input, else the first
    witnessing input label."""
    D = _flat_tables(g.parent).operator(g.apply)
    label = _first_nonzero((lab, D.apply(D.column((lab[0], (), lab[1])))) for lab in g.inputs())
    return label is None, label


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
    omega = _contract(lr.rank, _terms(g.apply(Multivector.top(lr))), -1 if lr.rank % 2 else 1)
    return TopConnection(lr, [omega.get(((), (i,)), lr.alg.zero()) for i in range(lr.rank)])


def generator_derivation_check(lr: LieRinehart, g: GeneratorOp) -> List[Violation]:
    """For exact generators: D[u,v] = [Du,v] - (-1)^{|u|}[u,Dv] on all
    rational basis pairs."""
    tables = _flat_tables(lr)
    found = _derivation_witness(_label_elems(lr), tables, tables.operator(g.apply))
    return [] if found is None else [Violation("generator-derivation", found[0] + found[1], "")]
