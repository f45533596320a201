"""Reference implementations the tests compare the library against.

Elements of L as tuples of algebra coefficients, their bracket through
the full Leibniz expansion, the anchor as a dense matrix, and the two
checks that the library now reads off the formal square d.d of
``ce_matrix``: the anchor-morphism loop of ``lr_validate`` and the
flatness loop of ``module_validate``, here on dense products of basis
data.  Also the derivation and generator witnesses of ``gerst`` in their
vector form, and the product rule of an operator on the label tables,
``product_derivation_witness``, each pair's residual a ``_lincomb`` of
whole bracket, product and operator images, and the dense pair loop,
``pair_witness``,
which visits every ordered pair where the library visits only those
whose residual bidegree exists in the carrier, and an unordered one once
where it reads the residual as graded symmetric, with ``pair_residuals``,
the residual of every ordered pair, to test that reading; and the label product
through algebra elements, ``label_product``, which the library reads off
the compiled products of the base, and the label tables keyed by tuple
labels, ``LabelTables``, which the library keys by int codes, its signs
popcounts of bit masks.  And the sign oracles the library replaced by
that one popcount sign and by bit masks: the tuple sort
``sort_with_sign``, the shuffle ``merge_sign``, the product of two
keyed terms ``_merge`` and the element product ``_product``, which
``wedge`` and ``bigraded_product`` now read off the label tables, and
``exterior``, the action of an exterior power by re-sorted tuples.  And
the element recursion of the Schouten
and crossed brackets, ``bracket_terms``, which splits any pair of terms
on elements by the biderivation rules with its own sign conventions,
where the library splits labels only in its label tables.  And the
element loop of the cochain differential, ``ce_differential``, which
evaluates d w one sorted basis tuple at a time with algebra elements,
where the library sums columns of ``ce_matrix``, and the tuple-keyed
build of ``ce_matrix`` and ``ce_columns``, which the library replaced by
a build on bit masks; the element paths of
d', d'' on forms and d'' on multivectors of ``twilled`` and of the
transported differential of ``bialg`` are that loop applied to one
element read as a form.  And the Fraction arithmetic that the library
replaced by compiled int tables: the dense product of structure
constants, the dense derivation image, the algebra and derivation
checks on them, the degree-one Leibniz expansion on algebra elements,
``leibniz``, the action of a basis vector on a module vector,
``act_basis``, the rank by row elimination that
divides by each pivot, ``mat_rank``, and the dense reduced row echelon
form, ``_echelon``, with the kernel and the solve read off it,
``mat_kernel_basis`` and ``mat_solve``.  And the two-form operator route
that ``gerst.GeneratorOp`` replaced: ``ElementOp``, a table from label to
carrier element applied term by term, the generators of connections and
their bigraded extensions built as such tables on the element paths of
the differentials, and ``Columns``, sparse label columns that
``operator`` reads off any map on carrier elements by sending each label
element through it and back.  And the two loops the library shortened:
``ce_ranks``, the rank of every d_q that ``cohomology_dims`` builds, where
the library reads rank d_q = rank d_{n-1-q} off the mirror on unimodular
Lie algebras with trivial coefficients, and ``lr_validate`` with
antisymmetry summed in Fractions and the Jacobi loop that brackets the
inner pairs of every triple afresh.  And the scan of the dense bracket
table that ``_bracket_table`` replaced by a read of the one sparse literal
table: ``bracket_table``, which tests every coefficient of each i < j
entry.  And the dense matrix algebra that the library no longer has,
``from_rows``, ``mul_vec``, ``matmul``, ``add`` and ``scale``, with
``dense`` and ``to_sparse`` between the two matrix types, and the pair
loop of ``connection_curvature``, which the library reads off the
cochain differential as d omega.  None of this is used by the library
itself.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from lierine import lrcore
from lierine.calgebra import AElem, CommAlg, Derivation, _sparse
from lierine.exactla import RatMatrix, SparseMatrix
from lierine.gerst import (
    Multivector,
    TopConnection,
    _basis_multivectors,
    _contract,
    _ZERO,
    _add,
    _atom,
    _element,
    _lincomb,
    _vector,
)
from lierine.lrcore import (
    AltForm,
    LieRinehart,
    LRModule,
    _bracket_vectors,
    basis_forms,
    dual_module,
    exterior_power,
    tensor_line,
)
from lierine.reporting import Violation
from lierine.twilled import AlmostTwilled, Bigraded, bigraded_labels


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
    return AElem(d.alg, mul_vec(d.matrix, a.coeffs))


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


def bracket_table(lr: LieRinehart) -> Tuple[List[int], List[List]]:
    """The (bits, pairs) of ``lrcore._bracket_table``, scanning the dense
    AElem entry of each pair i < j for its nonzero coefficients."""
    alg, dim = lr.alg, lr.alg.dim
    pairs: List[List] = [[] for _ in range(lr.rank)]
    for i, j in combinations(range(lr.rank), 2):
        coeffs = [(k, _sparse(c.coeffs)) for k, c in enumerate(lr.bracket[i][j]) if not c.is_zero()]
        terms = [
            (1 << k, [(t, s, x) for t in range(dim) for s, x in _sparse(alg._times(c, ((t, 1),), [0] * dim))])
            for k, c in coeffs
        ]
        if terms:
            pairs[i].append((1 << j, terms))
    return [1 << i for i in range(lr.rank)], pairs


def mat_rank(m: RatMatrix) -> int:
    """Rank by Fraction row elimination over the nonzeros, shortest rows
    first; each new pivot row is divided by its leading entry."""
    pivots: Dict[int, Dict[int, Fraction]] = {}
    rows = ({j: e for j, e in enumerate(m.row(i)) if e} for i in range(m.rows))
    for row in sorted(filter(None, rows), key=len):
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


def from_rows(row_data: Sequence[Sequence]) -> RatMatrix:
    """The dense matrix with the given rows."""
    cols = len(row_data[0]) if row_data else 0
    if any(len(r) != cols for r in row_data):
        raise ValueError("ragged rows")
    return RatMatrix(len(row_data), cols, [e for r in row_data for e in r])


def dense(m) -> RatMatrix:
    """m as a RatMatrix; the missing entries of a SparseMatrix are 0."""
    if isinstance(m, RatMatrix):
        return m
    return RatMatrix(m.rows, m.cols, [m.entries.get((i, j), 0) for i in range(m.rows) for j in range(m.cols)])


def to_sparse(m: RatMatrix) -> SparseMatrix:
    """m as a SparseMatrix, which keeps only its nonzeros."""
    return SparseMatrix(m.rows, m.cols, {(i, j): m.entry(i, j) for i in range(m.rows) for j in range(m.cols)})


def mul_vec(m, v: Sequence) -> Tuple[Fraction, ...]:
    """m v, summed over every entry of m."""
    m = dense(m)
    if len(v) != m.cols:
        raise ValueError("vector length does not match column count")
    return tuple(sum((m.entry(i, j) * Fraction(v[j]) for j in range(m.cols)), Fraction(0)) for i in range(m.rows))


def matmul(a, b) -> RatMatrix:
    """a b, each entry summed over the inner index."""
    a, b = dense(a), dense(b)
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    return RatMatrix(a.rows, b.cols, [
        sum((a.entry(i, k) * b.entry(k, j) for k in range(a.cols)), Fraction(0))
        for i in range(a.rows) for j in range(b.cols)
    ])


def add(a: RatMatrix, b: RatMatrix, sign: int = 1) -> RatMatrix:
    """a + sign b, entry by entry."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return RatMatrix(a.rows, a.cols, [x + sign * y for x, y in zip(a.entries, b.entries)])


def scale(m: RatMatrix, c) -> RatMatrix:
    """c m, entry by entry."""
    return RatMatrix(m.rows, m.cols, [Fraction(c) * e for e in m.entries])


def mat_kernel_basis(m: RatMatrix) -> List[Tuple[Fraction, ...]]:
    """Basis of the right kernel off the dense echelon form; one vector
    per free column."""
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


def mat_solve(m: RatMatrix, b: Sequence) -> Optional[Tuple[Fraction, ...]]:
    """One exact solution of m x = b off the dense echelon form of the
    augmented matrix, free variables zero, or None when inconsistent."""
    bb = [Fraction(x) for x in b]
    if len(bb) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    if m.rows == 0:
        return tuple([Fraction(0)] * m.cols)
    aug = from_rows([list(m.row(i)) + [bb[i]] for i in range(m.rows)])
    rows, pivots = _echelon(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.cols]
    return tuple(x)


def alt_dim(lr: LieRinehart, module: LRModule, q: int) -> int:
    """The dimension over Q of the degree-q forms."""
    return comb(lr.rank, q) * module.rank * lr.alg.dim


def zero_form(lr: LieRinehart, module: LRModule, degree: int) -> AltForm:
    return AltForm(lr, module, degree, {})


def ce_ranks(lr: LieRinehart, module: LRModule, top: int) -> List[int]:
    """rank d_q for q = 0..top, each d_q built and ranked."""
    return [lrcore.mat_rank(lrcore.ce_matrix(lr, module, q)) for q in range(top + 1)]


def cohomology_dims(lr: LieRinehart, module: LRModule, max_degree: int) -> List[int]:
    """dim H^q = dim Alt^q - rank d_q - rank d_{q-1} off ``ce_ranks``, for
    inputs that ``lrcore.cohomology_dims`` accepts."""
    top = min(max_degree, lr.rank)
    ranks = ce_ranks(lr, module, top)
    dims = [alt_dim(lr, module, q) - ranks[q] - (ranks[q - 1] if q else 0) for q in range(top + 1)]
    return dims + [0] * (max_degree - top)


def lr_validate(lr: LieRinehart) -> List[Violation]:
    """The report of ``lrcore.lr_validate``: antisymmetry summed in
    Fractions, the library's derivation and anchor-morphism entries, and
    Jacobi with [e_j, e_k], [e_i, e_j] and [e_i, e_k] bracketed afresh for
    every triple."""
    n = lr.rank
    out: List[Violation] = []
    for i, j in [(i, i) for i in range(n)] + list(combinations(range(n), 2)):
        if any(x + y for a, b in zip(lr.bracket[i][j], lr.bracket[j][i]) for x, y in zip(a.coeffs, b.coeffs)):
            detail = "[e_i,e_i] != 0" if i == j else "[e_i,e_j] != -[e_j,e_i]"
            out.append(Violation("antisymmetry", (i, j), detail))
            break
    out += [v for v in lrcore.lr_validate(lr) if v.axiom in ("anchor-derivation", "anchor-morphism")]
    e = [{i: lr.alg.unit} for i in range(n)]
    for i, j, k in combinations(range(n), 3):
        jac: Dict[int, List[Fraction]] = {}
        _bracket_vectors(lr, e[i], _bracket_vectors(lr, e[j], e[k]), jac)
        _bracket_vectors(lr, _bracket_vectors(lr, e[i], e[j]), e[k], jac, -1)
        _bracket_vectors(lr, e[j], _bracket_vectors(lr, e[i], e[k]), jac, -1)
        if any(c != 0 for vec in jac.values() for c in vec):
            out.append(Violation("jacobi", (i, j, k), "Jacobi identity fails"))
            break
    return out


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
    m = add(matmul(d1.matrix, d2.matrix), matmul(d2.matrix, d1.matrix), -1)
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
            m = add(m, matmul(mult_matrix(lr.alg, uk), lr.anchor[k].matrix))
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


def act_basis(m: LRModule, i: int, vec: Sequence[AElem]) -> Tuple[AElem, ...]:
    """e_i . (sum b_j f_j) = sum rho(e_i)(b_j) f_j + b_j (e_i . f_j)."""
    out = [m.lr.alg.zero()] * m.rank
    for j, bj in enumerate(vec):
        if bj.is_zero():
            continue
        out[j] = out[j] + m.lr.anchor[i].apply(bj)
        for k, ck in enumerate(m.action[i][j]):
            if not ck.is_zero():
                out[k] = out[k] + bj * ck
    return tuple(out)


def act_lelem(m: LRModule, u: LElem, vec: Sequence[AElem]) -> Tuple[AElem, ...]:
    """(sum a_i e_i) . v = sum a_i (e_i . v)."""
    out = [m.lr.alg.zero()] * m.rank
    for i, ai in enumerate(u.coeffs):
        if ai.is_zero():
            continue
        step = act_basis(m, i, vec)
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
                rhs = act_basis(m, i, act_basis(m, j, f))
                rhs2 = act_basis(m, j, act_basis(m, i, f))
                if any(not (a - (b - c)).is_zero() for a, b, c in zip(lhs, rhs, rhs2)):
                    out.append(Violation("flatness", (i, j, k), "curvature acts nontrivially on f_k"))
                    break
    return out


def bilinear(tables, entry, u, v):
    """An operation of the label tables on codes extended bilinearly to
    label vectors u, v: their codes in, the label vector of the result
    read back through the tables' decoder."""
    u, v = tables.encode(u), tables.encode(v)
    return tables.decode(_lincomb(*[(a * b, entry(x, y)) for x, a in u.items() for y, b in v.items()]))


def derivation_witness(elems, tables, d):
    """The first (label1, label2, residual) of d[u,v] - [du,v] + (-1)^{|u|} [u,dv]
    over pairs of elems, a list of (label, label vector, degree), or None."""
    br = partial(bilinear, tables, tables.bracket)
    images = [d.apply(u) for _, u, _ in elems]
    for a, (label1, u, p) in enumerate(elems):
        su = 1 if p % 2 == 0 else -1
        for b, (label2, v, _) in enumerate(elems):
            residual = _lincomb((1, d.apply(br(u, v))), (-1, br(images[a], v)), (su, br(u, images[b])))
            if residual:
                return label1, label2, tables.carrier(tables.encode(residual))
    return None


def product_derivation_witness(labels, tables, d):
    """The first (x, y, residual) of d(xy) - (dx)y - (-1)^{|x|} x(dy) over
    pairs of labels (t, outer, inner), the product that of the label
    tables and d read off its label columns, or None."""
    prod = partial(bilinear, tables, tables.product)
    image = lambda vec: _lincomb(*[(a, d.column(x)) for x, a in vec.items()])
    for x in labels:
        sx = 1 if (len(x[1]) + len(x[2])) % 2 == 0 else -1
        for y in labels:
            u, v = {x: 1}, {y: 1}
            residual = _lincomb((1, image(prod(u, v))), (-1, prod(d.column(x), v)), (-sx, prod(u, d.column(y))))
            if residual:
                return x, y, residual
    return None


def generator_witness(elems, tables, D):
    """The first (label1, label2, residual) of
    [u,v] - (-1)^{|u|} ( D(uv) - (Du)v - (-1)^{|u|} u(Dv) ) over pairs of elems,
    a list of (label, label vector, degree), or None."""
    br, prod = partial(bilinear, tables, tables.bracket), partial(bilinear, tables, tables.product)
    images = [D.apply(u) for _, u, _ in elems]
    for a, (label1, u, p) in enumerate(elems):
        su = 1 if p % 2 == 0 else -1
        for b, (label2, v, _) in enumerate(elems):
            residual = _lincomb(
                (1, br(u, v)), (-su, D.apply(prod(u, v))), (su, prod(images[a], v)), (1, prod(u, images[b]))
            )
            if residual:
                return label1, label2, tables.carrier(tables.encode(residual))
    return None


def pair_witness(elems, tables, residual):
    """The first pair (label1, label2, residual) of elems, a list of
    (label, label vector, degree), whose residual is nonzero, or None,
    over all ordered pairs: the dense form of ``gerst._pair_witness``,
    which visits only the pairs whose residual bidegree exists.
    residual(out, c, s, x, y) adds c times the residual of the codes x, y
    of the tables to out, with s = (-1)^{|u|} for the first element u."""
    for label1, u, p in elems:
        su = 1 if p % 2 == 0 else -1
        u = tables.encode(u)
        for label2, v, _ in elems:
            v = tables.encode(v)
            acc: Dict = {}
            for x, a in u.items():
                for y, b in v.items():
                    residual(acc, a * b, su, x, y)
            if any(acc.values()):
                return label1, label2, tables.carrier({k: c for k, c in acc.items() if c})
    return None


def pair_residuals(elems, tables, residual):
    """The residual of every ordered pair of elems as in ``pair_witness``,
    keyed by the positions of the two elements, each a code vector with
    zeros dropped: the dense loop without its stop at the first nonzero one."""
    out = {}
    for a, (_, u, p) in enumerate(elems):
        su = 1 if p % 2 == 0 else -1
        for b, (_, v, _) in enumerate(elems):
            acc: Dict = {}
            for x, c in tables.encode(u).items():
                for y, e in tables.encode(v).items():
                    residual(acc, c * e, su, x, y)
            out[(a, b)] = {k: c for k, c in acc.items() if c}
    return out


def sort_with_sign(indices: Sequence[int]) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Sort an index tuple, returning (sorted, sign) or None on a repeat.

    The sign is the parity of the permutation that sorts the sequence,
    which is what evaluating an alternating form on permuted arguments
    picks up.
    """
    items = list(indices)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return None
    return tuple(items), sign


def merge_sign(left: Sequence[int], right: Sequence[int]) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Merge two sorted disjoint index tuples, with the shuffle sign.

    Returns (merged, sign) where sign is the parity of the permutation
    taking the concatenation left+right to sorted order, or None when the
    tuples overlap.  This is the sign of e_left wedge e_right relative to
    the sorted basis monomial.
    """
    if set(left) & set(right):
        return None
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] jumps over the remaining entries of left
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


def _merge(left: Tuple, right: Tuple) -> Optional[Tuple[Tuple, int]]:
    """The key and sign of the product of two terms keyed (outer, inner):
    the merge signs of both slots times (-1)^{p_left q_right}; None when a
    slot overlaps."""
    (ss1, sp1), (ss2, sp2) = left, right
    mo, mi = merge_sign(ss1, ss2), merge_sign(sp1, sp2)
    if mo is None or mi is None:
        return None
    sign = mo[1] * mi[1]
    return (mo[0], mi[0]), sign if (len(sp1) * len(ss2)) % 2 == 0 else -sign


def _product(left: Dict, right: Dict) -> Dict:
    """left . right for term dicts {(outer, inner): coefficient}, each term
    pair signed by ``_merge``: the element product that ``gerst.wedge`` and
    ``twilled.bigraded_product`` read off the label tables."""
    out: Dict = {}
    for k1, a in left.items():
        for k2, b in right.items():
            merged = _merge(k1, k2)
            if merged is None:
                continue
            key, sign = merged
            val = a * b
            cur = out.get(key)
            add = val if sign == 1 else -val
            out[key] = add if cur is None else cur + add
    return out


def exterior(m: LRModule, subsets: List[Tuple[int, ...]]) -> LRModule:
    """The action of a connection on the f_S of the given sorted subsets,
    moving one factor at a time and re-sorting the tuple with
    ``sort_with_sign``: the expansion that ``lrcore._exterior`` replaced by
    a sign read off the bit mask of S."""
    index = {s: pos for pos, s in enumerate(subsets)}
    zero = m.lr.alg.zero()
    table = []
    for row in m.action:
        entries = []
        for s in subsets:
            vec = [zero] * len(subsets)
            for pos, j in enumerate(s):
                for k, c in enumerate(row[j]):
                    if c.is_zero():
                        continue
                    moved = sort_with_sign(s[:pos] + (k,) + s[pos + 1 :])
                    if moved is None:
                        continue
                    t = index[moved[0]]
                    vec[t] = vec[t] + c if moved[1] == 1 else vec[t] - c
            entries.append(vec)
        table.append(entries)
    return LRModule(m.lr, len(subsets), table)


def label_product(tables, x: Tuple, y: Tuple) -> Dict:
    """x y of two labels (t, outer, inner) of the carrier of the label
    tables as a label vector, through the term dicts of the labels, their
    product of algebra elements and the label vector of the result."""
    return _vector(_product(label_element(tables.parent, x).terms(), label_element(tables.parent, y).terms()))


class LabelTables:
    """The bracket and product of the carrier of parent on its Q-basis
    labels (t, outer, inner) as tuples, rows keyed by the left label: the
    label tables that ``gerst._LabelTables`` replaced by one dict of int
    codes, with the same splits, fill order and atom x atom entries, and
    the product signed by ``_merge`` on the tuples."""

    def __init__(self, parent, bracket) -> None:
        self.parent, self.atom_bracket, self.alg = parent, bracket, parent.alg
        self.brackets: Dict = {}
        self.products: Dict = {}
        self.factors: Dict = {}
        self.atoms: Dict = {}

    def _atom(self, label: Tuple):
        u = self.atoms.get(label)
        if u is None:
            u = self.atoms[label] = _element(self.parent, {label[1:]: self.alg.basis(label[0])})
        return u

    def _factors(self, x: Tuple):
        if x not in self.factors:
            t, outer, inner = x
            f, g = ((outer, ()), ((), inner)) if outer else (((), inner[:1]), ((), inner[1:]))
            self.factors[x] = None if _atom(outer, inner) else (
                {(t, *f): 1}, _vector({g: self.alg.one()}), len(f[0] + f[1]), len(g[0] + g[1])
            )
        return self.factors[x]

    def bracket(self, x: Tuple, y: Tuple) -> Dict:
        row = self.brackets.setdefault(x, {})
        entry = row.get(y)
        if entry is None:
            entry = row[y] = self._fill(x, y)
        return entry

    def _fill(self, x: Tuple, y: Tuple) -> Dict:
        out: Dict = {}
        split = self._factors(x)
        if split is not None:
            f, g, df, dg = split
            for z, b in g.items():
                self._times(out, b, f, self.bracket(z, y))
            sign = 1 if (df * dg) % 2 == 0 else -1
            for z, a in f.items():
                self._times(out, sign * a, g, self.bracket(z, y))
        elif self._factors(y) is not None:
            f, g, df, _ = self.factors[y]
            for z, a in f.items():
                self._times(out, a, self.bracket(x, z), g)
            sign = 1 if ((len(x[1]) + len(x[2]) - 1) * df) % 2 == 0 else -1
            for z, b in g.items():
                self._times(out, sign * b, f, self.bracket(x, z))
        else:
            return _vector(self.atom_bracket(self._atom(x), self._atom(y)).terms())
        return {k: c for k, c in out.items() if c} or _ZERO

    def _times(self, out: Dict, c, u: Dict, v: Dict) -> None:
        if u and v:
            for x, a in u.items():
                for y, b in v.items():
                    _add(out, c * a * b, self.product(x, y))

    def product(self, x: Tuple, y: Tuple) -> Dict:
        row = self.products.setdefault(x, {})
        entry = row.get(y)
        if entry is None:
            entry = row[y] = self._multiply(x, y)
        return entry

    def _multiply(self, x: Tuple, y: Tuple) -> Dict:
        merged = _merge(x[1:], y[1:])
        if merged is None:
            return _ZERO
        (outer, inner), sign = merged
        terms = self.alg._products[x[0]][y[0]]
        return {(k, outer, inner): m if sign == 1 else -m for k, m in terms} or _ZERO


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
                total = _signed_sum(total, act_basis(module, xi, vec), i % 2 == 0)
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


def ce_matrix(lr: LieRinehart, module: LRModule, q: int) -> SparseMatrix:
    """The formal cochain differential d_q, rows and columns in
    ``basis_forms`` order, built on sorted index tuples: each row probes
    every pair of its indices in the bracket table, and each term slices
    and joins tuples, finds the place of k by bisection and looks its
    column up by tuple.  The tables are those ``lrcore`` compiled before
    subsets became bit masks, rebuilt on every call: the bracket as
    {(i, j): [(k, mul)]} for i < j and the action as every image of the
    Q-basis of the module, empty ones included."""
    n, dim = lr.rank, lr.alg.dim
    width = module.rank * dim
    basis = [lr.alg.basis(t) for t in range(dim)]
    brackets = {}
    for i, j in combinations(range(n), 2):
        terms = [(k, [_sparse((c * b).coeffs) for b in basis]) for k, c in enumerate(lr.bracket[i][j]) if not c.is_zero()]
        if terms:
            brackets[(i, j)] = terms
    actions = []
    for x in range(n):
        images = []
        for j in range(module.rank):
            for t in range(dim):
                vec = [lr.alg.zero()] * module.rank
                vec[j] = basis[t]
                images.append(_sparse([c for a in act_basis(module, x, vec) for c in a.coeffs]))
        actions.append(images)
    start = {key: pos * width for pos, key in enumerate(combinations(range(n), q))}
    entries: Dict[Tuple[int, int], Fraction] = {}
    for rpos, key in enumerate(combinations(range(n), q + 1)):
        row0 = rpos * width
        for i, x in enumerate(key):
            col0 = start[key[:i] + key[i + 1 :]]
            positive = i % 2 == 0
            for u, image in enumerate(actions[x]):
                for v, c in image:
                    at = (row0 + v, col0 + u)
                    entries[at] = entries.get(at, 0) + (c if positive else -c)
        for a, b in combinations(range(q + 1), 2):
            terms = brackets.get((key[a], key[b]))
            if terms is None:
                continue
            rest = key[:a] + key[a + 1 : b] + key[b + 1 :]
            for k, mul in terms:
                if k in rest:
                    continue
                p = bisect(rest, k)  # k moves past p indices: sign (-1)^p
                positive = (a + b + p) % 2 == 0
                col0 = start[rest[:p] + (k,) + rest[p:]]
                for j in range(0, width, dim):
                    for t, image in enumerate(mul):
                        for s, c in image:
                            at = (row0 + j + s, col0 + j + t)
                            entries[at] = entries.get(at, 0) + (c if positive else -c)
    return SparseMatrix(alt_dim(lr, module, q + 1), alt_dim(lr, module, q), entries)


def ce_columns(lr: LieRinehart, module: LRModule, q: int) -> Dict[Tuple, List[Tuple]]:
    """The columns of ``ce_matrix`` keyed by their ``basis_forms`` label,
    each a list of (row label, value), read off every entry sorted by
    (column, row)."""
    rows, cols = list(basis_forms(lr, module, q + 1)), list(basis_forms(lr, module, q))
    columns: Dict[Tuple, List[Tuple]] = {}
    for (r, c), x in sorted(ce_matrix(lr, module, q).entries.items(), key=lambda entry: entry[0][::-1]):
        columns.setdefault(cols[c], []).append((rows[r], x))
    return columns


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


class Columns:
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


def label_element(parent, label: Tuple):
    """The carrier element of one Q-basis label (t, outer, inner)."""
    return _element(parent, {label[1:]: parent.alg.basis(label[0])})


def operator(parent, op) -> Columns:
    """A rational-linear map on the carrier of parent (a structure or a
    pair) as label columns, each the image of one label element under op,
    turned back into a label vector."""
    return Columns(lambda label: _vector(op(label_element(parent, label)).terms()))


class ElementOp:
    """An operator tabulated on basis labels as carrier elements: (t, subset)
    on the multivectors of a structure, (t, outer, inner) on the bigraded
    carrier of a pair, extended term by term."""

    def __init__(self, parent, table: Dict) -> None:
        self.parent = parent
        self.table = {(t, *map(tuple, keys)): val for (t, *keys), val in table.items()}

    def apply(self, u):
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
        return Bigraded(self.parent, u.qdeg, max(u.pdeg - 1, 0), out)

    def inputs(self):
        return iter(sorted(self.table))


def connection_curvature(lr: LieRinehart, c: TopConnection) -> AltForm:
    """F(e_i, e_j) = e_i(omega_j) - e_j(omega_i) - omega([e_i, e_j]) on the
    line module, one pair i < j at a time with algebra elements."""
    vals: Dict[Tuple[int, ...], Tuple[AElem, ...]] = {}
    for i, j in combinations(range(lr.rank), 2):
        f = lr.anchor[i].apply(c.omega[j]) - lr.anchor[j].apply(c.omega[i])
        for k, ck in enumerate(lr.bracket[i][j]):
            if not ck.is_zero():
                f = f - ck * c.omega[k]
        vals[(i, j)] = (f,)
    return AltForm(lr, c.line_module(), 2, vals)


def generator_terms(n: int, alg: CommAlg, labels, differential) -> Dict:
    """D(u) = (-1)^p C^{-1} d C(u) as a term dict on every label (t, outer,
    inner) of inner degree p, C the contraction with the top."""
    table: Dict = {}
    for t, outer, inner in labels:
        image = differential(_contract(n, {(outer, inner): alg.basis(t)}))
        table[(t, outer, inner)] = _contract(n, image, -1 if (1 + (len(inner) - 1) * n) % 2 else 1)
    return table


def generator_from_connection(lr: LieRinehart, c: TopConnection) -> ElementOp:
    """The generator of a connection as a table of multivectors, the line
    differential run by the element loop ``ce_differential``."""
    line = c.line_module()

    def differential(terms: Dict) -> Dict:
        (((), key), a), = terms.items()
        image = ce_differential(lr, line, AltForm(lr, line, len(key), {key: (a,)}), formal=True)
        return {((), k): vec[0] for k, vec in image.values.items()}

    labels = [(t, (), key) for t, key in _basis_multivectors(lr, lr.rank)]
    table = generator_terms(lr.rank, lr.alg, labels, differential)
    return ElementOp(lr, {(t, key): _element(lr, terms) for (t, _, key), terms in table.items()})


def bigraded_generator_extend(t: AlmostTwilled, omega: Sequence[AElem]) -> ElementOp:
    """The bigraded generator of the connection omega on L' as a table of
    bigraded elements, d' twisted by omega run on the element path."""
    def d(terms: Dict) -> Dict:
        ss, sp = next(iter(terms))
        return dprime_form(t, Bigraded(t, len(ss), len(sp), terms), omega).values

    table = generator_terms(t.lprime.rank, t.alg, bigraded_labels(t), d)
    return ElementOp(t, {
        (ta, ss, sp): Bigraded(t, len(ss), max(len(sp) - 1, 0), terms) for (ta, ss, sp), terms in table.items()
    })
