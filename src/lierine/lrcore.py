"""Lie-Rinehart algebras over a commutative base, with exact cohomology.

The pair (A, L) consists of a commutative algebra A and a free A-module L
of finite rank carrying an A-valued bracket table and an anchor that sends
each basis vector to a derivation of A.  Brackets and actions of general
elements are expanded through the two defining rules

    (a x)(b)   = a * x(b)
    [x, a y]   = x(a) y + a [x, y]

so a structure is fully determined by its basis tables.  Validation,
module flatness, the differential and cohomology dimensions all reduce
to exact linear algebra on compiled basis tables, in ints when integral.

One builder, ``ce_matrix``, makes the cochain differential.  Each degree
is kept on its coefficient module as label-keyed columns (``ce_columns``),
read by ``ce_differential``, the squares below, ``twilled`` and ``bialg``;
``cohomology_dims`` ranks ``ce_matrix`` directly and keeps nothing.

Two axioms are read off the formal square d.d: the anchor is a bracket
morphism iff d.d = 0 on C^0(L; A), and a connection M is flat iff
d.d = 0 on C^0(L; M).  Antisymmetry and the anchor's derivation
property are read off the literal tables, and Jacobi off the degree-one
Leibniz expansion, because ``ce_matrix`` reads only the i < j half of the
bracket table: a one-sided break can leave d.d = 0 on C^1(L; A).
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .calgebra import AElem, CommAlg, Derivation, _sparse, derivation_validate
from .exactla import SparseMatrix, _exact, _frac, mat_rank
from .reporting import Violation
from .signs import sort_with_sign

# compiled basis tables, integral values as int; see _bracket_table, _degree_one_table and _action_table
Terms = Tuple[Tuple[int, object], ...]
BracketTable = Dict[Tuple[int, int], List[Tuple[int, List[Terms]]]]
DegreeOneTable = Dict[Tuple[int, int], List[List[List[Tuple[int, Tuple]]]]]
ActionTable = List[List[Terms]]


class LieRinehart:
    """Structure-constant presentation of a Lie-Rinehart algebra.

    bracket[i][j] is the coefficient tuple (n AElems) of [e_i, e_j]; the
    table is stored literally, so antisymmetry is a checked axiom, not a
    storage convention.  anchor[i] is the derivation attached to e_i.
    The axiom report, the two compiled tables and the trivial module are
    built on first use and kept on the instance.
    """

    __slots__ = ("alg", "rank", "bracket", "anchor", "_validation", "_brackets", "_ones", "_trivial")

    def __init__(self, alg: CommAlg, rank: int, bracket: Sequence, anchor: Sequence) -> None:
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if len(bracket) != rank:
            raise ValueError("bracket table has wrong outer length")
        rows = []
        for i in range(rank):
            if len(bracket[i]) != rank:
                raise ValueError(f"bracket row {i} has wrong length")
            row = []
            for j in range(rank):
                entry = bracket[i][j]
                if len(entry) != rank:
                    raise ValueError(f"bracket entry ({i},{j}) has wrong length")
                for c in entry:
                    if not isinstance(c, AElem) or c.alg != alg:
                        raise ValueError("bracket coefficients must live in the base algebra")
                row.append(tuple(entry))
            rows.append(tuple(row))
        if len(anchor) != rank:
            raise ValueError("anchor table has wrong length")
        for dv in anchor:
            if not isinstance(dv, Derivation) or dv.alg != alg:
                raise ValueError("anchor entries must be derivations of the base algebra")
        self.alg = alg
        self.rank = rank
        self.bracket = tuple(rows)
        self.anchor = tuple(anchor)
        self._validation: Optional[Tuple[Violation, ...]] = None
        self._brackets: Optional[BracketTable] = None
        self._ones: Optional[DegreeOneTable] = None
        self._trivial: Optional[LRModule] = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LieRinehart):
            return NotImplemented
        return (
            self.alg == other.alg
            and self.rank == other.rank
            and self.bracket == other.bracket
            and self.anchor == other.anchor
        )

    def __hash__(self) -> int:
        return hash((self.alg, self.rank, self.bracket, self.anchor))

    def __repr__(self) -> str:
        return f"LieRinehart(rank={self.rank}, base_dim={self.alg.dim})"


def lr_validate(lr: LieRinehart) -> List[Violation]:
    """Axiom check on basis data: antisymmetry, Jacobi after full Leibniz
    expansion, anchor entries are derivations, anchor is a bracket morphism.

    Antisymmetry and the derivation check read the literal tables, Jacobi
    the degree-one Leibniz expansion.  The anchor-morphism witness is the
    first nonzero row (i, j) of the formal d.d on C^0(L; A), which there is
    [rho(e_i), rho(e_j)] - rho([e_i, e_j]) with [e_i, e_j] read at i < j.
    With every anchor zero, d = 0 on C^0(L; A) and the square is not built.

    One witness per axiom is reported (the first in lexicographic order);
    A-multilinearity of the axioms makes basis tuples sufficient.
    """
    out: List[Violation] = []
    n = lr.rank

    for i, j in [(i, i) for i in range(n)] + list(combinations(range(n), 2)):
        if any(x + y for a, b in zip(lr.bracket[i][j], lr.bracket[j][i]) for x, y in zip(a.coeffs, b.coeffs)):
            detail = "[e_i,e_i] != 0" if i == j else "[e_i,e_j] != -[e_j,e_i]"
            out.append(Violation("antisymmetry", (i, j), detail))
            break

    for i in range(n):
        bad = derivation_validate(lr.alg, lr.anchor[i])
        if bad:
            out.append(Violation("anchor-derivation", (i,), str(bad[0])))
            break

    zero = Derivation.zero(lr.alg)
    if any(rho != zero for rho in lr.anchor):
        rows = [row for _, image in _square(lr, trivial_coefficients(lr), 0) for row in image]
        if rows:
            out.append(Violation("anchor-morphism", min(rows)[0], "rho([e_i,e_j]) != [rho(e_i),rho(e_j)]"))

    e = [{i: tuple(map(_exact, lr.alg.unit))} for i in range(n)]
    for i, j, k in combinations(range(n), 3):
        jac: Dict[int, List[Fraction]] = {}
        _bracket_vectors(lr, e[i], _bracket_vectors(lr, e[j], e[k]), jac)
        _bracket_vectors(lr, _bracket_vectors(lr, e[i], e[j]), e[k], jac, -1)
        _bracket_vectors(lr, e[j], _bracket_vectors(lr, e[i], e[k]), jac, -1)
        if any(c != 0 for vec in jac.values() for c in vec):
            out.append(Violation("jacobi", (i, j, k), "Jacobi identity fails"))
            break

    return out


def lr_violations(lr: LieRinehart) -> List[Violation]:
    """The report of ``lr_validate``, computed once per structure."""
    if lr._validation is None:
        lr._validation = tuple(lr_validate(lr))
    return list(lr._validation)


def require_valid(lr: LieRinehart) -> None:
    """Raise on the first axiom violation."""
    bad = lr_violations(lr)
    if bad:
        raise ValueError(f"structure fails validation: {bad[0]}")


class LRModule:
    """Free module over the base with an action table for the L-basis.

    action[i][j] is the element e_i . f_j as an m-tuple of AElems.  The
    table defines at least a connection; ``module_validate`` decides
    whether it is flat (a genuine module).  The flatness verdict, the
    compiled action table and the columns of each degree of the cochain
    differential (``ce_columns``) are computed on first use and kept.
    """

    __slots__ = ("lr", "rank", "action", "_flat", "_compiled", "_columns")

    def __init__(self, lr: LieRinehart, rank: int, action: Sequence) -> None:
        if rank < 0:
            raise ValueError("module rank must be nonnegative")
        if len(action) != lr.rank:
            raise ValueError("action table has wrong outer length")
        rows = []
        for i in range(lr.rank):
            if len(action[i]) != rank:
                raise ValueError(f"action row {i} has wrong length")
            row = []
            for j in range(rank):
                vec = tuple(action[i][j])
                if len(vec) != rank:
                    raise ValueError(f"action entry ({i},{j}) has wrong length")
                for c in vec:
                    if not isinstance(c, AElem) or c.alg != lr.alg:
                        raise ValueError("action coefficients must live in the base algebra")
                row.append(vec)
            rows.append(tuple(row))
        self.lr = lr
        self.rank = rank
        self.action = tuple(rows)
        self._flat: Optional[bool] = None
        self._compiled: Optional[ActionTable] = None
        self._columns: Dict[int, Dict] = {}

    def zero_vec(self) -> Tuple[AElem, ...]:
        return (self.lr.alg.zero(),) * self.rank

    def act_basis(self, i: int, vec: Sequence[AElem]) -> Tuple[AElem, ...]:
        """e_i . (sum b_j f_j) = sum rho(e_i)(b_j) f_j + b_j (e_i . f_j)."""
        out = [self.lr.alg.zero()] * self.rank
        for j, bj in enumerate(vec):
            if bj.is_zero():
                continue
            out[j] = out[j] + self.lr.anchor[i].apply(bj)
            for k, ck in enumerate(self.action[i][j]):
                if not ck.is_zero():
                    out[k] = out[k] + bj * ck
        return tuple(out)

    def is_flat(self) -> bool:
        if self._flat is None:
            self._flat = not module_validate(self.lr, self)
        return self._flat

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LRModule):
            return NotImplemented
        return self.lr == other.lr and self.rank == other.rank and self.action == other.action

    def __repr__(self) -> str:
        return f"LRModule(rank={self.rank})"


def module_validate(lr: LieRinehart, m: LRModule) -> List[Violation]:
    """Flatness on basis tuples: [e_i,e_j].f_k = e_i.(e_j.f_k) - e_j.(e_i.f_k).

    Read off the formal d.d on C^0(L; M) at the unit-valued columns
    f_k (x) 1, whose rows (i, j) hold the curvature of that pair on f_k.
    One witness per failing pair, with its first k.

    A nonempty report means the table is only a connection.  Requires the
    parent structure to be valid, which also makes basis tuples sufficient.
    """
    if m.lr != lr:
        raise ValueError("parent mismatch")
    unit = lr.alg.unit
    images: Dict[Tuple, Fraction] = {}
    for (_, k, t), image in _square(lr, m, 0):
        for row, x in image.items():
            images[(row, k)] = images.get((row, k), 0) + unit[t] * x
    first: Dict[Tuple[int, ...], int] = {}
    for key, k in sorted((row[0], k) for (row, k), x in images.items() if x != 0):
        first.setdefault(key, k)
    detail = "curvature acts nontrivially on f_k"
    return [Violation("flatness", (*key, k), detail) for key, k in first.items()]


def trivial_coefficients(lr: LieRinehart) -> LRModule:
    """A itself as a rank-1 module: the basis vector is the unit, so the
    action table is zero and the anchor does all the work.  Built once per
    structure and kept on it, with its compiled action table."""
    if lr._trivial is None:
        zero = ((lr.alg.zero(),),)
        lr._trivial = LRModule(lr, 1, tuple(zero for _ in range(lr.rank)))
    return lr._trivial


def dual_module(m: LRModule) -> LRModule:
    """The connection on coordinate forms, (x . phi)(v) = x(phi(v)) - phi(x . v).

    On basis entries the action table transposes with a sign.  Nothing is
    assumed or checked about flatness: the dual of a connection is a
    connection, and the dual of a flat table is flat.
    """
    r = m.rank
    table = [[tuple(-row[k][j] for k in range(r)) for j in range(r)] for row in m.action]
    return LRModule(m.lr, r, table)


def exterior_power(m: LRModule, p: int) -> LRModule:
    """Lambda^p of a connection on the basis f_S = f_S0 ^ .. ^ f_S(p-1), one
    vector per sorted p-subset S in ``combinations`` order:

        x . f_S = sum_pos f_S0 ^ .. ^ (x . f_S(pos)) ^ .. ^ f_S(p-1).

    Lambda^0 is the trivial module and Lambda^1 is m itself.
    """
    subsets = list(combinations(range(m.rank), p))
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


def tensor_line(m: LRModule, omega: Sequence[AElem]) -> LRModule:
    """m tensored with the line whose connection is omega: e_i . f_j gains
    omega(e_i) f_j."""
    table = [
        [tuple(c + omega[i] if j == k else c for k, c in enumerate(vec)) for j, vec in enumerate(row)]
        for i, row in enumerate(m.action)
    ]
    return LRModule(m.lr, m.rank, table)


class AltForm:
    """Alternating form on L with values in a module.

    Degree q; values maps sorted q-index-tuples to coefficient tuples of
    the module.  Missing keys are zero; zero values are dropped so equal
    forms have equal dictionaries.
    """

    __slots__ = ("lr", "module", "degree", "values")

    def __init__(self, lr: LieRinehart, module: LRModule, degree: int, values: Dict) -> None:
        if module.lr != lr:
            raise ValueError("module parent mismatch")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        norm: Dict[Tuple[int, ...], Tuple[AElem, ...]] = {}
        for key, vec in values.items():
            k = tuple(key)
            if len(k) != degree or list(k) != sorted(k) or len(set(k)) != len(k):
                raise ValueError(f"bad subset key {k} for degree {degree}")
            if any(x < 0 or x >= lr.rank for x in k):
                raise ValueError(f"index out of range in key {k}")
            v = tuple(vec)
            if len(v) != module.rank:
                raise ValueError("value has wrong module rank")
            if any(not c.is_zero() for c in v):
                norm[k] = v
        self.lr = lr
        self.module = module
        self.degree = degree
        self.values = norm

    def value(self, key: Tuple[int, ...]) -> Tuple[AElem, ...]:
        return self.values.get(tuple(key), self.module.zero_vec())

    def eval_indices(self, indices: Sequence[int]) -> Tuple[AElem, ...]:
        """Evaluate on a possibly unsorted basis tuple, with sign."""
        ss = sort_with_sign(indices)
        if ss is None:
            return self.module.zero_vec()
        key, sign = ss
        vec = self.value(key)
        if sign == 1:
            return vec
        return tuple(-c for c in vec)

    def add(self, other: "AltForm") -> "AltForm":
        if (self.lr, self.module, self.degree) != (other.lr, other.module, other.degree):
            raise ValueError("form mismatch")
        keys = set(self.values) | set(other.values)
        vals = {
            k: tuple(a + b for a, b in zip(self.value(k), other.value(k))) for k in keys
        }
        return AltForm(self.lr, self.module, self.degree, vals)

    def scale(self, c) -> "AltForm":
        if isinstance(c, AElem):
            vals = {k: tuple(c * x for x in v) for k, v in self.values.items()}
        else:
            cc = _frac(c)
            vals = {k: tuple(cc * x for x in v) for k, v in self.values.items()}
        return AltForm(self.lr, self.module, self.degree, vals)

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AltForm):
            return NotImplemented
        return (
            self.lr == other.lr
            and self.module == other.module
            and self.degree == other.degree
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"AltForm(degree={self.degree}, support={sorted(self.values)})"


def zero_form(lr: LieRinehart, module: LRModule, degree: int) -> AltForm:
    return AltForm(lr, module, degree, {})


def ce_differential(lr: LieRinehart, module: LRModule, w: AltForm, formal: bool = False) -> AltForm:
    """Cochain differential

        (d w)(x_0..x_q) = sum_i (-1)^i x_i . w(..no x_i..)
                        + sum_{i<j} (-1)^{i+j} w([x_i,x_j], ..no x_i, x_j..)

    read off the kept columns of ``ce_columns``: the columns of the Q-basis
    terms of w summed, keys in ``combinations`` order.  With a non-flat
    action table this is only a formal operator and must be requested
    with formal=True.
    """
    if w.lr != lr or w.module != module:
        raise ValueError("parent mismatch")
    columns = ce_columns(lr, module, w.degree, formal)
    sums: Dict[Tuple, Fraction] = {}
    for key, vec in w.values.items():
        for j, c in enumerate(vec):
            for t, x in enumerate(c.coeffs):
                for row, y in columns.get((key, j, t), ()) if x else ():
                    sums[row] = sums.get(row, 0) + x * y
    coeffs: Dict[Tuple[int, ...], List[List[Fraction]]] = {}
    for (key, j, s), x in sorted(sums.items()):
        coeffs.setdefault(key, [[0] * lr.alg.dim for _ in range(module.rank)])[j][s] = x
    return AltForm(lr, module, w.degree + 1, {key: tuple(map(lr.alg.elem, vec)) for key, vec in coeffs.items()})


def basis_forms(lr: LieRinehart, module: LRModule, q: int):
    """Canonical Q-basis of degree-q forms: (subset, module slot, algebra slot)."""
    for key in combinations(range(lr.rank), q):
        for j in range(module.rank):
            for t in range(lr.alg.dim):
                yield key, j, t


def alt_dim(lr: LieRinehart, module: LRModule, q: int) -> int:
    return comb(lr.rank, q) * module.rank * lr.alg.dim


def _bracket_table(lr: LieRinehart) -> BracketTable:
    """[e_i, e_j] for i < j as its nonzero (k, mul) terms, k ascending, where
    mul[t] lists the nonzero (s, c) of the product of the e_k coefficient
    with algebra basis a_t; compiled on first use for ``ce_matrix`` and
    kept on the structure."""
    if lr._brackets is None:
        basis = [lr.alg.basis(t) for t in range(lr.alg.dim)]
        brackets = {}
        for i in range(lr.rank):
            for j in range(i + 1, lr.rank):
                terms = [
                    (k, [_sparse((c * b).coeffs) for b in basis])
                    for k, c in enumerate(lr.bracket[i][j])
                    if not c.is_zero()
                ]
                if terms:
                    brackets[(i, j)] = terms
        lr._brackets = brackets
    return lr._brackets


def _degree_one_table(lr: LieRinehart) -> DegreeOneTable:
    """The full Leibniz expansion on the Q-basis: ones[(i, j)][s][t] lists the
    nonzero (k, coefficients) of [a_s e_i, a_t e_j] for every ordered pair,
    read off the literal table so antisymmetry is not assumed; compiled on
    first use for ``_bracket_vectors`` and kept on the structure."""
    if lr._ones is None:
        dim = lr.alg.dim
        lr._ones = {}
        for i, j in product(range(lr.rank), repeat=2):
            terms = [(k, _sparse(c.coeffs)) for k, c in enumerate(lr.bracket[i][j]) if not c.is_zero()]
            lr._ones[(i, j)] = [[_leibniz(lr, i, s, j, t, terms) for t in range(dim)] for s in range(dim)]
    return lr._ones


def _leibniz(lr: LieRinehart, i: int, s: int, j: int, t: int, terms: List) -> List[Tuple[int, Tuple]]:
    """[a_s e_i, a_t e_j] = a_s a_t [e_i, e_j] + a_s rho(e_i)(a_t) e_j - a_t rho(e_j)(a_s) e_i,
    with [e_i, e_j] as its nonzero (k, terms), from the compiled products
    and anchor columns of the base."""
    alg = lr.alg
    out = {k: alg._times(alg._products[s][t], c, [0] * alg.dim) for k, c in terms}
    for k, x, rho, y, sign in ((j, s, lr.anchor[i], t, 1), (i, t, lr.anchor[j], s, -1)):
        alg._times(((x, sign),), rho._columns[y], out.setdefault(k, [0] * alg.dim))
    return [(k, tuple(map(_exact, vec))) for k, vec in sorted(out.items()) if any(vec)]


def _bracket_vectors(
    lr: LieRinehart, u: Dict, v: Dict, out: Optional[Dict] = None, sign: int = 1
) -> Dict[int, List[Fraction]]:
    """out += sign [u, v] for elements given as {basis index: coefficient
    vector}, summed Q-bilinearly from the compiled degree-one table."""
    ones = _degree_one_table(lr)
    if out is None:
        out = {}
    for i, x in u.items():
        for j, y in v.items():
            rows = ones[(i, j)]
            for s, xs in enumerate(x):
                if xs == 0:
                    continue
                for t, yt in enumerate(y):
                    if yt == 0:
                        continue
                    w = xs * yt if sign == 1 else -xs * yt
                    for k, vec in rows[s][t]:
                        acc = out.get(k)
                        if acc is None:
                            out[k] = [w * c for c in vec]
                        else:
                            for r, c in enumerate(vec):
                                acc[r] += w * c
    return out


def _action_table(m: LRModule) -> ActionTable:
    """e_x . (a_t f_j), anchor and action together, on the Q-basis of the
    module: table[x][j * dim + t] lists the nonzero (k * dim + s, c).
    Compiled once per module."""
    if m._compiled is None:
        alg = m.lr.alg
        table = []
        for x in range(m.lr.rank):
            images = []
            for j in range(m.rank):
                for t in range(alg.dim):
                    vec = [alg.zero()] * m.rank
                    vec[j] = alg.basis(t)
                    coords = [c for a in m.act_basis(x, vec) for c in a.coeffs]
                    images.append(_sparse(coords))
            table.append(images)
        m._compiled = table
    return m._compiled


def ce_matrix(lr: LieRinehart, module: LRModule, q: int, formal: bool = False) -> SparseMatrix:
    """Matrix of the cochain differential d: Alt^q -> Alt^{q+1}, rows and
    columns in ``basis_forms`` order, built from the compiled tables.

    Row (key, j, s) collects the terms of the differential at the sorted
    tuple key: each x_i . w(..no x_i..) through the action table and each
    w([x_i,x_j], ..) through the bracket table.  A non-flat action table
    needs formal=True.
    """
    if module.lr != lr:
        raise ValueError("module parent mismatch")
    if not formal and not module.is_flat():
        raise ValueError("action table is not flat; pass formal=True for the formal operator")
    n, dim = lr.rank, lr.alg.dim
    width = module.rank * dim
    start = {key: pos * width for pos, key in enumerate(combinations(range(n), q))}
    actions = _action_table(module)
    brackets = _bracket_table(lr)
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


def ce_columns(lr: LieRinehart, module: LRModule, q: int, formal: bool = False) -> Dict[Tuple, List[Tuple]]:
    """The nonzero columns of ``ce_matrix`` d_q, keyed by their
    ``basis_forms`` label (key, slot, t), each a list of (row label, value)
    with rows ascending and integral values kept as int.  Built once per
    module and degree and kept on the module; formal only gates the
    flatness check, as in ``ce_matrix``."""
    if module.lr != lr:
        raise ValueError("module parent mismatch")
    if not formal and not module.is_flat():
        raise ValueError("action table is not flat; pass formal=True for the formal operator")
    columns = module._columns.get(q)
    if columns is None:
        d = ce_matrix(lr, module, q, formal=True)
        rows, cols = list(basis_forms(lr, module, q + 1)), list(basis_forms(lr, module, q))
        columns = {}
        for (r, c), x in sorted(d.entries.items(), key=lambda entry: entry[0][::-1]):
            columns.setdefault(cols[c], []).append((rows[r], x))
        module._columns[q] = columns
    return columns


def _square(lr: LieRinehart, module: LRModule, q: int) -> Iterator[Tuple[Tuple, Dict[Tuple, Fraction]]]:
    """The nonzero columns of the formal square d_{q+1} d_q, labels
    ascending, each as {row label: value}: the kept columns of degree q
    contracted with those of degree q + 1."""
    upper = ce_columns(lr, module, q + 1, formal=True)
    for col, image in ce_columns(lr, module, q, formal=True).items():
        acc: Dict[Tuple, Fraction] = {}
        for mid, x in image:
            for row, y in upper.get(mid, ()):
                acc[row] = acc.get(row, 0) + x * y
        acc = {row: x for row, x in acc.items() if x}
        if acc:
            yield col, acc


def ce_square_witness(lr: LieRinehart, module: LRModule, max_degree: Optional[int] = None):
    """First basis form, as (q, key, j, t) in ``basis_forms`` order, whose
    image under d.d is nonzero, or None.

    Works formally, so it is the tool for detecting curvature through the
    failure of d^2 = 0.  At q = 0 it is the square that ``lr_validate``
    reads on A and ``module_validate`` reads on M.
    """
    top = lr.rank if max_degree is None else min(max_degree, lr.rank)
    for q in range(top + 1):
        for col, _ in _square(lr, module, q):
            return (q, *col)
    return None


def cohomology_dims(lr: LieRinehart, module: LRModule, max_degree: int) -> List[int]:
    """dim H^q for q = 0..max_degree via exact rank computations:

        dim H^q = dim ker d_q - rank d_{q-1}
                = dim Alt^q - rank d_q - rank d_{q-1}.
    """
    require_valid(lr)
    if not module.is_flat():
        raise ValueError("coefficients are not flat; cohomology undefined")
    top = min(max_degree, lr.rank)
    ranks = [mat_rank(ce_matrix(lr, module, q)) for q in range(top + 1)]
    dims = []
    for q in range(top + 1):
        below = ranks[q - 1] if q > 0 else 0
        dims.append(alt_dim(lr, module, q) - ranks[q] - below)
    dims.extend(0 for _ in range(max_degree - top))
    return dims
