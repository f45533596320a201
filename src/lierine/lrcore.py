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

One builder loop, ``_build``, makes the cochain differential on given
bit-mask subsets from bracket and action tables compiled off the products
and anchor columns of the base: ``ce_matrix`` on all, which each module
keeps per degree as label-keyed columns (``ce_columns``) for the squares,
``twilled`` and ``bialg``, and ``cohomology_dims`` on those of weight 0.
Exterior powers of a module act on bit-mask subsets too: moving one
factor f_j to f_k is signed by the parity of the factors strictly between
j and k.  The product sign of exterior elements is ``gerst._product_sign``.

The anchor is a bracket morphism iff d.d = 0 on C^0(L; A), and M is flat
iff d.d = 0 on C^0(L; M).  The other axioms read the one sparse literal
table (``_literal_table``): antisymmetry compares its two sides, Jacobi
expands it in degree one, since ``_build`` reads only its i < j half and
a one-sided break can leave d.d = 0 on C^1(L; A); the anchor's derivation
property is read off its columns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .calgebra import AElem, CommAlg, Derivation, _sparse, derivation_validate
from .exactla import SparseMatrix, _exact, _frac, mat_rank
from .reporting import Violation

# compiled basis tables, integral values as int; see _literal_table, _bracket_table, _degree_one_table and _action_table
Terms = Tuple[Tuple[int, object], ...]
BracketTable = Tuple[List[int], List[List[Tuple[int, List[Tuple[int, List[Tuple[int, int, object]]]]]]]]
ActionTable = List[Dict[int, Terms]]


class LieRinehart:
    """Structure-constant presentation of a Lie-Rinehart algebra.

    bracket[i][j] is the coefficient tuple (n AElems) of [e_i, e_j]; the
    table is stored literally, so antisymmetry is a checked axiom, not a
    storage convention.  anchor[i] is the derivation attached to e_i.
    The axiom report, the sparse literal table, the tables compiled off it
    and the trivial module are built on first use and kept on the instance.
    """

    __slots__ = ("alg", "rank", "bracket", "anchor", "_validation", "_literal", "_brackets", "_ones", "_trivial")

    def __init__(self, alg: CommAlg, rank: int, bracket: Sequence, anchor: Sequence) -> None:
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if len(bracket) != rank:
            raise ValueError("bracket table has wrong outer length")
        rows = []
        for i in range(rank):
            if len(bracket[i]) != rank:
                raise ValueError(f"bracket row {i} has wrong length")
            rows.append(tuple(map(tuple, bracket[i])))
            for j, entry in enumerate(rows[-1]):
                if len(entry) != rank:
                    raise ValueError(f"bracket entry ({i},{j}) has wrong length")
                for c in entry:
                    if not isinstance(c, AElem) or c.alg != alg:
                        raise ValueError("bracket coefficients must live in the base algebra")
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
        self._literal: Optional[List[List[Tuple]]] = None
        self._brackets: Optional[BracketTable] = None
        self._ones: Optional[_DegreeOneTable] = None
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

    Antisymmetry compares the sides of ``_literal_table``, Jacobi reads its
    degree-one Leibniz expansion.  The anchor-morphism witness is the
    first nonzero row (i, j) of the formal d.d on C^0(L; A), which there is
    [rho(e_i), rho(e_j)] - rho([e_i, e_j]) with [e_i, e_j] read at i < j.
    With every anchor zero, d = 0 on C^0(L; A) and the square is not built.

    One witness per axiom is reported (the first in lexicographic order);
    A-multilinearity of the axioms makes basis tuples sufficient.
    """
    out: List[Violation] = []
    n, bad = lr.rank, _antisymmetry_witness(lr)
    if bad:
        out.append(Violation("antisymmetry", bad, "[e_i,e_i] != 0" if bad[0] == bad[1] else "[e_i,e_j] != -[e_j,e_i]"))

    for i in range(n):
        bad = derivation_validate(lr.alg, lr.anchor[i])
        if bad:
            out.append(Violation("anchor-derivation", (i,), str(bad[0])))
            break

    if any(any(rho._columns) for rho in lr.anchor):
        rows = [row for _, image in _square(lr, trivial_coefficients(lr), 0) for row in image]
        if rows:
            out.append(Violation("anchor-morphism", min(rows)[0], "rho([e_i,e_j]) != [rho(e_i),rho(e_j)]"))

    e = [{i: tuple(map(_exact, lr.alg.unit))} for i in range(n)]
    # each [e_i, e_j] once, and only when there is a triple to read it
    inner = {(i, j): _bracket_vectors(lr, e[i], e[j]) for i, j in combinations(range(n), 2) if n > 2}
    for i, j, k in combinations(range(n), 3):
        jac: Dict[int, List[Fraction]] = {}
        _bracket_vectors(lr, e[i], inner[(j, k)], jac)
        _bracket_vectors(lr, inner[(i, j)], e[k], jac, -1)
        _bracket_vectors(lr, e[j], inner[(i, k)], jac, -1)
        if any(c != 0 for vec in jac.values() for c in vec):
            out.append(Violation("jacobi", (i, j, k), "Jacobi identity fails"))
            break

    return out


def _antisymmetry_witness(lr: LieRinehart) -> Optional[Tuple[int, int]]:
    """The first (i, i), then i < j, whose literal [e_i, e_j] is not -[e_j, e_i] (x = -x only at 0), or None."""
    t, pairs = _literal_table(lr), [(i, i) for i in range(lr.rank)] + list(combinations(range(lr.rank), 2))
    return next(((i, j) for i, j in pairs if t[i][j] != tuple((k, tuple((s, -x) for s, x in c)) for k, c in t[j][i])), None)


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

    action[i][j] is the element e_i . f_j as an m-tuple of AElems; e_i acts
    on b f_j by rho(e_i)(b) f_j + b (e_i . f_j).  The table defines at
    least a connection; ``module_validate`` decides whether it is flat (a
    genuine module).  The flatness verdict, the action table compiled on
    the Q-basis (``_action_table``) and the columns of each degree of the
    cochain differential (``ce_columns``) are computed on first use and kept.
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
            rows.append(tuple(map(tuple, action[i])))
            for j, vec in enumerate(rows[-1]):
                if len(vec) != rank:
                    raise ValueError(f"action entry ({i},{j}) has wrong length")
                for c in vec:
                    if not isinstance(c, AElem) or c.alg != lr.alg:
                        raise ValueError("action coefficients must live in the base algebra")
        self.lr = lr
        self.rank = rank
        self.action = tuple(rows)
        self._flat: Optional[bool] = None
        self._compiled: Optional[ActionTable] = None
        self._columns: Dict[int, Dict] = {}

    def zero_vec(self) -> Tuple[AElem, ...]:
        return (self.lr.alg.zero(),) * self.rank

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
    table = [[tuple(-c if any(c.coeffs) else c for c in col) for col in zip(*row)] for row in m.action]
    return LRModule(m.lr, m.rank, table)


def exterior_power(m: LRModule, p: int) -> LRModule:
    """Lambda^p of a connection on the basis f_S = f_S0 ^ .. ^ f_S(p-1), one
    vector per sorted p-subset S in ``combinations`` order:

        x . f_S = sum_pos f_S0 ^ .. ^ (x . f_S(pos)) ^ .. ^ f_S(p-1).

    Lambda^0 is the trivial module and Lambda^1 is m itself.
    """
    return _exterior(m, list(combinations(range(m.rank), p)))


def exterior_algebra(m: LRModule) -> LRModule:
    """Lambda of a connection, the sum of its exterior powers, on one f_S
    per subset S in ``_subsets`` order."""
    return _exterior(m, _subsets(m.rank)[0])


@lru_cache(maxsize=None)
def _subsets(rank: int) -> Tuple[List[Tuple[int, ...]], Dict[Tuple[int, ...], int]]:
    """The sorted subsets of range(rank) by size, in ``combinations`` order
    within a size, and their positions."""
    out = [s for p in range(rank + 1) for s in combinations(range(rank), p)]
    return out, {s: pos for pos, s in enumerate(out)}


def _exterior(m: LRModule, subsets: List[Tuple[int, ...]]) -> LRModule:
    """The action of ``exterior_power`` on the f_S of the given subsets,
    keyed by bit mask: moving f_j to f_k in f_S passes the factors of S
    strictly between j and k."""
    masks = [sum(1 << i for i in s) for s in subsets]
    index = {mask: pos for pos, mask in enumerate(masks)}
    zero = m.lr.alg.zero()
    table = []
    for row in m.action:
        entries = []
        for s, mask in zip(subsets, masks):
            vec = [zero] * len(subsets)
            for j in s:
                rest = mask ^ 1 << j
                for k, c in enumerate(row[j]):
                    if c.is_zero() or rest >> k & 1:
                        continue
                    lo, hi = sorted((j, k))
                    t = index[rest | 1 << k]
                    between = rest & (1 << hi) - 1 & ~((2 << lo) - 1)
                    vec[t] = vec[t] - c if between.bit_count() % 2 else vec[t] + c
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


def _literal_table(lr: LieRinehart) -> List[List[Tuple]]:
    """[i][j]: the nonzero (k, coefficients) of the literal [e_i, e_j], each ordered pair; compiled once, kept."""
    if lr._literal is None:
        lr._literal = [[tuple((k, _sparse(c.coeffs)) for k, c in enumerate(entry) if any(c.coeffs)) for entry in row]
                       for row in lr.bracket]
    return lr._literal


def _bracket_table(lr: LieRinehart) -> BracketTable:
    """(bits, pairs): bits[i] = 1 << i, and pairs[i] lists (1 << j, terms) for
    each j > i with [e_i, e_j] != 0, j ascending; terms are its nonzero
    (1 << k, products), products the nonzero (t, s, c) where a_t times the
    e_k coefficient has c at a_s, read off ``_literal_table`` and the base
    products.  Compiled on first use for ``_build`` and ``_weights``, kept."""
    if lr._brackets is None:
        alg, dim, literal = lr.alg, lr.alg.dim, _literal_table(lr)
        pairs: List[List] = [[] for _ in range(lr.rank)]
        for i, j in combinations(range(lr.rank), 2):
            terms = [
                (1 << k, [(t, s, x) for t in range(dim) for s, x in _sparse(alg._times(c, ((t, 1),), [0] * dim))])
                for k, c in literal[i][j]
            ]
            if terms:
                pairs[i].append((1 << j, terms))
        lr._brackets = ([1 << i for i in range(lr.rank)], pairs)
    return lr._brackets


class _DegreeOneTable(dict):
    """The full Leibniz expansion on the Q-basis: ones[(i, j, s, t)] lists the
    nonzero (k, coefficients) of [a_s e_i, a_t e_j] for any ordered pair,
    read off ``_literal_table`` so antisymmetry is not assumed; each entry
    is compiled on its first read and kept."""

    __slots__ = ("lr",)

    def __init__(self, lr: LieRinehart) -> None:
        super().__init__()
        self.lr = lr

    def __missing__(self, key: Tuple[int, int, int, int]) -> List[Tuple[int, Tuple]]:
        i, j, s, t = key
        return self.setdefault(key, _leibniz(self.lr, i, s, j, t, _literal_table(self.lr)[i][j]))


def _degree_one_table(lr: LieRinehart) -> _DegreeOneTable:
    """The degree-one table of ``_bracket_vectors``, kept on the structure."""
    if lr._ones is None:
        lr._ones = _DegreeOneTable(lr)
    return lr._ones


def _leibniz(lr: LieRinehart, i: int, s: int, j: int, t: int, terms: Sequence) -> List[Tuple[int, Tuple]]:
    """[a_s e_i, a_t e_j] = a_s a_t [e_i, e_j] + a_s rho(e_i)(a_t) e_j - a_t rho(e_j)(a_s) e_i,
    with [e_i, e_j] as its nonzero (k, terms), from the compiled products
    and anchor columns of the base."""
    alg = lr.alg
    out = {k: alg._times(alg._products[s][t], c, [0] * alg.dim) for k, c in terms}
    for k, x, column, sign in ((j, s, lr.anchor[i]._columns[t], 1), (i, t, lr.anchor[j]._columns[s], -1)):
        if column:
            alg._times(((x, sign),), column, out.setdefault(k, [0] * alg.dim))
    return [(k, tuple(map(_exact, vec))) for k, vec in sorted(out.items()) if any(vec)]


def _bracket_vectors(
    lr: LieRinehart, u: Dict, v: Dict, out: Optional[Dict] = None, sign: int = 1
) -> Dict[int, List[Fraction]]:
    """out += sign [u, v] for elements given as {basis index: coefficient
    vector}, summed Q-bilinearly from the compiled degree-one table."""
    ones, out = _degree_one_table(lr), {} if out is None else out
    for i, x in u.items():
        for j, y in v.items():
            for s, xs in enumerate(x):
                if xs == 0:
                    continue
                for t, yt in enumerate(y):
                    if yt == 0:
                        continue
                    w = xs * yt if sign == 1 else -xs * yt
                    for k, vec in ones[(i, j, s, t)]:
                        acc = out.get(k)
                        if acc is None:
                            out[k] = [w * c for c in vec]
                        else:
                            for r, c in enumerate(vec):
                                acc[r] += w * c
    return out


def _action_table(m: LRModule) -> ActionTable:
    """e_x . (a_t f_j) = rho(e_x)(a_t) f_j + sum_k (a_t c_k) f_k, c_k the f_k
    coefficient of e_x . f_j, on the Q-basis of the module: table[x] maps
    each u = j * dim + t whose image is nonzero to its nonzero
    (k * dim + s, c), u ascending.  Read off the anchor columns and compiled
    products of the base, integral values as int; compiled once per module."""
    if m._compiled is None:
        alg, dim = m.lr.alg, m.lr.alg.dim
        table = []
        for x, row in enumerate(m.action):
            images = {}
            for j, coeffs in enumerate(row):
                terms = [(k, _sparse(c.coeffs)) for k, c in enumerate(coeffs) if any(c.coeffs)]
                for t in range(dim):
                    slots = {k: alg._times(((t, 1),), c, [0] * dim) for k, c in terms}
                    m.lr.anchor[x]._image(((t, 1),), slots.setdefault(j, [0] * dim))
                    image = tuple((k * dim + s, c) for k, vec in sorted(slots.items()) for s, c in _sparse(vec))
                    if image:
                        images[j * dim + t] = image
            table.append(images)
        m._compiled = table
    return m._compiled


def ce_matrix(lr: LieRinehart, module: LRModule, q: int, formal: bool = False) -> SparseMatrix:
    """Matrix of the cochain differential d: Alt^q -> Alt^{q+1}, rows and
    columns in ``basis_forms`` order, entries row by row, rows ascending.
    A non-flat action table needs formal=True."""
    if module.lr != lr:
        raise ValueError("module parent mismatch")
    if q < 0:
        raise ValueError(f"the form degree must be at least 0, got {q}")
    if not formal and not module.is_flat():
        raise ValueError("action table is not flat; pass formal=True for the formal operator")
    bits = _bracket_table(lr)[0]
    return _build(lr, module, combinations(bits, q + 1), comb(lr.rank, q + 1), combinations(bits, q))


def _build(lr: LieRinehart, module: LRModule, keys: Iterable, size: int, cols: Iterable) -> SparseMatrix:
    """d from the forms on the subsets cols to those on the size subsets
    keys, each a tuple of ascending index bits whose sum is its mask, so a
    sign is a popcount.  Row (key, j, s) collects each x_i . w(..no x_i..)
    from the action images and each w([x_i,x_j], ..) from the bracket
    partners j > i of x_i in the row's mask."""
    dim, width = lr.alg.dim, module.rank * lr.alg.dim
    pairs, actions = _bracket_table(lr)[1], _action_table(module)
    start = {sum(c): pos * width for pos, c in enumerate(cols)}
    rows: List[Dict[int, Fraction]] = [{} for _ in range(size * width)]
    row0 = -width
    for key in keys:
        row0 += width
        mask = sum(key)
        for a, bx in enumerate(key):
            x = bx.bit_length() - 1
            col0 = start[mask ^ bx] if actions[x] else 0  # mask ^ bx may be off weight 0 without actions
            positive = a % 2 == 0
            for u, image in actions[x].items():
                for v, c in image:
                    out, col = rows[row0 + v], col0 + u
                    out[col] = out.get(col, 0) + (c if positive else -c)
            for bj, terms in pairs[x]:
                if not mask & bj:
                    continue
                rest = mask ^ bx ^ bj
                ab = a + (mask & (bj - 1)).bit_count()  # x_j is at place b of the row
                for bk, products in terms:
                    if rest & bk:
                        continue
                    # k moves past p = |rest below k| indices: sign (-1)^(a+b+p)
                    positive = (ab + (rest & (bk - 1)).bit_count()) % 2 == 0
                    col0 = start[rest | bk]
                    for j in range(0, width, dim):
                        for t, s, c in products:
                            out, col = rows[row0 + j + s], col0 + j + t
                            out[col] = out.get(col, 0) + (c if positive else -c)
    entries = {(r, col): c for r, out in enumerate(rows) if out for col, c in out.items()}
    return SparseMatrix(len(rows), len(start) * width, entries)


def ce_columns(lr: LieRinehart, module: LRModule, q: int, formal: bool = False) -> Dict[Tuple, List[Tuple]]:
    """The nonzero columns of ``ce_matrix`` d_q, keyed by their
    ``basis_forms`` label (key, slot, t), keys ascending, each a list of
    (row label, value) with rows ascending and integral values kept as
    int.  Built once per module and degree and kept on the module; formal
    only gates the flatness check, as in ``ce_matrix``."""
    if module.lr != lr:
        raise ValueError("module parent mismatch")
    if not formal and not module.is_flat():
        raise ValueError("action table is not flat; pass formal=True for the formal operator")
    columns = module._columns.get(q)
    if columns is None:
        d = ce_matrix(lr, module, q, formal=True)
        rows, cols = list(basis_forms(lr, module, q + 1)), list(basis_forms(lr, module, q))
        groups: Dict[int, List[Tuple]] = {}
        for (r, c), x in d.entries.items():
            groups.setdefault(c, []).append((rows[r], x))
        columns = module._columns[q] = {cols[c]: groups[c] for c in sorted(groups)}
    return columns


def _square(lr: LieRinehart, module: LRModule, q: int) -> Iterator[Tuple[Tuple, Dict[Tuple, Fraction]]]:
    """The nonzero columns of the formal square d_{q+1} d_q, labels
    ascending, each as {row label: value}: the kept columns of degree q
    contracted with those of degree q + 1, built at the first of them."""
    upper = None
    for col, image in ce_columns(lr, module, q, formal=True).items():
        if upper is None:
            upper = ce_columns(lr, module, q + 1, formal=True)
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
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"the degree cap must be at least 0, got {max_degree}")
    top = lr.rank if max_degree is None else min(max_degree, lr.rank)
    for q in range(top + 1):
        for col, _ in _square(lr, module, q):
            return (q, *col)
    return None


def _weights(lr: LieRinehart, module: LRModule) -> Tuple[bool, Dict[int, int]]:
    """For a Lie algebra over Q with trivial coefficients (base dimension 1,
    a zero action on a rank-1 module, zero anchors): whether every tr ad e_i
    is 0, and {1 << j: w_j}, w_j packing the weights l_hj of e_j under each
    diagonal ad e_h != 0, [e_h, e_j] = l_hj e_j: row l_h in integers is one
    digit in base 2M + 1, M >= sum_j |l_hj|, so a packed sum is 0 exactly
    when each weight is.  (False, {}) for any other input."""
    n, over_q = lr.rank, lr.alg.dim == module.rank == 1 and not any(any(rho._columns) for rho in lr.anchor)
    if not over_q or any(c.coeffs[0] for row in module.action for (c,) in row):
        return False, {}
    weight, off = [[0] * n for _ in range(n)], set()  # weight[h][x]: e_x in [e_h, e_x]
    for i, row in enumerate(_bracket_table(lr)[1]):
        for bj, terms in row:
            j = bj.bit_length() - 1
            for bk, ((_, _, c),) in terms:
                # [e_i, e_j] = c e_k + ..: diagonal for e_i iff k = j, for e_j iff k = i
                for h, x, y in ((i, j, c), (j, i, -c)):
                    if bk == 1 << x:
                        weight[h][x] = y
                    else:
                        off.add(h)
    rows = [[int(x * lcm(*(y.denominator for y in r))) for x in r] for h, r in enumerate(weight) if h not in off and any(r)]
    base = 2 * max((sum(map(abs, r)) for r in rows), default=0) + 1
    packed = {1 << j: sum(r[j] * base**p for p, r in enumerate(rows)) for j in range(n)}
    return not any(map(sum, weight)), packed if rows else {}


def cohomology_dims(lr: LieRinehart, module: LRModule, max_degree: int) -> List[int]:
    """dim H^q for q = 0..max_degree via exact rank computations:

        dim H^q = dim ker d_q - rank d_{q-1}
                = dim Alt^q - rank d_q - rank d_{q-1}.

    On a Lie algebra over Q with trivial coefficients, a basis vector h with
    a diagonal ad h acts on e*_S by L_h = d i_h + i_h d (Cartan) with weight
    -sum_{j in S} l_hj, kept by d and i_h; i_h / mu contracts the forms of
    weight mu != 0, so d is built only on the forms of weight 0 under every
    such h (Chevalley and Eilenberg, Trans. AMS 63, 1948; Hochschild and
    Serre, Ann. Math. 57, 1953).  If every tr ad e_i = 0 too, D = +-C^-1 d C,
    C the contraction with the top form, is an exact generator and the
    transpose of d (Koszul, Asterisque hors serie, 1985), so rank d_q =
    rank d_{n-1-q} (Hazewinkel, Math. USSR Sb. 12, 1970), on weight 0 too,
    which C keeps as tr ad h = 0: only d_q with q <= n-1-q is built.
    """
    if max_degree < 0:
        raise ValueError(f"the degree cap must be at least 0, got {max_degree}")
    require_valid(lr)
    if module.lr != lr:
        raise ValueError("module parent mismatch")
    if not module.is_flat():
        raise ValueError("coefficients are not flat; cohomology undefined")
    n, top = lr.rank, min(max_degree, lr.rank)
    mirror, weights = _weights(lr, module)
    half = min(top, (n - 1) // 2) if mirror else top  # the last d_q built
    bits, width = _bracket_table(lr)[0], module.rank * lr.alg.dim
    levels = [[c for c in combinations(bits, q) if not weights or not sum(map(weights.get, c))] for q in range(half + 2)]
    ranks = [mat_rank(_build(lr, module, levels[q + 1], len(levels[q + 1]), levels[q])) for q in range(half + 1)]
    ranks += [ranks[n - 1 - q] if q < n else 0 for q in range(half + 1, top + 1)]
    dims = [len(levels[min(q, n - q) if mirror else q]) * width - ranks[q] - (ranks[q - 1] if q else 0) for q in range(top + 1)]
    return dims + [0] * (max_degree - top)
