"""The graded symmetry that the witness loop of ``gerst`` reads.

Where a checker reads its residual as graded symmetric, R(v, u) = sR(u, v)
with the signs of ``gerst._pair_witness``, the loop visits each unordered
pair once, and the first failing ordered pair of the dense loop is among
those it visits.  Tested here: that premise, each residual's swap identity
on every ordered pair the dense loop of ``reference`` sums, on draws whose
tables open the gate, and the label bracket graded antisymmetric on every
label pair there; the bounded checkers equal to the dense loop with the
gate open; and the gate shut on a one-sided literal table and on a
base that is not commutative or not associative, where the loop visits
every ordered pair and gives the dense witness, which a loop over
unordered pairs can miss.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lierine import gerst
from lierine.calgebra import CommAlg
from lierine.gerst import Bigraded, GeneratorOp, Multivector, TopConnection, generator_from_connection
from lierine.instances import gl_n
from lierine.lrcore import LieRinehart
from lierine.twilled import AlmostTwilled, _bigraded_elems, _differential, _label_tables
from test_atom_tables import perturbed_tables, random_structure, structures_with_tables
from test_pair_traversal import assert_same_as_dense, dense_gerstenhaber, witnesses


def antisymmetric(lr: LieRinehart) -> LieRinehart:
    """lr with each [e_j, e_i], j > i, set to -[e_i, e_j] and [e_i, e_i] to 0."""
    n, zero = lr.rank, lr.alg.zero()
    table = [[lr.bracket[i][j] if i < j else tuple(-c for c in lr.bracket[j][i]) for j in range(n)] for i in range(n)]
    for i in range(n):
        table[i][i] = (zero,) * n
    return LieRinehart(lr.alg, n, table, lr.anchor)


@st.composite
def open_structures(draw):
    """An arbitrary structure made antisymmetric over a commutative,
    associative, unital base, anchors arbitrary maps, and an arbitrary
    degree -1 operator on it."""
    lr, table = draw(structures_with_tables())
    lr = antisymmetric(lr)
    return lr, GeneratorOp(lr, {key: Multivector(lr, u.values) for key, u in table.items()})


@st.composite
def open_pairs(draw):
    """An arbitrary pair whose L' is made antisymmetric, actions and
    anchors arbitrary, and an arbitrary operator lowering the inner degree."""
    t, table = draw(perturbed_tables())
    t = AlmostTwilled(antisymmetric(t.lprime), t.lsecond, t.act_p_on_s, t.act_s_on_p)
    return t, GeneratorOp(t, {key: Bigraded(t, u.qdeg, u.pdeg, u.values) for key, u in table.items()})


def captured(check, *args):
    """(elems, residual, first) of each run of the witness loop that
    check(*args) makes, every run reporting no witness, so that a checker
    of several loops makes all of them."""
    runs = []

    def capture(elems, tables, residual, ranks, shift, first=None):
        runs.append((elems, residual, first))

    with mock.patch.object(gerst, "_pair_witness", capture):
        check(*args)
    return runs


def koszul(a: int, b: int) -> int:
    """-(-1)^{(a-1)(b-1)}: the sign of graded antisymmetry."""
    return 1 if (a - 1) * (b - 1) % 2 else -1


def assert_swaps(sums, elems, sign):
    """R(v, u) = sign(|u|, |v|) R(u, v) on every ordered pair of sums."""
    degree = [p for _, _, p in elems]
    for (a, b), r in sums.items():
        s = sign(degree[a], degree[b])
        assert sums[(b, a)] == {k: s * c for k, c in r.items()}, (elems[a][0], elems[b][0])


def assert_premise(tables, elems, *ops):
    """The tables open both gates, their bracket is graded antisymmetric
    on every label pair, and the derivation and generator residual of each
    op swap as ``_pair_witness`` says, on the dense loop."""
    assert tables.symmetric == (True, True)
    codes = [x for _, v, _ in elems for x in tables.encode(v)]
    degree = lambda x: (x & tables.low).bit_count()
    for x in codes:
        for y in codes:
            s = koszul(degree(x), degree(y))
            assert tables.bracket(y, x) == {k: s * c for k, c in tables.bracket(x, y).items()}
    for op in ops:
        for check in (gerst._derivation_witness, gerst._generator_witness):
            ((_, residual, first),) = captured(check, elems, tables, op)
            assert first == 0
            assert_swaps(reference.pair_residuals(elems, tables, residual), elems, koszul)


@settings(max_examples=30, deadline=None)
@given(open_structures())
def test_residuals_swap_with_their_signs_on_open_structures(p):
    """The derivation and generator residuals of an arbitrary operator,
    and the antisymmetry, Leibniz (in v, w) and Jacobi (in u, v and in v,
    w) residuals of ``gerstenhaber_validate``, through degree 2."""
    lr, op = p
    elems, tables = gerst._label_elems(lr, min(lr.rank, 2)), gerst._flat_tables(lr)
    assert_premise(tables, elems, op)
    runs = captured(gerst._gerstenhaber_violations, tables, elems)
    n = len(elems)
    assert [first for _, _, first in runs] == [0] + [0] * n + list(range(n))
    sums = [reference.pair_residuals(elems, tables, residual) for _, residual, _ in runs]
    assert_swaps(sums[0], elems, lambda a, b: -koszul(a, b))
    for leibniz in sums[1:n + 1]:
        assert_swaps(leibniz, elems, lambda b, c: -1 if b * c % 2 else 1)
    jacobi = sums[n + 1:]
    for u in range(n):
        assert_swaps(jacobi[u], elems, koszul)
        for (v, w), r in jacobi[u].items():
            s = koszul(elems[u][2], elems[v][2])
            assert jacobi[v][(u, w)] == {k: s * c for k, c in r.items()}


@settings(max_examples=20, deadline=None)
@given(open_pairs())
def test_residuals_swap_with_their_signs_on_open_pairs(p):
    """d'' on multivectors and on forms, d' and an arbitrary degree -1
    operator on the bigraded carrier, against the crossed bracket."""
    t, op = p
    ops = [_differential(t, kind) for kind in ("multi", "form", "dprime")]
    assert_premise(_label_tables(t), _bigraded_elems(t), op, *ops)


def test_bounded_witnesses_match_dense_loop_with_the_gate_open():
    """On draws that open the gate, the loop visits unordered pairs, and
    each checker still gives the witness of the dense loop, which it finds
    on some draws and not on others."""
    found = set()

    @settings(max_examples=40, deadline=None)
    @given(open_structures())
    def structures(p):
        lr, op = p
        assert gerst._flat_tables(lr).symmetric == (True, True)
        make = lambda: gerst._flat_tables(lr)
        result = assert_same_as_dense(witnesses, gerst._label_elems(lr, lr.rank), make, op)
        found.update(f is None for f in result)
        for cap in range(lr.rank + 1):
            assert repr(gerst.gerstenhaber_validate(lr, cap)) == repr(dense_gerstenhaber(lr, cap))

    @settings(max_examples=20, deadline=None)
    @given(open_pairs())
    def pairs(p):
        t, op = p
        elems, make = _bigraded_elems(t), lambda: _label_tables(t)
        result = assert_same_as_dense(witnesses, elems, make, op)
        found.update(f is None for f in result)
        assert_same_as_dense(gerst._derivation_witness, elems, make(), _differential(t, "multi"))

    structures()
    pairs()
    assert found == {True, False}


def one_sided_gl2() -> LieRinehart:
    """gl_2 with the e_0 coefficient of the literal [e_2, e_1] raised by 1:
    the pinned break of ``test_jacobi_is_not_read_from_the_square``."""
    lr = gl_n(2)
    table = [[list(entry) for entry in row] for row in lr.bracket]
    table[2][1][0] = table[2][1][0] + lr.alg.one()
    return LieRinehart(lr.alg, lr.rank, table, lr.anchor)


def test_one_sided_literal_table_shuts_the_gate(monkeypatch):
    """The bracket is not antisymmetric, so the derivation and generator
    loops and the Jacobi loops visit every ordered pair; the product is
    still graded commutative, so the Leibniz loops do not.  The generator
    identity first fails at (e_2, e_1), a pair the loop over unordered
    pairs would not reach: it would report (e_2, e_1 e_2)."""
    lr = one_sided_gl2()
    tables, elems = gerst._flat_tables(lr), gerst._label_elems(lr, lr.rank)
    assert tables.symmetric == (True, False)
    g = generator_from_connection(lr, TopConnection(lr, [lr.alg.zero()] * lr.rank))
    for check in (gerst._derivation_witness, gerst._generator_witness):
        assert [first for _, _, first in captured(check, elems, tables, g)] == [None]
    runs = captured(gerst._gerstenhaber_violations, tables, elems)
    assert [first for _, _, first in runs] == [0] + [0] * len(elems) + [None] * len(elems)
    found = assert_same_as_dense(gerst.generator_validate, lr, g)
    assert [v.witness for v in found] == [(0, (2,), 0, (1,))]
    assert_same_as_dense(gerst.generator_derivation_check, lr, g)
    for cap in range(lr.rank + 1):
        assert repr(gerst.gerstenhaber_validate(lr, cap)) == repr(dense_gerstenhaber(lr, cap))
    loop = gerst._pair_witness
    unordered = lambda elems, tables, residual, ranks, shift, first=None: loop(elems, tables, residual, ranks, shift, 0)
    monkeypatch.setattr(gerst, "_pair_witness", unordered)
    assert gerst._generator_witness(elems, gerst._flat_tables(lr), g)[:2] == ((0, (2,)), (0, (1, 2)))


# the upper triangular 2 x 2 matrices over Q on E11, E12, E22: associative
# with unit E11 + E22, and E11 E12 = E12 while E12 E11 = 0
TRIANGULAR = CommAlg(
    3,
    [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    ],
    [1, 0, 1],
)
# commutative with unit e_0, but (e_1 e_1) e_2 = 0 while e_1 (e_1 e_2) = e_1
NON_ASSOCIATIVE = CommAlg(
    3,
    [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [1, 0, 0], [0, 0, 0]],
    ],
    [1, 0, 0],
)


@pytest.mark.parametrize(
    "alg,gates", [(TRIANGULAR, (False, False)), (NON_ASSOCIATIVE, (True, False))], ids=["triangular", "non-associative"]
)
def test_a_base_that_is_not_commutative_or_not_associative_shuts_the_gate(alg, gates):
    """Over a non-commutative base neither the product nor the bracket is
    read as graded symmetric, over a commutative non-associative one the
    bracket is not; on antisymmetric literal tables every checker gives
    the witness of the dense loop, which it finds on some draws."""
    found = set()

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 2))
        lr = antisymmetric(random_structure(data.draw, alg, n))
        assert gerst._flat_tables(lr).symmetric == gates
        values = st.sampled_from([0, 1, -1, Fraction(1, 2)])
        omega = [alg.elem([data.draw(values) for _ in range(3)]) for _ in range(n)]
        g = generator_from_connection(lr, TopConnection(lr, omega))
        make = lambda: gerst._flat_tables(lr)
        result = assert_same_as_dense(witnesses, gerst._label_elems(lr, n), make, g)
        found.update(f is None for f in result)
        for cap in range(n + 1):
            assert repr(gerst.gerstenhaber_validate(lr, cap)) == repr(dense_gerstenhaber(lr, cap))

    check()
    assert False in found
