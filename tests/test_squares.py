"""The anchor-morphism and flatness checks as d.d = 0 at degree 0.

``lr_validate`` reads the anchor morphism and ``module_validate`` reads
flatness off the formal square of the kept columns of ``ce_matrix``; both
are compared here with the dense loops of ``reference``.  Jacobi is not read off a square,
and a test below pins why.  The curvature of a connection on the top
power, d omega on C^1(L; A) read formally, is compared with the pair loop
of ``reference.connection_curvature``, on anchors that are not bracket
morphisms too.  The split compiled tables are checked by
counting: the degree-one Leibniz table is built only when Jacobi or the
Schouten bracket needs it.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from lierine import lrcore
from lierine.calgebra import CommAlg, Derivation
from lierine.exactla import RatMatrix
from lierine.gerst import TopConnection, connection_curvature
from lierine.instances import derx3, gl_n, line_with_connection, sl2, truncated_poly, x2_del, x_del
from lierine.lrcore import (
    LieRinehart,
    LRModule,
    basis_forms,
    ce_columns,
    ce_matrix,
    lr_validate,
    module_validate,
    trivial_coefficients,
)
import reference
from reference import anchor_morphism_violations, flatness_violations, matmul

# Q x Q on its two idempotents: the unit (1, 1) is not a basis vector
SPLIT = CommAlg(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
VALUES = st.sampled_from([0, 0, 0, 1, -1, 2])


def elem(draw, alg):
    return alg.elem([draw(VALUES) for _ in range(alg.dim)])


def anchor_entry(draw, alg):
    """Zero, x d/dx, x^2 d/dx or an arbitrary matrix, which may fail the
    Leibniz rule and need not kill the unit."""
    kind = draw(st.integers(0, 3))
    if kind == 3 or alg is SPLIT:
        return Derivation(alg, RatMatrix(alg.dim, alg.dim, [draw(VALUES) for _ in range(alg.dim ** 2)]))
    return (Derivation.zero(alg), x_del(alg), x2_del(alg))[kind]


@st.composite
def structures(draw):
    """An antisymmetric bracket table with, now and then, one entry of one
    side changed, and anchors that may or may not be derivations."""
    alg = draw(st.sampled_from([truncated_poly(1), truncated_poly(2), truncated_poly(3), SPLIT]))
    n = draw(st.integers(1, 4))
    zero = alg.zero()
    table = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        for k in range(n):
            if draw(st.integers(0, 3)) == 0:
                c = elem(draw, alg)
                table[i][j][k], table[j][i][k] = c, -c
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[i][j][k] = table[i][j][k] + elem(draw, alg)
    return LieRinehart(alg, n, table, [anchor_entry(draw, alg) for _ in range(n)])


@st.composite
def connections(draw):
    """An arbitrary action table of rank 0 to 3 over a structure that need
    not satisfy the axioms."""
    lr = draw(structures())
    r = draw(st.integers(0, 3))
    action = [[[elem(draw, lr.alg) for _ in range(r)] for _ in range(r)] for _ in range(lr.rank)]
    return lr, LRModule(lr, r, action)


@settings(max_examples=150, deadline=None)
@given(structures())
def test_anchor_morphism_matches_dense_reference(lr):
    got = [v for v in lr_validate(lr) if v.axiom == "anchor-morphism"]
    assert got == anchor_morphism_violations(lr)


@settings(max_examples=150, deadline=None)
@given(connections())
def test_flatness_matches_dense_reference(p):
    lr, m = p
    assert module_validate(lr, m) == flatness_violations(lr, m)


@settings(max_examples=150, deadline=None)
@given(structures(), st.data())
def test_curvature_matches_pair_loop(lr, data):
    c = TopConnection(lr, [elem(data.draw, lr.alg) for _ in range(lr.rank)])
    assert connection_curvature(lr, c) == reference.connection_curvature(lr, c)


def test_curvature_where_the_anchor_is_no_morphism():
    """On derx3 with x d/dx on both vectors, rho([e_0, e_1]) = x d/dx is not
    [rho(e_0), rho(e_1)] = 0.  On Q[x]/(x^2) with zero bracket, rho(e_0):
    1 -> x and rho(e_1): x -> 1 are not even derivations, and A is not a
    flat module, so only the formal differential reads the curvature."""
    lr = derx3()
    one, x = lr.alg.one(), lr.alg.basis(1)
    bad = LieRinehart(lr.alg, 2, lr.bracket, [x_del(lr.alg)] * 2)
    assert [v.axiom for v in lr_validate(bad)] == ["anchor-morphism"]
    c = TopConnection(bad, [x, one])
    assert connection_curvature(bad, c) == reference.connection_curvature(bad, c)
    # x d/dx (1) - x d/dx (x) - omega(e_1) = -x - 1
    assert connection_curvature(bad, c).value((0, 1)) == (-one - x,)

    alg = truncated_poly(2)
    zero = [[[alg.zero()] * 2 for _ in range(2)] for _ in range(2)]
    bad = LieRinehart(alg, 2, zero, [Derivation(alg, RatMatrix(2, 2, [0, 0, 1, 0])), Derivation(alg, RatMatrix(2, 2, [0, 1, 0, 0]))])
    assert not trivial_coefficients(bad).is_flat()
    c = TopConnection(bad, [alg.basis(1), alg.one()])
    assert connection_curvature(bad, c) == reference.connection_curvature(bad, c)
    # rho(e_0)(1) - rho(e_1)(x) = x - 1
    assert connection_curvature(bad, c).value((0, 1)) == (alg.basis(1) - alg.one(),)


def test_jacobi_is_not_read_from_the_square():
    """ce_matrix reads only the i < j half of the bracket table.  Raising
    the e_0 coefficient of the literal [e_2, e_1] of gl_2 breaks
    antisymmetry and Jacobi, while the formal d.d on C^1(L; A) stays 0."""
    lr = gl_n(2)
    table = [[list(entry) for entry in row] for row in lr.bracket]
    table[2][1][0] = table[2][1][0] + lr.alg.one()
    bad = LieRinehart(lr.alg, lr.rank, table, lr.anchor)
    assert [(v.axiom, v.witness) for v in lr_validate(bad)] == [
        ("antisymmetry", (1, 2)),
        ("jacobi", (1, 2, 3)),
    ]
    m = trivial_coefficients(bad)
    square = matmul(ce_matrix(bad, m, 2, formal=True), ce_matrix(bad, m, 1, formal=True))
    assert not any(square.entries)


def test_column_labels_follow_basis_forms():
    """Every kept column of ce_columns, key and row labels alike, is a
    basis_forms label; keys and rows ascend, integral values are int, and
    the columns are exactly the entries of ce_matrix."""
    for lr in (derx3(), sl2()):
        omega = [lr.alg.basis(lr.alg.dim - 1)] * lr.rank
        modules = (trivial_coefficients(lr), line_with_connection(lr, omega), LRModule(lr, lr.rank, lr.bracket))
        for m in modules:
            for q in range(lr.rank + 2):
                cols = {label: pos for pos, label in enumerate(basis_forms(lr, m, q))}
                rows = {label: pos for pos, label in enumerate(basis_forms(lr, m, q + 1))}
                columns = ce_columns(lr, m, q, formal=True)
                assert list(columns) == sorted(columns)
                entries = {}
                for col, image in columns.items():
                    assert [row for row, _ in image] == sorted(row for row, _ in image)
                    for row, x in image:
                        assert type(x) is int or x.denominator != 1
                        entries[(rows[row], cols[col])] = x
                assert entries == ce_matrix(lr, m, q, formal=True).entries


def test_degree_one_table_is_built_only_for_jacobi(monkeypatch):
    calls = []
    leibniz = lrcore._leibniz
    monkeypatch.setattr(lrcore, "_leibniz", lambda *args: calls.append(args) or leibniz(*args))
    lr = derx3()
    m = trivial_coefficients(lr)
    for q in range(lr.rank + 1):
        ce_matrix(lr, m, q)
    assert lr_validate(lr) == []
    assert calls == []
    three = sl2()
    assert lr_validate(three) == []
    assert calls
