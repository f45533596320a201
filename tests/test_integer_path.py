"""The integer arithmetic of the cohomology path against the Fraction
arithmetic it replaced, kept in tests/reference.py: fraction-free rank
against Fraction elimination and dense echelon rank, the compiled
products and derivation columns of calgebra, and the algebra and
derivation checks that read them, against the dense walk of their
constants, and the degree-one table against the Leibniz expansion
on algebra elements.  The compiled action and bracket tables of lrcore
are read off those products and columns with no algebra element built.
Also the canonical entries of SparseMatrix, and the generator command's
single validation."""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lierine.cli as cli
import lierine.gerst as gerst
from lierine import calgebra, lrcore
from lierine.calgebra import CommAlg, Derivation, alg_validate, derivation_validate
from lierine.exactla import RatMatrix, SparseMatrix, mat_rank
from lierine.instances import derx3, rationals, truncated_poly
from lierine.lrcore import (
    LieRinehart,
    LRModule,
    _degree_one_table,
    dual_module,
    exterior_power,
    tensor_line,
    trivial_coefficients,
)
from lierine.reporting import Violation
import reference
from reference import _echelon
from test_sparse import FIXTURE_STRUCTURES, random_tables

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
LARGE = st.builds(Fraction, st.integers(-(10 ** 30), 10 ** 30), st.integers(1, 10 ** 6))


@st.composite
def rank_matrices(draw):
    """A dense matrix, sparse or dense in its nonzeros, with small and
    large-numerator rational entries, some rows zero and some rows
    multiples of earlier ones."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    one_in = draw(st.sampled_from([1, 2, 5]))
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "zero":
            out.append([Fraction(0)] * cols)
        elif kind == "repeat" and out:
            factor = draw(st.one_of(SMALL, LARGE).filter(bool))
            out.append([factor * e for e in draw(st.sampled_from(out))])
        else:
            out.append([
                draw(st.one_of(SMALL, LARGE)) if draw(st.integers(0, one_in - 1)) == 0 else Fraction(0)
                for _ in range(cols)
            ])
    return RatMatrix(rows, cols, [e for row in out for e in row])


@settings(max_examples=150, deadline=None)
@given(rank_matrices())
def test_fraction_free_rank_matches_fraction_elimination_and_echelon(m):
    want = len(_echelon(m)[1])
    assert reference.mat_rank(m) == want
    assert mat_rank(reference.to_sparse(m)) == want


def test_fraction_free_rank_on_known_matrices():
    m = reference.from_rows([
        [Fraction(1, 2), Fraction(-3, 4), 0],
        [2, -3, 0],
        [0, 0, Fraction(10 ** 40, 3)],
        [Fraction(10 ** 40, 7), 1, 1],
    ])
    assert mat_rank(reference.to_sparse(m)) == reference.mat_rank(m) == 3
    assert mat_rank(SparseMatrix(3, 3, {})) == 0


def test_sparse_matrix_keeps_integral_entries_as_int():
    m = SparseMatrix(2, 3, {(0, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (1, 2): -5, (1, 0): Fraction(0)})
    assert m.entries == {(0, 0): 2, (0, 1): Fraction(1, 3), (1, 2): -5}
    assert [type(m.entries[at]) for at in ((0, 0), (0, 1), (1, 2))] == [int, Fraction, int]
    square = reference.to_sparse(reference.matmul(m, SparseMatrix(3, 1, {(0, 0): Fraction(1, 2), (1, 0): 3, (2, 0): Fraction(2, 5)})))
    assert square.entries == {(0, 0): 2, (1, 0): -2}
    assert all(type(e) is int for e in square.entries.values())
    for bad in (0.5, 2.0):
        with pytest.raises(TypeError):
            SparseMatrix(1, 1, {(0, 0): bad})


def q_times_q() -> CommAlg:
    """Q x Q with idempotents e_0, e_1 and unit e_0 + e_1."""
    return CommAlg(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])


def scaled(k: int) -> CommAlg:
    """Q[x]/(x^k) on the basis 1, 2x, x^2/2, -3/4 x^3, ..., so the
    constants are not integral."""
    scale = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3, 4)][:k]
    mult = [[[Fraction(0)] * k for _ in range(k)] for _ in range(k)]
    for i, j in product(range(k), repeat=2):
        if i + j < k:
            mult[i][j][i + j] = scale[i] * scale[j] / scale[i + j]
    return CommAlg(k, mult, [1] + [0] * (k - 1))


ALGEBRAS = [("Q", rationals()), ("x^3", truncated_poly(3)), ("x^4", truncated_poly(4)), ("QxQ", q_times_q()), ("scaled4", scaled(4))]
CONSTANTS = [0, 1, -1, Fraction(1, 2), Fraction(-3, 4), Fraction(10 ** 20, 3)]


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_compiled_products_match_dense_walk(name, alg):
    vecs = [alg.basis(t).coeffs for t in range(alg.dim)] + [
        tuple(CONSTANTS[(s * 7 + t) % len(CONSTANTS)] for t in range(alg.dim)) for s in range(4)
    ]
    for a, b in product(vecs, repeat=2):
        got = alg.mul_coeffs(a, b)
        assert got == reference.mul_coeffs(alg, a, b)
        assert all(type(c) is Fraction for c in got)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([alg for _, alg in ALGEBRAS]), st.data())
def test_compiled_derivation_columns_match_dense_matrix(alg, data):
    entries = data.draw(st.lists(st.sampled_from(CONSTANTS), min_size=alg.dim ** 2, max_size=alg.dim ** 2))
    d = Derivation(alg, RatMatrix(alg.dim, alg.dim, entries))
    x = alg.elem(data.draw(st.lists(st.sampled_from(CONSTANTS), min_size=alg.dim, max_size=alg.dim)))
    got = d.apply(x)
    assert got == reference.derivation_apply(d, x)
    assert all(type(c) is Fraction for c in got.coeffs)


def test_compiled_forms_take_no_part_in_equality():
    alg = truncated_poly(3)
    twin = CommAlg(3, alg.mult, [Fraction(1), 0, 0])
    assert twin == alg and hash(twin) == hash(alg)
    d = Derivation(alg, RatMatrix(3, 3, [0, 0, 0, Fraction(2, 2), 0, 0, 0, 2, 0]))
    assert d == Derivation(alg, d.matrix) and d.matrix.entries[3] == 1


@st.composite
def algebras_and_maps(draw):
    """A shipped algebra with up to two structure constants or unit entries
    moved, or none, and a derivation matrix: zero, x d/dx on Q[x]/(x^k),
    or arbitrary constants; the axioms and the Leibniz rule may fail."""
    base = draw(st.sampled_from([alg for _, alg in ALGEBRAS]))
    dim = base.dim
    mult = [[list(entry) for entry in row] for row in base.mult]
    unit = list(base.unit)
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (draw(st.integers(0, dim - 1)) for _ in range(3))
        if draw(st.booleans()):
            mult[i][j][k] += draw(st.sampled_from(CONSTANTS[1:]))
        else:
            unit[k] += draw(st.sampled_from(CONSTANTS[1:]))
    alg = CommAlg(dim, mult, unit)
    kind = draw(st.sampled_from(["zero", "x d/dx", "any"]))
    if kind == "zero":
        entries = [0] * (dim * dim)
    elif kind == "x d/dx":
        entries = [j if i == j else 0 for i in range(dim) for j in range(dim)]
    else:
        entries = draw(st.lists(st.sampled_from(CONSTANTS), min_size=dim * dim, max_size=dim * dim))
    return alg, Derivation(alg, RatMatrix(dim, dim, entries))


@settings(max_examples=150, deadline=None)
@given(algebras_and_maps())
def test_algebra_and_derivation_checks_match_dense_reference(p):
    alg, d = p
    assert alg_validate(alg) == reference.alg_violations(alg)
    assert derivation_validate(alg, d) == reference.derivation_violations(alg, d)


def assert_degree_one_matches_leibniz(lr):
    """Every entry of the compiled degree-one table against the Leibniz
    expansion on algebra elements."""
    ones = _degree_one_table(lr)
    basis = [lr.alg.basis(t) for t in range(lr.alg.dim)]
    for i, j in product(range(lr.rank), repeat=2):
        for (s, x), (t, y) in product(enumerate(basis), repeat=2):
            assert ones[(i, j, s, t)] == reference.leibniz(lr, i, x, j, y), (i, s, j, t)


@pytest.mark.parametrize("name,lr", FIXTURE_STRUCTURES, ids=[n for n, _ in FIXTURE_STRUCTURES])
def test_degree_one_table_matches_leibniz_on_fixtures(name, lr):
    assert_degree_one_matches_leibniz(lr)


@settings(max_examples=30, deadline=None)
@given(random_tables())
def test_degree_one_table_matches_leibniz_on_random_tables(p):
    assert_degree_one_matches_leibniz(p[0])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIXTURE_STRUCTURES), st.data())
def test_degree_one_table_matches_leibniz_on_perturbed_fixtures(named, data):
    """A fixture with one bracket coefficient and one anchor entry moved
    by a non-integral constant; the axioms need not hold."""
    lr = named[1]
    alg, n, dim = lr.alg, lr.rank, lr.alg.dim
    if n == 0:
        return
    table = [[list(entry) for entry in row] for row in lr.bracket]
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    shift = alg.elem([data.draw(st.sampled_from(CONSTANTS)) for _ in range(dim)])
    table[i][j][k] = table[i][j][k] + shift
    anchor = list(lr.anchor)
    entries = list(anchor[i].matrix.entries)
    entries[data.draw(st.integers(0, dim * dim - 1))] += data.draw(st.sampled_from(CONSTANTS))
    anchor[i] = Derivation(alg, RatMatrix(dim, dim, entries))
    assert_degree_one_matches_leibniz(LieRinehart(alg, n, table, anchor))


def derx3_modules():
    """Fresh derx3 with its trivial module, a line twisted by a non-integral
    connection, and the dual and Lambda^2 of a rank-3 connection."""
    lr = derx3()
    alg, half = lr.alg, Fraction(1, 2)
    triv = trivial_coefficients(lr)
    m = LRModule(lr, 3, [
        [(alg.basis(1), alg.zero(), alg.one()), (alg.zero(),) * 3, (alg.zero(), alg.basis(2) * half, alg.zero())],
        [(alg.zero(),) * 3, (alg.one() * 3, alg.zero(), alg.basis(1)), (alg.zero(),) * 3],
    ])
    line = tensor_line(triv, [alg.elem([half, 1, 0]), alg.elem([0, 0, -2])])
    return lr, {"trivial": triv, "line": line, "dual": dual_module(m), "wedge2": exterior_power(m, 2)}


def test_compile_steps_build_no_algebra_elements(monkeypatch):
    """Neither compile step constructs an AElem or multiplies through
    ``CommAlg.mul_coeffs``; integral entries are ints, and every degree
    built on the tables agrees with the element route of ``reference``."""
    lr, modules = derx3_modules()
    calls = []
    init, mul = calgebra.AElem.__init__, calgebra.CommAlg.mul_coeffs
    monkeypatch.setattr(calgebra.AElem, "__init__", lambda *a: calls.append("AElem") or init(*a))
    monkeypatch.setattr(calgebra.CommAlg, "mul_coeffs", lambda *a: calls.append("mul_coeffs") or mul(*a))
    bits, pairs = lrcore._bracket_table(lr)
    tables = {name: lrcore._action_table(m) for name, m in modules.items()}
    assert calls == []
    monkeypatch.undo()
    values = [c for _, terms in pairs[0] for _, products in terms for _, _, c in products]
    values += [c for table in tables.values() for images in table for image in images.values() for _, c in image]
    assert values and all(type(c) is int or c.denominator != 1 for c in values)
    assert any(type(c) is Fraction for c in values)
    for name, m in modules.items():
        for q in range(lr.rank + 1):
            assert lrcore.ce_matrix(lr, m, q, formal=True) == reference.ce_matrix(lr, m, q), (name, q)
    assert (bits, pairs) == ([1, 2], [[(2, [(2, [(0, 0, 1), (1, 1, 1), (2, 2, 1)])])], []])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


GENERATOR_ARGS = ["generator", "--input", str(resources.files("lierine") / "fixtures" / "derx3.lri"), "--name", "flat_line"]


def test_generator_command_validates_the_operator_once(monkeypatch):
    calls = []
    validate = gerst.generator_validate
    counted = lambda lr, g: calls.append(g) or validate(lr, g)
    monkeypatch.setattr(cli, "generator_validate", counted)
    monkeypatch.setattr(gerst, "generator_validate", counted)
    code, out, _ = run_cli(GENERATOR_ARGS)
    assert (code, len(calls)) == (0, 1)
    assert "generator-identity" in out


def test_generator_command_on_a_failing_identity_prints_nothing_and_exits_2(monkeypatch):
    """When the identity fails, the command stops before the round trip,
    as generator_to_connection's own check made it stop."""
    failing = lambda lr, g: [Violation("generator-identity", (0, (1,)), "")]
    monkeypatch.setattr(cli, "generator_validate", failing)
    monkeypatch.setattr(gerst, "generator_validate", failing)
    assert run_cli(GENERATOR_ARGS) == (2, "", "input not usable: not a generator: generator-identity at (0,(1,))\n")
