"""The sparse cochain differential, the compiled degree-one bracket, the
label tables of the Schouten bracket and the sparse rank against
references that compute the same objects another way: the differential
one basis form at a time through the element loop of
reference.ce_differential and whole on sorted index tuples through
reference.ce_matrix and ce_columns, the bracket through
the Leibniz expansion of lr_bracket, the label tables through the
element recursion of reference.bracket_terms and wedge, and dense
echelon rank."""

from fractions import Fraction
from importlib import resources
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine.calgebra import Derivation
from lierine.cli import parse_instance
from lierine.exactla import RatMatrix, SparseMatrix, mat_rank
from lierine.gerst import Multivector, _basis_multivectors, _flat_tables, wedge
from lierine.instances import derx3, gl_n, heisenberg, line_with_connection, truncated_poly
from lierine.lrcore import (
    AltForm,
    LieRinehart,
    LRModule,
    _bracket_vectors,
    basis_forms,
    ce_columns,
    ce_matrix,
    ce_square_witness,
    dual_module,
    exterior_power,
    trivial_coefficients,
)
from lierine.twilled import twilled_sum
import reference
from reference import LElem, _echelon, alt_dim, bracket_terms, ce_differential, lr_bracket, to_sparse


def reference_matrix(lr, module, q, formal=False) -> RatMatrix:
    """d_q column by column: the reference element loop on each basis form,
    scattered into a dense matrix."""
    rows, cols = alt_dim(lr, module, q + 1), alt_dim(lr, module, q)
    index = {label: pos for pos, label in enumerate(basis_forms(lr, module, q + 1))}
    entries = [Fraction(0)] * (rows * cols)
    for cpos, (key, j, t) in enumerate(basis_forms(lr, module, q)):
        vec = [lr.alg.zero()] * module.rank
        vec[j] = lr.alg.basis(t)
        w = AltForm(lr, module, q, {key: tuple(vec)})
        for ikey, img in ce_differential(lr, module, w, formal=formal).values.items():
            for jj, c in enumerate(img):
                for tt, x in enumerate(c.coeffs):
                    if x != 0:
                        entries[index[(ikey, jj, tt)] * cols + cpos] = x
    return RatMatrix(rows, cols, entries)


def nonzeros(m: RatMatrix):
    return {
        (i, j): m.entry(i, j) for i in range(m.rows) for j in range(m.cols) if m.entry(i, j) != 0
    }


def assert_matches_reference(lr, module, formal=True):
    for q in range(lr.rank + 1):
        sparse = ce_matrix(lr, module, q, formal=formal)
        dense = reference_matrix(lr, module, q, formal=formal)
        assert (sparse.rows, sparse.cols) == (dense.rows, dense.cols), q
        assert sparse.entries == nonzeros(dense), q


def fixture_structures():
    """Every structure in the shipped fixture files, and the combined
    structure of every pair there."""
    out = []
    folder = resources.files("lierine") / "fixtures"
    for path in sorted(folder.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".lri"):
            continue
        inst = parse_instance(str(path))
        for name in inst.lrs:
            out.append((f"{path.name}:{name}", inst.lr(name)))
        for name in inst.twilleds:
            out.append((f"{path.name}:{name}", twilled_sum(inst.build_twilled(name))))
    return out


FIXTURE_STRUCTURES = fixture_structures()


def coefficient_modules(lr):
    """Trivial coefficients, a line, and the dual and Lambda^2 of the
    bracket table read as an action; the last three are connections in
    general, so the matrices are compared formally."""
    alg = lr.alg
    omega = [alg.basis(i % alg.dim) * Fraction(i + 1) for i in range(lr.rank)]
    adjoint = LRModule(lr, lr.rank, lr.bracket)
    return {
        "trivial": trivial_coefficients(lr),
        "line": line_with_connection(lr, omega),
        "dual": dual_module(adjoint),
        "exterior": exterior_power(adjoint, 2),
    }


@pytest.mark.parametrize("kind", ["trivial", "line", "dual", "exterior"])
@pytest.mark.parametrize("name,lr", FIXTURE_STRUCTURES, ids=[n for n, _ in FIXTURE_STRUCTURES])
def test_ce_matrix_matches_reference_on_fixtures(name, lr, kind):
    assert_matches_reference(lr, coefficient_modules(lr)[kind])


def test_ce_matrix_flat_coefficients_need_no_flag():
    lr = derx3()
    m = trivial_coefficients(lr)
    for q in range(lr.rank + 1):
        assert ce_matrix(lr, m, q) == ce_matrix(lr, m, q, formal=True)


def test_ce_matrix_refuses_curved_coefficients_unless_formal():
    lr = derx3()
    m = line_with_connection(lr, [lr.alg.basis(1), lr.alg.zero()])
    with pytest.raises(ValueError):
        ce_matrix(lr, m, 0)
    ce_matrix(lr, m, 0, formal=True)


SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def sparse_elem(draw, alg):
    return alg.elem([draw(st.sampled_from([0, 0, 1, -1])) * draw(SMALL) for _ in range(alg.dim)])


@st.composite
def random_tables(draw, max_rank=3):
    """An arbitrary bracket table, anchor matrices and action table over
    Q[x]/(x^k); none of the axioms need hold for the formal operator.
    Above rank 3 the bracket has at most 2n nonzero coefficients, so the
    references stay cheap."""
    alg = truncated_poly(draw(st.integers(1, 3)))
    n = draw(st.integers(1, max_rank))
    r = draw(st.integers(1, 2))
    if max_rank <= 3:
        bracket = [[[sparse_elem(draw, alg) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    else:
        bracket = [[[alg.zero()] * n for _ in range(n)] for _ in range(n)]
        index = st.integers(0, n - 1)
        for i, j, k in draw(st.lists(st.tuples(index, index, index), max_size=2 * n)):
            bracket[i][j][k] = sparse_elem(draw, alg)
    anchor = [
        Derivation(alg, RatMatrix(alg.dim, alg.dim, [draw(SMALL) for _ in range(alg.dim ** 2)]))
        for _ in range(n)
    ]
    lr = LieRinehart(alg, n, bracket, anchor)
    action = [[[sparse_elem(draw, alg) for _ in range(r)] for _ in range(r)] for _ in range(n)]
    return lr, LRModule(lr, r, action)


@settings(max_examples=25, deadline=None)
@given(random_tables())
def test_ce_matrix_matches_reference_on_random_tables(p):
    lr, m = p
    assert_matches_reference(lr, m)


def assert_matches_tuple_build(lr, module, degrees):
    """The bit-mask build against the tuple-keyed build: the same matrix,
    entries row by row with rows ascending, and the same kept columns in
    the same key and row order."""
    for q in degrees:
        d = ce_matrix(lr, module, q, formal=True)
        assert d == reference.ce_matrix(lr, module, q), q
        rows = [r for r, _ in d.entries]
        assert rows == sorted(rows), q
        got = ce_columns(lr, module, q, formal=True)
        assert list(got.items()) == list(reference.ce_columns(lr, module, q).items()), q


@pytest.mark.parametrize("kind", ["trivial", "line", "dual", "exterior"])
@pytest.mark.parametrize("name,lr", FIXTURE_STRUCTURES, ids=[n for n, _ in FIXTURE_STRUCTURES])
def test_ce_matrix_matches_tuple_build_on_fixtures(name, lr, kind):
    assert_matches_tuple_build(lr, coefficient_modules(lr)[kind], range(lr.rank + 2))


@settings(max_examples=25, deadline=None)
@given(random_tables(max_rank=7))
def test_ce_matrix_matches_tuple_build_on_random_tables(p):
    lr, m = p
    assert_matches_tuple_build(lr, m, range(lr.rank + 2))


@pytest.mark.parametrize("q", [0, 1, 2, 3, 4, 13, 14, 15, 16])
def test_ce_matrix_matches_tuple_build_on_gl4(q):
    # rank 16: rows at q >= 13 have mask bits 13..15 set
    lr = gl_n(4)
    assert_matches_tuple_build(lr, trivial_coefficients(lr), [q])


def test_ce_matrix_degree_bounds():
    lr = derx3()
    m = trivial_coefficients(lr)
    for build in (ce_matrix, ce_columns):
        with pytest.raises(ValueError, match="got -1"):
            build(lr, m, -1)
    top = ce_matrix(lr, m, lr.rank)
    assert (top.rows, top.cols, top.entries) == (0, alt_dim(lr, m, lr.rank), {})
    assert ce_columns(lr, m, lr.rank) == {}
    past = ce_matrix(lr, m, lr.rank + 1)
    assert (past.rows, past.cols, past.entries) == (0, 0, {})


def assert_degree_one_matches_lr_bracket(lr):
    """[a_s e_i, a_t e_j] from the compiled table against lr_bracket, on
    every ordered pair of Q-basis vectors of L."""
    alg = lr.alg
    for (i, s), (j, t) in product(product(range(lr.rank), range(alg.dim)), repeat=2):
        x = [alg.zero()] * lr.rank
        x[i] = alg.basis(s)
        y = [alg.zero()] * lr.rank
        y[j] = alg.basis(t)
        vecs = _bracket_vectors(lr, {i: x[i].coeffs}, {j: y[j].coeffs})
        got = [alg.elem(vecs[k]) if k in vecs else alg.zero() for k in range(lr.rank)]
        assert LElem(lr, got) == lr_bracket(lr, LElem(lr, x), LElem(lr, y)), (i, s, j, t)


DEGREE_ONE_STRUCTURES = FIXTURE_STRUCTURES + [("heisenberg", heisenberg()), ("gl3", gl_n(3))]


@pytest.mark.parametrize(
    "name,lr", DEGREE_ONE_STRUCTURES, ids=[n for n, _ in DEGREE_ONE_STRUCTURES]
)
def test_degree_one_bracket_matches_lr_bracket_on_fixtures(name, lr):
    assert_degree_one_matches_lr_bracket(lr)


@settings(max_examples=25, deadline=None)
@given(random_tables())
def test_degree_one_bracket_matches_lr_bracket_on_random_tables(p):
    assert_degree_one_matches_lr_bracket(p[0])


def assert_label_tables_match_recursion(lr):
    """The bracket and product label tables of Lambda L against the
    element recursion reference.bracket_terms and wedge, on every ordered
    pair of Q-basis labels; the pairs are visited in order, so most
    entries are read off the entries of their factors."""
    tables = _flat_tables(lr)
    labels = [(t, (), k) for t, k in _basis_multivectors(lr, lr.rank)]
    for x, y in product(labels, repeat=2):
        u = Multivector(lr, {x[2]: lr.alg.basis(x[0])})
        v = Multivector(lr, {y[2]: lr.alg.basis(y[0])})
        want = bracket_terms(lr, {x[1:]: lr.alg.basis(x[0])}, {y[1:]: lr.alg.basis(y[0])})
        cx, cy = tables.code(x), tables.code(y)
        assert tables.carrier(tables.bracket(cx, cy)) == Multivector(lr, {k: c for (_, k), c in want.items()}), (x, y)
        assert tables.carrier(tables.product(cx, cy)) == wedge(u, v), (x, y)


TABLE_STRUCTURES = FIXTURE_STRUCTURES + [("heisenberg", heisenberg()), ("gl2", gl_n(2))]


@pytest.mark.parametrize("name,lr", TABLE_STRUCTURES, ids=[n for n, _ in TABLE_STRUCTURES])
def test_schouten_label_table_matches_recursion_on_fixtures(name, lr):
    assert_label_tables_match_recursion(lr)


@settings(max_examples=25, deadline=None)
@given(random_tables())
def test_schouten_label_table_matches_recursion_on_random_tables(p):
    assert_label_tables_match_recursion(p[0])


class TestSquareWitness:
    def test_curved_line_on_derx3(self):
        lr = derx3()
        m = line_with_connection(lr, [lr.alg.basis(1), lr.alg.zero()])
        assert ce_square_witness(lr, m) == (0, (), 0, 0)

    def test_witness_names_the_curved_slot(self):
        # f_0 is a flat summand, f_1 carries omega = (x, 0)
        lr = derx3()
        a = lr.alg
        z = a.zero()
        m = LRModule(lr, 2, [[(z, z), (z, a.basis(1))], [(z, z), (z, z)]])
        assert ce_square_witness(lr, m) == (0, (), 1, 0)
        assert ce_square_witness(lr, m, 0) == (0, (), 1, 0)

    def test_negative_cap_is_refused(self):
        lr = derx3()
        m = line_with_connection(lr, [lr.alg.basis(1), lr.alg.zero()])
        with pytest.raises(ValueError, match="got -1"):
            ce_square_witness(lr, m, -1)
        assert ce_square_witness(lr, m, 0) == (0, (), 0, 0)

    def test_flat_line_has_none(self):
        lr = derx3()
        m = line_with_connection(lr, [lr.alg.zero(), lr.alg.basis(1)])
        assert ce_square_witness(lr, m) is None


@st.composite
def sparse_rational_matrix(draw):
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    ents = [
        draw(st.sampled_from([0, 0, 0, 1])) * draw(st.fractions(-4, 4, max_denominator=5))
        for _ in range(rows * cols)
    ]
    return RatMatrix(rows, cols, ents)


@settings(max_examples=80, deadline=None)
@given(sparse_rational_matrix())
def test_sparse_rank_equals_dense_echelon_rank(m):
    assert mat_rank(to_sparse(m)) == len(_echelon(m)[1])


def test_sparse_matrix_drops_zeros_and_checks_bounds():
    m = SparseMatrix(2, 2, {(0, 0): 0, (1, 0): Fraction(1, 2)})
    assert m.entries == {(1, 0): Fraction(1, 2)}
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, {(0, 0): 0.5})
