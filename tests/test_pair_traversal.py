"""Degree-bounded pair traversal and label products off the compiled base.

The witness loop of ``gerst`` pairs each element only with the elements
that reach a bidegree of the carrier; it must return the same
(label1, label2, residual) as the dense loop over all ordered pairs kept
in ``reference``, repr-equal, on input whose witnesses are mostly
nonzero.  ``gerstenhaber_validate`` and the all-degrees reading of the
compatibility decide on the labels of degree at most 1 first; at every
cap their reports must be those of the dense loops over every label
through the cap.  The label product reads the compiled products of the
base and must give the vector of the old route through algebra elements,
with the same values, value types and key order.
"""

from fractions import Fraction
from importlib import resources
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lierine import bialg, cli, gerst
from lierine.bialg import DualPair, semidirect_dual_pair
from lierine.calgebra import Derivation
from lierine.gerst import TopConnection, generator_from_connection
from lierine.exactla import RatMatrix
from lierine.instances import abelian, book, book_double_flipped, derx2, derx3, gl_n, heisenberg, sl2, truncated_poly
from lierine.lrcore import LieRinehart, lr_validate
from lierine.twilled import _bigraded_elems, _dg_lie_and_gerstenhaber, _differential, _label_tables, _lie_elems
from test_atom_tables import (
    HALVES,
    SPLIT,
    bench_sl2_double,
    perturbed_pairs,
    random_structure,
    structures_with_operators,
)

FIXTURES = resources.files("lierine") / "fixtures"


def dense():
    """Run the witness checkers on the dense loop of ``reference``, over
    every ordered pair of all elements whatever symmetry the checker
    declares."""
    return mock.patch.object(
        gerst,
        "_pair_witness",
        lambda elems, tables, residual, ranks, shift, first=None: reference.pair_witness(elems, tables, residual),
    )


def assert_same_as_dense(check, *args):
    """check(*args) on the bounded loop and on the dense one, repr-equal;
    returns the bounded result."""
    bounded = check(*args)
    with dense():
        full = check(*args)
    assert repr(bounded) == repr(full)
    return bounded


def witnesses(elems, make_tables, op):
    """The derivation and generator witnesses of op on elems, each on
    fresh tables."""
    return (
        gerst._derivation_witness(elems, make_tables(), op),
        gerst._generator_witness(elems, make_tables(), op),
    )


def fixture_instances():
    return [cli.parse_instance(str(path)) for path in sorted(FIXTURES.iterdir(), key=lambda p: p.name) if path.name.endswith(".lri")]


FIXTURE_LRS = [(f"{name}", inst.lr(name)) for inst in fixture_instances() for name in inst.lrs]
FIXTURE_PAIRS = [(name, inst.build_twilled(name)) for inst in fixture_instances() for name in inst.twilleds]


@settings(max_examples=60, deadline=None)
@given(perturbed_pairs())
def test_bounded_witnesses_match_dense_loop_on_perturbed_pairs(p):
    """Every operator of the bigraded carrier: d'' on multivectors and on
    forms (bidegree (1, 0)), d' (bidegree (0, 1)) and an arbitrary degree
    -1 operator, on the whole carrier and on its inner-degree-1 part."""
    t, op = p
    make = lambda: _label_tables(t)
    found = []
    for elems in (_bigraded_elems(t), _lie_elems(t)):
        for kind in ("multi", "form", "dprime"):
            found.append(assert_same_as_dense(gerst._derivation_witness, elems, make(), _differential(t, kind)))
        found.append(assert_same_as_dense(witnesses, elems, make, op))
    assert any(f is not None for f in found)


@settings(max_examples=60, deadline=None)
@given(structures_with_operators())
def test_bounded_witnesses_match_dense_loop_on_structures_with_operators(p):
    """An arbitrary degree -1 operator on basis labels, and on unit vectors
    1 e_S, which over Q x Q are combinations of two labels."""
    lr, op = p
    make = lambda: gerst._flat_tables(lr)
    labels = gerst._label_elems(lr, lr.rank)
    units = [(key, gerst._vector({((), key): lr.alg.one()}), len(key)) for t, key in gerst._basis_multivectors(lr, lr.rank) if t == 0]
    for elems in (labels, units):
        assert_same_as_dense(witnesses, elems, make, op)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIXTURE_LRS), st.data())
def test_bounded_witnesses_match_dense_loop_on_curved_connections(named, data):
    """Generators of arbitrary connections on the top power, flat or not,
    through the public checkers."""
    lr = named[1]
    omega = [lr.alg.elem([data.draw(st.sampled_from([0, 1, -1, Fraction(1, 2)])) for _ in range(lr.alg.dim)]) for _ in range(lr.rank)]
    g = generator_from_connection(lr, TopConnection(lr, omega))
    assert_same_as_dense(gerst.generator_validate, lr, g)
    assert_same_as_dense(gerst.generator_derivation_check, lr, g)


def transported_witnesses(p: DualPair, max_degree: int):
    """Both readings of the compatibility of a dual pair: the transported
    differential of d on the vectors of l, and that of l on the wedges of d."""
    l, d = p.l, p.d
    vectors = [(i, gerst._vector({((), (i,)): l.alg.one()}), 1) for i in range(l.rank)]
    wedges = [(s, gerst._vector({((), s): d.alg.one()}), len(s)) for t, s in gerst._basis_multivectors(d, max_degree) if t == 0]
    return (
        gerst._derivation_witness(vectors, gerst._flat_tables(l), bialg._transported(d, l)),
        gerst._derivation_witness(wedges, gerst._flat_tables(d), bialg._transported(l, d)),
    )


def shipped_dual_pairs():
    out = [(f"{name}", inst.build_dual_pair(name)) for inst in fixture_instances() for name in inst.bialgebras]
    for name, t in FIXTURE_PAIRS:
        try:
            out.append((f"semidirect {name}", semidirect_dual_pair(t)))
        except ValueError:  # a non-flat action has no dual here
            pass
    return out


@pytest.mark.parametrize("name,pair", shipped_dual_pairs(), ids=[n for n, _ in shipped_dual_pairs()])
def test_bounded_witnesses_match_dense_loop_on_shipped_dual_pairs(name, pair):
    for cap in range(1, pair.l.rank + 1):
        assert_same_as_dense(transported_witnesses, pair, cap)
    assert_report_is_dense_readings(pair)


def assert_report_is_dense_readings(pair: DualPair) -> bool:
    """The compatibility report of a pair with valid sides is that of both
    readings on the dense loop at every cap, the all-degrees one over
    every unit wedge through the cap, which agree; returns its verdict."""
    report = bialg._compatibility(pair)
    for cap in range(1, pair.l.rank + 1):
        with dense():
            degree_one, all_degrees = transported_witnesses(pair, cap)
        assert report.holds == (degree_one is None) == (all_degrees is None)
        assert report.holds or report.witness[1] == degree_one[:2]
    return report.holds


@st.composite
def random_dual_pairs(draw):
    """Arbitrary bracket tables of equal rank, so the compatibility fails
    on most draws; zero anchors keep the trivial coefficients flat."""
    alg = draw(st.sampled_from([SPLIT, HALVES]))
    n = draw(st.integers(1, 3))
    zero = [Derivation.zero(alg)] * n
    return DualPair(*(LieRinehart(alg, n, random_structure(draw, alg, n).bracket, zero) for _ in range(2)))


@settings(max_examples=40, deadline=None)
@given(random_dual_pairs())
def test_bounded_witnesses_match_dense_loop_on_random_dual_pairs(pair):
    assert_same_as_dense(transported_witnesses, pair, pair.l.rank)


def dense_gerstenhaber(lr, cap):
    """The loops of ``gerstenhaber_validate`` over every label through the
    cap, on the dense loop: no generator pass."""
    with dense():
        return gerst._gerstenhaber_violations(gerst._flat_tables(lr), gerst._label_elems(lr, cap))


def generator_pass_fails(lr):
    """Whether the loops of ``gerstenhaber_validate`` find a witness on
    the labels of degree at most 1."""
    return bool(gerst._gerstenhaber_violations(gerst._flat_tables(lr), gerst._label_elems(lr, 1)))


@settings(max_examples=30, deadline=None)
@given(structures_with_operators())
def test_gerstenhaber_validate_matches_dense_loop(p):
    lr = p[0]
    for cap in range(lr.rank + 1):
        assert repr(gerst.gerstenhaber_validate(lr, cap)) == repr(dense_gerstenhaber(lr, cap))


VALID_STRUCTURES = [sl2(), gl_n(2), heisenberg(), derx2(), derx3(), book(), abelian(truncated_poly(2), 2)]
VALUES = st.sampled_from([0, 0, 1, -1, Fraction(1, 2)])


@st.composite
def near_valid_structures(draw):
    """A valid structure with one perturbation: one bracket entry
    replaced, c added to [e_i, e_j] and taken from [e_j, e_i], or one
    anchor replaced by an arbitrary linear map of the base."""
    lr = draw(st.sampled_from(VALID_STRUCTURES))
    alg, n = lr.alg, lr.rank
    bracket, anchor = [[list(entry) for entry in row] for row in lr.bracket], list(lr.anchor)
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    c = alg.elem([draw(VALUES) for _ in range(alg.dim)])
    kind = draw(st.sampled_from(["entry", "pair", "anchor"]))
    if kind == "entry":
        bracket[i][j][k] = c
    elif kind == "pair":
        bracket[i][j][k], bracket[j][i][k] = bracket[i][j][k] + c, bracket[j][i][k] - c
    else:
        anchor[i] = Derivation(alg, RatMatrix(alg.dim, alg.dim, [draw(VALUES) for _ in range(alg.dim ** 2)]))
    return LieRinehart(alg, n, bracket, anchor)


def test_gerstenhaber_validate_matches_dense_loop_on_near_valid_structures():
    """One perturbation of a valid structure mostly breaks an axiom on a
    few labels, or none: the generator pass is clean on some draws and
    fails on others, and at every cap the report is that of the loops over
    every label through the cap."""
    branches = set()

    @settings(max_examples=80, deadline=None)
    @given(near_valid_structures())
    def check(lr):
        for cap in range(lr.rank + 1):
            assert repr(gerst.gerstenhaber_validate(lr, cap)) == repr(dense_gerstenhaber(lr, cap))
        branches.add(generator_pass_fails(lr))

    check()
    assert branches == {True, False}


def visited_pairs(monkeypatch):
    """A list that gets, for each run of the witness loop, the set of label
    pairs whose residual it sums, each code read back through the tables'
    decoder."""
    runs = []
    loop = gerst._pair_witness

    def recording_loop(elems, tables, residual, ranks, shift, first=None):
        pairs = set()
        runs.append(pairs)

        def recording(out, c, su, x, y):
            pairs.add((tables.label(x), tables.label(y)))
            residual(out, c, su, x, y)

        return loop(elems, tables, recording, ranks, shift, first)

    monkeypatch.setattr(gerst, "_pair_witness", recording_loop)
    return runs


def existing(labels, ranks, shift, symmetric=False):
    """The label pairs whose residual bidegree, (q1 + q2, p1 + p2) + shift,
    has labels in a carrier of the given outer and inner ranks; for a
    residual read as graded symmetric, only those (x, y) with x no later
    than y in labels."""
    reach = lambda x, y: all(0 <= len(x[k]) + len(y[k]) + shift[k - 1] <= ranks[k - 1] for k in (1, 2))
    return {(x, y) for a, x in enumerate(labels) for y in labels[a if symmetric else 0:] if reach(x, y)}


def existing_up_to(elems, found, ranks, shift, symmetric=False):
    """The existing pairs of the labels of elems whose two elements come,
    in the order of elems, no later than those of the witness found; for
    a residual read as graded symmetric, the first element no later than
    the second."""
    index = {label: n for n, (label, _, _) in enumerate(elems)}
    owner = {x: index[label] for label, vec, _ in elems for x in vec}
    last = (index[found[0]], index[found[1]])
    pairs = existing(list(owner), ranks, shift)
    return {(x, y) for x, y in pairs if (owner[x], owner[y]) <= last and (owner[x] <= owner[y] or not symmetric)}


def test_witness_loop_visits_the_pairs_of_existing_bidegrees_on_sl2_double(monkeypatch, tmp_path):
    """d'' has bidegree (1, 0), so the derivation residual of labels of
    bidegrees (q1, p1), (q2, p2) lies in (q1 + q2 + 1, p1 + p2 - 1).  The
    double is twilled, so the dG checks run one loop, over its 7
    generators (the unit, the 3 outer one-forms and the 3 vectors), which
    visits each of their existing pairs and decides both carriers; the
    loop over a whole carrier, which finds no witness there, visits each
    existing pair.  The bracket of sl2 is antisymmetric over Q, so each
    loop visits an unordered pair once, in the order of its elements."""
    t = cli.parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double")
    runs = visited_pairs(monkeypatch)
    assert all(r["derivation"] for r in _dg_lie_and_gerstenhaber(t))
    generators = [label for label, _, degree in _bigraded_elems(t) if degree <= 1]
    assert len(generators) == 7
    assert runs == [existing(generators, (3, 3), (1, -1), True)]
    carriers = (_lie_elems(t), _bigraded_elems(t))
    for elems in carriers:
        assert gerst._derivation_witness(elems, _label_tables(t), _differential(t, "multi")) is None
    labels = [[label for _, vec, _ in elems for label in vec] for elems in carriers]
    assert runs[1:] == [existing(carrier, (3, 3), (1, -1), True) for carrier in labels]
    assert [len(pairs) for pairs in runs] == [18, 105, 628]


def test_witness_loops_after_a_failing_generator_pass_visit_the_pairs_of_the_whole_carriers(monkeypatch):
    """On a pair that is not twilled the generator pass fails, and each
    carrier then runs its own loop: each of the three loops visits every
    existing pair of its elements up to its witness, which is the witness
    of the carrier's loop run alone.  The pair's bracket is antisymmetric
    over its commutative base, so each loop visits an unordered pair
    once, in the order of its elements."""
    t = book_double_flipped()
    d = _differential(t, "multi")
    elems = [e for e in _bigraded_elems(t) if e[2] <= 1], _lie_elems(t), _bigraded_elems(t)
    alone = [gerst._derivation_witness(e, _label_tables(t), d) for e in elems]
    assert None not in alone
    runs = visited_pairs(monkeypatch)
    reports = _dg_lie_and_gerstenhaber(t)
    assert [r["witnesses"]["derivation"] for r in reports] == [found[0] + found[1] for found in alone[1:]]
    assert runs == [existing_up_to(e, found, (2, 2), (1, -1), True) for e, found in zip(elems, alone)]
    assert [len(pairs) for pairs in runs] == [5, 3, 13]


def test_witness_loop_visits_the_pairs_of_existing_bidegrees_of_generators_and_transports(monkeypatch):
    """A generator has bidegree (0, -1) and the transported differential
    (0, 1); on passing input every existing pair is visited, an unordered
    one once, as every bracket here is antisymmetric over Q or Q[x]/(x^3).
    The all-degrees reading of the compatibility runs on the unit wedges
    of degree at most 1 only."""
    lr = cli.parse_instance(str(FIXTURES / "derx3.lri")).lr("derx3")
    g = generator_from_connection(lr, TopConnection(lr, [lr.alg.zero()] * lr.rank))
    pair = cli.parse_instance(str(FIXTURES / "sl2.lri")).build_dual_pair("std")
    runs = visited_pairs(monkeypatch)
    assert gerst.generator_validate(lr, g) == [] and gerst.generator_derivation_check(lr, g) == []
    assert bialg._compatibility(pair).holds
    labels = [(t, (), key) for t, key in gerst._basis_multivectors(lr, lr.rank)]
    vectors = [(0, (), (i,)) for i in range(3)]
    wedges = [(0, (), key) for _, key in gerst._basis_multivectors(pair.d, 1)]
    assert runs == [
        existing(labels, (0, 2), (0, -1), True),
        existing(labels, (0, 2), (0, -2), True),
        existing(vectors, (0, 3), (0, 0), True),
        existing(wedges, (0, 3), (0, 0), True),
    ]
    assert all(len(pairs) < len(labels) ** 2 for pairs in runs[:2])
    assert [len(pairs) for pairs in runs[2:]] == [6, 10]


def assert_products_match(tables, labels):
    for x, y in product(labels, repeat=2):
        got = tables.decode(tables.product(tables.code(x), tables.code(y)))
        assert repr(got) == repr(reference.label_product(tables, x, y)), (x, y)


@pytest.mark.parametrize("name,lr", FIXTURE_LRS, ids=[n for n, _ in FIXTURE_LRS])
def test_label_products_match_element_route_on_fixture_structures(name, lr):
    assert_products_match(gerst._flat_tables(lr), [(t, (), key) for t, key in gerst._basis_multivectors(lr, lr.rank)])


@pytest.mark.parametrize("name,t", FIXTURE_PAIRS, ids=[n for n, _ in FIXTURE_PAIRS])
def test_label_products_match_element_route_on_fixture_pairs(name, t):
    assert_products_match(_label_tables(t), [label for label, _, _ in _bigraded_elems(t)])


def test_label_products_match_element_route_on_sl2_double(tmp_path):
    t = cli.parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double")
    assert_products_match(_label_tables(t), [label for label, _, _ in _bigraded_elems(t)])


@settings(max_examples=30, deadline=None)
@given(structures_with_operators())
def test_label_products_match_element_route_over_split_and_scaled_bases(p):
    """Over Q x Q on its idempotents and on twice them, and Q[x]/(x^2):
    products with several terms, and integral and non-integral values."""
    lr = p[0]
    assert_products_match(gerst._flat_tables(lr), [(t, (), key) for t, key in gerst._basis_multivectors(lr, lr.rank)])


def test_degree_one_table_fills_only_the_entries_read():
    """Jacobi reads a few entries of the degree-one table; only those are
    compiled, each on its first read, and each equals the Leibniz
    expansion on algebra elements."""
    lr = abelian(truncated_poly(3), 3)
    assert lr_validate(lr) == []
    ones = lr._ones
    assert 0 < len(ones) < lr.rank ** 2 * lr.alg.dim ** 2
    basis = lr.alg.basis
    for i, j, s, t in list(ones):
        assert ones[(i, j, s, t)] == reference.leibniz(lr, i, basis(s), j, basis(t))
