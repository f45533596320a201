"""One operator class: ``GeneratorOp`` holds sparse label columns.

Generators of connections, their bigraded extensions, arbitrary
tabulated operators, d' with and without a line, both d'' and the
transported differential are compared column by column, values and key
order, with the two-form route kept in ``reference``: an element table
applied term by term (``ElementOp``), or a map on carrier elements, read
back as label columns through the element round-trip
(``reference.operator``).  The kept-column differentials are also read
through the old column reader (``reference.Columns``).  Run on every
shipped structure and pair, the benchmark's sl2 double and the
hypothesis tables of ``test_atom_tables`` and ``test_operator_columns``.
The constructor rejects labels that are not on its carrier.
"""

from functools import partial
from importlib import resources

import pytest
from hypothesis import given, settings

import reference
from lierine import bialg, cli, gerst, twilled
from lierine.bialg import semidirect_dual_pair
from lierine.gerst import GeneratorOp, Multivector, TopConnection, generator_from_connection
from lierine.instances import abelian, book_double, derx2, derx3, desk_pair, heisenberg, sl2, truncated_poly
from lierine.lrcore import LieRinehart, trivial_coefficients
from lierine.twilled import AlmostTwilled, Bigraded, bigraded_generator_extend, bigraded_labels
from test_atom_tables import bench_sl2_double, perturbed_tables, structures_with_tables
from test_operator_columns import DUAL_PAIRS
from test_operator_columns import perturbed_pairs as pairs_with_lines
from test_twilled import SHIPPED_PAIRS

FIXTURES = resources.files("lierine") / "fixtures"


def same_columns(op, ref, labels) -> None:
    """Every column of op equals the column of ref, values and key order."""
    for label in labels:
        got, want = op.column(label), ref.column(label)
        assert list(got.items()) == list(want.items()), label


def flat_labels(lr: LieRinehart):
    return [(t, (), key) for t, key in gerst._basis_multivectors(lr, lr.rank)]


def shipped_structures():
    """Every structure of the fixture files and the instance builders."""
    out = []
    for path in sorted(FIXTURES.iterdir(), key=lambda p: p.name):
        if path.name.endswith(".lri"):
            inst = cli.parse_instance(str(path))
            out.extend((f"{path.name}:{n}", inst.lr(n)) for n in inst.lrs)
    for build in (derx2, derx3, sl2, heisenberg):
        out.append((build.__name__, build()))
    out.append(("abelian_x3", abelian(truncated_poly(3), 2)))
    return out


STRUCTURES = shipped_structures()


def connections(lr: LieRinehart):
    """Zero, unit and distinct scalar connection forms on lr."""
    alg = lr.alg
    return [
        TopConnection(lr, [alg.zero()] * lr.rank),
        TopConnection(lr, [alg.one()] * lr.rank),
        TopConnection(lr, [alg.scalar(i + 2) * alg.basis(alg.dim - 1) for i in range(lr.rank)]),
    ]


def assert_generator_matches(lr: LieRinehart, c: TopConnection):
    """Columns, table view, inputs and equality, and the square-zero
    verdict with its witness input against D.D on the old columns."""
    g, ref = generator_from_connection(lr, c), reference.generator_from_connection(lr, c)
    D = reference.operator(lr, ref.apply)
    same_columns(g, D, flat_labels(lr))
    assert list(g.table.items()) == list(ref.table.items())
    assert list(g.inputs()) == list(ref.inputs())
    assert g == GeneratorOp(lr, ref.table)
    first = next((lab for lab in ref.inputs() if D.apply(D.column((lab[0], (), lab[1])))), None)
    assert gerst.generator_square(g) == (first is None, first)
    return first


def test_curved_connections_have_square_witnesses():
    """The square-zero witnesses above are not all None."""
    found = [assert_generator_matches(lr, c) for _, lr in STRUCTURES for c in connections(lr)]
    assert sum(w is not None for w in found) >= 5


@pytest.mark.parametrize("name,lr", STRUCTURES, ids=[n for n, _ in STRUCTURES])
def test_generators_match_element_route_on_shipped_structures(name, lr):
    for c in connections(lr):
        assert_generator_matches(lr, c)


def test_fixture_connections_match_element_route():
    inst = cli.parse_instance(str(FIXTURES / "derx3.lri"))
    assert len(inst.connections) == 2
    for name in inst.connections:
        assert_generator_matches(*inst.build_connection(name))


def test_generator_of_bench_sl2_double_sides_matches_element_route(tmp_path):
    inst = cli.parse_instance(str(bench_sl2_double(tmp_path)))
    for name in ("sl2", "sl2_dual"):
        for c in connections(inst.lr(name)):
            assert_generator_matches(inst.lr(name), c)


def assert_extension_matches(t: AlmostTwilled, omega) -> None:
    lp = t.lprime
    op = bigraded_generator_extend(t, generator_from_connection(lp, TopConnection(lp, omega)))
    ref = reference.bigraded_generator_extend(t, omega)
    labels = list(bigraded_labels(t))
    same_columns(op, reference.operator(t, ref.apply), labels)
    assert list(op.table.items()) == list(ref.table.items())
    assert list(op.inputs()) == list(ref.inputs())


@pytest.mark.parametrize("name,t", SHIPPED_PAIRS, ids=[n for n, _ in SHIPPED_PAIRS])
def test_bigraded_extensions_match_element_route(name, t):
    alg = t.alg
    for omega in ([alg.zero()] * t.lprime.rank, [alg.one()] * t.lprime.rank):
        assert_extension_matches(t, omega)


def test_bigraded_extension_on_bench_sl2_double_matches_element_route(tmp_path):
    t = cli.parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double")
    assert_extension_matches(t, [t.alg.zero()] * t.lprime.rank)


def assert_table_operator_matches(parent, table, labels) -> None:
    """The operator of an element table against the table applied term by
    term: columns, the table view and its key order, the inputs, and the
    image of every label element."""
    op, ref = GeneratorOp(parent, table), reference.ElementOp(parent, table)
    same_columns(op, reference.operator(parent, ref.apply), labels)
    assert op.table == table
    assert list(op.table) == list(ref.table)
    assert list(op.inputs()) == list(ref.inputs())
    for label in labels:
        u = reference.label_element(parent, label)
        assert op.apply(u) == ref.apply(u), label


@settings(max_examples=60, deadline=None)
@given(perturbed_tables())
def test_bigraded_tables_match_element_route(p):
    t, table = p
    assert_table_operator_matches(t, table, list(bigraded_labels(t)))


@settings(max_examples=60, deadline=None)
@given(structures_with_tables())
def test_flat_tables_match_element_route(p):
    lr, table = p
    assert_table_operator_matches(lr, table, flat_labels(lr))


def assert_differentials_match(t: AlmostTwilled, line) -> None:
    """d' with and without the line and both d'' against the old column
    reader on every label, and against the element path read back through
    the round-trip."""
    element_paths = [
        ("dprime", None, lambda w: reference.dprime_form(t, w)),
        ("dprime", line, lambda w: reference.dprime_form(t, w, line)),
        ("form", None, lambda w: reference.dsecond_form(t, w)),
        ("multi", None, lambda w: reference.dsecond_multi(t, w)),
    ]
    labels = list(bigraded_labels(t))
    for kind, ln, path in element_paths:
        op = twilled._differential(t, kind, ln)
        assert isinstance(op, GeneratorOp) and op.parent == t
        same_columns(op, reference.Columns(partial(twilled._ce_column, t, kind, ln)), labels)
        ref = reference.operator(t, path)
        for label in labels:
            assert op.column(label) == ref.column(label), (kind, ln, label)


def assert_transported_match(source: LieRinehart, target: LieRinehart) -> None:
    op = bialg._transported(source, target)
    assert isinstance(op, GeneratorOp) and op.parent == target
    triv = trivial_coefficients(source)
    ref = reference.operator(target, partial(reference.transport_differential, source, triv, target))
    for label in flat_labels(target):
        assert op.column(label) == ref.column(label), label


def unit_line(t: AlmostTwilled):
    return [t.alg.scalar(i + 2) for i in range(t.lprime.rank)]


@pytest.mark.parametrize("name,t", SHIPPED_PAIRS, ids=[n for n, _ in SHIPPED_PAIRS])
def test_differentials_match_both_routes_on_shipped_pairs(name, t):
    assert_differentials_match(t, unit_line(t))


def test_differentials_match_both_routes_on_bench_sl2_double(tmp_path):
    t = cli.parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double")
    assert_differentials_match(t, unit_line(t))
    pair = semidirect_dual_pair(t)
    assert_transported_match(pair.d, pair.l)
    assert_transported_match(pair.l, pair.d)


@pytest.mark.parametrize("name,t", DUAL_PAIRS, ids=[n for n, _ in DUAL_PAIRS])
def test_transported_matches_element_route_on_shipped_dual_pairs(name, t):
    pair = semidirect_dual_pair(t)
    assert_transported_match(pair.d, pair.l)
    assert_transported_match(pair.l, pair.d)


@settings(max_examples=30, deadline=None)
@given(pairs_with_lines())
def test_differentials_match_both_routes_on_perturbed_pairs(p):
    t, line = p
    assert_differentials_match(t, line)


def test_label_outside_the_algebra_basis_is_rejected():
    lr = derx3()
    assert lr.alg.dim == 3
    with pytest.raises(ValueError, match=r"table label \(7, \(0,\)\) is not a basis label"):
        GeneratorOp(lr, {(7, (0,)): Multivector(lr, {(): lr.alg.one()})})


def test_outer_label_outside_the_outer_rank_is_rejected():
    t = desk_pair()
    assert t.lsecond.rank == 1
    with pytest.raises(ValueError, match=r"table label \(0, \(5,\), \(0,\)\) is not a basis label"):
        GeneratorOp(t, {(0, (5,), (0,)): Bigraded(t, 1, 0, {})})


@pytest.mark.parametrize("bad", ["unsorted", "repeated", "rank", "negative"])
def test_subsets_off_the_carrier_are_rejected(bad):
    def key(rank):
        return {"unsorted": (1, 0), "repeated": (0, 0), "rank": (rank,), "negative": (-1,)}[bad]

    lr, t = derx3(), desk_pair()
    with pytest.raises(ValueError, match="is not a basis label"):
        GeneratorOp(lr, {(0, key(lr.rank)): Multivector(lr, {})})
    with pytest.raises(ValueError, match="is not a basis label"):
        GeneratorOp(t, {(0, (), key(t.lprime.rank)): Bigraded(t, 0, 0, {})})
    with pytest.raises(ValueError, match="is not a basis label"):
        GeneratorOp(t, {(0, key(t.lsecond.rank), (0,)): Bigraded(t, 0, 0, {})})


def test_checkers_reject_an_operator_of_another_carrier():
    t, lr = desk_pair(), derx3()
    assert book_double() != t
    g = generator_from_connection(lr, connections(lr)[0])
    op = bigraded_generator_extend(t, generator_from_connection(t.lprime, connections(t.lprime)[0]))
    for check in (
        lambda: gerst.generator_validate(sl2(), g),
        lambda: gerst.generator_derivation_check(sl2(), g),
        lambda: twilled.bigraded_generator_validate(t, g),
        lambda: twilled.bv_commutator_check(t, g),
        lambda: twilled.bv_commutator_check(book_double(), op),
        lambda: twilled.bigraded_generator_validate(book_double(), op),
    ):
        with pytest.raises(ValueError, match="parent mismatch"):
            check()
