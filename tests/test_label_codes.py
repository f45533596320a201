"""Label tables on int codes.

``gerst._LabelTables`` codes each Q-basis label (t, outer, inner) as one
int, t << (ro + ri) | outer mask << ri | inner mask, keys each entry by
the code of its pair and signs each product by popcounts.  Decoded, every
bracket and product entry must be the entry of the tuple-label tables
kept in ``reference`` (``LabelTables``), repr-equal and with the same key
order; the popcount sign must be ``reference.merge_sign`` in both slots
times the cross sign (-1)^{|inner x| |outer y|} of ``reference._merge``.
Also the square witness of an operator on a pair, which names its whole
label.
"""

from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings

import reference
from lierine import cli, gerst, twilled
from lierine.gerst import GeneratorOp, generator_square
from lierine.instances import abelian, gl_n, heisenberg, truncated_poly
from reference import merge_sign
from lierine.twilled import AlmostTwilled, Bigraded, bigraded_labels
from test_atom_tables import bench_sl2_double, perturbed_pairs
from test_pair_traversal import FIXTURE_LRS, FIXTURE_PAIRS, FIXTURES
from test_sparse import random_tables


def flat_labels(lr):
    return [(t, (), key) for t, key in gerst._basis_multivectors(lr, lr.rank)]


def assert_tables_match_oracle(packed, oracle, labels):
    """Every ordered pair of labels, in order, on both tables: the codes
    decode to their labels, and each bracket and product entry decodes to
    the oracle's entry, repr-equal (values, value types and key order)."""
    for x, y in product(labels, repeat=2):
        cx, cy = packed.code(x), packed.code(y)
        assert packed.label(cx) == x
        assert repr(packed.decode(packed.bracket(cx, cy))) == repr(oracle.bracket(x, y)), (x, y)
        assert repr(packed.decode(packed.product(cx, cy))) == repr(oracle.product(x, y)), (x, y)
    assert len(packed.brackets) == sum(map(len, oracle.brackets.values()))


def assert_flat_tables_match(lr):
    assert_tables_match_oracle(gerst._flat_tables(lr), reference.LabelTables(lr, gerst.schouten_bracket), flat_labels(lr))


def assert_pair_tables_match(t):
    oracle = reference.LabelTables(t, partial(twilled.crossed_bracket, t))
    assert_tables_match_oracle(twilled._label_tables(t), oracle, list(bigraded_labels(t)))


STRUCTURES = FIXTURE_LRS + [("heisenberg", heisenberg()), ("gl2", gl_n(2))]


@pytest.mark.parametrize("name,lr", STRUCTURES, ids=[n for n, _ in STRUCTURES])
def test_packed_tables_match_tuple_tables_on_structures(name, lr):
    assert_flat_tables_match(lr)


@pytest.mark.parametrize("name,t", FIXTURE_PAIRS, ids=[n for n, _ in FIXTURE_PAIRS])
def test_packed_tables_match_tuple_tables_on_fixture_pairs(name, t):
    assert_pair_tables_match(t)


def test_packed_tables_match_tuple_tables_on_sl2_double(tmp_path):
    assert_pair_tables_match(cli.parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double"))


@settings(max_examples=30, deadline=None)
@given(perturbed_pairs())
def test_packed_tables_match_tuple_tables_on_perturbed_pairs(p):
    assert_pair_tables_match(p[0])


@settings(max_examples=25, deadline=None)
@given(random_tables(max_rank=4))
def test_packed_tables_match_tuple_tables_on_random_tables(p):
    assert_flat_tables_match(p[0])


SUBSETS = [s for p in range(6) for s in combinations(range(5), p)]


def mask(subset):
    return sum(1 << i for i in subset)


def test_product_sign_is_merge_sign_in_both_slots_times_cross_sign():
    """Every pair of subsets of range(5) in the outer slot against every
    pair in the inner one; 0 exactly when a slot overlaps."""
    slot = {(a, b): merge_sign(a, b) for a in SUBSETS for b in SUBSETS}
    masks = {s: mask(s) for s in SUBSETS}
    for (ox, oy), mo in slot.items():
        for (ix, iy), mi in slot.items():
            got = gerst._product_sign(masks[ox] << 5 | masks[ix], masks[oy] << 5 | masks[iy], 5)
            if mo is None or mi is None:
                assert got == 0, (ox, ix, oy, iy)
            else:
                cross = -1 if len(ix) * len(oy) % 2 else 1
                assert got == mo[1] * mi[1] * cross, (ox, ix, oy, iy)


def test_products_over_truncated_poly_match_merge_route():
    """Products with several algebra terms on a pair of ranks 2 (inner) and
    3 (outer) over Q[x]/(x^2): the packed entry against the tuple oracle and
    against the product of the two label elements."""
    alg = truncated_poly(2)
    zero = lambda n, r: [[[alg.zero()] * r for _ in range(r)] for _ in range(n)]
    t = AlmostTwilled(abelian(alg, 2), abelian(alg, 3), zero(2, 3), zero(3, 2))
    packed, oracle = twilled._label_tables(t), reference.LabelTables(t, partial(twilled.crossed_bracket, t))
    labels = list(bigraded_labels(t))
    assert len(labels) == 64
    for x, y in product(labels, repeat=2):
        got = repr(packed.decode(packed.product(packed.code(x), packed.code(y))))
        assert got == repr(oracle.product(x, y)) == repr(reference.label_product(packed, x, y)), (x, y)


def test_square_witness_of_a_pair_operator_keeps_its_outer_subset():
    """D e_{(0),(0,1)} = e_{(0),(1)} and D e_{(0),(1)} = e_{(0),()}, so D.D is
    nonzero only on the label (0, (0,), (0, 1)), which is the witness; the
    label (0, (), (0, 1)) passes."""
    t = cli.parse_instance(str(FIXTURES / "matched_pair.lri")).build_twilled("double")
    one = t.alg.one()
    table = {
        (0, (0,), (0, 1)): Bigraded(t, 1, 1, {((0,), (1,)): one}),
        (0, (0,), (1,)): Bigraded(t, 1, 0, {((0,), ()): one}),
    }
    assert generator_square(GeneratorOp(t, table)) == (False, (0, (0,), (0, 1)))
