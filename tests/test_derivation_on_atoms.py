"""The dG derivation verdicts decided on the atoms of the label tables.

``twilled._dg_checks`` sums the derivation residual of d'' on the pairs of
table atoms (pure forms and single vectors) first, and runs the ordered
loop over a carrier only when some atom pair fails.  That rests on two
facts, each tested here: d'' on multivectors derives the bigraded product
of the label tables on every label pair, whenever every anchor is a
derivation of the base, flat action or not; and the verdicts and
witnesses of ``_dg_checks`` are those of the dense loop of ``reference``
over each whole carrier, on pairs whose atom pass is clean and on pairs
where it fails.
"""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from lierine import gerst
from lierine.calgebra import Derivation
from lierine.cli import parse_instance
from lierine.instances import book_double, book_double_flipped, truncated_poly, x2_del, x_del
from lierine.lrcore import LieRinehart
from lierine.twilled import (
    AlmostTwilled,
    _bigraded_elems,
    _dg_lie_and_gerstenhaber,
    _differential,
    _label_tables,
    _lie_elems,
    bigraded_labels,
    dsecond_multi,
    is_twilled,
)
from test_atom_tables import SPLIT, bench_sl2_double
from test_twilled import SHIPPED_PAIRS, perturbed_pairs, random_anchor


def product_witness(t):
    """The first label pair on which d'' on multivectors fails the product
    rule for the label-table product, with the residual, or None."""
    return reference.product_derivation_witness(list(bigraded_labels(t)), _label_tables(t), _differential(t, "multi"))


PAIRS = SHIPPED_PAIRS + [("bench_sl2_double", None)]


@pytest.mark.parametrize("name,t", PAIRS, ids=[n for n, _ in PAIRS])
def test_dsecond_derives_the_product_on_fixture_pairs(name, t, tmp_path):
    if t is None:
        t = parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double")
    assert product_witness(t) is None


def sparse_elem(draw, alg):
    values = st.sampled_from([0, 0, 0, 0, 1, -1, Fraction(1, 2)])
    return alg.elem([draw(values) for _ in range(alg.dim)])


def derivation_anchor(draw, alg) -> Derivation:
    """A derivation of the base: c x d/dx + c' x^2 d/dx on Q[x]/(x^k), zero
    on Q x Q."""
    if alg is SPLIT:
        return Derivation.zero(alg)
    c, c2 = (draw(st.sampled_from([0, 1, -1, Fraction(1, 2)])) for _ in range(2))
    images = [x_del(alg).apply(b) * c + x2_del(alg).apply(b) * c2 for b in map(alg.basis, range(alg.dim))]
    return Derivation.from_images(alg, images)


# Arbitrary brackets and (curved) actions, sparse, so that some atom passes
# are clean; the anchors are derivations of the base or arbitrary maps.
pairs = partial(
    perturbed_pairs, st.sampled_from([truncated_poly(1), truncated_poly(2), truncated_poly(3), SPLIT]), elem=sparse_elem
)


@settings(max_examples=60, deadline=None)
@given(pairs(anchors=st.just(derivation_anchor)))
def test_dsecond_derives_the_product_on_perturbed_pairs(t):
    assert product_witness(t) is None


def test_dsecond_derives_the_product_only_with_derivation_anchors(monkeypatch):
    """An anchor of L'' sending 1 to 1 is no derivation of Q, and d'' then
    fails the rule on the unit: why the atom pass needs derivation anchors.
    Without them no atom pass runs, and each carrier runs its own loop."""
    alg = truncated_poly(1)
    zero = [[[alg.zero()]]]
    lp = LieRinehart(alg, 1, zero, [Derivation.zero(alg)])
    ls = LieRinehart(alg, 1, zero, [Derivation.from_images(alg, [alg.one()])])
    t = AlmostTwilled(lp, ls, zero, zero)
    assert product_witness(t)[:2] == ((0, (), ()), (0, (), ()))
    assert [v.axiom for v in is_twilled(t)] == ["anchor-derivation"]
    runs, loop = [], gerst._pair_witness
    monkeypatch.setattr(gerst, "_pair_witness", lambda elems, *args: runs.append(elems) or loop(elems, *args))
    _dg_lie_and_gerstenhaber(t)
    assert runs == [_lie_elems(t), _bigraded_elems(t)]


def test_atom_pass_decides_both_carriers_and_failing_atoms_give_the_reference_witnesses():
    """On every drawn pair the derivation verdicts and witnesses of both
    carriers are those of the dense loop over the carrier; among the pairs
    with derivation anchors, the atom pass is clean on some (the twilled
    book double among them) and fails on others (its flipped form)."""
    branches = set()

    @settings(max_examples=80, deadline=None)
    @example(book_double())
    @example(book_double_flipped())
    @given(pairs(anchors=st.sampled_from([derivation_anchor, random_anchor])))
    def check(t):
        d = reference.operator(t, partial(dsecond_multi, t))
        for report, elems in zip(_dg_lie_and_gerstenhaber(t), (_lie_elems(t), _bigraded_elems(t))):
            want = reference.derivation_witness(elems, _label_tables(t), d)
            assert report["derivation"] == (want is None)
            assert report["witnesses"].get("derivation") == (want and want[0] + want[1])
        if all(v.axiom != "anchor-derivation" for v in is_twilled(t)):
            atoms = [e for e in _bigraded_elems(t) if gerst._atom(*e[0][1:])]
            branches.add(reference.derivation_witness(atoms, _label_tables(t), d) is None)

    check()
    assert branches == {True, False}
