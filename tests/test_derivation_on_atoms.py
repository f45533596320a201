"""The dG verdicts and the bicomplex squares decided on the generators.

``twilled._dg_checks`` and ``twilled.bicomplex_square_check`` sum each
square and derivation residual on the labels of total degree at most 1
first, and run the ordered loop over a carrier only when that pass fails.
That rests on the product rule, tested here on every label pair: d'' on
multivectors, and d' and d'' on forms, derive the bigraded product of the
label tables whenever every anchor is a derivation of the base, flat
action or not, and not with arbitrary anchors; likewise the transported
differential of ``bialg`` derives the product of the exterior algebra of
the other side of each shipped dual pair.  The verdicts and witnesses of
``_dg_checks`` and ``bicomplex_square_check`` are those of the dense loops
of ``reference`` over each whole carrier, on pairs whose generator pass
is clean and on pairs where it fails.
"""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from lierine import bialg, gerst
from lierine.calgebra import Derivation
from lierine.cli import parse_instance
from lierine.instances import book_double, book_double_flipped, truncated_poly, x2_del, x_del
from lierine.gerst import _lincomb
from lierine.lrcore import LieRinehart
from lierine.twilled import (
    AlmostTwilled,
    _bigraded_elems,
    _dg_lie_and_gerstenhaber,
    _differential,
    _label_tables,
    _lie_elems,
    bicomplex_square_check,
    bigraded_labels,
    dprime_form,
    dsecond_form,
    dsecond_multi,
    is_twilled,
)
from test_atom_tables import SPLIT, bench_sl2_double
from test_pair_traversal import shipped_dual_pairs
from test_twilled import SHIPPED_PAIRS, perturbed_pairs, random_anchor


def product_witness(t, kind="multi"):
    """The first label pair on which d'' on multivectors ("multi"), d''
    on forms ("form") or d' ("dprime") fails the product rule for the
    label-table product, with the residual, or None."""
    return reference.product_derivation_witness(list(bigraded_labels(t)), _label_tables(t), _differential(t, kind))


PAIRS = SHIPPED_PAIRS + [("bench_sl2_double", None)]


@pytest.mark.parametrize("name,t", PAIRS, ids=[n for n, _ in PAIRS])
def test_dsecond_derives_the_product_on_fixture_pairs(name, t, tmp_path):
    if t is None:
        t = parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double")
    assert product_witness(t) is None


@pytest.mark.parametrize("kind", ["form", "dprime"])
@pytest.mark.parametrize("name,t", PAIRS, ids=[n for n, _ in PAIRS])
def test_form_differentials_derive_the_product_on_fixture_pairs(name, t, kind, tmp_path):
    if t is None:
        t = parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double")
    assert product_witness(t, kind) is None


DUAL_PAIRS = shipped_dual_pairs()


@pytest.mark.parametrize("name,pair", DUAL_PAIRS, ids=[n for n, _ in DUAL_PAIRS])
def test_transported_differential_derives_the_product_on_shipped_dual_pairs(name, pair):
    """Each side's differential, carried to the multivectors of the other
    side, derives their product: why the all-degrees reading of the
    compatibility needs only the unit wedges of degree at most 1."""
    for source, target in ((pair.l, pair.d), (pair.d, pair.l)):
        labels = [(t, (), key) for t, key in gerst._basis_multivectors(target, target.rank)]
        tables = gerst._flat_tables(target)
        assert reference.product_derivation_witness(labels, tables, bialg._transported(source, target)) is None


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


# Arbitrary brackets and (curved) actions, sparse, so that some generator passes
# are clean; the anchors are derivations of the base or arbitrary maps.
pairs = partial(
    perturbed_pairs, st.sampled_from([truncated_poly(1), truncated_poly(2), truncated_poly(3), SPLIT]), elem=sparse_elem
)


@settings(max_examples=60, deadline=None)
@given(pairs(anchors=st.just(derivation_anchor)))
def test_dsecond_derives_the_product_on_perturbed_pairs(t):
    assert product_witness(t) is None


@settings(max_examples=150, deadline=None)
@given(pairs(anchors=st.just(derivation_anchor)))
def test_form_differentials_derive_the_product_on_perturbed_pairs(t):
    assert product_witness(t, "form") is None
    assert product_witness(t, "dprime") is None


def test_form_differentials_fail_the_product_rule_with_arbitrary_anchors():
    """With arbitrary linear maps as anchors, d' and d'' on forms each fail
    the rule on some draw: why the generator passes need derivation anchors."""
    failed = set()

    @settings(max_examples=60, deadline=None)
    @given(pairs(anchors=st.just(random_anchor)))
    def check(t):
        failed.update(kind for kind in ("form", "dprime") if product_witness(t, kind) is not None)

    check()
    assert failed == {"form", "dprime"}


def test_dsecond_derives_the_product_only_with_derivation_anchors(monkeypatch):
    """An anchor of L'' sending 1 to 1 is no derivation of Q, and d'' then
    fails the rule on the unit: why the generator pass needs derivation
    anchors.  Without them no generator pass runs, and each carrier runs
    its own loop."""
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


def dg_reference(t, elems, d):
    """The square and derivation witnesses of d'' over a whole carrier, on
    the dense loops: the first label whose d''d'' image is nonzero, and the
    first failing pair of the derivation identity."""
    square = next((label for label, vec, _ in elems if d.apply(d.apply(vec))), None)
    found = reference.derivation_witness(elems, _label_tables(t), d)
    return square, found and found[0] + found[1]


SQUARES = ("dprime_square", "dsecond_square", "anticommute")


def square_images(t):
    """label -> its image under d'd', d''d'' and d'd'' + d''d' on forms, each
    read through the element round-trip of ``reference``."""
    dp, ds = reference.operator(t, partial(dprime_form, t)), reference.operator(t, partial(dsecond_form, t))
    return dict(zip(SQUARES, (
        lambda label: dp.apply(dp.column(label)),
        lambda label: ds.apply(ds.column(label)),
        lambda label: _lincomb((1, dp.apply(ds.column(label))), (1, ds.apply(dp.column(label)))),
    )))


def squares_reference(t, labels):
    """The bicomplex witnesses over labels in report order: each identity's
    first label with a nonzero image, ordered by label, ties in SQUARES order."""
    first = {key: next((lab for lab in labels if image(lab)), None) for key, image in square_images(t).items()}
    return sorted(((key, lab) for key, lab in first.items() if lab is not None), key=lambda item: labels.index(item[1]))


def curved_abelian_pair():
    """Abelian rank 2 and rank 2 over Q, L'' acting on L' with curvature:
    e''_0 . e'_1 = e'_0 and e''_1 . e'_0 = e'_1, every other entry zero.
    Its d''^2 generator pass fails, at (0, (), (0,))."""
    q = truncated_poly(1)
    z, one = q.zero(), q.one()
    zeros = [[[z, z], [z, z]]] * 2
    abelian = LieRinehart(q, 2, zeros, [Derivation.zero(q)] * 2)
    return AlmostTwilled(abelian, abelian, zeros, [[[z, z], [one, z]], [[z, one], [z, z]]])


def test_curved_abelian_pair_fails_the_dsecond_square_on_its_generators():
    t = curved_abelian_pair()
    assert bicomplex_square_check(t)["witnesses"] == {"dsecond_square": (0, (), (0,))}
    assert [r["witnesses"] for r in _dg_lie_and_gerstenhaber(t)] == [{"square": (0, (), 0)}, {"square": (0, (), (0,))}]


def test_generator_passes_decide_every_carrier_and_failing_passes_give_the_reference_witnesses():
    """On every drawn pair the square and derivation verdicts and witnesses
    of both dG carriers, and the three bicomplex identities, are those of
    the dense loops over each whole carrier.  Among the pairs with
    derivation anchors, each generator pass is clean on some draws and
    fails on others, and the examples see each both ways: the twilled book
    double is clean, its flipped form fails the derivation, d'^2 and
    anticommutation passes, and the curved abelian pair the two d''^2
    passes."""
    branches = {key: set() for key in ("square", "derivation", *SQUARES)}

    @settings(max_examples=80, deadline=None)
    @example(book_double())
    @example(book_double_flipped())
    @example(curved_abelian_pair())
    @given(pairs(anchors=st.sampled_from([derivation_anchor, random_anchor])))
    def check(t):
        d = reference.operator(t, partial(dsecond_multi, t))
        for report, elems in zip(_dg_lie_and_gerstenhaber(t), (_lie_elems(t), _bigraded_elems(t))):
            square, derivation = dg_reference(t, elems, d)
            assert (report["square"], report["derivation"]) == (square is None, derivation is None)
            assert report["witnesses"].get("square") == square
            assert report["witnesses"].get("derivation") == derivation
        labels = list(bigraded_labels(t))
        assert list(bicomplex_square_check(t)["witnesses"].items()) == squares_reference(t, labels)
        if all(v.axiom != "anchor-derivation" for v in is_twilled(t)):
            generators = [e for e in _bigraded_elems(t) if e[2] <= 1]
            for key, found in zip(("square", "derivation"), dg_reference(t, generators, d)):
                branches[key].add(found is None)
            failing = dict(squares_reference(t, [label for label, _, _ in generators]))
            for key in SQUARES:
                branches[key].add(key not in failing)

    check()
    assert all(seen == {True, False} for seen in branches.values()), branches
