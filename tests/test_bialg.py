"""Duality, semidirect products, and bracket/cobracket compatibility."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lierine.bialg import (
    BialgebraReport,
    DualPair,
    bialgebra_check,
    dual_module_action,
    matched_pair_from_bialgebra,
    semidirect_dual_pair,
    semidirect_duality_check,
    semidirect_product,
    twilled_vs_bialgebra_check,
)
from lierine.calgebra import Derivation
from lierine.cli import parse_instance
from lierine.instances import (
    abelian,
    book,
    book_double,
    book_dual,
    derx2,
    desk_pair,
    flat_broken,
    heisenberg,
    line_with_connection,
    rationals,
    sl2,
    truncated_poly,
    x_del,
)
from lierine.lrcore import LieRinehart, LRModule, lr_validate, lr_violations, trivial_coefficients
from lierine.twilled import AlmostTwilled
from test_derivation_on_atoms import derivation_anchor, sparse_elem
from test_pair_traversal import assert_report_is_dense_readings
from test_twilled import perturbed_pairs


# l over Q[x]/(x^2) with an anchor sending 1 to x, paired with an abelian d
BAD_BIALGEBRA = """algebra A
  dim 2
  unit = 1 0
  mult 0 0 = 1 0
  mult 0 1 = 0 1
end

lie_rinehart l
  algebra A
  rank 2
  bracket 0 1 1 = 1 0
  anchor 0 0 = 0 1
end

lie_rinehart d
  algebra A
  rank 2
end

bialgebra pair
  l l
  d d
end
"""


def adjoint_module(lr):
    return LRModule(lr, lr.rank, [[tuple(lr.bracket[i][j]) for j in range(lr.rank)] for i in range(lr.rank)])


def dual_table(alg, entries, n):
    z = alg.zero()
    table = [[tuple(z for _ in range(n)) for _ in range(n)] for _ in range(n)]
    for (i, j), vec in entries.items():
        table[i][j] = tuple(alg.scalar(c) for c in vec)
        table[j][i] = tuple(-alg.scalar(c) for c in vec)
    return table


class TestDualPair:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DualPair(book(), abelian(rationals(), 3))

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DualPair(derx2(), abelian(rationals(), 1))

    def test_report_witness_discipline(self):
        with pytest.raises(ValueError):
            BialgebraReport(True, (1, (0, 1), (0,), None))
        with pytest.raises(ValueError):
            BialgebraReport(False, None)


class TestDualModuleAction:
    def test_trivial_dualizes_to_trivial(self):
        lr = book()
        triv = trivial_coefficients(lr)
        dual = dual_module_action(lr, triv)
        assert dual.action == triv.action

    def test_rank_one_action_flips_sign(self):
        # e.f = f becomes e.f* = -f*
        t = desk_pair()
        dual = dual_module_action(t.lprime, t.module_on_second())
        assert dual.action[0][0] == (t.alg.scalar(-1),)

    def test_coadjoint_of_sl2(self):
        s = sl2()
        adj = adjoint_module(s)
        assert adj.is_flat()
        coadj = dual_module_action(s, adj)
        # (h . e*)(v) = -e*([h, v]): nonzero only at v = e, giving -2
        assert coadj.action[0][1] == (s.alg.zero(), s.alg.scalar(-2), s.alg.zero())

    def test_involutive(self):
        s = sl2()
        adj = adjoint_module(s)
        assert dual_module_action(s, dual_module_action(s, adj)).action == adj.action

    def test_non_flat_rejected(self):
        lr = book()
        curved = line_with_connection(lr, (lr.alg.zero(), lr.alg.one()))
        assert not curved.is_flat()
        with pytest.raises(ValueError):
            dual_module_action(lr, curved)


class TestSemidirectProduct:
    def test_trivial_module_gives_abelian_ideal(self):
        lr = book()
        out = semidirect_product(lr, trivial_coefficients(lr))
        assert out.rank == 3
        z = lr.alg.zero()
        assert out.bracket[0][2] == (z, z, z)
        assert out.bracket[2][2] == (z, z, z)
        assert lr_validate(out) == []

    def test_sl2_with_coadjoint_validates(self):
        s = sl2()
        out = semidirect_product(s, dual_module_action(s, adjoint_module(s)))
        assert out.rank == 6
        assert lr_validate(out) == []

    def test_truncated_base_semidirect(self):
        d2 = derx2()
        out = semidirect_product(d2, trivial_coefficients(d2))
        assert out.rank == 2
        assert lr_validate(out) == []
        assert out.anchor[0] == d2.anchor[0]

    def test_non_flat_rejected(self):
        lr = book()
        curved = line_with_connection(lr, (lr.alg.zero(), lr.alg.one()))
        with pytest.raises(ValueError):
            semidirect_product(lr, curved)

    def test_bracket_formula(self):
        # [(x, 0), (0, v)] = (0, x.v) and module vectors commute
        t = desk_pair()
        dual = dual_module_action(t.lprime, t.module_on_second())
        out = semidirect_product(t.lprime, dual)
        assert out.bracket[0][1] == (out.alg.zero(), out.alg.scalar(-1))
        assert out.bracket[1][1] == (out.alg.zero(), out.alg.zero())


class TestBialgebraCheck:
    def test_zero_cobracket_holds_trivially(self):
        r = bialgebra_check(DualPair(sl2(), abelian(rationals(), 3)), 3)
        assert r == BialgebraReport(True)

    def test_book_pair_holds(self):
        # L = book, D = dual with zero bracket: d_* = 0
        r = bialgebra_check(DualPair(book(), abelian(rationals(), 2)), 2)
        assert r.holds

    def test_semidirect_pair_of_double_holds(self):
        pair = semidirect_dual_pair(book_double())
        assert pair.l.rank == 4
        assert lr_validate(pair.l) == []
        assert lr_validate(pair.d) == []
        assert bialgebra_check(pair, 4).holds

    def test_flatness_checked_at_most_once_per_structure(self, monkeypatch):
        import lierine.lrcore as lrcore

        seen = []
        original = lrcore.module_validate

        def counting(lr, m):
            seen.append(lr)
            return original(lr, m)

        monkeypatch.setattr(lrcore, "module_validate", counting)
        pair = semidirect_dual_pair(book_double())
        seen.clear()
        assert bialgebra_check(pair, 4).holds
        assert len(seen) <= 2
        assert not any(a is b for i, a in enumerate(seen) for b in seen[i + 1 :])

    def test_transported_differential_once_per_pair_and_element(self, monkeypatch):
        import lierine.lrcore as lrcore

        calls = []
        original = lrcore.ce_matrix

        def counting(lr, module, q, formal=False):
            calls.append((lr, q))
            return original(lr, module, q, formal)

        monkeypatch.setattr(lrcore, "ce_matrix", counting)
        pair = semidirect_dual_pair(book_double())
        assert bialgebra_check(pair, 3).holds
        assert calls
        # the transported differential of each side is built at most once
        # per degree, whatever the number of pairs and elements it serves
        for side in (pair.l, pair.d):
            degrees = [q for lr, q in calls if lr is side]
            assert len(degrees) == len(set(degrees)) <= side.rank + 1

    @pytest.mark.parametrize("pair", [
        semidirect_dual_pair(flat_broken()),
        DualPair(sl2(), abelian(rationals(), 3)),
    ], ids=["flat_broken", "sl2_abelian"])
    def test_cap_below_one_rejected(self, pair):
        # below degree 1 the all-degrees reading has no wedges to test
        with pytest.raises(ValueError, match="degree cap must be at least 1"):
            bialgebra_check(pair, 0)

    def test_invalid_structure_rejected_before_any_table(self, monkeypatch, tmp_path):
        import lierine.bialg as bialg

        path = tmp_path / "bad.lri"
        path.write_text(BAD_BIALGEBRA)
        pair = parse_instance(str(path)).build_dual_pair("pair")
        tables = []
        monkeypatch.setattr(bialg, "_flat_tables", lambda lr: tables.append(lr))
        with pytest.raises(ValueError, match="anchor-derivation"):
            bialgebra_check(pair, 3)
        with pytest.raises(ValueError, match="anchor-derivation"):
            bialgebra_check(DualPair(pair.d, pair.l), 3)
        assert tables == []

    def test_flat_broken_pair_fails_with_witness(self):
        pair = semidirect_dual_pair(flat_broken())
        r = bialgebra_check(pair, 3)
        assert not r.holds
        assert r.witness == (1, (0, 1), (0, 2), pair.l.alg.scalar(-1))


class TestSemidirectDualityCheck:
    def test_positive_instances(self):
        for t in (desk_pair(), book_double()):
            r = semidirect_duality_check(t)
            assert r["bialgebra"] and r["dg"] and r["equivalent"]
            assert r["witnesses"] == {}

    def test_negative_instance(self):
        r = semidirect_duality_check(flat_broken())
        assert not r["bialgebra"]
        assert not r["dg"]
        assert r["equivalent"]
        assert r["witnesses"]["bialgebra"] == (1, (0, 1), (0, 2), rationals().scalar(-1))
        assert "dg" in r["witnesses"]

    def test_empty_second_factor_reduces_to_first(self):
        t = AlmostTwilled(book(), abelian(rationals(), 0), [[], []], [])
        r = semidirect_duality_check(t)
        assert r["bialgebra"] and r["dg"] and r["equivalent"]


class TestTwilledVsBialgebra:
    def test_positive_instances(self):
        for t in (desk_pair(), book_double()):
            r = twilled_vs_bialgebra_check(t)
            assert r == {
                "twilled": True,
                "bialgebra": True,
                "equivalent": True,
                "witnesses": {},
            }

    def test_flat_broken_fails_both_sides(self):
        r = twilled_vs_bialgebra_check(flat_broken())
        assert not r["twilled"]
        assert not r["bialgebra"]
        assert r["equivalent"]
        assert r["witnesses"]["twilled"] == ("jacobi", (0, 1, 2))
        assert r["witnesses"]["bialgebra"][0] == 1

    def test_zero_actions_direct_sum_passes(self):
        alg = rationals()
        z2 = [[(alg.zero(), alg.zero())] * 2] * 2
        t = AlmostTwilled(book(), abelian(alg, 2), z2, z2)
        r = twilled_vs_bialgebra_check(t)
        assert r["twilled"] and r["bialgebra"] and r["equivalent"]


class TestMatchedPairFromBialgebra:
    def test_book_reproduces_the_double(self):
        mp = matched_pair_from_bialgebra(book(), book_dual().bracket)
        assert mp == book_double()

    def test_zero_cobracket_always_valid(self):
        alg = rationals()
        z3 = [[(alg.zero(),) * 3] * 3] * 3
        mp = matched_pair_from_bialgebra(sl2(), z3)
        assert all(c.is_zero() for row in mp.lsecond.bracket for vec in row for c in vec)
        assert all(c.is_zero() for row in mp.act_s_on_p for vec in row for c in vec)

    def test_sl2_standard_cobracket_accepted(self):
        alg = rationals()
        std = dual_table(alg, {(0, 1): [0, -1, 0], (0, 2): [0, 0, -1]}, 3)
        mp = matched_pair_from_bialgebra(sl2(), std)
        # coadjoint action of h on e* has weight -2
        assert mp.act_p_on_s[0][1] == (alg.zero(), alg.scalar(-2), alg.zero())

    def test_sl2_flipped_cobracket_rejected_with_residual(self):
        alg = rationals()
        flip = dual_table(alg, {(0, 1): [0, 1, 0], (0, 2): [0, 0, -1]}, 3)
        with pytest.raises(ValueError) as e:
            matched_pair_from_bialgebra(sl2(), flip)
        assert "not compatible" in str(e.value)
        assert "AElem(4)" in str(e.value)

    def test_sl2_flipped_cobracket_witness_is_the_first_row_of_d_delta(self):
        # d(delta)(e, f) has 4 on e ^ f; the combined bracket fails Jacobi
        flip = dual_table(rationals(), {(0, 1): [0, 1, 0], (0, 2): [0, 0, -1]}, 3)
        with pytest.raises(ValueError) as e:
            matched_pair_from_bialgebra(sl2(), flip)
        assert str(e.value).endswith("{'twilled': ('jacobi', (1, 2, 4)), 'bialgebra': (1, (1, 2), (1, 2), AElem(4))}")

    def test_non_cojacobi_cobracket_rejected(self):
        alg = rationals()
        bad = dual_table(alg, {(0, 1): [0, 1, 0], (1, 2): [1, 0, 0]}, 3)
        with pytest.raises(ValueError) as e:
            matched_pair_from_bialgebra(sl2(), bad)
        assert "not a valid bracket" in str(e.value)

    def test_invalid_g_rejected_with_its_violation(self):
        # [e0, e1] = e1, [e0, e2] = e1 + e2, [e1, e2] = e0 fails Jacobi
        alg = rationals()
        g = LieRinehart(alg, 3, dual_table(alg, {(0, 1): [0, 1, 0], (0, 2): [0, 1, 1], (1, 2): [1, 0, 0]}, 3),
                        [Derivation.zero(alg)] * 3)
        with pytest.raises(ValueError) as e:
            matched_pair_from_bialgebra(g, [[(alg.zero(),) * 3] * 3] * 3)
        assert "structure fails validation" in str(e.value)
        assert str(lr_violations(g)[0]) in str(e.value)
        assert lr_violations(g)[0].axiom == "jacobi"

    def test_non_rational_base_rejected(self):
        d2 = derx2()
        with pytest.raises(ValueError):
            matched_pair_from_bialgebra(d2, [[(d2.alg.zero(),)]])


def three_dim(entries):
    alg = rationals()
    return LieRinehart(alg, 3, dual_table(alg, entries, 3), [Derivation.zero(alg)] * 3)


# abelian, h3, sl2, aff + R and [e0, e1] = e1, [e0, e2] = e2
THREE_DIM = [abelian(rationals(), 3), heisenberg(), sl2(), three_dim({(0, 1): [0, 1, 0]}),
             three_dim({(0, 1): [0, 1, 0], (0, 2): [0, 0, 1]})]


@st.composite
def cobrackets(draw):
    """One of THREE_DIM and a cobracket with one or two nonzero structure
    constants [e*_i, e*_j]_k, i < j, each in {+-1, +-2, 1/2}."""
    slots = [(pair, k) for pair in combinations(range(3), 2) for k in range(3)]
    entries = {}
    for pair, k in draw(st.lists(st.sampled_from(slots), min_size=1, max_size=2, unique=True)):
        entries.setdefault(pair, [0, 0, 0])[k] = draw(st.sampled_from([1, -1, 2, -2, Fraction(1, 2)]))
    return draw(st.sampled_from(THREE_DIM)), dual_table(rationals(), entries, 3)


def coadjoint_pair(g, dual):
    """g and its dual acting on each other, written out index by index:
    e_i . e*_j = -sum_m [e_i, e_m]_j e*_m and e*_j . e_i = -sum_m
    [e*_j, e*_m]_i e_m."""
    n = g.rank
    return AlmostTwilled(
        g,
        dual,
        [[tuple(-g.bracket[i][m][j] for m in range(n)) for j in range(n)] for i in range(n)],
        [[tuple(-dual.bracket[j][m][i] for m in range(n)) for i in range(n)] for j in range(n)],
    )


def test_cocycle_verdict_is_that_of_twilledness_and_semidirect_compatibility():
    """On cobrackets whose dual table is a Lie bracket, the cocycle test of
    matched_pair_from_bialgebra accepts exactly when the coadjoint pair is
    twilled and its semidirect dual pair compatible, and then returns that
    pair; each of the two parts of a rejection is named exactly when its
    own verdict fails.  Compatible and incompatible draws both occur."""
    verdicts = set()

    @settings(max_examples=150, deadline=None)
    @given(cobrackets())
    def check(case):
        g, cobracket = case
        dual = LieRinehart(g.alg, 3, cobracket, [Derivation.zero(g.alg)] * 3)
        assume(not lr_violations(dual))
        t = coadjoint_pair(g, dual)
        want = twilled_vs_bialgebra_check(t, max_degree=2)
        try:
            assert matched_pair_from_bialgebra(g, cobracket) == t
            named = set()
        except ValueError as e:
            assert "not compatible" in str(e)
            named = {part for part in ("twilled", "bialgebra") if repr(part) in str(e)}
        assert named == {part for part in ("twilled", "bialgebra") if not want[part]}
        verdicts.add(not named)

    check()
    assert verdicts == {True, False}


def incompatible_pair_over_x2():
    """Over Q[x]/(x^2): L' of rank 1, abelian and unanchored; L'' of rank 2
    with [f0, f1] = x f1 and f1 anchored by -x d/dx; e'.f1 = f0 + (x/2) f1,
    f0.e' = (1/2 + x) e' and f1.e' = (1 + x) e'.  Both sides are valid and
    both actions flat, and the semidirect dual pair is not compatible."""
    alg = truncated_poly(2)
    z, x, half = alg.zero(), alg.elem([0, 1]), Fraction(1, 2)
    lp = LieRinehart(alg, 1, [[[z]]], [Derivation.zero(alg)])
    minus_x_del = Derivation.from_images(alg, [-x_del(alg).apply(b) for b in map(alg.basis, range(2))])
    ls = LieRinehart(alg, 2, [[[z, z], [z, x]], [[z, -x], [z, z]]], [Derivation.zero(alg), minus_x_del])
    on_second = [[[z, z], [alg.one(), alg.elem([0, half])]]]
    on_prime = [[[alg.elem([half, 1])]], [[alg.elem([1, 1])]]]
    return AlmostTwilled(lp, ls, on_second, on_prime)


def test_both_compatibility_readings_agree_beyond_q():
    """The two readings of bialgebra_check agree, so no RuntimeError, on the
    semidirect dual pairs of pairs over Q[x]/(x^k), k <= 3, whose sides are
    valid with derivation anchors and whose two actions are flat; degree-0
    elements of the base enter through the anchors and the tables.  At
    every cap the report is that of the dense loops over every unit wedge
    through the cap, where the check reads the wedges of degree at most 1."""
    kept = []

    @settings(max_examples=300, deadline=None)
    @example(incompatible_pair_over_x2())
    @given(perturbed_pairs(st.sampled_from([truncated_poly(k) for k in (1, 2, 3)]), st.just(derivation_anchor), sparse_elem))
    def check(t):
        if lr_violations(t.lprime) or lr_violations(t.lsecond):
            return
        if not (t.module_on_second().is_flat() and t.module_on_prime().is_flat()):
            return
        pair = semidirect_dual_pair(t)
        kept.append(bialgebra_check(pair, 3).holds)
        assert assert_report_is_dense_readings(pair) == kept[-1]

    check()
    assert False in kept and True in kept


def test_an_invalid_side_is_rejected_before_the_semidirect_pair_is_built():
    """L' of rank 1 with [e, e] = e over Q[x]/(x^2), both actions zero: each
    entry point reports the side's own violation as bad input, where the
    semidirect product used to raise an internal RuntimeError."""
    alg = truncated_poly(2)
    z = alg.zero()
    t = AlmostTwilled(LieRinehart(alg, 1, [[[alg.one()]]], [Derivation.zero(alg)]), abelian(alg, 1), [[[z]]], [[[z]]])
    for check in (semidirect_dual_pair, semidirect_duality_check, twilled_vs_bialgebra_check):
        with pytest.raises(ValueError, match=r"^structure fails validation: antisymmetry at \(0,0\)"):
            check(t)


def test_semidirect_reading_does_not_see_the_anchor_morphism_axiom():
    """A known gap of the stated equivalence: L' and L'' abelian of rank 1
    over Q[x]/(x^2), e' anchored by x d/dx, e'.f = f/2 and f.e' = e'.  Both
    sides are valid and both actions flat; the combined bracket fails only
    the anchor-morphism axiom, which the dG side sees and the semidirect
    dual pair does not."""
    alg = truncated_poly(2)
    z = alg.zero()
    lp = LieRinehart(alg, 1, [[[z]]], [x_del(alg)])
    ls = LieRinehart(alg, 1, [[[z]]], [Derivation.zero(alg)])
    t = AlmostTwilled(lp, ls, [[[alg.elem([Fraction(1, 2), 0])]]], [[[alg.one()]]])
    assert not lr_violations(lp) and not lr_violations(ls)
    assert t.module_on_second().is_flat() and t.module_on_prime().is_flat()
    assert twilled_vs_bialgebra_check(t) == {
        "twilled": False,
        "bialgebra": True,
        "equivalent": False,
        "witnesses": {"twilled": ("anchor-morphism", (0, 1))},
    }
    assert semidirect_duality_check(t) == {
        "bialgebra": True,
        "dg": False,
        "equivalent": False,
        "witnesses": {"dg": {"derivation": (1, (), (), 0, (), (0,))}},
    }
