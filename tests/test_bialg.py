"""Duality, semidirect products, and bracket/cobracket compatibility."""

from fractions import Fraction
from math import comb

import pytest

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
from lierine.instances import (
    abelian,
    book,
    book_double,
    book_dual,
    derx2,
    desk_pair,
    flat_broken,
    line_with_connection,
    rationals,
    sl2,
    truncated_poly,
)
from lierine.lrcore import LRModule, lr_validate, trivial_coefficients
from lierine.twilled import AlmostTwilled


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
        import lierine.bialg as bialg

        calls = []
        original = bialg._transport_differential

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bialg, "_transport_differential", counting)
        pair = semidirect_dual_pair(book_double())
        assert bialgebra_check(pair, 3).holds
        n = pair.l.rank
        wedges = sum(comb(n, q) for q in range(min(3, n) + 1))
        # degree one: each ordered pair of basis vectors and each basis
        # vector; all degrees: each ordered pair of wedges and each wedge
        assert len(calls) <= n * n + n + wedges * wedges + wedges

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

    def test_non_cojacobi_cobracket_rejected(self):
        alg = rationals()
        bad = dual_table(alg, {(0, 1): [0, 1, 0], (1, 2): [1, 0, 0]}, 3)
        with pytest.raises(ValueError) as e:
            matched_pair_from_bialgebra(sl2(), bad)
        assert "not a valid bracket" in str(e.value)

    def test_non_rational_base_rejected(self):
        d2 = derx2()
        with pytest.raises(ValueError):
            matched_pair_from_bialgebra(d2, [[(d2.alg.zero(),)]])
