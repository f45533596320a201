"""Mutually acting pairs: the combined bracket, the two differentials,
the crossed bracket, and generator extension."""

from fractions import Fraction
from importlib import resources
from itertools import combinations, product

import pytest

from lierine.calgebra import AElem
from lierine.cli import parse_instance
from lierine.gerst import (
    GeneratorOp,
    Multivector,
    TopConnection,
    connection_curvature,
    generator_from_connection,
    schouten_bracket,
)
from lierine.instances import (
    abelian,
    book,
    book_double,
    book_double_flipped,
    book_dual,
    derx3,
    desk_pair,
    direct_sum_pair,
    flat_broken,
    rationals,
    truncated_poly,
)
from lierine.lrcore import (
    AltForm,
    LElem,
    basis_forms,
    ce_differential,
    lr_bracket,
    lr_validate,
    trivial_coefficients,
)
from lierine.signs import merge_sign, sort_with_sign
from lierine.twilled import (
    AlmostTwilled,
    Bigraded,
    bicomplex_square_check,
    bigraded_generator_extend,
    bigraded_generator_validate,
    bigraded_labels,
    bigraded_product,
    bv_commutator_check,
    crossed_bracket,
    dg_gerstenhaber_check,
    dg_lie_check,
    dprime_form,
    dsecond_form,
    dsecond_multi,
    is_twilled,
    total_complex_cohomology_check,
    twilled_sum,
)


def scalar_term(t, c, ss, sp):
    return Bigraded.term(t, t.alg.scalar(c), ss, sp)


class TestConstruction:
    def test_mismatched_base_rejected(self):
        with pytest.raises(ValueError):
            AlmostTwilled(
                abelian(rationals(), 1),
                abelian(truncated_poly(2), 1),
                [[(rationals().zero(),)]],
                [[(truncated_poly(2).zero(),)]],
            )

    def test_bad_table_shape_rejected(self):
        alg = rationals()
        with pytest.raises(ValueError):
            AlmostTwilled(abelian(alg, 2), abelian(alg, 1), [[(alg.zero(),)]], [[(alg.zero(), alg.zero())] * 2])

    def test_action_modules_expose_tables(self):
        t = book_double()
        assert t.module_on_second().rank == 2
        assert t.module_on_prime().rank == 2


class TestSumBracket:
    def test_desk_mixed_bracket(self):
        t = desk_pair()
        s = twilled_sum(t)
        alg = t.alg
        assert s.bracket[0][1] == (alg.scalar(-1), alg.one())
        assert s.bracket[1][0] == (alg.one(), alg.scalar(-1))

    def test_blocks_embed(self):
        t = book_double()
        s = twilled_sum(t)
        z = t.alg.zero()
        for i in range(2):
            for j in range(2):
                assert s.bracket[i][j][:2] == t.lprime.bracket[i][j]
                assert s.bracket[i][j][2:] == (z, z)
                assert s.bracket[2 + i][2 + j][:2] == (z, z)
                assert s.bracket[2 + i][2 + j][2:] == t.lsecond.bracket[i][j]

    def test_double_mixed_entries(self):
        # [e0, f0] = e0.f0 - f0.e0 = e1; [e1, f1] = f0
        t = book_double()
        s = twilled_sum(t)
        alg = t.alg
        assert s.bracket[0][2] == (alg.zero(), alg.one(), alg.zero(), alg.zero())
        assert s.bracket[1][3] == (alg.zero(), alg.zero(), alg.one(), alg.zero())


class TestIsTwilled:
    def test_positive_pairs(self):
        for t in (desk_pair(), direct_sum_pair(rationals(), 2, 1), book_double()):
            assert is_twilled(t) == []

    def test_flipped_double_fails_jacobi(self):
        bad = is_twilled(book_double_flipped())
        assert bad
        assert bad[0].axiom == "jacobi"
        assert bad[0].witness == (0, 1, 3)

    def test_flat_broken_fails_jacobi_with_flat_actions(self):
        t = flat_broken()
        assert t.module_on_second().is_flat()
        assert t.module_on_prime().is_flat()
        bad = is_twilled(t)
        assert bad
        assert bad[0].axiom == "jacobi"
        assert bad[0].witness == (0, 1, 2)

    def test_constituents_of_double_are_valid(self):
        assert lr_validate(book()) == []
        assert lr_validate(book_dual()) == []


class TestBigradedCarrier:
    def test_bad_keys_rejected(self):
        t = desk_pair()
        with pytest.raises(ValueError):
            Bigraded(t, 1, 0, {((0, 0), ()): t.alg.one()})
        with pytest.raises(ValueError):
            Bigraded(t, 1, 1, {((0,), (5,)): t.alg.one()})

    def test_zero_tolerant_addition(self):
        t = desk_pair()
        z = Bigraded.zero(t, 1, 0)
        u = scalar_term(t, 3, (), (0,))
        assert z.add(u) == u
        assert u.add(z) == u

    def test_product_merges_with_cross_sign(self):
        t = book_double()
        u = scalar_term(t, 1, (0,), (1,))
        v = scalar_term(t, 1, (1,), (0,))
        w = bigraded_product(u, v)
        # inner merge (1),(0) gives one transposition; cross sign (-1)^{1*1}
        assert w.coeff((0, 1), (0, 1)) == t.alg.one()

    def test_product_total_degree_commutative(self):
        t = book_double()
        labels = list(bigraded_labels(t))
        for ta1, ss1, sp1 in labels:
            u = Bigraded.term(t, t.alg.basis(ta1), ss1, sp1)
            for ta2, ss2, sp2 in labels:
                v = Bigraded.term(t, t.alg.basis(ta2), ss2, sp2)
                s = 1 if ((len(ss1) + len(sp1)) * (len(ss2) + len(sp2))) % 2 == 0 else -1
                assert bigraded_product(u, v) == bigraded_product(v, u).scale(s)


class TestDifferentials:
    def test_dprime_reduces_to_plain_differential(self):
        # empty second factor: d' must agree with the cochain
        # differential in trivial coefficients, all degrees
        lr = derx3()
        alg = lr.alg
        t = AlmostTwilled(lr, abelian(alg, 0), [[] for _ in range(lr.rank)], [])
        triv = trivial_coefficients(lr)
        for q in range(lr.rank + 1):
            for key, j, ta in basis_forms(lr, triv, q):
                w = AltForm(lr, triv, q, {key: (alg.basis(ta),)})
                dw = ce_differential(lr, triv, w)
                bg = Bigraded.term(t, alg.basis(ta), (), key)
                got = {sp: c for (ss, sp), c in dprime_form(t, bg).values.items()}
                want = {k: v[0] for k, v in dw.values.items()}
                assert got == want

    def test_dsecond_on_function_is_outer_anchor_free_case(self):
        # desk pair: (d''a)(f) = rho''(f)(a) - 0 with zero anchor, so
        # d'' of a function vanishes; the mixed slot action shows up at
        # inner degree 1
        t = desk_pair()
        a = Bigraded.term(t, t.alg.one(), (), ())
        assert dsecond_form(t, a).is_zero()

    def test_dsecond_form_sees_inner_slots(self):
        # (d''w)(f)(e) = -w(f.e) = -w(e) for w the inner coordinate form
        t = desk_pair()
        w = scalar_term(t, 1, (), (0,))
        dw = dsecond_form(t, w)
        assert dw.coeff((0,), (0,)) == t.alg.scalar(-1)

    def test_dsecond_multi_covariant_sign(self):
        # d''(1 (x) e)(f) = f.e = e, covariant, opposite the form case
        t = desk_pair()
        w = scalar_term(t, 1, (), (0,))
        dw = dsecond_multi(t, w)
        assert dw.coeff((0,), (0,)) == t.alg.one()


class TestBicomplexCheck:
    def test_positive_instances(self):
        for t in (desk_pair(), book_double(), direct_sum_pair(rationals(), 2, 1)):
            r = bicomplex_square_check(t)
            assert r["dprime_square"] and r["dsecond_square"] and r["anticommute"]
            assert r["twilled"] and r["equivalent"]
            assert r["witnesses"] == {}

    def test_flipped_double_breaks_dprime_square(self):
        r = bicomplex_square_check(book_double_flipped())
        assert not r["dprime_square"]
        assert r["dsecond_square"]
        assert not r["anticommute"]
        assert not r["twilled"]
        assert r["equivalent"]
        assert "dprime_square" in r["witnesses"]

    def test_flat_actions_isolate_anticommutation(self):
        # both squares vanish when both actions are flat; the Jacobi
        # failure of the pair surfaces purely in the mixed condition
        r = bicomplex_square_check(flat_broken())
        assert r["dprime_square"] and r["dsecond_square"]
        assert not r["anticommute"]
        assert not r["twilled"]
        assert r["equivalent"]
        assert r["witnesses"]["anticommute"] == (0, (), (0,))


def lie_derivative_form(t, i, b, ss2):
    """Independent expansion of e'_i acting on the outer form b e''*_{ss2}."""
    ns = t.lsecond.rank
    q2 = len(ss2)
    out = {}
    v = t.lprime.anchor[i].apply(b)
    if not v.is_zero():
        out[tuple(ss2)] = v
    for T in combinations(range(ns), q2):
        tot = t.alg.zero()
        for pos in range(q2):
            for m, cm in enumerate(t.act_p_on_s[i][T[pos]]):
                if cm.is_zero():
                    continue
                st = sort_with_sign(T[:pos] + (m,) + T[pos + 1 :])
                if st is None or st[0] != tuple(ss2):
                    continue
                tot = tot - cm * b if st[1] == 1 else tot + cm * b
        if not tot.is_zero():
            out[T] = out.get(T, t.alg.zero()) + tot
    return {k: c for k, c in out.items() if not c.is_zero()}


def three_term_oracle(t, a, ss1, i, b, ss2, j):
    """[a e''*_{ss1} (x) e'_i, b e''*_{ss2} (x) e'_j] expanded by hand:
    bracket term, left Lie-derivative term, signed right one."""
    out = {}

    def acc(key, c, sgn):
        if c.is_zero():
            return
        cur = out.get(key, t.alg.zero())
        out[key] = cur + c if sgn == 1 else cur - c

    mo = merge_sign(ss1, ss2)
    if mo is not None:
        kss, so = mo
        lp = t.lprime
        w = lr_bracket(
            lp,
            LElem(lp, [a if k == i else lp.alg.zero() for k in range(lp.rank)]),
            LElem(lp, [b if k == j else lp.alg.zero() for k in range(lp.rank)]),
        )
        for k, c in enumerate(w.coeffs):
            acc((kss, (k,)), c, so)
    for T, c in lie_derivative_form(t, i, b, ss2).items():
        mo2 = merge_sign(ss1, T)
        if mo2 is not None:
            acc((mo2[0], (j,)), a * c, mo2[1])
    sgn = -1 if (len(ss1) * len(ss2)) % 2 == 0 else 1
    for T, c in lie_derivative_form(t, j, a, ss1).items():
        mo2 = merge_sign(ss2, T)
        if mo2 is not None:
            acc((mo2[0], (i,)), b * c, sgn * mo2[1])
    return {k: c for k, c in out.items() if not c.is_zero()}


def shipped_pairs():
    """Every pair in the shipped fixture files and the instance builders."""
    out = []
    folder = resources.files("lierine") / "fixtures"
    for path in sorted(folder.iterdir(), key=lambda p: p.name):
        if path.name.endswith(".lri"):
            inst = parse_instance(str(path))
            out.extend((f"{path.name}:{n}", inst.build_twilled(n)) for n in inst.twilleds)
    for build in (book_double, book_double_flipped, desk_pair, flat_broken):
        out.append((build.__name__, build()))
    out.append(("direct_sum_pair", direct_sum_pair(rationals(), 2, 1)))
    return out


SHIPPED_PAIRS = shipped_pairs()


@pytest.mark.parametrize("name,t", SHIPPED_PAIRS, ids=[n for n, _ in SHIPPED_PAIRS])
def test_crossed_bracket_without_outer_slots_is_schouten(name, t):
    """With L'' = 0 the crossed bracket is the Schouten bracket of L':
    compared on every pair of Q-basis terms of outer degree 0."""
    lp = t.lprime
    labels = [
        (ta, sp)
        for p in range(lp.rank + 1)
        for sp in combinations(range(lp.rank), p)
        for ta in range(t.alg.dim)
    ]
    for (ta1, s1), (ta2, s2) in product(labels, repeat=2):
        u = Bigraded.term(t, t.alg.basis(ta1), (), s1)
        w = crossed_bracket(t, u, Bigraded.term(t, t.alg.basis(ta2), (), s2))
        mw = schouten_bracket(
            Multivector(lp, {s1: lp.alg.basis(ta1)}), Multivector(lp, {s2: lp.alg.basis(ta2)})
        )
        assert w.values == {((), k): c for k, c in mw.values.items()}, (ta1, s1, ta2, s2)


class TestCrossedBracket:
    def test_external_degree_zero_is_schouten(self):
        t = book_double()
        lp = t.lprime
        for p1 in range(lp.rank + 1):
            for s1 in combinations(range(lp.rank), p1):
                for p2 in range(lp.rank + 1):
                    for s2 in combinations(range(lp.rank), p2):
                        u = scalar_term(t, 1, (), s1)
                        v = scalar_term(t, 1, (), s2)
                        w = crossed_bracket(t, u, v)
                        mw = schouten_bracket(
                            Multivector(lp, {s1: lp.alg.one()}),
                            Multivector(lp, {s2: lp.alg.one()}),
                        )
                        assert all(ss == () for (ss, k) in w.values)
                        assert {k: c for (ss, k), c in w.values.items()} == dict(mw.values)

    def test_decomposable_pairs_match_three_term_oracle(self):
        t = book_double()
        ns = t.lsecond.rank
        np_ = t.lprime.rank
        for q1 in range(ns + 1):
            for ss1 in combinations(range(ns), q1):
                for q2 in range(ns + 1):
                    for ss2 in combinations(range(ns), q2):
                        for i in range(np_):
                            for j in range(np_):
                                a = t.alg.one()
                                b = t.alg.one()
                                got = crossed_bracket(
                                    t,
                                    Bigraded.term(t, a, ss1, (i,)),
                                    Bigraded.term(t, b, ss2, (j,)),
                                ).values
                                assert got == three_term_oracle(t, a, ss1, i, b, ss2, j)

    def test_vector_on_outer_form_is_lie_derivative(self):
        # desk: e.f = f, so [1 (x) e, f* (x) 1] = (e.f*) (x) 1 = -f* (x) 1
        t = desk_pair()
        w = crossed_bracket(t, scalar_term(t, 1, (), (0,)), scalar_term(t, 1, (0,), ()))
        assert w.values == {((0,), ()): t.alg.scalar(-1)}

    def test_both_functions_vanish(self):
        t = desk_pair()
        u = scalar_term(t, 2, (0,), ())
        v = scalar_term(t, 3, (), ())
        assert crossed_bracket(t, u, v).is_zero()

    def test_parent_mismatch_rejected(self):
        t1, t2 = desk_pair(), book_double()
        with pytest.raises(ValueError):
            crossed_bracket(t1, scalar_term(t1, 1, (), (0,)), scalar_term(t2, 1, (), (0,)))

    def test_graded_jacobi_on_twilled_instance(self):
        # spot triples mixing inner and outer degrees
        t = book_double()
        trip = [
            ((0,), (0,)), ((1,), (1,)), ((), (0, 1)), ((0, 1), (0,)), ((), (1,)),
        ]
        for ss1, sp1 in trip:
            for ss2, sp2 in trip:
                for ss3, sp3 in trip:
                    u = scalar_term(t, 1, ss1, sp1)
                    v = scalar_term(t, 1, ss2, sp2)
                    w = scalar_term(t, 1, ss3, sp3)
                    du = len(ss1) + len(sp1) - 1
                    dv = len(ss2) + len(sp2) - 1
                    lhs = crossed_bracket(t, u, crossed_bracket(t, v, w))
                    r1 = crossed_bracket(t, crossed_bracket(t, u, v), w)
                    r2 = crossed_bracket(t, v, crossed_bracket(t, u, w))
                    s = 1 if (du * dv) % 2 == 0 else -1
                    assert lhs.sub(r1.add(r2.scale(s))).is_zero()


class TestDgChecks:
    def test_dg_lie_positive(self):
        for t in (desk_pair(), book_double()):
            r = dg_lie_check(t)
            assert r == {
                "square": True,
                "derivation": True,
                "twilled": True,
                "equivalent": True,
                "witnesses": {},
            }

    def test_dg_lie_negative(self):
        for t in (book_double_flipped(), flat_broken()):
            r = dg_lie_check(t)
            assert r["square"]
            assert not r["derivation"]
            assert not r["twilled"]
            assert r["equivalent"]
            assert "derivation" in r["witnesses"]

    def test_dg_gerstenhaber_positive(self):
        for t in (desk_pair(), book_double()):
            r = dg_gerstenhaber_check(t)
            assert r["square"] and r["derivation"] and r["twilled"] and r["equivalent"]

    def test_dg_gerstenhaber_negative(self):
        for t in (book_double_flipped(), flat_broken()):
            r = dg_gerstenhaber_check(t)
            assert not r["derivation"]
            assert not r["twilled"]
            assert r["equivalent"]

    def test_dsecond_applied_once_per_element_and_pair(self, monkeypatch):
        # L^2 brackets to differentiate, L images shared by every pair and
        # 2L for the square: d''(v) is not recomputed inside the pair loop
        import lierine.twilled as twilled

        calls = []
        original = twilled.dsecond_multi

        def counting(t, w):
            calls.append(w)
            return original(t, w)

        monkeypatch.setattr(twilled, "dsecond_multi", counting)
        t = book_double()
        n = len(list(bigraded_labels(t)))
        r = dg_gerstenhaber_check(t)
        assert r["square"] and r["derivation"]
        assert len(calls) <= n * n + 3 * n


class TestTotalComplex:
    def test_desk_dims(self):
        r = total_complex_cohomology_check(desk_pair(), 2)
        assert r["total_dims"] == [1, 1, 0]
        assert r["sum_dims"] == [1, 1, 0]
        assert r["equal"]

    def test_direct_sum_binomials(self):
        r = total_complex_cohomology_check(direct_sum_pair(rationals(), 2, 1), 3)
        assert r["total_dims"] == [1, 3, 3, 1]
        assert r["equal"]

    def test_double_dims(self):
        r = total_complex_cohomology_check(book_double(), 4)
        assert r["total_dims"] == [1, 1, 0, 1, 1]
        assert r["equal"]

    def test_rejects_non_twilled(self):
        with pytest.raises(ValueError):
            total_complex_cohomology_check(flat_broken(), 2)


def flat_generator(t, w0, w1):
    lp = t.lprime
    conn = TopConnection(lp, (lp.alg.scalar(w0), lp.alg.scalar(w1)))
    return generator_from_connection(lp, conn)


class TestGeneratorExtension:
    def test_reduces_to_inner_generator_without_outer_slots(self):
        t = book_double()
        g = flat_generator(t, -1, 0)
        op = bigraded_generator_extend(t, g)
        lp = t.lprime
        for p in range(lp.rank + 1):
            for sp in combinations(range(lp.rank), p):
                u = Bigraded.term(t, lp.alg.one(), (), sp)
                got = op.apply(u)
                inner = g.apply(Multivector(lp, {sp: lp.alg.one()}))
                want = {((), k): c for k, c in inner.values.items()}
                assert {k: c for k, c in got.values.items()} == want

    def test_kills_inner_degree_zero(self):
        t = book_double()
        op = bigraded_generator_extend(t, flat_generator(t, -1, 0))
        assert op.apply(scalar_term(t, 5, (0, 1), ())).is_zero()

    def test_extension_validates_even_for_curved_connection(self):
        t = book_double()
        lp = t.lprime
        conn = TopConnection(lp, (lp.alg.zero(), lp.alg.one()))
        assert not connection_curvature(lp, conn).is_zero()
        op = bigraded_generator_extend(t, generator_from_connection(lp, conn))
        assert bigraded_generator_validate(t, op) == []

    def test_naive_tensor_extension_fails(self):
        t = book_double()
        g = flat_generator(t, -1, 0)
        lp = t.lprime
        for sign_of_q in (lambda q: 1, lambda q: -1 if q % 2 else 1):
            table = {}
            for ta, ss, sp in bigraded_labels(t):
                inner = g.apply(Multivector(lp, {sp: lp.alg.basis(ta)}))
                vals = {}
                for k, c in inner.values.items():
                    vals[(ss, k)] = c if sign_of_q(len(ss)) == 1 else -c
                table[(ta, ss, sp)] = Bigraded(t, len(ss), max(len(sp) - 1, 0), vals)
            assert bigraded_generator_validate(t, GeneratorOp(t, table)) != []


class TestBvCommutator:
    def test_compatible_connection_gives_full_structure(self):
        t = book_double()
        op = bigraded_generator_extend(t, flat_generator(t, -1, 0))
        r = bv_commutator_check(t, op)
        assert r == {"commutes": True, "exact": True, "full_bv": True, "witnesses": {}}

    def test_zero_connection_fails_commutation(self):
        t = book_double()
        op = bigraded_generator_extend(t, flat_generator(t, 0, 0))
        r = bv_commutator_check(t, op)
        assert not r["commutes"]
        assert r["exact"]
        assert not r["full_bv"]
        assert r["witnesses"]["commutator"] == (0, (), (0,))

    def test_curved_connection_fails_exactness(self):
        t = book_double()
        lp = t.lprime
        conn = TopConnection(lp, (lp.alg.zero(), lp.alg.one()))
        op = bigraded_generator_extend(t, generator_from_connection(lp, conn))
        r = bv_commutator_check(t, op)
        assert not r["exact"]
        assert not r["commutes"]

    def test_compatible_point_is_isolated_on_flat_line(self):
        # flat connections form the line (c, 0); commutation is affine
        # in c, so the single solution found is the only one
        t = book_double()
        verdicts = []
        for c in (-2, -1, 0, 1):
            op = bigraded_generator_extend(t, flat_generator(t, c, 0))
            verdicts.append(bv_commutator_check(t, op)["commutes"])
        assert verdicts == [False, True, False, False]
