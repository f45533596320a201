"""Mutually acting pairs: the combined bracket, the two differentials,
the crossed bracket, and generator extension."""

import importlib.util
from fractions import Fraction
from functools import partial
from importlib import resources
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine.calgebra import Derivation
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
from lierine.exactla import RatMatrix
from lierine.lrcore import (
    AltForm,
    LieRinehart,
    basis_forms,
    ce_differential,
    lr_validate,
    trivial_coefficients,
)
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
    _label_tables,
    _lie_derivative,
    is_twilled,
    total_complex_cohomology_check,
    twilled_sum,
)
from reference import LElem, _product, bracket_terms, lr_bracket, merge_sign, sort_with_sign


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


def reference_crossed(t, u, v):
    """[u, v] of two bigraded elements through the element recursion
    reference.bracket_terms, zero terms dropped."""
    out = bracket_terms(t.lprime, u.values, v.values, partial(_lie_derivative, t))
    return {k: c for k, c in out.items() if not c.is_zero()}


def assert_crossed_tables_match_recursion(t):
    """The crossed bracket and bigraded product label tables against the
    element recursion reference.bracket_terms and reference._product, on
    every ordered pair of bigraded Q-basis labels."""
    tables = _label_tables(t)
    labels = list(bigraded_labels(t))
    for x, y in product(labels, repeat=2):
        u = Bigraded.term(t, t.alg.basis(x[0]), x[1], x[2])
        v = Bigraded.term(t, t.alg.basis(y[0]), y[1], y[2])
        cx, cy = tables.code(x), tables.code(y)
        assert tables.carrier(tables.bracket(cx, cy)).values == reference_crossed(t, u, v), (x, y)
        merged = {k: c for k, c in _product(u.values, v.values).items() if not c.is_zero()}
        assert tables.carrier(tables.product(cx, cy)).values == merged, (x, y)


def bench_sl2_double():
    """The benchmark's generated sl2 standard double (seed 101), read
    from the generator's text without writing a file."""
    spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.sl2_double(101)


TABLE_PAIRS = SHIPPED_PAIRS + [("bench_sl2_double", None)]


@pytest.mark.parametrize("name,t", TABLE_PAIRS, ids=[n for n, _ in TABLE_PAIRS])
def test_crossed_label_table_matches_recursion(name, t, tmp_path):
    if t is None:
        path = tmp_path / "sl2_double.lri"
        path.write_text(bench_sl2_double())
        t = parse_instance(str(path)).build_twilled("double")
    assert_crossed_tables_match_recursion(t)


def random_elem(draw, alg):
    values = st.sampled_from([0, 0, 1, -1, Fraction(1, 2)])
    return alg.elem([draw(values) for _ in range(alg.dim)])


def random_anchor(draw, alg):
    """An arbitrary linear map of the base, entries in {0, 1, -1}."""
    values = st.sampled_from([0, 1, -1])
    return Derivation(alg, RatMatrix(alg.dim, alg.dim, [draw(values) for _ in range(alg.dim ** 2)]))


def random_structure(draw, alg, n, anchor=random_anchor, elem=random_elem):
    bracket = [[[elem(draw, alg) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return LieRinehart(alg, n, bracket, [anchor(draw, alg) for _ in range(n)])


@st.composite
def perturbed_pairs(draw, algebras=st.integers(1, 2).map(truncated_poly), anchors=st.just(random_anchor), elem=random_elem):
    """Two arbitrary structures over an algebra of algebras (Q[x]/(x^k)
    by default), anchored by one anchor function drawn from anchors, with
    arbitrary action tables, entries drawn by elem: none of the twilled
    conditions need hold."""
    alg, anchor = draw(algebras), draw(anchors)
    lp = random_structure(draw, alg, draw(st.integers(1, 2)), anchor, elem)
    ls = random_structure(draw, alg, draw(st.integers(1, 2)), anchor, elem)
    act_p_on_s = [[[elem(draw, alg) for _ in range(ls.rank)] for _ in range(ls.rank)] for _ in range(lp.rank)]
    act_s_on_p = [[[elem(draw, alg) for _ in range(lp.rank)] for _ in range(lp.rank)] for _ in range(ls.rank)]
    return AlmostTwilled(lp, ls, act_p_on_s, act_s_on_p)


@settings(max_examples=10, deadline=None)
@given(perturbed_pairs())
def test_crossed_label_table_matches_recursion_on_perturbed_pairs(t):
    assert_crossed_tables_match_recursion(t)


def some_terms(draw, keys, alg):
    """A term dict on a nonempty sample of keys, the first term nonzero."""
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    terms = {key: random_elem(draw, alg) for key in chosen}
    if terms[chosen[0]].is_zero():
        terms[chosen[0]] = alg.one()
    return terms


@st.composite
def perturbed_brackets(draw):
    """A perturbed pair, two bigraded elements of it and two multivectors
    on its sum; the first element of each kind has a non-atom term, one
    with outer and inner slots or with two inner slots."""
    t = draw(perturbed_pairs())
    np_, ns = t.lprime.rank, t.lsecond.rank

    def bigraded(non_atom):
        degrees = [(q, p) for q in range(ns + 1) for p in range(np_ + 1) if not non_atom or p >= 2 or (q and p)]
        q, p = draw(st.sampled_from(degrees))
        keys = list(product(combinations(range(ns), q), combinations(range(np_), p)))
        return Bigraded(t, q, p, some_terms(draw, keys, t.alg))

    s = twilled_sum(t)
    subsets = [k for p in range(s.rank + 1) for k in combinations(range(s.rank), p)]
    wide = some_terms(draw, [k for k in subsets if len(k) >= 2], s.alg)
    mixed = Multivector(s, {**some_terms(draw, subsets, s.alg), **wide})
    return t, bigraded(True), bigraded(False), mixed, Multivector(s, some_terms(draw, subsets, s.alg))


@settings(max_examples=40, deadline=None)
@given(perturbed_brackets())
def test_brackets_of_non_atoms_match_recursion_on_perturbed_pairs(case):
    """schouten_bracket and crossed_bracket sum label-table entries on
    non-atom elements; the element recursion splits the elements instead."""
    t, u, v, x, y = case
    for a, b in ((u, v), (v, u), (u, u)):
        assert crossed_bracket(t, a, b).values == reference_crossed(t, a, b)
    for a, b in ((x, y), (y, x), (x, x)):
        want = bracket_terms(a.lr, {((), k): c for k, c in a.values.items()}, {((), k): c for k, c in b.values.items()})
        assert schouten_bracket(a, b) == Multivector(a.lr, {k: c for (_, k), c in want.items()})


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
                "flatness": True,
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
        # d'' is read as label columns, each label's column once, shared by
        # every pair and the square: d''(v) is not recomputed inside the
        # pair loop
        import lierine.twilled as twilled

        calls = []
        original = twilled._ce_column

        def counting(t, kind, line, label):
            calls.append((kind, label))
            return original(t, kind, line, label)

        monkeypatch.setattr(twilled, "_ce_column", counting)
        t = book_double()
        n = len(list(bigraded_labels(t)))
        r = dg_gerstenhaber_check(t)
        assert r["square"] and r["derivation"]
        assert 0 < len(calls) <= n * n + 3 * n
        assert len(set(calls)) == len(calls)

    def test_dsecond_tabulated_once_per_label(self, monkeypatch):
        # the square pass and the derivation check share one d'' column
        # per label: every bracket and image stays in the label span
        import lierine.twilled as twilled

        calls = []
        original = twilled._ce_column

        def counting(t, kind, line, label):
            if kind == "multi":
                calls.append(label)
            return original(t, kind, line, label)

        monkeypatch.setattr(twilled, "_ce_column", counting)
        t = book_double()
        n = len(list(bigraded_labels(t)))
        r = dg_gerstenhaber_check(t)
        assert r["square"] and r["derivation"]
        assert 0 < len(calls) <= n
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("fixture", ["flat_broken", "matched_pair_flipped"])
    def test_witness_at_first_pairs_stays_cheap(self, monkeypatch, fixture):
        # the bracket table is filled on first use, so a witness among the
        # first pairs leaves most of the L^2 entries unfilled; each base
        # case is one crossed_bracket call, one run of _bracket_terms
        import lierine.twilled as twilled

        inst = parse_instance(str(resources.files("lierine") / "fixtures" / f"{fixture}.lri"))
        t = inst.build_twilled(next(iter(inst.twilleds)))
        made, base_cases = [], []
        bracket, make_tables = twilled.crossed_bracket, twilled._label_tables

        def counting(pair, u, v):
            base_cases.append((u, v))
            return bracket(pair, u, v)

        def recording(pair):
            made.append(make_tables(pair))
            return made[-1]

        monkeypatch.setattr(twilled, "crossed_bracket", counting)
        monkeypatch.setattr(twilled, "_label_tables", recording)
        r = dg_gerstenhaber_check(t)
        n = len(list(bigraded_labels(t)))
        assert not r["derivation"]
        assert sum(len(tables.brackets) for tables in made) < n * n // 4
        assert 0 < len(base_cases) < n * n // 4


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
    @pytest.mark.parametrize("ones", [False, True], ids=["omega0", "omega1"])
    @pytest.mark.parametrize("name,t", SHIPPED_PAIRS, ids=[n for n, _ in SHIPPED_PAIRS])
    def test_reduces_to_inner_generator_without_outer_slots(self, name, t, ones):
        lp = t.lprime
        unit = lp.alg.one() if ones else lp.alg.zero()
        g = generator_from_connection(lp, TopConnection(lp, [unit] * lp.rank))
        op = bigraded_generator_extend(t, g)
        for (ta, sp), inner in g.table.items():
            got = op.table[(ta, (), sp)]
            assert (got.qdeg, got.pdeg) == (0, max(len(sp) - 1, 0)), (ta, sp)
            assert got.values == {((), k): c for k, c in inner.values.items()}, (ta, sp)

    @pytest.mark.parametrize("name,t", SHIPPED_PAIRS, ids=[n for n, _ in SHIPPED_PAIRS])
    def test_entries_keep_their_bidegree(self, name, t):
        # an entry on a label of bidegree (q, p) has bidegree (q, p - 1),
        # and (q, 0) with no terms on inner degree 0
        lp = t.lprime
        op = bigraded_generator_extend(t, generator_from_connection(lp, TopConnection(lp, [lp.alg.one()] * lp.rank)))
        for (ta, ss, sp), entry in op.table.items():
            assert (entry.qdeg, entry.pdeg) == (len(ss), max(len(sp) - 1, 0)), (ta, ss, sp)
            assert sp or entry.is_zero(), (ta, ss, sp)

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


SMALL_VALUES = st.sampled_from([Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2)])


@st.composite
def small_pairs(draw):
    """Two rank-2 Lie algebras over Q with at most one bracket each, and at
    most two entries in each action table, values in {-1, 1, 2, 1/2}."""
    alg = rationals()

    def table(entries):
        rows = [[[alg.zero()] * 2 for _ in range(2)] for _ in range(2)]
        for (i, j, k), v in entries.items():
            rows[i][j][k] = alg.scalar(v)
        return rows

    def side():
        rows = table({(0, 1, k): v for k, v in draw(st.dictionaries(st.integers(0, 1), SMALL_VALUES, max_size=1)).items()})
        rows[1][0] = [-c for c in rows[0][1]]
        return LieRinehart(alg, 2, rows, [Derivation.zero(alg)] * 2)

    index = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    lp, ls = side(), side()
    actions = [table(draw(st.dictionaries(index, SMALL_VALUES, max_size=2))) for _ in range(2)]
    return AlmostTwilled(lp, ls, *actions)


@settings(max_examples=60, deadline=None)
@given(small_pairs())
def test_square_and_dg_checks_are_equivalent_to_twilledness(t):
    """On pairs with valid sides every identity checker agrees with
    twilledness, including pairs whose L' acts on L'' with curvature."""
    assert not lr_validate(t.lprime) and not lr_validate(t.lsecond)
    assert bicomplex_square_check(t)["equivalent"]
    assert dg_lie_check(t)["equivalent"]
    assert dg_gerstenhaber_check(t)["equivalent"]


def test_dg_checks_code_each_dsecond_column_once(tmp_path, monkeypatch):
    """The dg-Lie and dG checks of one check-twilled share their tables and
    their d'', so each column of d'' is coded once per tables: 7 codings on
    the sl2 double, whose clean generator pass decides both checks (10 with
    a pass over the 11 table atoms, 56 when both carriers ran their loops,
    77 with a reader per checker)."""
    import lierine.gerst as gerst
    import lierine.twilled as twilled

    path = tmp_path / "sl2_double.lri"
    path.write_text(bench_sl2_double())
    t = parse_instance(str(path)).build_twilled("double")
    ops, codings = [], []
    make, encode = twilled._differential, gerst._LabelTables.encode

    def recording(*args):
        ops.append(make(*args))
        return ops[-1]

    def counting(self, vec):
        if any(vec is col for op in ops for col in op.columns.values()):
            codings.append(vec)
        return encode(self, vec)

    monkeypatch.setattr(twilled, "_differential", recording)
    monkeypatch.setattr(gerst._LabelTables, "encode", counting)
    lie, ger = twilled._dg_lie_and_gerstenhaber(t)
    assert lie["equivalent"] and ger["equivalent"]
    assert len(codings) == len({id(vec) for vec in codings}) == 7
