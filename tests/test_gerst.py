"""Exterior algebra, Schouten bracket, generators and connections."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine.gerst import (
    GeneratorOp,
    Multivector,
    TopConnection,
    connection_curvature,
    contraction_inverse,
    contraction_iso,
    generator_derivation_check,
    generator_from_connection,
    generator_square,
    generator_to_connection,
    generator_validate,
    gerstenhaber_validate,
    schouten_bracket,
    wedge,
)
from lierine.instances import abelian, derx2, derx3, rationals, sl2, truncated_poly
from lierine.lrcore import LieRinehart
from reference import basis_l, from_lelem, lr_anchor_apply, lr_bracket


class TestWedge:
    def test_repeated_index_zero(self):
        lr = sl2()
        e = Multivector.basis(lr, 0)
        assert wedge(e, e).is_zero()

    def test_transposition_sign(self):
        lr = sl2()
        e1 = Multivector.basis(lr, 0)
        e2 = Multivector.basis(lr, 1)
        assert wedge(e2, e1) == wedge(e1, e2).neg()
        assert wedge(e1, e2).coeff((0, 1)) == lr.alg.one()

    def test_coefficient_bilinear(self):
        lr = derx3()
        a = lr.alg.basis(1)
        u = Multivector.basis(lr, 0).scale(a)
        v = Multivector.basis(lr, 1)
        assert wedge(u, v).coeff((0, 1)) == a

    def test_scalar_acts_as_product(self):
        lr = derx3()
        a = Multivector.from_scalar(lr, lr.alg.basis(1))
        v = Multivector.basis(lr, 1)
        assert wedge(a, v) == v.scale(lr.alg.basis(1))


@st.composite
def derx3_multivector(draw):
    lr = derx3()
    cs = draw(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            min_size=12,
            max_size=12,
        )
    )
    vals = {}
    keys = [(), (0,), (1,), (0, 1)]
    for pos, key in enumerate(keys):
        vals[key] = lr.alg.elem(cs[3 * pos : 3 * pos + 3])
    return lr, Multivector(lr, vals)


@settings(max_examples=40, deadline=None)
@given(derx3_multivector(), derx3_multivector())
def test_wedge_graded_commutative(p, q):
    lr, _ = p
    _, u = p
    _, v = q
    # on homogeneous pieces u_a ^ v_b = (-1)^{ab} v_b ^ u_a
    for a in range(3):
        for b in range(3):
            ua, vb = u.component(a), v.component(b)
            sign = 1 if (a * b) % 2 == 0 else -1
            assert wedge(ua, vb) == wedge(vb, ua).scale(sign)


@settings(max_examples=30, deadline=None)
@given(derx3_multivector(), derx3_multivector(), derx3_multivector())
def test_wedge_associative(p, q, r):
    _, u = p
    _, v = q
    _, w = r
    assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))


class TestSchouten:
    def test_degree_one_matches_bracket(self):
        for lr in (sl2(), derx3()):
            for i in range(lr.rank):
                for j in range(lr.rank):
                    u = Multivector.basis(lr, i)
                    v = Multivector.basis(lr, j)
                    got = schouten_bracket(u, v)
                    want = from_lelem(
                        lr_bracket(lr, basis_l(lr, i), basis_l(lr, j))
                    )
                    assert got == want

    def test_degree_one_with_coefficients(self):
        lr = derx3()
        a = lr.alg.basis(1)
        b = lr.alg.basis(2) + lr.alg.one()
        x = basis_l(lr, 0).scale(a)
        y = basis_l(lr, 1).scale(b)
        got = schouten_bracket(from_lelem(x), from_lelem(y))
        assert got == from_lelem(lr_bracket(lr, x, y))

    def test_element_on_scalar_is_anchor(self):
        lr = derx3()
        a = lr.alg.basis(1)
        for i in range(lr.rank):
            got = schouten_bracket(
                Multivector.basis(lr, i), Multivector.from_scalar(lr, a)
            )
            want = Multivector.from_scalar(lr, lr.anchor[i].apply(a))
            assert got == want

    def test_scalar_pair_zero(self):
        lr = derx3()
        a = Multivector.from_scalar(lr, lr.alg.basis(1))
        b = Multivector.from_scalar(lr, lr.alg.basis(2))
        assert schouten_bracket(a, b).is_zero()

    def test_two_one_expansion(self):
        # [x1^x2, x3] = [x1,x3]^x2 - [x2,x3]^x1 on every sl2 triple
        lr = sl2()
        for i, j, k in product(range(3), repeat=3):
            if i == j:
                continue
            u = wedge(Multivector.basis(lr, i), Multivector.basis(lr, j))
            v = Multivector.basis(lr, k)
            lhs = schouten_bracket(u, v)
            b_ik = from_lelem(lr_bracket(lr, basis_l(lr, i), basis_l(lr, k)))
            b_jk = from_lelem(lr_bracket(lr, basis_l(lr, j), basis_l(lr, k)))
            rhs = wedge(b_ik, Multivector.basis(lr, j)).sub(
                wedge(b_jk, Multivector.basis(lr, i))
            )
            assert lhs == rhs

    def test_sl2_h_wedge_e_with_f(self):
        lr = sl2()
        h, e, f = (Multivector.basis(lr, i) for i in range(3))
        got = schouten_bracket(wedge(h, e), f)
        want = wedge(e, f).scale(Fraction(2))
        assert got == want

    def test_multivector_on_scalar_formula(self):
        # [e0^e1, a] = e0^[e1,a] - e1^[e0,a] = e1(a) e0 - e0(a) e1
        lr = derx3()
        a = lr.alg.basis(1)
        u = wedge(Multivector.basis(lr, 0), Multivector.basis(lr, 1))
        got = schouten_bracket(u, Multivector.from_scalar(lr, a))
        da0 = lr.anchor[0].apply(a)
        da1 = lr.anchor[1].apply(a)
        want = Multivector(lr, {(0,): da1, (1,): -da0})
        assert got == want


class TestGerstenhaberValidate:
    def test_abelian(self):
        lr = abelian(truncated_poly(2), 2)
        assert gerstenhaber_validate(lr, 2) == []

    def test_sl2(self):
        assert gerstenhaber_validate(sl2(), 3) == []

    def test_derx3(self):
        assert gerstenhaber_validate(derx3(), 2) == []

    def test_corrupted_bracket_reports_jacobi(self):
        lr = sl2()
        alg = lr.alg
        table = [list(row) for row in lr.bracket]
        table[1][2] = (alg.zero(), alg.one(), alg.zero())
        table[2][1] = (alg.zero(), -alg.one(), alg.zero())
        bad = LieRinehart(alg, 3, table, lr.anchor)
        report = gerstenhaber_validate(bad, 2)
        assert report and report[0].axiom == "graded-jacobi"


class TestContraction:
    def test_top_to_scalar(self):
        lr = sl2()
        a = lr.alg.scalar(5)
        u = Multivector.top(lr).scale(a)
        form = contraction_iso(lr, u)
        assert form.degree == 0
        assert form.value(()) == (a,)

    def test_scalar_to_top_form(self):
        lr = sl2()
        a = lr.alg.scalar(3)
        form = contraction_iso(lr, Multivector.from_scalar(lr, a))
        assert form.degree == 3
        assert form.value((0, 1, 2)) == (a,)

    def test_rank2_basis_vector(self):
        lr = derx3()
        form = contraction_iso(lr, Multivector.basis(lr, 0))
        assert form.degree == 1
        assert form.value((1,)) == (lr.alg.one(),)
        assert form.value((0,)) == (lr.alg.zero(),)

    def test_round_trip_all_degrees(self):
        lr = sl2()
        for p in range(4):
            for key in combinations(range(3), p):
                u = Multivector(lr, {key: lr.alg.one()})
                again = contraction_inverse(lr, contraction_iso(lr, u))
                assert again == u


def connection(lr, *coeff_vectors):
    return TopConnection(lr, list(coeff_vectors))


def fixture_connections():
    out = []
    lr = sl2()
    out.append(("sl2-zero", lr, TopConnection(lr, [lr.alg.zero()] * 3)))
    lr = derx2()
    out.append(("derx2-const", lr, TopConnection(lr, [lr.alg.one() + lr.alg.basis(1)])))
    lr = derx3()
    out.append(("derx3-flat", lr, TopConnection(lr, [lr.alg.one(), lr.alg.zero()])))
    out.append(("derx3-curved", lr, TopConnection(lr, [lr.alg.basis(1), lr.alg.zero()])))
    return out


def with_sign_family(g, signs):
    """The generator's table with the sign s(p) = signs[p] on degree-p
    inputs in place of the built-in (-1)^p: each degree rescaled."""
    return GeneratorOp(g.parent, {
        (t, key): v if len(key) == 0 or signs[len(key)] == (-1) ** len(key) else v.neg()
        for (t, key), v in g.table.items()
    })


class TestGeneratorFromConnection:
    def test_abelian_zero_connection_gives_zero(self):
        lr = abelian(rationals(), 2)
        g = generator_from_connection(lr, TopConnection(lr, [lr.alg.zero()] * 2))
        for t, key in g.inputs():
            assert g.table[(t, key)].is_zero()

    def test_sl2_degree_two_is_minus_bracket(self):
        lr = sl2()
        g = generator_from_connection(lr, TopConnection(lr, [lr.alg.zero()] * 3))
        for i in range(3):
            for j in range(i + 1, 3):
                u = wedge(Multivector.basis(lr, i), Multivector.basis(lr, j))
                want = from_lelem(
                    lr_bracket(lr, basis_l(lr, i), basis_l(lr, j))
                ).neg()
                assert g.apply(u) == want

    def test_rank1_formula(self):
        # D(a u) = -(u(a) + a c) for the rank-1 connection omega(u) = c
        lr = derx2()
        c = lr.alg.one() + lr.alg.basis(1)
        g = generator_from_connection(lr, TopConnection(lr, [c]))
        a = lr.alg.basis(1)
        u = Multivector.basis(lr, 0).scale(a)
        want = Multivector.from_scalar(
            lr, -(lr_anchor_apply(lr, basis_l(lr, 0), a) + a * c)
        )
        assert g.apply(u) == want

    def test_degree_zero_killed(self):
        lr = derx3()
        g = generator_from_connection(lr, TopConnection(lr, [lr.alg.zero()] * 2))
        assert g.apply(Multivector.from_scalar(lr, lr.alg.basis(2))).is_zero()

    def test_sign_family_unique_on_derx3(self):
        lr = derx3()
        g = generator_from_connection(lr, TopConnection(lr, [lr.alg.one(), lr.alg.zero()]))
        passing = []
        for s1, s2 in product((1, -1), repeat=2):
            if generator_validate(lr, with_sign_family(g, {1: s1, 2: s2})) == []:
                passing.append((s1, s2))
        assert passing == [(-1, 1)]

    def test_sign_family_on_sl2(self):
        # a connection with nonzero coefficients everywhere pins all
        # three signs at once
        lr = sl2()
        g = generator_from_connection(lr, TopConnection(lr, [lr.alg.one()] * 3))
        passing = set()
        for s1, s2, s3 in product((1, -1), repeat=3):
            if generator_validate(lr, with_sign_family(g, {1: s1, 2: s2, 3: s3})) == []:
                passing.add((s1, s2, s3))
        assert passing == {(-1, 1, -1)}


class TestGeneratorValidate:
    def test_all_fixture_connections_generate(self):
        for name, lr, c in fixture_connections():
            g = generator_from_connection(lr, c)
            assert generator_validate(lr, g) == [], name

    def test_perturbed_operator_rejected(self):
        lr = sl2()
        g = generator_from_connection(lr, TopConnection(lr, [lr.alg.zero()] * 3))
        table = dict(g.table)
        key = (0, (0, 1))
        table[key] = table[key].add(Multivector.basis(lr, 0))
        bad = GeneratorOp(lr, table)
        report = generator_validate(lr, bad)
        assert report and report[0].axiom == "generator-identity"

    def test_wrong_degree_table_rejected(self):
        lr = sl2()
        with pytest.raises(ValueError):
            GeneratorOp(lr, {(0, (0,)): Multivector.basis(lr, 1)})


class TestSquareAndCurvature:
    def test_exact_iff_flat_on_fixtures(self):
        for name, lr, c in fixture_connections():
            g = generator_from_connection(lr, c)
            exact, witness = generator_square(g)
            curv = connection_curvature(lr, c)
            assert exact == curv.is_zero(), name
            assert (witness is None) == exact, name

    def test_derx3_curvature_value(self):
        lr = derx3()
        c = TopConnection(lr, [lr.alg.basis(1), lr.alg.zero()])
        f = connection_curvature(lr, c)
        assert f.value((0, 1)) == (-lr.alg.basis(2),)

    def test_rank1_always_flat(self):
        lr = derx2()
        c = TopConnection(lr, [lr.alg.basis(1)])
        assert connection_curvature(lr, c).is_zero()
        exact, _ = generator_square(generator_from_connection(lr, c))
        assert exact


class TestToConnection:
    def test_round_trip_on_fixtures(self):
        for name, lr, c in fixture_connections():
            g = generator_from_connection(lr, c)
            back = generator_to_connection(lr, g)
            assert back == c, name

    def test_zero_operator_gives_zero_form(self):
        lr = abelian(rationals(), 2)
        g = generator_from_connection(lr, TopConnection(lr, [lr.alg.zero()] * 2))
        assert generator_to_connection(lr, g) == TopConnection(lr, [lr.alg.zero()] * 2)

    def test_non_generator_rejected(self):
        lr = sl2()
        g = generator_from_connection(lr, TopConnection(lr, [lr.alg.zero()] * 3))
        table = dict(g.table)
        key = (0, (0, 1))
        table[key] = table[key].add(Multivector.basis(lr, 2))
        with pytest.raises(ValueError):
            generator_to_connection(lr, GeneratorOp(lr, table))


class TestDerivationProperty:
    def test_exact_generators_are_bracket_derivations(self):
        for name, lr, c in fixture_connections():
            g = generator_from_connection(lr, c)
            exact, _ = generator_square(g)
            if exact:
                assert generator_derivation_check(lr, g) == [], name

    def test_covers_a_nonzero_connection(self):
        flat_exact = [
            name
            for name, lr, c in fixture_connections()
            if generator_square(generator_from_connection(lr, c))[0]
            and any(not w.is_zero() for w in c.omega)
        ]
        assert "derx3-flat" in flat_exact
