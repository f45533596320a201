"""Lie-Rinehart validation, bracket expansion, modules, cohomology."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine.calgebra import Derivation
from lierine.instances import (
    abelian,
    derx2,
    derx3,
    gl_n,
    heisenberg,
    line_with_connection,
    rationals,
    sl2,
    truncated_poly,
    x2_del,
    x_del,
)
from lierine.lrcore import (
    AltForm,
    LieRinehart,
    ce_differential,
    ce_square_witness,
    cohomology_dims,
    lr_validate,
    trivial_coefficients,
)
from reference import LElem, act_lelem, alt_dim, anchor_matrix, basis_l, lr_anchor_apply, lr_bracket, mul_vec, zero_form


class TestValidate:
    def test_sl2_valid(self):
        assert lr_validate(sl2()) == []

    def test_derx2_valid(self):
        assert lr_validate(derx2()) == []

    def test_derx3_valid(self):
        assert lr_validate(derx3()) == []

    def test_abelian_valid(self):
        assert lr_validate(abelian(truncated_poly(2), 3)) == []

    def test_antisymmetry_violation(self):
        alg = rationals()
        table = [[(alg.one(),)]]
        lr = LieRinehart(alg, 1, table, [Derivation.zero(alg)])
        v = lr_validate(lr)
        assert v and v[0].axiom == "antisymmetry"

    def test_jacobi_violation(self):
        lr = sl2()
        table = [list(row) for row in lr.bracket]
        # corrupt [e,f]: set it to e instead of h
        alg = lr.alg
        table[1][2] = (alg.zero(), alg.one(), alg.zero())
        table[2][1] = (alg.zero(), -alg.one(), alg.zero())
        bad = LieRinehart(alg, 3, table, lr.anchor)
        v = lr_validate(bad)
        assert any(x.axiom == "jacobi" for x in v)

    def test_anchor_morphism_violation(self):
        # zero bracket but anchors with [x d/dx, x^2 d/dx] = x^2 d/dx != 0
        alg = truncated_poly(3)
        z = alg.zero()
        table = [[(z, z)] * 2 for _ in range(2)]
        bad = LieRinehart(alg, 2, table, [x_del(alg), x2_del(alg)])
        v = lr_validate(bad)
        assert any(x.axiom == "anchor-morphism" for x in v)

    def test_anchor_not_derivation(self):
        alg = truncated_poly(2)
        # plain d/dx fails Leibniz on the truncated base
        bad_der = Derivation.from_images(alg, [alg.zero(), alg.one()])
        table = [[(alg.zero(),)]]
        bad = LieRinehart(alg, 1, table, [bad_der])
        v = lr_validate(bad)
        assert any(x.axiom == "anchor-derivation" for x in v)


class TestBracketExpansion:
    def test_anchor_leibniz_rule(self):
        # [x, a y] = x(a) y + a [x, y] for u = u0 u, v = x v with x scalar
        lr = derx3()
        alg = lr.alg
        u = basis_l(lr, 0)
        y = basis_l(lr, 1)
        a = alg.basis(1)
        lhs = lr_bracket(lr, u, y.scale(a))
        rhs = y.scale(lr_anchor_apply(lr, u, a)) + lr_bracket(lr, u, y).scale(a)
        assert lhs == rhs

    def test_function_linearity_in_first_slot(self):
        # [a x, y] = a [x, y] - y(a) x
        lr = derx3()
        alg = lr.alg
        x = basis_l(lr, 0)
        y = basis_l(lr, 1)
        a = alg.basis(1) + alg.scalar(3)
        lhs = lr_bracket(lr, x.scale(a), y)
        rhs = lr_bracket(lr, x, y).scale(a) - x.scale(lr_anchor_apply(lr, y, a))
        assert lhs == rhs

    def test_anchor_matrix_agrees_with_apply(self):
        lr = derx3()
        alg = lr.alg
        u = LElem(lr, [alg.basis(1), alg.scalar(2)])
        a = alg.elem([Fraction(1), Fraction(-2), Fraction(5)])
        m = anchor_matrix(lr, u)
        assert mul_vec(m, a.coeffs) == lr_anchor_apply(lr, u, a).coeffs


@st.composite
def derx3_elem(draw):
    lr = derx3()
    cs = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=6,
            max_size=6,
        )
    )
    return lr, LElem(lr, [lr.alg.elem(cs[0:3]), lr.alg.elem(cs[3:6])])


@settings(max_examples=40, deadline=None)
@given(derx3_elem(), derx3_elem())
def test_bracket_antisymmetric_on_elements(pu, pv):
    lr, u = pu
    _, v = pv
    assert lr_bracket(lr, u, v) == -lr_bracket(lr, v, u)


@settings(max_examples=25, deadline=None)
@given(derx3_elem(), derx3_elem(), derx3_elem())
def test_bracket_jacobi_on_elements(pu, pv, pw):
    lr, u = pu
    _, v = pv
    _, w = pw
    jac = (
        lr_bracket(lr, u, lr_bracket(lr, v, w))
        - lr_bracket(lr, lr_bracket(lr, u, v), w)
        - lr_bracket(lr, v, lr_bracket(lr, u, w))
    )
    assert jac.is_zero()


class TestModules:
    def test_trivial_coefficients_flat(self):
        for lr in (sl2(), derx2(), derx3()):
            m = trivial_coefficients(lr)
            assert m.is_flat()

    def test_flat_line_module(self):
        lr = derx3()
        m = line_with_connection(lr, [lr.alg.one(), lr.alg.zero()])
        assert m.is_flat()

    def test_curved_line_module(self):
        # omega(u) = x, omega(v) = 0 on [u,v] = v: curvature -x^2
        lr = derx3()
        m = line_with_connection(lr, [lr.alg.basis(1), lr.alg.zero()])
        assert not m.is_flat()

    def test_act_lelem_function_linear(self):
        lr = derx3()
        m = trivial_coefficients(lr)
        a = lr.alg.basis(1)
        u = basis_l(lr, 0)
        vec = (lr.alg.basis(2) + lr.alg.one(),)
        left = act_lelem(m, u.scale(a), vec)
        right = tuple(a * c for c in act_lelem(m, u, vec))
        assert left == right


class TestDifferential:
    def test_degree_zero_is_action(self):
        lr = derx3()
        m = trivial_coefficients(lr)
        w = AltForm(lr, m, 0, {(): (lr.alg.basis(1),)})
        dw = ce_differential(lr, m, w)
        # (d a)(x) = x(a): u(x) = x, v(x) = x^2
        assert dw.value((0,)) == (lr.alg.basis(1),)
        assert dw.value((1,)) == (lr.alg.basis(2),)

    def test_bracket_term_sign(self):
        # on sl2, d of the dual of h sends (e, f) to -1
        lr = sl2()
        m = trivial_coefficients(lr)
        hstar = AltForm(lr, m, 1, {(0,): (lr.alg.one(),)})
        d = ce_differential(lr, m, hstar)
        assert d.value((1, 2)) == (-lr.alg.one(),)

    def test_square_zero_flat(self):
        lr = derx3()
        m = trivial_coefficients(lr)
        assert ce_square_witness(lr, m) is None

    def test_square_zero_sl2(self):
        assert ce_square_witness(sl2(), trivial_coefficients(sl2())) is None

    def test_curved_square_nonzero(self):
        lr = derx3()
        m = line_with_connection(lr, [lr.alg.basis(1), lr.alg.zero()])
        assert ce_square_witness(lr, m) is not None

    def test_formal_flag_required_when_curved(self):
        lr = derx3()
        m = line_with_connection(lr, [lr.alg.basis(1), lr.alg.zero()])
        w = AltForm(lr, m, 0, {(): (lr.alg.one(),)})
        with pytest.raises(ValueError):
            ce_differential(lr, m, w)
        ce_differential(lr, m, w, formal=True)

    def test_top_degree_vanishes(self):
        lr = derx2()
        m = trivial_coefficients(lr)
        w = AltForm(lr, m, 1, {(0,): (lr.alg.basis(1),)})
        assert ce_differential(lr, m, w).is_zero()


@st.composite
def derx3_one_form(draw):
    lr = derx3()
    m = trivial_coefficients(lr)
    cs = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            min_size=6,
            max_size=6,
        )
    )
    vals = {(0,): (lr.alg.elem(cs[0:3]),), (1,): (lr.alg.elem(cs[3:6]),)}
    return lr, m, AltForm(lr, m, 1, vals)


@settings(max_examples=30, deadline=None)
@given(derx3_one_form())
def test_d_squared_zero_random_forms(p):
    lr, m, w = p
    assert ce_differential(lr, m, ce_differential(lr, m, w)).is_zero()


@settings(max_examples=30, deadline=None)
@given(derx3_one_form(), derx3_one_form())
def test_d_linear(p, q):
    lr, m, w1 = p
    _, _, w2 = q
    left = ce_differential(lr, m, w1.add(w2))
    right = ce_differential(lr, m, w1).add(ce_differential(lr, m, w2))
    assert left == right


class TestAltForm:
    def test_eval_sign(self):
        """With [x0, x1] = x1 and [x0, x2] = x2, the term w([x0, x2], x1)
        of dw(x0, x1, x2) reads w = f^1 f^2 on the unsorted pair (2, 1):
        dw(x0, x1, x2) = -w(x1, x2) + w(x2, x1) = -2, and 0 if that
        read lost its sign."""
        alg = rationals()
        zero, one = alg.zero(), alg.one()
        table = [[(zero, zero, zero)] * 3 for _ in range(3)]
        table[0][1], table[1][0] = (zero, one, zero), (zero, -one, zero)
        table[0][2], table[2][0] = (zero, zero, one), (zero, zero, -one)
        lr = LieRinehart(alg, 3, table, [Derivation.zero(alg)] * 3)
        m = trivial_coefficients(lr)
        w = AltForm(lr, m, 2, {(1, 2): (one,)})
        assert ce_differential(lr, m, w) == AltForm(lr, m, 3, {(0, 1, 2): (alg.scalar(-2),)})

    def test_zero_values_dropped(self):
        lr = sl2()
        m = trivial_coefficients(lr)
        w = AltForm(lr, m, 1, {(0,): (lr.alg.zero(),)})
        assert w.is_zero()
        assert w == zero_form(lr, m, 1)

    def test_bad_key_rejected(self):
        lr = sl2()
        m = trivial_coefficients(lr)
        with pytest.raises(ValueError):
            AltForm(lr, m, 2, {(2, 1): (lr.alg.one(),)})


class TestCohomology:
    def test_sl2_dims(self):
        lr = sl2()
        dims = cohomology_dims(lr, trivial_coefficients(lr), 3)
        assert dims == [1, 0, 0, 1]

    def test_derx2_dims(self):
        lr = derx2()
        dims = cohomology_dims(lr, trivial_coefficients(lr), 1)
        assert dims == [1, 1]

    def test_derx3_dims(self):
        lr = derx3()
        dims = cohomology_dims(lr, trivial_coefficients(lr), 2)
        assert dims == [1, 2, 1]

    # closed forms independent of this code: trivial cohomology of gl_n is
    # prod_{i<=n} (1 + t^(2i-1)) (Koszul 1950), and h3 has dims 1 2 2 1
    def test_gl2_koszul(self):
        lr = gl_n(2)
        assert cohomology_dims(lr, trivial_coefficients(lr), 4) == [1, 1, 0, 1, 1]

    def test_gl3_koszul(self):
        lr = gl_n(3)
        dims = cohomology_dims(lr, trivial_coefficients(lr), 9)
        assert dims == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]

    def test_gl4_koszul_through_degree_3(self):
        lr = gl_n(4)
        assert cohomology_dims(lr, trivial_coefficients(lr), 3) == [1, 1, 0, 1]

    def test_gl4_koszul_all_degrees(self):
        # prod (1 + t)(1 + t^3)(1 + t^5)(1 + t^7); the mirror builds 8 of the 17 degrees
        lr = gl_n(4)
        want = [1, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 0, 1, 1]
        assert cohomology_dims(lr, trivial_coefficients(lr), 16) == want

    def test_heisenberg_dims(self):
        lr = heisenberg()
        assert cohomology_dims(lr, trivial_coefficients(lr), 3) == [1, 2, 2, 1]

    def test_beyond_rank_zero(self):
        lr = derx2()
        dims = cohomology_dims(lr, trivial_coefficients(lr), 4)
        assert dims[2:] == [0, 0, 0]

    def test_alt_dim(self):
        lr = derx3()
        m = trivial_coefficients(lr)
        assert alt_dim(lr, m, 0) == 3
        assert alt_dim(lr, m, 1) == 6
        assert alt_dim(lr, m, 2) == 3

    def test_curved_coefficients_rejected(self):
        lr = derx3()
        m = line_with_connection(lr, [lr.alg.basis(1), lr.alg.zero()])
        with pytest.raises(ValueError):
            cohomology_dims(lr, m, 2)

    def test_flat_line_coefficients(self):
        # twisting by the flat connection omega = (1, 0) shifts the kernel
        lr = derx3()
        m = line_with_connection(lr, [lr.alg.one(), lr.alg.zero()])
        dims = cohomology_dims(lr, m, 2)
        assert len(dims) == 3
        assert all(d >= 0 for d in dims)
