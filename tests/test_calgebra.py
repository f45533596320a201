"""Commutative base algebras, their elements, and derivations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine.calgebra import (
    CommAlg,
    Derivation,
    alg_validate,
    derivation_validate,
)
from reference import der_bracket


def truncated_poly(k: int) -> CommAlg:
    """Q[x]/(x^k) with basis 1, x, .., x^(k-1)."""
    mult = [
        [
            [Fraction(1) if t == i + j else Fraction(0) for t in range(k)]
            for j in range(k)
        ]
        for i in range(k)
    ]
    unit = [Fraction(1)] + [Fraction(0)] * (k - 1)
    return CommAlg(k, mult, unit)


def broken_assoc() -> CommAlg:
    """Commutative unital but non-associative: e1 e1 = e2, e1 e2 = 1, e2 e2 = 0,
    so (e1 e1) e2 = 0 while e1 (e1 e2) = e1."""
    z, o = Fraction(0), Fraction(1)
    mult = [
        [[o, z, z], [z, o, z], [z, z, o]],
        [[z, o, z], [z, z, o], [o, z, z]],
        [[z, z, o], [o, z, z], [z, z, z]],
    ]
    return CommAlg(3, mult, [Fraction(1), Fraction(0), Fraction(0)])


class TestCommAlg:
    def test_qx2_valid(self):
        assert alg_validate(truncated_poly(2)) == []

    def test_qx3_valid(self):
        assert alg_validate(truncated_poly(3)) == []

    def test_unit_violation_reported(self):
        mult = [[[Fraction(0)]]]
        alg = CommAlg(1, mult, [Fraction(1)])
        v = alg_validate(alg)
        assert v
        assert any(x.axiom == "unit" for x in v)

    def test_associativity_violation(self):
        v = alg_validate(broken_assoc())
        assert any(x.axiom == "associativity" and x.witness == (1, 1, 2) for x in v)

    def test_commutativity_violation(self):
        mult = [
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
        ]
        alg = CommAlg(2, mult, [Fraction(1), Fraction(0)])
        v = alg_validate(alg)
        assert any(x.axiom == "commutativity" for x in v)

    def test_every_violation_listed(self):
        # zero multiplication on dim 2: unit fails for both basis vectors.
        mult = [[[Fraction(0)] * 2] * 2] * 2
        alg = CommAlg(2, mult, [Fraction(1), Fraction(0)])
        witnesses = {v.witness for v in alg_validate(alg) if v.axiom == "unit"}
        assert witnesses == {(0,), (1,)}

    def test_elem_arithmetic(self):
        alg = truncated_poly(3)
        x = alg.basis(1)
        assert (x * x).coeffs == (Fraction(0), Fraction(0), Fraction(1))
        assert (x * x * x).is_zero()
        assert (alg.one() * x) == x
        assert (x + x) == x * Fraction(2)

    def test_parent_mismatch(self):
        a = truncated_poly(2).basis(0)
        b = truncated_poly(3).basis(0)
        with pytest.raises(ValueError):
            _ = a + b

    def test_float_rejected(self):
        alg = truncated_poly(2)
        with pytest.raises(TypeError):
            alg.elem([0.5, 0])


class TestDerivation:
    def test_x_ddx_on_qx3(self):
        alg = truncated_poly(3)
        # x d/dx: 1 -> 0, x -> x, x^2 -> 2x^2
        d = Derivation.from_images(alg, [alg.zero(), alg.basis(1), alg.basis(2) * Fraction(2)])
        assert derivation_validate(alg, d) == []

    def test_plain_ddx_fails_on_qx3(self):
        alg = truncated_poly(3)
        # d/dx: 1 -> 0, x -> 1, x^2 -> 2x; Leibniz breaks at (x, x^2).
        d = Derivation.from_images(alg, [alg.zero(), alg.one(), alg.basis(1) * Fraction(2)])
        v = derivation_validate(alg, d)
        assert v
        assert all(x.axiom == "leibniz" for x in v)

    def test_unit_not_killed(self):
        alg = truncated_poly(2)
        d = Derivation.from_images(alg, [alg.one(), alg.zero()])
        v = derivation_validate(alg, d)
        assert any(x.axiom == "unit-killed" for x in v)

    def test_bracket_of_derivations(self):
        alg = truncated_poly(3)
        u = Derivation.from_images(alg, [alg.zero(), alg.basis(1), alg.basis(2) * Fraction(2)])
        w = Derivation.from_images(alg, [alg.zero(), alg.basis(2), alg.zero()])
        b = der_bracket(u, w)
        assert derivation_validate(alg, b) == []
        # [x d/dx, x^2 d/dx] = x^2 d/dx on Q[x]/(x^3)
        assert b.matrix == w.matrix


@st.composite
def qx3_elem(draw):
    alg = truncated_poly(3)
    cs = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=5),
            min_size=3,
            max_size=3,
        )
    )
    return alg.elem(cs)


@settings(max_examples=50, deadline=None)
@given(qx3_elem(), qx3_elem())
def test_product_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=50, deadline=None)
@given(qx3_elem(), qx3_elem(), qx3_elem())
def test_product_associates(a, b, c):
    assert (a * b) * c == a * (b * c)
