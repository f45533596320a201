"""The element surface of the two carriers, ``Multivector`` on the
exterior algebra of a structure and ``Bigraded`` on the carrier of a
pair: constructor checks, arithmetic across parents and bidegrees,
scaling, equality between the classes and the reprs."""

from fractions import Fraction

import pytest

from lierine.gerst import Multivector
from lierine.instances import book, book_double, book_double_flipped, book_dual, derx3, sl2
from lierine.twilled import Bigraded


def derx3_element():
    lr = derx3()
    a = lr.alg
    return Multivector(lr, {(0,): a.basis(1), (0, 1): a.scalar(Fraction(1, 2))})


def double_element():
    t = book_double()
    return Bigraded(t, 1, 1, {((0,), (1,)): t.alg.scalar(3), ((1,), (0,)): t.alg.scalar(Fraction(-1, 2))})


class TestMultivectorChecks:
    @pytest.mark.parametrize("key", [(1, 0), (0, 0)])
    def test_non_increasing_key_rejected(self, key):
        lr = sl2()
        with pytest.raises(ValueError, match="strictly increasing"):
            Multivector(lr, {key: lr.alg.one()})

    @pytest.mark.parametrize("key", [(3,), (0, 3), (-1,)])
    def test_index_out_of_range_rejected(self, key):
        lr = sl2()
        with pytest.raises(ValueError, match="out of range"):
            Multivector(lr, {key: lr.alg.one()})

    @pytest.mark.parametrize("coeff", [derx3().alg.one(), Fraction(1), 1])
    def test_foreign_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="base algebra"):
            Multivector(sl2(), {(0,): coeff})

    def test_zero_coefficients_dropped(self):
        lr = sl2()
        u = Multivector(lr, {(0,): lr.alg.zero(), (1, 2): lr.alg.one()})
        assert u.values == {(1, 2): lr.alg.one()}


class TestBigradedChecks:
    def test_negative_bidegree_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Bigraded(book_double(), -1, 0, {})

    def test_key_off_the_bidegree_rejected(self):
        t = book_double()
        with pytest.raises(ValueError, match="bad inner key"):
            Bigraded(t, 1, 1, {((0,), (0, 1)): t.alg.one()})

    def test_outer_index_out_of_range_rejected(self):
        t = book_double()
        with pytest.raises(ValueError, match="outer index out of range"):
            Bigraded(t, 1, 0, {((2,), ()): t.alg.one()})

    def test_foreign_coefficient_rejected(self):
        with pytest.raises(ValueError, match="base algebra"):
            Bigraded(book_double(), 0, 1, {((), (0,)): derx3().alg.one()})


class TestArithmetic:
    def test_multivector_add_mixes_degrees(self):
        u = derx3_element()
        v = Multivector.from_scalar(u.lr, u.lr.alg.one())
        assert u.add(v).degrees() == [0, 1, 2]
        assert u.add(v).sub(v) == u
        assert u.add(u.neg()).is_zero()

    def test_bigraded_add_across_bidegrees(self):
        w = double_element()
        zero = Bigraded.zero(w.t, 0, 2)
        assert w.add(zero) is w
        assert zero.add(w) is w
        with pytest.raises(ValueError, match="bidegree mismatch"):
            w.add(Bigraded.term(w.t, w.t.alg.one(), (0,), ()))

    def test_bigraded_sum_and_negation(self):
        w = double_element()
        assert w.add(w) == w.scale(2)
        assert w.sub(w) == Bigraded.zero(w.t, 1, 1)
        assert w.neg().coeff((1,), (0,)) == w.t.alg.scalar(Fraction(1, 2))

    def test_multivector_parent_mismatch_on_add(self):
        u = Multivector.basis(book(), 0)
        with pytest.raises(ValueError, match="mismatch"):
            u.add(Multivector.basis(book_dual(), 0))

    def test_bigraded_parent_mismatch_on_add(self):
        w = double_element()
        other = Bigraded(book_double_flipped(), 1, 1, w.values)
        with pytest.raises(ValueError, match="parent mismatch"):
            w.add(other)

    def test_multivector_equals_no_bigraded(self):
        assert Multivector.zero(book()) != Bigraded.zero(book_double(), 0, 0)
        assert Bigraded.zero(book_double(), 0, 0) != Multivector.zero(book())
        assert not Multivector.zero(book()) == Bigraded.zero(book_double(), 0, 0)

    def test_bigraded_zeros_of_two_bidegrees_differ(self):
        t = book_double()
        assert Bigraded.zero(t, 1, 0) != Bigraded.zero(t, 0, 1)


class TestScale:
    def test_multivector_scale(self):
        u = derx3_element()
        a = u.lr.alg
        assert u.scale(2).values == {(0,): a.elem([0, 2, 0]), (0, 1): a.one()}
        assert u.scale(Fraction(1, 3)).values == {(0,): a.elem([0, Fraction(1, 3), 0]), (0, 1): a.scalar(Fraction(1, 6))}
        assert u.scale(a.basis(1)).values == {(0,): a.basis(2), (0, 1): a.elem([0, Fraction(1, 2), 0])}
        assert u.scale(0).is_zero()

    def test_bigraded_scale(self):
        w = double_element()
        a = w.t.alg
        assert w.scale(2).values == {((0,), (1,)): a.scalar(6), ((1,), (0,)): a.scalar(-1)}
        assert w.scale(Fraction(2, 3)).coeff((0,), (1,)) == a.scalar(2)
        assert w.scale(a.scalar(-2)).coeff((1,), (0,)) == a.one()
        assert w.scale(0) == Bigraded.zero(w.t, 1, 1)

    @pytest.mark.parametrize("element", [derx3_element, double_element])
    def test_float_rejected(self, element):
        with pytest.raises(TypeError, match="floats"):
            element().scale(0.5)

    def test_float_rejected_on_zero(self):
        for zero in (Multivector.zero(derx3()), Bigraded.zero(book_double(), 1, 0)):
            with pytest.raises(TypeError, match="floats"):
                zero.scale(0.5)


class TestRepr:
    def test_multivector(self):
        assert repr(derx3_element()) == "Multivector((0,):AElem(0 1 0), (0, 1):AElem(1/2 0 0))"
        assert repr(Multivector.zero(derx3())) == "Multivector(0)"

    def test_bigraded(self):
        assert repr(double_element()) == "Bigraded(q=1, p=1, ((0,), (1,)):AElem(3), ((1,), (0,)):AElem(-1/2))"
        assert repr(Bigraded.zero(book_double(), 1, 2)) == "Bigraded(q=1, p=2, )"
