"""Exact linear algebra: rank, kernel, solve."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine.exactla import RatMatrix, mat_kernel_basis, mat_rank, mat_solve
from reference import merge_sign, sort_with_sign


def F(x):
    return Fraction(x)


class TestRatMatrix:
    def test_float_rejected(self):
        with pytest.raises(TypeError):
            RatMatrix.from_rows([[0.5]])

    def test_identity_matmul(self):
        m = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert RatMatrix.identity(2).matmul(m) == m
        assert m.matmul(RatMatrix.identity(2)) == m

    def test_mul_vec(self):
        m = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert m.mul_vec((F(1), F(1))) == (F(3), F(7))

    def test_add_sub_scale(self):
        m = RatMatrix.from_rows([[1, 2], [3, 4]])
        z = m.sub(m)
        assert z.is_zero()
        assert m.add(z) == m
        assert m.scale(F(2)) == m.add(m)

    def test_shape_mismatch(self):
        a = RatMatrix.from_rows([[1, 2]])
        b = RatMatrix.from_rows([[1], [2], [3]])
        with pytest.raises(ValueError):
            a.matmul(b)


class TestRank:
    def test_zero(self):
        assert mat_rank(RatMatrix.zero(3, 4)) == 0

    def test_identity(self):
        assert mat_rank(RatMatrix.identity(5)) == 5

    def test_dependent_rows(self):
        m = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert mat_rank(m) == 2

    def test_fractions(self):
        # det = 1/10 - 1/12 = 1/60
        m = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
        assert mat_rank(m) == 2
        singular = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]])
        assert mat_rank(singular) == 1


class TestKernel:
    def test_full_rank_trivial_kernel(self):
        assert mat_kernel_basis(RatMatrix.identity(3)) == []

    def test_kernel_vectors_annihilated(self):
        m = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        basis = mat_kernel_basis(m)
        assert len(basis) == 2
        for v in basis:
            assert all(c == 0 for c in m.mul_vec(v))


class TestSolve:
    def test_unique(self):
        m = RatMatrix.from_rows([[2, 1], [1, 3]])
        x = mat_solve(m, (F(5), F(10)))
        assert x is not None
        assert m.mul_vec(x) == (F(5), F(10))

    def test_inconsistent(self):
        m = RatMatrix.from_rows([[1, 1], [2, 2]])
        assert mat_solve(m, (F(1), F(3))) is None

    def test_underdetermined(self):
        m = RatMatrix.from_rows([[1, 1, 1]])
        x = mat_solve(m, (F(6),))
        assert x is not None
        assert sum(x) == 6

    def test_no_equations(self):
        m = RatMatrix.zero(0, 3)
        assert mat_solve(m, ()) == (F(0), F(0), F(0))


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    ents = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return RatMatrix(rows, cols, ents)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_nullity(m):
    assert mat_rank(m) + len(mat_kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_kernel_annihilated(m):
    for v in mat_kernel_basis(m):
        assert all(c == 0 for c in m.mul_vec(v))


class TestSigns:
    def test_sorted_identity(self):
        assert sort_with_sign((0, 1, 2)) == ((0, 1, 2), 1)

    def test_single_swap(self):
        assert sort_with_sign((1, 0)) == ((0, 1), -1)

    def test_cycle(self):
        assert sort_with_sign((2, 0, 1)) == ((0, 1, 2), 1)

    def test_repeat_none(self):
        assert sort_with_sign((1, 1)) is None

    def test_empty(self):
        assert sort_with_sign(()) == ((), 1)

    def test_merge_disjoint(self):
        assert merge_sign((0, 2), (1, 3)) == ((0, 1, 2, 3), -1)

    def test_merge_overlap_none(self):
        assert merge_sign((0, 1), (1, 2)) is None

    def test_merge_agrees_with_sort(self):
        left, right = (1, 4), (0, 2, 5)
        merged, sign = merge_sign(left, right)
        key, sign2 = sort_with_sign(left + right)
        assert merged == key
        assert sign == sign2
