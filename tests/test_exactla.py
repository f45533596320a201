"""Exact linear algebra: rank, kernel, solve."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine.exactla import RatMatrix, SparseMatrix, mat_kernel_basis, mat_rank, mat_solve
from reference import from_rows, merge_sign, mul_vec, sort_with_sign, to_sparse


def F(x):
    return Fraction(x)


def sparse(rows):
    return to_sparse(from_rows(rows))


def identity(n):
    return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})


class TestRatMatrix:
    def test_float_rejected(self):
        with pytest.raises(TypeError):
            RatMatrix(1, 1, [0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="expected 2 entries"):
            RatMatrix(1, 2, [1, 2, 3])
        with pytest.raises(ValueError, match="negative"):
            RatMatrix(-1, 2, [])
        with pytest.raises(ValueError, match="right-hand side"):
            mat_solve(sparse([[1, 2]]), (F(1), F(2)))


def test_engine_takes_only_a_sparse_matrix():
    dense = from_rows([[1, 2], [3, 4]])
    for call in (mat_rank, mat_kernel_basis, lambda m: mat_solve(m, (1, 1))):
        with pytest.raises(TypeError, match="not RatMatrix"):
            call(dense)
    with pytest.raises(TypeError, match="not list"):
        mat_rank([[1, 2], [3, 4]])


class TestRank:
    def test_zero(self):
        assert mat_rank(SparseMatrix(3, 4, {})) == 0

    def test_identity(self):
        assert mat_rank(identity(5)) == 5

    def test_dependent_rows(self):
        m = sparse([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert mat_rank(m) == 2

    def test_fractions(self):
        # det = 1/10 - 1/12 = 1/60
        m = sparse([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
        assert mat_rank(m) == 2
        singular = sparse([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]])
        assert mat_rank(singular) == 1


class TestKernel:
    def test_full_rank_trivial_kernel(self):
        assert mat_kernel_basis(identity(3)) == []

    def test_kernel_vectors_annihilated(self):
        m = sparse([[1, 2, 3], [2, 4, 6]])
        basis = mat_kernel_basis(m)
        assert len(basis) == 2
        for v in basis:
            assert all(c == 0 for c in mul_vec(m, v))


class TestSolve:
    def test_unique(self):
        m = sparse([[2, 1], [1, 3]])
        x = mat_solve(m, (F(5), F(10)))
        assert x is not None
        assert mul_vec(m, x) == (F(5), F(10))

    def test_inconsistent(self):
        m = sparse([[1, 1], [2, 2]])
        assert mat_solve(m, (F(1), F(3))) is None

    def test_underdetermined(self):
        m = sparse([[1, 1, 1]])
        x = mat_solve(m, (F(6),))
        assert x is not None
        assert sum(x) == 6

    def test_no_equations(self):
        m = SparseMatrix(0, 3, {})
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
    return to_sparse(RatMatrix(rows, cols, ents))


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_nullity(m):
    assert mat_rank(m) + len(mat_kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_kernel_annihilated(m):
    for v in mat_kernel_basis(m):
        assert all(c == 0 for c in mul_vec(m, v))


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
