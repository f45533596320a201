"""Kernel and solve of the fraction-free engine against the dense
reduced row echelon form they replaced, kept as ``reference._echelon``
with ``reference.mat_kernel_basis`` and ``reference.mat_solve``.  The
reduced row echelon form is unique, so both give the same vectors; each
kernel vector and each solution is also checked by multiplying it out."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine.exactla import RatMatrix, SparseMatrix, mat_kernel_basis, mat_rank, mat_solve
from lierine.instances import gl_n
from lierine.lrcore import ce_matrix, trivial_coefficients
import reference
from reference import dense, to_sparse

ENTRY = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def matrices(draw):
    """A RatMatrix of 0-6 rows and columns, mostly zeros, with
    non-integral entries."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    ents = [draw(ENTRY) if draw(st.integers(0, 2)) == 0 else Fraction(0) for _ in range(rows * cols)]
    return RatMatrix(rows, cols, ents)


def times(m: SparseMatrix, v):
    """m v by direct multiplication over the stored entries."""
    out = [Fraction(0)] * m.rows
    for (i, j), e in m.entries.items():
        out[i] += e * v[j]
    return tuple(out)


def exact(vectors):
    return all(type(c) is Fraction for v in vectors for c in v)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_equals_echelon_kernel(m):
    a = to_sparse(m)
    basis = mat_kernel_basis(a)
    assert basis == reference.mat_kernel_basis(m)
    assert exact(basis)
    assert len(basis) + mat_rank(a) == m.cols
    for v in basis:
        assert not any(times(a, v))


@settings(max_examples=300, deadline=None)
@given(matrices(), st.booleans(), st.data())
def test_solve_equals_echelon_solve(m, consistent, data):
    a = to_sparse(m)
    if consistent:
        b = times(a, [data.draw(ENTRY) for _ in range(m.cols)])
    else:
        b = tuple(data.draw(ENTRY) for _ in range(m.rows))
    want = reference.mat_solve(m, b)
    if consistent:
        assert want is not None
    x = mat_solve(a, b)
    assert x == want
    if x is not None:
        assert exact([x])
        assert times(a, x) == tuple(b)


def test_solve_inconsistent_and_empty():
    m = to_sparse(reference.from_rows([[1, 1], [2, 2]]))
    assert mat_solve(m, (1, 3)) is None
    assert mat_solve(SparseMatrix(2, 0, {}), (0, 0)) == ()
    assert mat_solve(SparseMatrix(2, 0, {}), (0, Fraction(1, 2))) is None
    assert mat_solve(SparseMatrix(0, 2, {}), ()) == (0, 0)
    assert mat_kernel_basis(SparseMatrix(0, 2, {})) == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        mat_solve(m, (1,))
    with pytest.raises(TypeError):
        mat_solve(m, (1, 0.5))


@pytest.mark.parametrize("n, q", [(3, 3), (3, 4), (4, 2)])
def test_gl_n_kernels_equal_echelon_kernels(n, q):
    lr = gl_n(n)
    d = ce_matrix(lr, trivial_coefficients(lr), q)
    want = reference.mat_kernel_basis(dense(d))
    assert mat_kernel_basis(d) == want
    assert len(want) == d.cols - mat_rank(d)
    x0 = [Fraction(k % 5 - 2, k % 3 + 1) for k in range(d.cols)]
    b = times(d, x0)
    assert mat_solve(d, b) == reference.mat_solve(dense(d), b)
