"""The one sparse literal bracket table of a structure: compiled in a
single pass over the dense AElem table, then read by antisymmetry, by
the i < j half of the builder's table and by the degree-one table of
Jacobi, against the dense scan of ``reference.bracket_table``."""

import pytest
from hypothesis import given, settings

from lierine import calgebra, lrcore
from lierine.instances import gl_n
from lierine.lrcore import cohomology_dims, lr_validate, module_validate, trivial_coefficients
import reference
from test_sparse import FIXTURE_STRUCTURES, random_tables


@pytest.mark.parametrize("name,lr", FIXTURE_STRUCTURES, ids=[n for n, _ in FIXTURE_STRUCTURES])
def test_bracket_table_matches_dense_scan_on_fixtures(name, lr):
    assert repr(lrcore._bracket_table(lr)) == repr(reference.bracket_table(lr))


@settings(max_examples=60, deadline=None)
@given(random_tables(max_rank=7))
def test_bracket_table_matches_dense_scan_on_random_tables(p):
    lr = p[0]
    assert repr(lrcore._bracket_table(lr)) == repr(reference.bracket_table(lr))


def test_bracket_table_matches_dense_scan_on_gl4():
    lr = gl_n(4)
    assert repr(lrcore._bracket_table(lr)) == repr(reference.bracket_table(lr))


class CountedRows(tuple):
    """The outer tuple of a bracket table, recording each read of it: a
    row index, or None for a pass over all rows."""

    def __new__(cls, rows):
        table = super().__new__(cls, rows)
        table.reads = []
        return table

    def __iter__(self):
        self.reads.append(None)
        return super().__iter__()

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_fresh_gl3_compiles_its_literal_table_once(monkeypatch):
    """Validation, flatness and cohomology of a fresh gl_3 pass over the
    dense bracket table once, when the literal table is compiled, and
    test no algebra element for zero."""
    lr = gl_n(3)
    lr.bracket = rows = CountedRows(lr.bracket)
    tested = []
    is_zero = calgebra.AElem.is_zero
    monkeypatch.setattr(calgebra.AElem, "is_zero", lambda a: tested.append(a) or is_zero(a))
    assert lr_validate(lr) == []
    literal = lr._literal
    m = trivial_coefficients(lr)
    assert module_validate(lr, m) == []
    assert cohomology_dims(lr, m, lr.rank) == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]
    assert rows.reads == [None]
    assert lr._literal is literal
    assert tested == []


def test_literal_table_lists_every_ordered_pair():
    """Both sides of each bracket, integral coefficients as int, and the
    zero diagonal as empty entries."""
    lr = gl_n(2)
    table = lrcore._literal_table(lr)
    for i in range(lr.rank):
        for j in range(lr.rank):
            dense = [(k, c.coeffs) for k, c in enumerate(lr.bracket[i][j]) if any(c.coeffs)]
            want = tuple((k, tuple((s, x) for s, x in enumerate(coeffs) if x)) for k, coeffs in dense)
            assert table[i][j] == want
            assert all(type(x) is int for _, terms in table[i][j] for _, x in terms)
        assert table[i][i] == ()
