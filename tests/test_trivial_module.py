"""The trivial module A of a structure: built once and kept on it, and its
anchor square skipped when every anchor is zero (then d = 0 on C^0(L; A)).
Both are counted; the anchor-morphism report is compared with the dense
loop of ``reference`` on structures with and without zero anchors."""

from importlib import resources
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine import cli, lrcore
from lierine.calgebra import Derivation
from lierine.exactla import RatMatrix
from lierine.instances import derx3, gl_n, truncated_poly, x2_del, x_del
from lierine.lrcore import LieRinehart, lr_validate, trivial_coefficients
from reference import anchor_morphism_violations

FIXTURES = resources.files("lierine") / "fixtures"
VALUES = st.sampled_from([0, 0, 0, 1, -1, 2])


def counting_squares(monkeypatch):
    calls = []
    square = lrcore._square
    monkeypatch.setattr(lrcore, "_square", lambda *args: calls.append(args) or square(*args))
    return calls


def test_anchor_square_is_skipped_on_gl3(monkeypatch):
    calls = counting_squares(monkeypatch)
    assert lr_validate(gl_n(3)) == []
    assert calls == []


def test_anchor_square_is_built_for_a_nonzero_anchor(monkeypatch):
    calls = counting_squares(monkeypatch)
    assert lr_validate(derx3()) == []
    assert len(calls) == 1


@st.composite
def structures(draw):
    """An arbitrary bracket table over Q[x]/(x^k) with all anchors zero, or
    with anchors that may fail to be derivations or morphisms."""
    alg = truncated_poly(draw(st.integers(1, 3)))
    n = draw(st.integers(1, 3))
    table = [[[alg.zero()] * n for _ in range(n)] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        for k in range(n):
            c = alg.elem([draw(VALUES) for _ in range(alg.dim)])
            table[i][j][k], table[j][i][k] = c, -c
    kinds = st.integers(0, 0) if draw(st.booleans()) else st.integers(0, 3)
    anchors = []
    for _ in range(n):
        kind = draw(kinds)
        if kind == 3:
            anchors.append(Derivation(alg, RatMatrix(alg.dim, alg.dim, [draw(VALUES) for _ in range(alg.dim ** 2)])))
        else:
            anchors.append((Derivation.zero(alg), x_del(alg), x2_del(alg))[kind])
    return LieRinehart(alg, n, table, anchors)


@settings(max_examples=100, deadline=None)
@given(structures())
def test_anchor_morphism_report_with_and_without_the_square(lr):
    calls = []
    square = lrcore._square
    lrcore._square = lambda *args: calls.append(args) or square(*args)
    try:
        got = [v for v in lr_validate(lr) if v.axiom == "anchor-morphism"]
    finally:
        lrcore._square = square
    zero = Derivation.zero(lr.alg)
    assert len(calls) == (0 if all(rho == zero for rho in lr.anchor) else 1)
    assert got == anchor_morphism_violations(lr)


def test_trivial_module_is_kept_on_the_structure():
    lr = derx3()
    assert trivial_coefficients(lr) is trivial_coefficients(lr)


@pytest.mark.parametrize("fixture,name", [("sl2", "sl2"), ("derx3", "derx3")])
def test_cohomology_compiles_the_trivial_action_table_once(monkeypatch, capsys, fixture, name):
    compiled = []
    table = lrcore._action_table

    def counting(m):
        if m._compiled is None:
            compiled.append(m)
        return table(m)

    monkeypatch.setattr(lrcore, "_action_table", counting)
    path = str(FIXTURES / f"{fixture}.lri")
    assert cli.main(["cohomology", "--input", path, "--name", name]) == 0
    assert "dims:" in capsys.readouterr().out
    assert len(compiled) == 1 and compiled[0].rank == 1
