"""Label tables filled from atom pairs, and residuals summed per pair.

Every entry of a label table is read off entries of smaller labels on
both sides, so the carrier's bracket on elements (``schouten_bracket`` or
``crossed_bracket``) only ever sees an atom, a single vector or a pure
form, on each side; the tests count that.  The derivation and generator
witnesses sum each pair's residual straight from table entries and
operator columns; they are compared with the ``_lincomb`` form kept in
``reference``, run on the operator's columns read back through the
element round-trip ``reference.operator``.  ``check-twilled`` runs its dg-Lie and dG checks on one
set of tables, which is counted on the benchmark's sl2 double.
"""

import importlib.util
from fractions import Fraction
from functools import partial
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine import cli, gerst, twilled
from lierine.calgebra import CommAlg, Derivation
from lierine.exactla import RatMatrix
from lierine.gerst import GeneratorOp, Multivector, _derivation_witness, _generator_witness
from lierine.instances import derx3, sl2, truncated_poly
from lierine.lrcore import LieRinehart
from lierine.twilled import (
    AlmostTwilled,
    Bigraded,
    _bigraded_elems,
    _differential,
    _label_tables,
    bigraded_labels,
    dg_gerstenhaber_check,
    dsecond_multi,
)
from reference import derivation_witness, generator_witness, operator

FIXTURES = resources.files("lierine") / "fixtures"
# Q x Q on its two idempotents: the unit (1, 1) is not a basis vector
SPLIT = CommAlg(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
# Q x Q on twice its idempotents: the unit is (1/2, 1/2)
HALVES = CommAlg(2, [[[2, 0], [0, 0]], [[0, 0], [0, 2]]], [Fraction(1, 2), Fraction(1, 2)])


def bench_sl2_double(tmp_path) -> Path:
    """The benchmark's generated sl2 standard double (seed 101), written
    to a file under tmp_path."""
    spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path = tmp_path / "sl2_double.lri"
    path.write_text(gen.sl2_double(101))
    return path


def fixture_pair(name: str) -> AlmostTwilled:
    inst = cli.parse_instance(str(FIXTURES / f"{name}.lri"))
    return inst.build_twilled(next(iter(inst.twilleds)))


def is_atom(terms) -> bool:
    """One term that is a single vector or a pure form."""
    if len(terms) != 1:
        return False
    ((outer, inner),) = terms
    return not inner or (not outer and len(inner) == 1)


@pytest.mark.parametrize("name", ["matched_pair", "matched_pair_flipped", "flat_broken", "desk", "sl2_double"])
def test_crossed_bracket_is_called_on_atoms_only(monkeypatch, tmp_path, name):
    if name == "sl2_double":
        t = cli.parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double")
    else:
        t = fixture_pair(name)
    calls = []
    bracket = twilled.crossed_bracket

    def counting(pair, u, v):
        calls.append((u, v))
        return bracket(pair, u, v)

    monkeypatch.setattr(twilled, "crossed_bracket", counting)
    dg_gerstenhaber_check(t)
    assert calls
    assert all(is_atom(u.values) and is_atom(v.values) for u, v in calls)


@pytest.mark.parametrize("lr", [derx3(), sl2()], ids=["derx3", "sl2"])
def test_schouten_bracket_is_called_on_atoms_only(monkeypatch, lr):
    calls = []
    bracket = gerst.schouten_bracket

    def counting(u, v):
        calls.append((u, v))
        return bracket(u, v)

    monkeypatch.setattr(gerst, "schouten_bracket", counting)
    assert gerst.gerstenhaber_validate(lr, lr.rank) == []
    assert calls
    assert all(is_atom(u.terms()) and is_atom(v.terms()) for u, v in calls)


def test_check_twilled_fills_each_bracket_entry_once(monkeypatch, tmp_path, capsys):
    """The dg-Lie carrier is the inner-degree-1 part of the dG one, so one
    set of tables serves both checks: at most one entry per label pair."""
    path = bench_sl2_double(tmp_path)
    made = []
    make_tables = twilled._label_tables

    def recording(pair):
        made.append(make_tables(pair))
        return made[-1]

    monkeypatch.setattr(twilled, "_label_tables", recording)
    assert cli.main(["check-twilled", "--input", str(path)]) == 0
    assert "verdict dg-gerstenhaber: pass" in capsys.readouterr().out
    t = cli.parse_instance(str(path)).build_twilled("double")
    n = len(list(bigraded_labels(t)))
    assert n * n == 4096
    assert sum(len(tables.brackets) for tables in made) <= n * n


def random_elem(draw, alg):
    values = st.sampled_from([0, 0, 1, -1, Fraction(1, 2)])
    return alg.elem([draw(values) for _ in range(alg.dim)])


def random_structure(draw, alg, n):
    bracket = [[[random_elem(draw, alg) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    values = st.sampled_from([0, 0, 1, -1])
    anchor = [Derivation(alg, RatMatrix(alg.dim, alg.dim, [draw(values) for _ in range(alg.dim ** 2)])) for _ in range(n)]
    return LieRinehart(alg, n, bracket, anchor)


ALGEBRAS = st.sampled_from([truncated_poly(1), truncated_poly(2), SPLIT])


@st.composite
def perturbed_tables(draw):
    """Two arbitrary structures with arbitrary action tables, and the table
    of an arbitrary operator lowering the inner degree by one."""
    alg = draw(ALGEBRAS)
    lp = random_structure(draw, alg, draw(st.integers(1, 2)))
    ls = random_structure(draw, alg, draw(st.integers(1, 2)))
    act_p_on_s = [[[random_elem(draw, alg) for _ in range(ls.rank)] for _ in range(ls.rank)] for _ in range(lp.rank)]
    act_s_on_p = [[[random_elem(draw, alg) for _ in range(lp.rank)] for _ in range(lp.rank)] for _ in range(ls.rank)]
    t = AlmostTwilled(lp, ls, act_p_on_s, act_s_on_p)
    table = {}
    for ta, ss, sp in bigraded_labels(t):
        values = {}
        if sp and draw(st.booleans()):
            values[(ss, sp[1:])] = random_elem(draw, alg)
        table[(ta, ss, sp)] = Bigraded(t, len(ss), max(len(sp) - 1, 0), values)
    return t, table


def perturbed_pairs():
    """A pair of ``perturbed_tables`` with its operator."""
    return perturbed_tables().map(lambda p: (p[0], GeneratorOp(*p)))


@settings(max_examples=60, deadline=None)
@given(perturbed_pairs())
def test_fused_witnesses_match_lincomb_form_on_perturbed_pairs(p):
    t, op = p
    elems = _bigraded_elems(t)
    tables = _label_tables(t)
    fused = _derivation_witness(elems, tables, _differential(t, "multi"))
    tables = _label_tables(t)
    assert fused == derivation_witness(elems, tables, operator(t, partial(dsecond_multi, t)))
    tables = _label_tables(t)
    fused = _generator_witness(elems, tables, op)
    tables = _label_tables(t)
    assert fused == generator_witness(elems, tables, operator(t, op.apply))


@st.composite
def structures_with_tables(draw):
    """A structure and the table of an arbitrary degree -1 operator on its
    multivectors."""
    alg = draw(st.sampled_from([truncated_poly(2), SPLIT, HALVES]))
    lr = random_structure(draw, alg, draw(st.integers(1, 3)))
    table = {}
    for t, key in gerst._basis_multivectors(lr, lr.rank):
        values = {key[1:]: random_elem(draw, alg)} if key and draw(st.booleans()) else {}
        table[(t, key)] = Multivector(lr, values)
    return lr, table


def structures_with_operators():
    """A structure of ``structures_with_tables`` with its operator."""
    return structures_with_tables().map(lambda p: (p[0], GeneratorOp(*p)))


@settings(max_examples=60, deadline=None)
@given(structures_with_operators())
def test_fused_witnesses_match_lincomb_form_on_unit_vectors(p):
    """Elements u = 1 e_S as label vectors: over Q x Q the unit is a
    combination of two labels, so each pair's residual is summed over
    label pairs with their coefficients."""
    lr, op = p
    elems = [
        (key, gerst._vector({((), key): lr.alg.one()}), len(key))
        for t, key in gerst._basis_multivectors(lr, lr.rank)
        if t == 0
    ]
    for fused, lincomb in ((_derivation_witness, derivation_witness), (_generator_witness, generator_witness)):
        found = fused(elems, gerst._flat_tables(lr), op)
        tables = gerst._flat_tables(lr)
        assert found == lincomb(elems, tables, operator(lr, op.apply))
