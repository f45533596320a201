"""Differentials read off the kept columns of ``ce_matrix``.

d', d'' on forms and d'' on multivectors of ``twilled`` and the
transported differential of ``bialg`` are columns that ``ce_columns``
keeps on the coefficient module, one build per module and form degree.
Each column, and each operator applied to an element, is compared with
the element path kept in ``reference`` (its element loop
``ce_differential`` on the element read as a form) on every label: on
the shipped pairs, the benchmark's sl2 double, perturbed pairs over
Q[x]/(x^k) and Q x Q with nonzero anchors, and the semidirect dual
pairs of those pairs.  A ``check-twilled`` and a ``bialgebra_check``
make no ``ce_differential`` call, and they and a
``matched_pair_from_bialgebra`` build each (module, degree) once,
counted at ``lrcore.ce_matrix``, the only builder in the package.
"""

from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lierine import bialg, cli, gerst, lrcore, twilled
from lierine.bialg import bialgebra_check, semidirect_dual_pair
from lierine.calgebra import Derivation
from lierine.exactla import RatMatrix
from lierine.instances import book_double, truncated_poly, x2_del, x_del
from lierine.lrcore import LieRinehart, trivial_coefficients
from lierine.twilled import AlmostTwilled, Bigraded, bigraded_labels, dprime_form, dsecond_form, dsecond_multi
from test_atom_tables import SPLIT, bench_sl2_double, random_elem
from test_twilled import SHIPPED_PAIRS

FIXTURES = resources.files("lierine") / "fixtures"


def exact_label_vector(vec) -> bool:
    """Integral coefficients are kept as int, others as Fraction."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in vec.values())


def assert_operators_match(t: AlmostTwilled, line) -> None:
    """Every column of d' (with and without the line), d'' on forms and
    d'' on multivectors against the reference element path, and each
    operator on each label element and on the sum of the unit terms of
    each bidegree."""
    operators = [
        ("dprime", None, lambda w: dprime_form(t, w), lambda w: reference.dprime_form(t, w)),
        ("dprime", line, lambda w: dprime_form(t, w, line=line), lambda w: reference.dprime_form(t, w, line)),
        ("form", None, lambda w: dsecond_form(t, w), lambda w: reference.dsecond_form(t, w)),
        ("multi", None, lambda w: dsecond_multi(t, w), lambda w: reference.dsecond_multi(t, w)),
    ]
    labels = list(bigraded_labels(t))
    sums = {}
    for _, ss, sp in labels:
        sums.setdefault((len(ss), len(sp)), {})[(ss, sp)] = t.alg.one()
    for kind, ln, library, ref in operators:
        for label in labels:
            w = reference.label_element(t, label)
            expected = ref(w)
            column = twilled._ce_column(t, kind, ln, label)
            assert column == gerst._vector(expected.terms()), (kind, ln, label)
            assert exact_label_vector(column)
            assert library(w) == expected, (kind, ln, label)
        for (q, p), values in sums.items():
            w = Bigraded(t, q, p, values)
            got, expected = library(w), ref(w)
            assert got == expected, (kind, ln, q, p)
            assert list(got.values) == list(expected.values), (kind, ln, q, p)


def outcome(f, *args):
    """The value of f(*args), or the message of the ValueError it raises."""
    try:
        return "value", f(*args)
    except ValueError as e:
        return "error", str(e)


def assert_transported_matches(source: LieRinehart, target: LieRinehart) -> None:
    """Every column of the transported differential of source, on the
    labels of target, against the reference element path; both raise the
    same error when the trivial module of source is not flat."""
    columns = bialg._transported(source, target)
    triv = trivial_coefficients(source)
    for ta, key in gerst._basis_multivectors(target, target.rank):
        label = (ta, (), key)
        got = outcome(columns.column, label)
        want = outcome(reference.transport_differential, source, triv, target, reference.label_element(target, label))
        if want[0] == "value":
            want = ("value", gerst._vector(want[1].terms()))
            assert exact_label_vector(got[1])
        assert got == want, label


def assert_dual_pair_matches(t: AlmostTwilled) -> None:
    pair = semidirect_dual_pair(t)
    assert_transported_matches(pair.d, pair.l)
    assert_transported_matches(pair.l, pair.d)


def unit_line(t: AlmostTwilled):
    """A line connection on L' with distinct nonzero coefficients."""
    return [t.alg.scalar(i + 2) for i in range(t.lprime.rank)]


@pytest.mark.parametrize("name,t", SHIPPED_PAIRS, ids=[n for n, _ in SHIPPED_PAIRS])
def test_columns_match_reference_on_shipped_pairs(name, t):
    assert_operators_match(t, unit_line(t))
    for source in (t.lprime, t.lsecond):
        assert_transported_matches(source, source)


DUAL_PAIRS = [(n, t) for n, t in SHIPPED_PAIRS if t.module_on_second().is_flat() and t.module_on_prime().is_flat()]


@pytest.mark.parametrize("name,t", DUAL_PAIRS, ids=[n for n, _ in DUAL_PAIRS])
def test_transported_columns_match_reference_on_semidirect_dual_pairs(name, t):
    assert_dual_pair_matches(t)


def test_shipped_pairs_are_ten_and_eight_have_dual_pairs():
    assert len(SHIPPED_PAIRS) == 10
    assert len(DUAL_PAIRS) == 8


def test_columns_match_reference_on_bench_sl2_double(tmp_path):
    t = cli.parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double")
    assert_operators_match(t, unit_line(t))
    assert_dual_pair_matches(t)


def random_structure(draw, alg, n):
    """Arbitrary brackets; anchors c_k M for one nonzero matrix M, c_0 = 1.
    Half the time the e_0 coefficient of each bracket is set so that the
    anchor is a bracket morphism, which makes the trivial module flat."""
    m = [draw(st.sampled_from([0, 1, -1])) for _ in range(alg.dim ** 2)]
    m[draw(st.integers(0, alg.dim ** 2 - 1))] = 1
    c = [1] + [draw(st.sampled_from([0, 1, -1, 2])) for _ in range(n - 1)]
    morphism = draw(st.booleans())
    bracket = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = [random_elem(draw, alg) for _ in range(n)]
            if morphism:
                entry[0] = alg.zero()
                for k in range(1, n):
                    entry[0] = entry[0] - entry[k] * c[k]
            row.append(entry)
        bracket.append(row)
    anchor = [Derivation(alg, RatMatrix(alg.dim, alg.dim, [ck * x for x in m])) for ck in c]
    return LieRinehart(alg, n, bracket, anchor)


@st.composite
def perturbed_pairs(draw):
    """Two arbitrary structures with nonzero anchors over Q[x]/(x^k) or
    Q x Q, arbitrary action tables, and a line on L'."""
    alg = draw(st.sampled_from([truncated_poly(1), truncated_poly(2), truncated_poly(3), SPLIT]))
    lp = random_structure(draw, alg, draw(st.integers(1, 2)))
    ls = random_structure(draw, alg, draw(st.integers(1, 2)))
    act_p_on_s = [[[random_elem(draw, alg) for _ in range(ls.rank)] for _ in range(ls.rank)] for _ in range(lp.rank)]
    act_s_on_p = [[[random_elem(draw, alg) for _ in range(lp.rank)] for _ in range(lp.rank)] for _ in range(ls.rank)]
    line = [random_elem(draw, alg) for _ in range(lp.rank)]
    return AlmostTwilled(lp, ls, act_p_on_s, act_s_on_p), line


@settings(max_examples=40, deadline=None)
@given(perturbed_pairs())
def test_columns_match_reference_on_perturbed_pairs(p):
    t, line = p
    assert_operators_match(t, line)
    for source in (t.lprime, t.lsecond):
        assert_transported_matches(source, source)


@st.composite
def flat_pairs(draw):
    """Abelian structures over Q[x]/(x^k), k = 2, 3, anchored by multiples
    of x d/dx on L' (x d/dx itself on e'_0) and of x^2 d/dx on L'', acting
    on each other by multiples of one constant matrix per side.  Both
    actions are flat, so the semidirect dual pair exists."""
    alg = truncated_poly(draw(st.integers(2, 3)))
    scalars = st.sampled_from([0, 1, -1, 2])

    def structure(n, d, nonzero):
        c = [draw(scalars) for _ in range(n)]
        if nonzero:
            c[0] = 1
        zero = [[[alg.zero()] * n for _ in range(n)] for _ in range(n)]
        return LieRinehart(alg, n, zero, [Derivation(alg, reference.scale(d.matrix, ck)) for ck in c]), c

    def action(c, r):
        a = [[draw(st.sampled_from([0, 0, 1, -1])) for _ in range(r)] for _ in range(r)]
        return [[[alg.scalar(ci * a[j][k]) for k in range(r)] for j in range(r)] for ci in c]

    lp, cp = structure(draw(st.integers(1, 2)), x_del(alg), True)
    ls, cs = structure(draw(st.integers(1, 2)), x2_del(alg), False)
    return AlmostTwilled(lp, ls, action(cp, ls.rank), action(cs, lp.rank)), [random_elem(draw, alg) for _ in range(lp.rank)]


@settings(max_examples=25, deadline=None)
@given(flat_pairs())
def test_columns_match_reference_on_semidirect_dual_pairs_of_flat_pairs(p):
    t, line = p
    assert_operators_match(t, line)
    assert any(rho != Derivation.zero(t.alg) for rho in semidirect_dual_pair(t).l.anchor)
    assert_dual_pair_matches(t)


def count_builds(monkeypatch):
    """Record every ce_differential call in the package and every
    ce_matrix build as (module, degree).  Only lrcore holds ce_matrix, so
    wrapping it there counts the builds of the whole package."""
    assert [mod for mod in (gerst, twilled, bialg, cli) if hasattr(mod, "ce_matrix")] == []
    differentials, builds = [], []
    differential, matrix = lrcore.ce_differential, lrcore.ce_matrix

    def counting_differential(*args, **kwargs):
        differentials.append(args)
        return differential(*args, **kwargs)

    def counting_matrix(lr, module, q, formal=False):
        builds.append((module, q))
        return matrix(lr, module, q, formal)

    for mod in (lrcore, gerst, twilled, bialg):
        monkeypatch.setattr(mod, "ce_differential", counting_differential, raising=False)
    monkeypatch.setattr(lrcore, "ce_matrix", counting_matrix)
    return differentials, builds


def assert_once_per_module_and_degree(builds) -> None:
    assert builds
    assert len({(id(m), q) for m, q in builds}) == len(builds)


def test_check_twilled_makes_no_ce_differential_call(monkeypatch, capsys):
    path = str(FIXTURES / "matched_pair.lri")
    assert cli.parse_instance(path).build_twilled("double") == book_double()
    differentials, builds = count_builds(monkeypatch)
    assert cli.main(["check-twilled", "--input", path]) == 0
    assert "verdict dg-gerstenhaber: pass" in capsys.readouterr().out
    assert differentials == []
    assert_once_per_module_and_degree(builds)


def test_bialgebra_check_makes_no_ce_differential_call(monkeypatch):
    pair = semidirect_dual_pair(book_double())
    differentials, builds = count_builds(monkeypatch)
    assert bialgebra_check(pair, 3).holds
    assert differentials == []
    assert_once_per_module_and_degree(builds)


def test_matched_pair_builds_each_module_and_degree_once(monkeypatch, tmp_path):
    """On the benchmark's sl2 pair the cocycle test is the one build: d_1
    on Lambda^2 of the adjoint module (rank 3), read by one ce_differential;
    no semidirect dual pair and no transported differential is built."""
    inst = cli.parse_instance(str(bench_sl2_double(tmp_path)))
    g, d = inst.lr("sl2"), inst.lr("sl2_dual")
    differentials, builds = count_builds(monkeypatch)
    assert bialg.matched_pair_from_bialgebra(g, d.bracket) == inst.build_twilled("double")
    assert [(m.rank, q) for m, q in builds] == [(3, 1)]
    assert len(differentials) == 1
    assert_once_per_module_and_degree(builds)


@pytest.mark.parametrize("source,count", [("sl2 double", 9), ("matched_pair.lri", 9)])
def test_check_twilled_builds_one_module_per_operator_kind(monkeypatch, tmp_path, capsys, source, count):
    """d' and both d'' each read one coefficient module, the exterior
    algebra over all slot degrees, so a check-twilled makes one build per
    operator kind and form degree it reads and takes one dual_module per
    kind that has one.  Both pairs are twilled, so every square and
    derivation residual is decided on the generators, of form degree at
    most 1, whose images reach form degree 2: 3 x 3 builds on the sl2
    double (3 x 4 when the squares ran over every label) and on the
    rank-2 pair."""
    path = bench_sl2_double(tmp_path) if source == "sl2 double" else FIXTURES / source
    duals, dual = [], twilled.dual_module

    def counting_dual(m):
        duals.append(m)
        return dual(m)

    monkeypatch.setattr(twilled, "dual_module", counting_dual)
    differentials, builds = count_builds(monkeypatch)
    assert cli.main(["check-twilled", "--input", str(path)]) == 0
    assert "verdict dg-gerstenhaber: pass" in capsys.readouterr().out
    assert differentials == []
    assert len(builds) == count
    assert_once_per_module_and_degree(builds)
    assert len({id(m) for m, _ in builds}) == 3
    assert len(duals) == 2
