"""Poincare duality in rank form: on a unimodular Lie algebra over Q with
trivial coefficients, rank d_q = rank d_{n-1-q} (Koszul's exact generator
D = +-C^-1 d C is the transpose of d; Hazewinkel 1970), so
``cohomology_dims`` builds and ranks only d_q with q <= n-1-q.

The dimensions are compared with ``reference.cohomology_dims``, which
builds and ranks every degree, on the named Lie algebras, the sums of two
twilled doubles and random rational basis changes of gl_3, sl_2 and h_3.
The route taken is read off the number of ``mat_rank`` calls, and the
book algebra (tr ad e_0 = 1, ranks 0 1 0) shows the condition is needed.
Also the two validation shortcuts that ride along: ``lr_validate``
against the reference loop, and the flatness square that builds no C^1
columns when degree 0 has none.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine import cli, lrcore
from lierine.exactla import mat_solve
from lierine.instances import (
    abelian,
    book,
    book_double,
    derx2,
    derx3,
    gl_n,
    heisenberg,
    line_with_connection,
    rationals,
    sl2,
    truncated_poly,
)
from lierine.lrcore import LieRinehart, cohomology_dims, lr_validate, module_validate, trivial_coefficients
from lierine.twilled import twilled_sum
import reference
from test_atom_tables import bench_sl2_double
from test_sparse import random_tables


def counting_ranks(monkeypatch):
    calls = []
    rank = lrcore.mat_rank
    monkeypatch.setattr(lrcore, "mat_rank", lambda m: calls.append(m.cols) or rank(m))
    return calls


def mirrored(n: int, top: int) -> int:
    """The number of d_q, q <= top, that the mirror route builds."""
    return sum(1 for q in range(top + 1) if q <= n - 1 - q)


UNIMODULAR = {
    "sl2": sl2,
    "gl2": lambda: gl_n(2),
    "gl3": lambda: gl_n(3),
    "h3": heisenberg,
    "abelian4": lambda: abelian(rationals(), 4),
    "book_double": lambda: twilled_sum(book_double()),
}


def assert_mirror_matches_reference(lr, monkeypatch, caps=None):
    n, m = lr.rank, trivial_coefficients(lr)
    assert lrcore._weights(lr, m)[0]
    ranks = reference.ce_ranks(lr, m, n)
    assert ranks == [ranks[n - 1 - q] for q in range(n)] + [0]
    for cap in caps if caps is not None else [n]:
        want = reference.cohomology_dims(lr, m, cap)
        calls = counting_ranks(monkeypatch)
        assert cohomology_dims(lr, m, cap) == want, cap
        assert len(calls) == mirrored(n, min(cap, n)), cap
        monkeypatch.undo()


@pytest.mark.parametrize("name", sorted(UNIMODULAR))
def test_mirror_matches_every_degree(name, monkeypatch):
    lr = UNIMODULAR[name]()
    assert_mirror_matches_reference(lr, monkeypatch, range(lr.rank + 3))


def test_mirror_on_the_sum_of_the_bench_sl2_double(tmp_path, monkeypatch):
    t = cli.parse_instance(str(bench_sl2_double(tmp_path))).build_twilled("double")
    assert_mirror_matches_reference(twilled_sum(t), monkeypatch)


def test_gl3_builds_five_of_ten_differentials(monkeypatch):
    """d_0..d_4, each on the forms of weight 0 under E_11, E_22, E_33: 1, 3,
    6, 12, 18 and 18 forms of degree 0..5, so 633 matrix entries (126
    nonzero) where the full d_0..d_4 have 29,817."""
    lr = gl_n(3)
    mats = []
    rank = lrcore.mat_rank
    monkeypatch.setattr(lrcore, "mat_rank", lambda m: mats.append(m) or rank(m))
    assert cohomology_dims(lr, trivial_coefficients(lr), 9) == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]
    assert [(d.rows, d.cols) for d in mats] == [(3, 1), (6, 3), (12, 6), (18, 12), (18, 18)]
    assert sum(d.rows * d.cols for d in mats) == 633 and sum(len(d.entries) for d in mats) == 126
    full = [reference.alt_dim(lr, trivial_coefficients(lr), q) for q in range(6)]
    assert sum(full[q + 1] * full[q] for q in range(5)) == 29817


def test_book_is_not_unimodular_and_its_ranks_are_not_symmetric(monkeypatch):
    """[e_0, e_1] = e_1 gives tr ad e_0 = 1.  Mirrored ranks would read
    rank d_0 = rank d_1, but they are 0 and 1."""
    lr = book()
    m = trivial_coefficients(lr)
    assert sum(lr.bracket[0][k][k].coeffs[0] for k in range(2)) == 1
    assert not lrcore._weights(lr, m)[0]
    assert reference.ce_ranks(lr, m, 2) == [0, 1, 0]
    calls = counting_ranks(monkeypatch)
    assert cohomology_dims(lr, m, 2) == [1, 1, 0]
    assert len(calls) == 3


def flat_line_derx3():
    lr = derx3()
    return lr, line_with_connection(lr, [lr.alg.one(), lr.alg.zero()])


@pytest.mark.parametrize(
    "name,case",
    [
        ("book", lambda: (book(), None)),
        ("derx2", lambda: (derx2(), None)),
        ("derx3", lambda: (derx3(), None)),
        ("flat_line_derx3", flat_line_derx3),
        ("abelian2_over_Q[x]/(x^2)", lambda: (abelian(truncated_poly(2), 2), None)),
    ],
)
def test_other_inputs_rank_every_degree(name, case, monkeypatch):
    lr, m = case()
    m = m or trivial_coefficients(lr)
    assert not lrcore._weights(lr, m)[0]
    want = reference.cohomology_dims(lr, m, lr.rank + 1)
    calls = counting_ranks(monkeypatch)
    assert cohomology_dims(lr, m, lr.rank + 1) == want
    assert len(calls) == lr.rank + 1


def change_basis(lr, p):
    """The same Lie algebra over Q on the basis f_a = sum_i p[i][a] e_i:
    [f_a, f_b] = sum_ij p[i][a] p[j][b] [e_i, e_j], its coordinates x in
    the f basis solving p x = the coordinates in the e basis."""
    n, alg = lr.rank, lr.alg
    c = [[[lr.bracket[i][j][k].coeffs[0] for k in range(n)] for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i, j in combinations(range(n), 2) if any(c[i][j])]
    table = [[[alg.zero()] * n for _ in range(n)] for _ in range(n)]
    basis = reference.to_sparse(reference.from_rows(p))
    for a, b in combinations(range(n), 2):
        image = [Fraction(0)] * n
        for i, j in pairs:
            w = p[i][a] * p[j][b] - p[j][a] * p[i][b]
            for k in range(n) if w else ():
                image[k] += w * c[i][j][k]
        new = mat_solve(basis, image)
        table[a][b] = tuple(alg.scalar(x) for x in new)
        table[b][a] = tuple(alg.scalar(-x) for x in new)
    return LieRinehart(alg, n, table, lr.anchor)


NONZERO = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 3])


@st.composite
def basis_changes(draw):
    """gl_3, sl_2 or h_3 on the basis e P, P = (unit lower triangular with
    a few rational entries) x (rational diagonal), columns permuted."""
    lr = draw(st.sampled_from([gl_n(3), sl2(), heisenberg()]))
    n = lr.rank
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    below = [(i, j) for i in range(n) for j in range(i)]
    for i, j in draw(st.lists(st.sampled_from(below), max_size=n, unique=True)):
        p[i][j] = Fraction(draw(NONZERO))
    scale = [Fraction(draw(NONZERO)) for _ in range(n)]
    order = draw(st.permutations(range(n)))
    return lr, [[p[i][order[a]] * scale[order[a]] for a in range(n)] for i in range(n)]


@settings(max_examples=20, deadline=None)
@given(basis_changes())
def test_mirror_is_basis_free(case):
    lr, p = case
    moved = change_basis(lr, p)
    assert lr_validate(moved) == []
    m = trivial_coefficients(moved)
    assert lrcore._weights(moved, m)[0]
    top = moved.rank
    want = reference.cohomology_dims(moved, m, top)
    assert want == cohomology_dims(lr, trivial_coefficients(lr), top)
    ranks = reference.ce_ranks(moved, m, top)
    assert [ranks[top - 1 - q] for q in range(top)] == ranks[:top]
    assert cohomology_dims(moved, m, top) == want


def test_basis_change_gives_non_integral_constants():
    lr = sl2()
    p = [[Fraction(x) for x in row] for row in ([1, 0, 0], [0, Fraction(1, 2), 0], [0, 3, 1])]
    moved = change_basis(lr, p)
    constants = {c for row in moved.bracket for entry in row for x in entry for c in x.coeffs}
    assert any(c.denominator != 1 for c in constants)
    assert lrcore._weights(moved, trivial_coefficients(moved))[0]
    assert cohomology_dims(moved, trivial_coefficients(moved), 3) == [1, 0, 0, 1]


@st.composite
def corrupted(draw):
    """A valid structure with one bracket coefficient raised on one side
    (antisymmetry breaks) or on both sides (antisymmetry holds, Jacobi
    may break)."""
    lr = draw(st.sampled_from([sl2(), gl_n(2), heisenberg(), derx3(), abelian(truncated_poly(2), 3)]))
    n = lr.rank
    table = [[list(entry) for entry in row] for row in lr.bracket]
    for _ in range(draw(st.integers(1, 2))):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        c = lr.alg.elem([draw(NONZERO) for _ in range(lr.alg.dim)])
        table[i][j][k] = table[i][j][k] + c
        if draw(st.booleans()) and i != j:
            table[j][i][k] = table[j][i][k] - c
    return LieRinehart(lr.alg, n, table, lr.anchor)


@settings(max_examples=60, deadline=None)
@given(random_tables(max_rank=4))
def test_lr_validate_matches_reference_on_random_tables(p):
    lr, _ = p
    assert lr_validate(lr) == reference.lr_validate(lr)


@settings(max_examples=100, deadline=None)
@given(corrupted())
def test_lr_validate_matches_reference_on_corrupted_structures(lr):
    assert lr_validate(lr) == reference.lr_validate(lr)


def test_jacobi_brackets_each_inner_pair_once(monkeypatch):
    """gl_3: 36 pairs once each, then three outer brackets for each of
    the 84 triples, where the reference loop makes six per triple."""
    calls = []
    vectors = lrcore._bracket_vectors
    monkeypatch.setattr(lrcore, "_bracket_vectors", lambda *args: calls.append(args) or vectors(*args))
    assert lr_validate(gl_n(3)) == []
    assert len(calls) == 36 + 3 * 84


def test_zero_anchor_flatness_square_builds_no_degree_one_columns():
    lr = gl_n(3)
    m = trivial_coefficients(lr)
    assert module_validate(lr, m) == []
    assert m._columns == {0: {}}
    curved = line_with_connection(derx3(), [truncated_poly(3).basis(1), truncated_poly(3).zero()])
    assert module_validate(curved.lr, curved)
    assert set(curved._columns) == {0, 1}
