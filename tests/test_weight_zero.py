"""Cohomology of a Lie algebra over Q with trivial coefficients from the
forms of weight 0 under the basis vectors h with a diagonal ad h: by
Cartan's formula L_h = d i_h + i_h d, every summand of nonzero weight is
contracted by i_h / weight.

Every cap from 0 to n + 2 is compared with ``reference.cohomology_dims``,
which builds and ranks every degree in full; gl_4 also with the Poincare
polynomial (1 + t)(1 + t^3)(1 + t^5)(1 + t^7).  The weights are checked
against the rational weights of every subset, including two tori whose
packing in too small a base would merge a nonzero weight with 0.  Inputs
outside the gate rank exactly the matrices ``ce_matrix`` builds.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lierine import lrcore
from lierine.calgebra import CommAlg, Derivation
from lierine.instances import abelian, book, derx3, gl_n, heisenberg, line_with_connection, rationals, sl2
from lierine.lrcore import LieRinehart, ce_matrix, cohomology_dims, lr_validate, trivial_coefficients
import reference
from reference import alt_dim
from test_koszul_mirror import NONZERO, change_basis, flat_line_derx3


def lie(n, brackets, alg=None):
    """A Lie algebra over Q (or a base of dimension 1) from its nonzero
    [e_i, e_j] = sum_k c e_k, i < j, given as {(i, j): {k: c}}."""
    alg = alg or rationals()
    table = [[[alg.zero()] * n for _ in range(n)] for _ in range(n)]
    for (i, j), image in brackets.items():
        for k, c in image.items():
            table[i][j][k], table[j][i][k] = alg.scalar(c), alg.scalar(-c)
    lr = LieRinehart(alg, n, table, [Derivation.zero(alg)] * n)
    assert lr_validate(lr) == []
    return lr


def packed(lr, m=None):
    """``_weights`` with the packed weights listed by basis index."""
    mirror, weights = lrcore._weights(lr, m or trivial_coefficients(lr))
    return mirror, [weights[1 << j] for j in range(lr.rank)] if weights else []


def recorded_ranks(monkeypatch):
    mats = []
    rank = lrcore.mat_rank
    monkeypatch.setattr(lrcore, "mat_rank", lambda m: mats.append(m) or rank(m))
    return mats


def rational_weights(lr):
    """{h: [l_hj for j]} for every h with a diagonal ad h, read off the
    literal bracket table; the test's own reading, not the library's."""
    n, out = lr.rank, {}
    for h in range(n):
        c = [[x.coeffs[0] for x in lr.bracket[h][j]] for j in range(n)]
        if all(c[j][k] == 0 for j in range(n) for k in range(n) if k != j):
            out[h] = [c[j][j] for j in range(n)]
    return out


def weight_zero(lr, q):
    """The q-subsets whose rational weight under every diagonal h is 0."""
    weights = rational_weights(lr).values()
    return [s for s in combinations(range(lr.rank), q) if all(sum(w[j] for j in s) == 0 for w in weights)]


def assert_matches_reference(lr, monkeypatch):
    """Every cap 0..n+2 against the full build, the number of ranked
    matrices (half of them on unimodular inputs), and each ranked matrix
    on the exact weight-0 subsets of its degree and the next."""
    n, m = lr.rank, trivial_coefficients(lr)
    full = reference.cohomology_dims(lr, m, n + 2)
    for cap in range(n + 3):
        assert cohomology_dims(lr, m, cap) == full[: cap + 1], cap
    mats = recorded_ranks(monkeypatch)
    cohomology_dims(lr, m, n)
    monkeypatch.undo()
    unimodular = not any(sum(lr.bracket[i][k][k].coeffs[0] for k in range(n)) for i in range(n))
    assert len(mats) == (sum(1 for q in range(n + 1) if q <= n - 1 - q) if unimodular else n + 1)
    assert [(d.rows, d.cols) for d in mats] == [(len(weight_zero(lr, q + 1)), len(weight_zero(lr, q))) for q in range(len(mats))]
    return full


def test_sl2_gl2_gl3(monkeypatch):
    assert assert_matches_reference(sl2(), monkeypatch) == [1, 0, 0, 1, 0, 0]
    assert assert_matches_reference(gl_n(2), monkeypatch) == [1, 1, 0, 1, 1, 0, 0]
    assert assert_matches_reference(gl_n(3), monkeypatch) == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0]


def test_gl4_is_the_poincare_polynomial_of_u4(monkeypatch):
    """H(gl_4) = Lambda(x_1, x_3, x_5, x_7): (1 + t)(1 + t^3)(1 + t^5)(1 + t^7)."""
    poly = [1]
    for d in (1, 3, 5, 7):
        poly = [a + (poly[i - d] if i >= d else 0) for i, a in enumerate(poly + [0] * d)]
    assert poly == [1, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 0, 1, 1]
    assert assert_matches_reference(gl_n(4), monkeypatch) == poly + [0, 0]


def test_book_is_not_unimodular_and_has_weights_0_1(monkeypatch):
    lr = book()
    assert packed(lr) == (False, [0, 1])
    assert assert_matches_reference(lr, monkeypatch) == [1, 1, 0, 0, 0]


@pytest.mark.parametrize("lr", [heisenberg(), abelian(rationals(), 3), abelian(rationals(), 4)], ids=["h3", "abelian3", "abelian4"])
def test_no_torus_builds_every_form(lr, monkeypatch):
    """Every diagonal ad h of these is zero, so there is no weight to split by."""
    m = trivial_coefficients(lr)
    assert packed(lr, m) == (True, [])
    assert_matches_reference(lr, monkeypatch)
    mats = recorded_ranks(monkeypatch)
    cohomology_dims(lr, m, lr.rank)
    assert [d.cols for d in mats] == [alt_dim(lr, m, q) for q in range(len(mats))]


def test_non_integral_weights():
    """[h, e] = e/2, [h, f] = -f/3: not unimodular, and only 1 and h* have weight 0."""
    lr = lie(3, {(0, 1): {1: Fraction(1, 2)}, (0, 2): {2: Fraction(-1, 3)}})
    assert packed(lr) == (False, [0, 3, -2])
    assert [weight_zero(lr, q) for q in range(4)] == [[()], [(0,)], [], []]


def test_non_integral_weights_match_the_reference(monkeypatch):
    lr = lie(3, {(0, 1): {1: Fraction(1, 2)}, (0, 2): {2: Fraction(-1, 3)}})
    assert assert_matches_reference(lr, monkeypatch) == [1, 1, 0, 0, 0, 0]
    unimodular = lie(3, {(0, 1): {1: Fraction(1, 2)}, (0, 2): {2: Fraction(-1, 2)}})
    assert packed(unimodular)[0]
    assert assert_matches_reference(unimodular, monkeypatch) == [1, 1, 1, 1, 0, 0]


def two_tori():
    """h_0, h_1 act on x_2..x_5 with weights (1, 0), (1, 0), (1, 0), (0, -1).
    Each weight has |l| <= 1, so base 3 would pack x_2 + .. + x_5, of
    weight (3, -1), to 3 - 3 = 0; the library's base is 2 * 3 + 1 = 7."""
    return lie(6, {(0, 2): {2: 1}, (0, 3): {3: 1}, (0, 4): {4: 1}, (1, 5): {5: -1}})


def test_two_tori_pack_without_collision():
    lr = two_tori()
    mirror, weights = packed(lr)
    assert not mirror and weights == [0, 0, 1, 1, 1, -7]
    naive = [w0 + 3 * w1 for w0, w1 in zip(*rational_weights(lr).values())]
    assert sum(naive[2:]) == 0
    for q in range(lr.rank + 1):
        kept = [s for s in combinations(range(lr.rank), q) if not sum(weights[j] for j in s)]
        assert kept == weight_zero(lr, q), q


def test_two_tori_match_the_reference(monkeypatch):
    assert assert_matches_reference(two_tori(), monkeypatch) == [1, 2, 1, 0, 0, 0, 0, 0, 0]


def test_a_base_of_dimension_one_without_the_unit_as_basis(monkeypatch):
    """sl_2 over Q on the basis a = 1/2 (unit 2a, a * a = a / 2).  The
    table holds [e_0, e_1] = 4a e_1; the weights are read on the Q-basis
    a e_i of L, where [a e_0, a e_1] = 4a^2 e_1 = 2 a e_1."""
    half = CommAlg(1, [[[Fraction(1, 2)]]], [2])
    lr = lie(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}, half)
    assert lr.bracket[0][1][1].coeffs == (4,)
    assert packed(lr) == (True, [0, 2, -2])
    assert assert_matches_reference(lr, monkeypatch) == [1, 0, 0, 1, 0, 0]


@st.composite
def rescaled(draw):
    """gl_3 or sl_2 on the basis f_a = s_a e_order[a], s_a rational: each
    diagonal ad stays diagonal, with rescaled and moved weights."""
    lr = draw(st.sampled_from([gl_n(3), sl2()]))
    n = lr.rank
    order = draw(st.permutations(range(n)))
    scale = [Fraction(draw(NONZERO)) for _ in range(n)]
    return change_basis(lr, [[scale[a] if i == order[a] else Fraction(0) for a in range(n)] for i in range(n)])


@settings(max_examples=20, deadline=None)
@given(rescaled())
def test_permuted_rescaled_bases_match_the_reference(lr):
    m = trivial_coefficients(lr)
    assert lr_validate(lr) == []
    mirror, weights = packed(lr, m)
    assert mirror and weights
    n = lr.rank
    full = reference.cohomology_dims(lr, m, n + 2)
    assert full[:n + 1] == ([1, 1, 0, 1, 1, 1, 1, 0, 1, 1] if n == 9 else [1, 0, 0, 1])
    for cap in range(n + 3):
        assert cohomology_dims(lr, m, cap) == full[: cap + 1], cap


def gl2_trace_line():
    lr = gl_n(2)
    one, zero = lr.alg.one(), lr.alg.zero()
    return lr, line_with_connection(lr, [one, zero, zero, one])


@pytest.mark.parametrize(
    "case",
    [
        lambda: (derx3(), None),
        flat_line_derx3,
        gl2_trace_line,
    ],
    ids=["derx3", "derx3_line", "gl2_trace_line"],
)
def test_inputs_outside_the_gate_rank_the_full_matrices(case, monkeypatch):
    """Anchors, a base of dimension 3 or a nonzero action: no weight is read,
    and each ranked matrix is the one ``ce_matrix`` builds."""
    lr, m = case()
    m = m or trivial_coefficients(lr)
    assert packed(lr, m) == (False, [])
    mats = recorded_ranks(monkeypatch)
    dims = cohomology_dims(lr, m, lr.rank)
    monkeypatch.undo()
    assert dims == reference.cohomology_dims(lr, m, lr.rank)
    want = [ce_matrix(lr, m, q) for q in range(lr.rank + 1)]
    assert [(d.rows, d.cols, d.entries) for d in mats] == [(d.rows, d.cols, d.entries) for d in want]


def test_a_module_of_another_structure_is_rejected():
    """No matrix is built on the ranks of one structure and the tables of another."""
    with pytest.raises(ValueError, match="module parent mismatch"):
        cohomology_dims(sl2(), trivial_coefficients(gl_n(2)), 2)
