"""``ce_differential``, which sums kept columns of ``ce_matrix``, against
the element loop of ``reference.ce_differential``, which evaluates d w
one sorted basis tuple at a time with algebra elements.

Both must return the same form with its keys in the same order, or raise
the same error: "parent mismatch" before the flatness check, and the
flatness check only without formal=True.  Compared on the shipped
fixtures with four coefficient modules and on random tables over
Q[x]/(x^k), Q x Q and Q x Q on scaled idempotents, with nonzero anchors,
in every degree up to rank + 1.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lierine.instances import derx3, line_with_connection, truncated_poly
from lierine.lrcore import AltForm, LRModule, ce_differential, tensor_line, trivial_coefficients
from test_atom_tables import HALVES, SPLIT, random_elem
from test_operator_columns import outcome, random_structure
from test_sparse import FIXTURE_STRUCTURES, coefficient_modules


def assert_matches_reference(lr, module, w, formal) -> None:
    got = outcome(ce_differential, lr, module, w, formal)
    want = outcome(reference.ce_differential, lr, module, w, formal)
    assert got == want
    if got[0] == "value":
        assert list(got[1].values) == list(want[1].values)


def unit_forms(lr, module, q):
    """The form with every value the sum of all module slots times
    distinct scalars, and the form of the last basis label alone."""
    keys = list(combinations(range(lr.rank), q))
    alg = lr.alg
    full = {key: tuple(alg.scalar(pos + j + 1) for j in range(module.rank)) for pos, key in enumerate(keys)}
    forms = [AltForm(lr, module, q, full)]
    if keys and module.rank:
        last = [alg.zero()] * module.rank
        last[-1] = alg.basis(alg.dim - 1)
        forms.append(AltForm(lr, module, q, {keys[-1]: tuple(last)}))
    return forms


@pytest.mark.parametrize("kind", ["trivial", "line", "dual", "exterior"])
@pytest.mark.parametrize("name,lr", FIXTURE_STRUCTURES, ids=[n for n, _ in FIXTURE_STRUCTURES])
def test_differential_matches_reference_on_fixtures(name, lr, kind):
    module = coefficient_modules(lr)[kind]
    for q in range(lr.rank + 2):
        for w in unit_forms(lr, module, q):
            for formal in (False, True):
                assert_matches_reference(lr, module, w, formal)


def test_errors_in_reference_order():
    lr = derx3()
    curved = line_with_connection(lr, [lr.alg.basis(1), lr.alg.zero()])
    w = AltForm(lr, curved, 0, {(): (lr.alg.one(),)})
    flat = trivial_coefficients(lr)
    for module, formal, message in [
        (curved, False, "action table is not flat; pass formal=True for the formal operator"),
        (flat, False, "parent mismatch"),
        (flat, True, "parent mismatch"),
    ]:
        assert outcome(ce_differential, lr, module, w, formal) == ("error", message)
        assert_matches_reference(lr, module, w, formal)
    assert outcome(ce_differential, lr, curved, w, True)[0] == "value"


@st.composite
def differential_inputs(draw):
    """A structure with nonzero anchors, whose trivial module is flat half
    the time; its trivial module or an arbitrary connection of rank 1 or
    2; a form of degree 0 to rank + 1; now and then a module other than
    the form's; and the formal flag."""
    alg = draw(st.sampled_from([truncated_poly(1), truncated_poly(2), truncated_poly(3), SPLIT, HALVES]))
    n = draw(st.integers(1, 3))
    lr = random_structure(draw, alg, n)
    if draw(st.booleans()):
        module = trivial_coefficients(lr)
    else:
        r = draw(st.integers(1, 2))
        module = LRModule(lr, r, [[[random_elem(draw, alg) for _ in range(r)] for _ in range(r)] for _ in range(n)])
    q = draw(st.integers(0, n + 1))
    values = {
        key: tuple(random_elem(draw, alg) for _ in range(module.rank))
        for key in combinations(range(n), q)
        if draw(st.sampled_from([True, True, False]))
    }
    w = AltForm(lr, module, q, values)
    if draw(st.sampled_from([False] * 5 + [True])):
        module = tensor_line(module, [alg.one()] * n)
    return lr, module, w, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(differential_inputs())
def test_differential_matches_reference_on_random_tables(p):
    assert_matches_reference(*p)
