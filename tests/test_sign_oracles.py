"""The exterior signs the library reads off bit masks, against the tuple
sort of ``reference.sort_with_sign``.

``lrcore._exterior`` signs the move f_j -> f_k in f_S by the parity of the
factors of S strictly between j and k; ``reference.exterior`` moves one
factor at a time and re-sorts the tuple.  ``gerst.wedge`` signs the product
of two multivectors by the popcount rule of ``gerst._product_sign``."""

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lierine.gerst import Multivector, wedge
from lierine.instances import abelian, truncated_poly
from lierine.lrcore import LRModule, _subsets, exterior_algebra, exterior_power
from test_atom_tables import random_elem


@st.composite
def random_modules(draw):
    """A connection of rank 0..5 over Q or Q[x]/(x^2) on an abelian
    structure of rank 1 or 2, with a sparse random action table."""
    alg = draw(st.sampled_from([truncated_poly(1), truncated_poly(2)]))
    lr, rank = abelian(alg, draw(st.integers(1, 2))), draw(st.integers(0, 5))
    action = [
        [[random_elem(draw, alg) if draw(st.integers(0, 3)) == 0 else alg.zero() for _ in range(rank)] for _ in range(rank)]
        for _ in range(lr.rank)
    ]
    return LRModule(lr, rank, action)


def assert_actions_equal(got: LRModule, want: LRModule) -> None:
    assert got.rank == want.rank
    for i, (row, ref) in enumerate(zip(got.action, want.action)):
        for s, (vec, vref) in enumerate(zip(row, ref)):
            assert vec == vref, (i, s)


@settings(max_examples=40, deadline=None)
@given(random_modules())
def test_exterior_powers_match_sorted_tuple_expansion(m):
    for p in range(m.rank + 1):
        assert_actions_equal(exterior_power(m, p), reference.exterior(m, list(combinations(range(m.rank), p))))
    assert_actions_equal(exterior_algebra(m), reference.exterior(m, _subsets(m.rank)[0]))


def test_eval_indices_signs_every_tuple_by_its_sort():
    """The wedge of the basis vectors e_i in the order of each tuple over
    range(4) of length at most 4, repeats included, is e_sorted times the
    sign of the sort, and zero on a repeat."""
    lr = abelian(truncated_poly(1), 4)
    for n in range(5):
        for indices in product(range(4), repeat=n):
            got = Multivector.from_scalar(lr, lr.alg.one())
            for i in indices:
                got = wedge(got, Multivector.basis(lr, i))
            sorted_ = reference.sort_with_sign(indices)
            if sorted_ is None:
                assert got.is_zero(), indices
            else:
                key, sign = sorted_
                assert got == Multivector(lr, {key: lr.alg.scalar(sign)}), indices
