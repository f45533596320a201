"""A negative degree cap leaves nothing to check, so it is rejected, as
``bialgebra_check`` rejects a cap below 1; a cap of 0 still checks degree
0."""

import pytest

from lierine.gerst import gerstenhaber_validate
from lierine.instances import book_double, derx3, sl2
from lierine.lrcore import cohomology_dims, trivial_coefficients
from lierine.twilled import total_complex_cohomology_check


def test_gerstenhaber_validate_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="degree cap must be at least 0, got -1"):
        gerstenhaber_validate(derx3(), -1)
    assert gerstenhaber_validate(derx3(), 0) == []


def test_cohomology_dims_rejects_a_negative_cap():
    lr = sl2()
    with pytest.raises(ValueError, match="degree cap must be at least 0, got -1"):
        cohomology_dims(lr, trivial_coefficients(lr), -1)
    assert cohomology_dims(lr, trivial_coefficients(lr), 0) == [1]


def test_total_complex_cohomology_check_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="degree cap must be at least 0, got -1"):
        total_complex_cohomology_check(book_double(), -1)
    assert total_complex_cohomology_check(book_double(), 0)["equal"]
