"""Dimension bookkeeping: validation, regime flag, generator counts."""

import pytest

from haarmi import (
    CasimirCounts,
    Dimensions,
    InvalidDimensionError,
    casimir_counts,
    leading_order,
)


@pytest.mark.parametrize("bad", [0, -1, -7])
@pytest.mark.parametrize("slot", range(3))
def test_rejects_non_positive(bad, slot):
    args = [2, 3, 5]
    args[slot] = bad
    with pytest.raises(InvalidDimensionError):
        Dimensions(*args)


@pytest.mark.parametrize("bad", [2.0, "3", None, 2.5, True])
def test_rejects_non_integers(bad):
    with pytest.raises(InvalidDimensionError):
        Dimensions(bad, 3, 5)


def test_rejects_n_beyond_binary64():
    Dimensions(2, 2, 2**1022 - 1)  # N = 2**1024 - 4 is fine
    for triple in ((2, 2, 2**1022), (1, 1, 2**1024), (3, 5, 10**320)):
        with pytest.raises(InvalidDimensionError, match="2\\*\\*1024"):
            Dimensions(*triple)


def test_total_dimension_and_regime():
    d = Dimensions(2, 3, 7)
    assert d.n == 42
    assert d.factorised_regime  # 6 <= 7
    assert d.regime_label == "factorised"

    swapped = Dimensions(3, 4, 2)
    assert swapped.n == 24
    assert not swapped.factorised_regime  # 12 > 2
    assert swapped.regime_label == "swapped"

    # boundary case d_a*d_b == d_e counts as factorised
    assert Dimensions(2, 2, 4).factorised_regime


def test_frozen():
    d = Dimensions(2, 3, 7)
    with pytest.raises(AttributeError):
        d.d_a = 5


def test_casimir_counts():
    assert casimir_counts(Dimensions(2, 3, 7)) == CasimirCounts(24, 2)
    assert casimir_counts(Dimensions(2, 2, 4)) == CasimirCounts(9, 1)
    assert casimir_counts(Dimensions(1, 5, 9)) == CasimirCounts(0, 0)
    assert casimir_counts(Dimensions(6, 6, 36)) == CasimirCounts(35 * 35, 25)


def test_leading_order_exact_values():
    assert leading_order(Dimensions(2, 3, 7)) == 24 / 84
    assert leading_order(Dimensions(2, 2, 4)) == 9 / 32
    assert leading_order(Dimensions(1, 5, 9)) == 0.0
    assert leading_order(Dimensions(7, 1, 3)) == 0.0
