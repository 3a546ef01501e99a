"""Large-N expansion: term values, sign pattern, divergence, truncation."""

from fractions import Fraction

import pytest

from haarmi import cli
from haarmi import (
    Dimensions,
    DomainError,
    RegimeError,
    bernoulli_term,
    expand,
    leading_order,
    mutual_information_rational,
    zeta_negative_odd,
)

from exact_reference import series_term


def test_first_terms_2_3_7():
    dims = Dimensions(2, 3, 7)
    # t_1 = -1/12 * (3/42)(8/42) = -2/1764, t_2 = 1/120 * (15*80)/42^4
    assert bernoulli_term(dims, 1) == pytest.approx(-2.0 / 1764.0, rel=1e-15, abs=0)
    assert bernoulli_term(dims, 2) == pytest.approx(10.0 / 3111696.0, rel=1e-15, abs=0)


@pytest.mark.parametrize("k", range(1, 21))
def test_term_matches_rational_and_alternates(k):
    dims = Dimensions(2, 3, 7)
    term = bernoulli_term(dims, k)
    exact = float(series_term(dims, k))
    assert abs(term - exact) <= 1e-13 * abs(exact)
    assert (term > 0) == (k % 2 == 0)


@pytest.mark.parametrize(
    "triple", [(2, 3, 7), (1, 5, 9), (4, 1, 4), (2, 2, 4), (3, 5, 200),
               (6, 6, 36), (2, 3, 10**18)]
)
def test_expand_terms_are_bernoulli_terms_bitwise(triple):
    """``expand`` and ``bernoulli_term`` give the same bits for every k, and
    both keep the expression ``zeta * ((a^2/N)^k - (1/N)^k) * ((b^2/N)^k -
    (1/N)^k)`` evaluated in that order."""
    dims = Dimensions(*triple)
    n = dims.n
    terms = expand(dims, 60).terms
    for k in range(1, 61):
        reference = (
            float(zeta_negative_odd(k))
            * ((dims.d_a * dims.d_a / n) ** k - (1 / n) ** k)
            * ((dims.d_b * dims.d_b / n) ** k - (1 / n) ** k)
        )
        assert terms[k - 1].hex() == bernoulli_term(dims, k).hex() == reference.hex()


def test_terms_vanish_when_dimension_one():
    dims = Dimensions(1, 5, 9)
    e = expand(dims)
    assert e.leading == 0.0
    assert all(t == 0.0 for t in e.terms)
    assert all(s == 0.0 for s in e.partial_sums)
    assert e.value_at_optimal == 0.0
    assert e.error_estimate == 0.0
    assert e.optimal_k == 1  # all-zero terms tie at k=1
    assert e.divergence_k is None


@pytest.mark.parametrize("triple", [(1, 2, 2**53 + 1), (3, 1, 2**60 + 1)])
def test_terms_vanish_when_dimension_one_past_2_to_53(triple):
    """``1/N`` and ``1*1/N`` are the same correctly rounded quotient, so
    the factor of a dimension 1 is exactly 0 where ``float(N)`` rounds
    (``1.0/N`` gave t_1 = 8.6e-50 at (1,2,2**53+1))."""
    assert all(t == 0.0 for t in expand(Dimensions(*triple), 60).terms)


def test_terms_at_the_top_of_the_binary64_range(capsys):
    """N = 2**1024 - 4 is a valid triple although ``float(N)`` overflows:
    the terms divide as integers, underflow to 0, and the CLI exits 0."""
    d_e = 2**1022 - 1
    e = expand(Dimensions(2, 2, d_e))
    assert e.leading == leading_order(Dimensions(2, 2, d_e)) > 0.0
    assert all(t == 0.0 for t in e.terms)
    assert e.value_at_optimal == e.leading
    code = cli.main(["series", "--da", "2", "--db", "2", "--de", str(d_e)])
    assert code == 0
    assert "I_series_opt" in capsys.readouterr().out


def test_partial_sum_construction():
    dims = Dimensions(2, 2, 4)
    e = expand(dims, 30)
    assert len(e.terms) == 30
    assert len(e.partial_sums) == 31
    assert e.partial_sums[0] == leading_order(dims)
    for k in range(1, 31):
        assert e.partial_sums[k] == e.partial_sums[k - 1] + e.terms[k - 1]


def test_divergence_and_optimal_truncation_2_2_4():
    e = expand(Dimensions(2, 2, 4), 60)
    assert e.divergence_k is not None
    magnitudes = [abs(t) for t in e.terms]
    # strictly decreasing up to the optimum, growing right after it
    assert e.optimal_k == magnitudes.index(min(magnitudes)) + 1
    assert magnitudes[e.divergence_k - 1] > magnitudes[e.divergence_k - 2]
    assert e.error_estimate == magnitudes[e.optimal_k]
    # far-out terms dwarf the leading order: genuine divergence
    assert magnitudes[-1] > 1.0


def test_value_at_optimal_is_optimal_partial_sum():
    e = expand(Dimensions(2, 3, 7))
    assert e.value_at_optimal == e.partial_sums[e.optimal_k]


def test_truncation_honesty_exact_arithmetic():
    """|truncated - exact| <= 2 * error_estimate, with the truncated series
    rebuilt in exact rationals so the bound is not drowned by float noise
    when the estimate falls below 1e-16."""
    for triple in [(2, 2, 4), (2, 3, 7), (3, 3, 9), (2, 2, 12), (4, 4, 16)]:
        dims = Dimensions(*triple)
        e = expand(dims)
        partial = Fraction(
            (dims.d_a**2 - 1) * (dims.d_b**2 - 1), 2 * dims.n
        )
        for k in range(1, e.optimal_k + 1):
            partial += series_term(dims, k)
        diff = abs(partial - mutual_information_rational(dims))
        assert diff <= 2 * Fraction(e.error_estimate)


def test_truncation_honesty_float_route():
    # where the estimate is far above machine noise, the float route obeys it
    dims = Dimensions(2, 2, 4)
    e = expand(dims, 60)
    value, err = e.value_at_optimal, e.error_estimate
    exact = float(mutual_information_rational(dims))
    assert err > 1e-12
    assert abs(value - exact) <= 2.0 * err


def test_k_max_validation():
    dims = Dimensions(2, 3, 7)
    with pytest.raises(DomainError):
        expand(dims, 0)
    with pytest.raises(DomainError):
        expand(dims, True)
    with pytest.raises(DomainError):
        expand(dims, 61)  # needs Bernoulli numbers past the supported limit
    with pytest.raises(DomainError):
        bernoulli_term(dims, 0)


def test_swapped_regime_refused():
    # the series expands the factorised closed form only; at (3,4,2) it
    # would otherwise return 2.483 where <I> = 1.378
    for triple in [(2, 10**9, 1), (3, 4, 2)]:
        dims = Dimensions(*triple)
        with pytest.raises(RegimeError, match="requires the factorised regime"):
            expand(dims)
        with pytest.raises(RegimeError, match="requires the factorised regime"):
            bernoulli_term(dims, 1)


def test_monotone_tail_uses_last_term():
    # large d_e: magnitudes still falling at k_max, so the estimate is |t_K|
    dims = Dimensions(2, 2, 40)
    e = expand(dims, 10)
    magnitudes = [abs(t) for t in e.terms]
    assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    assert e.optimal_k == 10
    assert e.error_estimate == magnitudes[-1]
    assert e.divergence_k is None
