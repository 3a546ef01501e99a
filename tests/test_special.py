"""Special functions: digamma accuracy, exact harmonic and Bernoulli numbers."""

import math
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from haarmi import (
    BERNOULLI_LIMIT,
    EULER_GAMMA,
    DomainError,
    bernoulli,
    digamma,
    harmonic_rational,
    zeta_negative_odd,
)
from haarmi.special import _psi_remainder

from exact_reference import binet_remainder, digamma as digamma_decimal

# ---------------------------------------------------------------------------
# digamma


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
def test_digamma_domain(bad):
    with pytest.raises(DomainError):
        digamma(bad)


def test_digamma_beyond_binary64():
    assert math.isfinite(digamma(2**1023))
    with pytest.raises(DomainError):
        digamma(10**400)


def test_digamma_where_the_reciprocal_overflows():
    """``psi(x) ~ -1/x - gamma`` is -inf where ``1/x`` overflows, and
    finite from the next float up."""
    tiny = 1.0 / sys.float_info.max
    for x in (5e-324, 1e-310, tiny):
        assert digamma(x) == -math.inf
    assert digamma(math.nextafter(tiny, 1.0)) == pytest.approx(
        -sys.float_info.max, rel=1e-15
    )


def test_digamma_known_points():
    # psi(1) = -gamma, psi(2) = 1 - gamma, psi(1/2) = -gamma - 2 ln 2
    assert abs(digamma(1.0) + EULER_GAMMA) < 3e-16
    assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 3e-16
    assert abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0)) < 1e-15
    # psi(43) = H_42 - gamma, value cross-checked against 30-digit arithmetic
    assert digamma(43.0) == pytest.approx(3.7495271417468059598, abs=1e-15, rel=0)


@pytest.mark.parametrize(
    "n",
    [0, 1, 2, 3, 4, 5, 9, 10, 11, 42, 100, 719, 1000, 4096],
)
def test_digamma_integer_consistency_exact(n):
    """psi(n+1) agrees with float(H_n) - gamma to 1e-14 absolute."""
    target = float(harmonic_rational(n)) - EULER_GAMMA
    assert abs(digamma(n + 1.0) - target) <= 1e-14


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_digamma_integer_consistency_large(n):
    """Same identity far out, with H_n from compensated float summation
    (each 1/k is within half an ulp, so the fsum total is well inside the
    1e-14 budget)."""
    target = math.fsum(1.0 / k for k in range(1, n + 1)) - EULER_GAMMA
    assert abs(digamma(n + 1.0) - target) <= 1e-14


@pytest.mark.parametrize(
    "x", [1.0, 1.5, 2.75, 5.0, 9.99, 10.0, 17.3, 123.456, 1e4, 1e8]
)
def test_digamma_recurrence(x):
    """psi(x+1) - psi(x) = 1/x, measured against the largest participant
    (the difference itself suffers catastrophic cancellation for large x)."""
    lhs = digamma(x + 1.0) - digamma(x)
    scale = max(abs(digamma(x + 1.0)), abs(digamma(x)), 1.0 / x)
    assert abs(lhs - 1.0 / x) <= 8e-16 * scale


def test_digamma_integers_against_60_digit_reference():
    """``psi(n)`` within 3e-16 relative for n = 2..399: one ``fsum`` of
    ``ln n``, ``-1/(2n)`` and the remainder; a separate shift loop of
    ``-1/x`` terms lost 5.1e-16 at n = 2."""
    with localcontext() as ctx:
        ctx.prec = 60
        for n in range(2, 400):
            exact = digamma_decimal(n)
            error = abs(Decimal(digamma(n)) - exact)
            assert error <= Decimal("3e-16") * abs(exact), n


def test_psi_remainder_against_60_digit_reference():
    """``r(z)`` within 5e-16 relative for z = 1..299.  Seven Stirling terms
    at z >= 10, carried down by the three-piece recurrence step, were
    accurate only in absolute terms: 4.99e-14 relative at z = 10."""
    with localcontext() as ctx:
        ctx.prec = 60
        for z in range(1, 300):
            exact = binet_remainder(z)
            error = abs(Decimal(_psi_remainder(z)) - exact)
            assert error <= Decimal("5e-16") * exact, z


def test_digamma_asymptotic_regime():
    # For large x, psi(x) ~ ln x - 1/(2x) with an error below 1/(12 x^2)
    for x in (1e3, 1e6, 1e12):
        approx = math.log(x) - 0.5 / x
        assert abs(digamma(x) - approx) < 1.0 / (11.9 * x * x)


# ---------------------------------------------------------------------------
# harmonic numbers


def test_harmonic_values():
    assert harmonic_rational(0) == 0
    assert harmonic_rational(1) == 1
    assert harmonic_rational(4) == Fraction(25, 12)
    assert harmonic_rational(16) == Fraction(2436559, 720720)


def test_harmonic_recurrence():
    for n in range(1, 200):
        assert harmonic_rational(n) - harmonic_rational(n - 1) == Fraction(1, n)


_HARMONIC_INDICES = [0, 1, 2, 63, 64, 65, 127, 128, 129, 200, 257, 1000]


@pytest.mark.parametrize("start", _HARMONIC_INDICES)
@pytest.mark.parametrize("n", _HARMONIC_INDICES)
def test_harmonic_difference_matches_naive_sum(n, start):
    """``harmonic_rational(n, start)`` is ``H_n - H_start`` in either order,
    across the binary-splitting leaf boundary and past two and three merge
    levels (129, 257 and 1000 terms)."""
    def naive(m):
        return sum((Fraction(1, k) for k in range(1, m + 1)), Fraction(0))

    assert harmonic_rational(n, start) == naive(n) - naive(start)


@pytest.mark.parametrize("bad", [-1, 2.0, "3", True])
def test_harmonic_domain(bad):
    with pytest.raises(DomainError):
        harmonic_rational(bad)
    with pytest.raises(DomainError):
        harmonic_rational(1, bad)


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta at negative odd integers


def test_bernoulli_small_values():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
        14: Fraction(7, 6),
        16: Fraction(-3617, 510),
        18: Fraction(43867, 798),
        20: Fraction(-174611, 330),
    }
    for m, value in expected.items():
        assert bernoulli(m) == value


def test_bernoulli_satisfies_defining_recurrence():
    """The tangent-number table against ``sum_{j<=m} C(m+1, j) B_j = 0``,
    for every m up to the limit."""
    table = [bernoulli(m) for m in range(BERNOULLI_LIMIT + 1)]
    assert table[0] == 1
    for m in range(1, BERNOULLI_LIMIT + 1):
        assert sum(math.comb(m + 1, j) * table[j] for j in range(m + 1)) == 0, m


def test_bernoulli_odd_vanish():
    for m in range(3, 41, 2):
        assert bernoulli(m) == 0


def test_bernoulli_limit_guard():
    bernoulli(BERNOULLI_LIMIT)  # the cap itself is fine
    with pytest.raises(DomainError):
        bernoulli(BERNOULLI_LIMIT + 2)
    with pytest.raises(DomainError):
        bernoulli(-2)
    with pytest.raises(DomainError):
        bernoulli(True)


def test_bernoulli_factorial_growth():
    """|B_2k| tracks 2 (2k)! / (2 pi)^{2k} to within the zeta(2k) factor.

    zeta(2k) lies in (1, 1.2) for k >= 5 but approaches 1 faster than the
    rounding noise of the log/lgamma arithmetic used here, so the lower
    edge of the window needs a little slack.
    """
    for k in range(5, 61):
        b = bernoulli(2 * k)
        log_ratio = (
            math.log(abs(b.numerator)) - math.log(b.denominator)
            - math.log(2.0) - math.lgamma(2 * k + 1)
            + 2 * k * math.log(2.0 * math.pi)
        )
        ratio = math.exp(log_ratio)
        assert 0.999 < ratio < 1.2


def test_zeta_negative_odd_values():
    assert zeta_negative_odd(1) == Fraction(-1, 12)
    assert zeta_negative_odd(2) == Fraction(1, 120)
    assert zeta_negative_odd(3) == Fraction(-1, 252)
    assert zeta_negative_odd(4) == Fraction(1, 240)
    for k in range(1, 30):
        assert zeta_negative_odd(k) == -bernoulli(2 * k) / (2 * k)
        assert (zeta_negative_odd(k) > 0) == (k % 2 == 0)


@pytest.mark.parametrize("bad", [0, -1, 1.0, True])
def test_zeta_negative_odd_domain(bad):
    with pytest.raises(DomainError):
        zeta_negative_odd(bad)


def test_caches_are_thread_safe():
    results = []

    def work():
        results.append(
            (harmonic_rational(500), bernoulli(80), zeta_negative_odd(25))
        )

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
