"""References the tests compare against, computed without binary64: the
Binet remainder and digamma in Decimal at the caller's precision, and the
series term exactly."""

import math
from decimal import Decimal
from fractions import Fraction

from haarmi import Dimensions, bernoulli, zeta_negative_odd


def _decimal(x: int | Fraction) -> Decimal:
    """``x`` at the current Decimal precision: exact for an int, or for a
    dyadic Fraction whose digits fit it."""
    return Decimal(x.numerator) / Decimal(x.denominator)


def binet_remainder(z: int | Fraction) -> Decimal:
    """``r(z) = ln z + 1/(2z) - psi(z+1)`` for an integer ``z >= 1``, or a
    dyadic Fraction ``z > 0``, at the current Decimal precision: the
    Stirling series ``sum_k B_2k / (2k w^2k)`` at ``w = z + shift >= 64``,
    where each omitted term is below 1e-70 of the sum, and the recurrence
    ``psi(z+1) = psi(w) - sum_{j<shift} 1/(z+j)`` below it."""
    shift = max(0, math.ceil(64 - z))
    w = _decimal(z + shift)
    value = Decimal(0)
    for k in range(1, 31):
        b = bernoulli(2 * k)
        term = Decimal(b.numerator) / (Decimal(b.denominator) * 2 * k * w ** (2 * k))
        value += term
        if abs(term) < abs(value) * Decimal("1e-70"):
            break
    if shift:
        z_dec = _decimal(z)
        value += (z_dec.ln() + 1 / (2 * z_dec) - w.ln() + 1 / (2 * w)
                  + sum(1 / _decimal(z + j) for j in range(1, shift)))
    return value


def digamma(x: int) -> Decimal:
    """``psi(x)`` for an integer ``x >= 2`` at the current Decimal
    precision: ``ln z + 1/(2z) - r(z)`` at ``z = x - 1``."""
    z = Decimal(x - 1)
    return z.ln() + 1 / (2 * z) - binet_remainder(x - 1)


def series_term(dims: Dimensions, k: int) -> Fraction:
    """The k-th term ``t_k = zeta(1-2k) (d_a^2k - 1)(d_b^2k - 1) / N^2k`` of
    the large-N expansion, exactly."""
    return zeta_negative_odd(k) * Fraction(
        (dims.d_a ** (2 * k) - 1) * (dims.d_b ** (2 * k) - 1),
        dims.n ** (2 * k),
    )
