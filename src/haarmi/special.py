"""Special functions: digamma, exact harmonic numbers, Bernoulli numbers.

The digamma implementation is self-contained (recurrence plus asymptotic
series) so that the whole package carries no dependency beyond numpy, and
so that the Bernoulli numbers feeding the asymptotic expansion are exactly
the ones produced by :func:`bernoulli`.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .errors import DomainError, _require_int

#: Euler-Mascheroni constant, correctly rounded to binary64.
EULER_GAMMA = 0.5772156649015328606065

#: Largest Bernoulli index served by :func:`bernoulli`.  The asymptotic
#: expansion never needs more (terms diverge long before), and the exact
#: integer recurrence gets slow and useless past this point.
BERNOULLI_LIMIT = 120

_lock = threading.Lock()
_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_harmonic_cache: list[Fraction] = [Fraction(0)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number ``B_m`` as an exact rational (``B_1 = -1/2``).

    Computed once by the defining recurrence
    ``sum_j C(m+1, j) B_j = 0`` and cached.  Indices above
    ``BERNOULLI_LIMIT`` are refused: they are never meaningful here and
    their exact numerators grow without bound.
    """
    _require_int("Bernoulli index", m, 0)
    if m > BERNOULLI_LIMIT:
        raise DomainError(
            f"Bernoulli index {m} exceeds the supported limit {BERNOULLI_LIMIT}"
        )
    with _lock:
        while len(_bernoulli_cache) <= m:
            k = len(_bernoulli_cache)
            acc = Fraction(0)
            for j, b in enumerate(_bernoulli_cache):
                acc += math.comb(k + 1, j) * b
            _bernoulli_cache.append(-acc / (k + 1))
        return _bernoulli_cache[m]


def zeta_negative_odd(k: int) -> Fraction:
    """Exact ``zeta(1 - 2k) = -B_{2k} / (2k)`` for integer ``k >= 1``.

    These rationals are the coefficients of the large-N expansion;
    ``zeta(-1) = -1/12``, ``zeta(-3) = 1/120``, ``zeta(-5) = -1/252``.
    """
    _require_int("k", k, 1)
    return -bernoulli(2 * k) / (2 * k)


def harmonic_rational(n: int) -> Fraction:
    """Exact harmonic number ``H_n = 1 + 1/2 + ... + 1/n`` (``H_0 = 0``)."""
    _require_int("harmonic index", n, 0)
    with _lock:
        while len(_harmonic_cache) <= n:
            _harmonic_cache.append(
                _harmonic_cache[-1] + Fraction(1, len(_harmonic_cache))
            )
        return _harmonic_cache[n]


# Asymptotic tail coefficients B_{2k}/(2k), k = 1..7.  With the recurrence
# threshold at x >= 10 the first omitted term is below 2^-53 * psi(x), so
# seven terms saturate binary64.
_PSI_SHIFT = 10.0
_PSI_COEF = [float(bernoulli(2 * k)) / (2 * k) for k in range(1, 8)]


def digamma(x: float) -> float:
    """Digamma function ``psi(x)`` for real ``x > 0``.

    Uses the upward recurrence ``psi(x+1) = psi(x) + 1/x`` to push the
    argument to at least 10, then the asymptotic series
    ``ln x - 1/(2x) - sum_k B_{2k} / (2k x^{2k})``.  All pieces are
    accumulated with exact compensated summation (``math.fsum``), so the
    absolute error stays at a few 1e-16 across the whole domain and the
    result is correct to ~2 ulp wherever no leading-digit cancellation
    occurs in the recurrence (in particular for all x >= 10).
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"digamma requires finite x > 0, got {x!r}")
    pieces = []
    while x < _PSI_SHIFT:
        pieces.append(-1.0 / x)
        x += 1.0
    pieces.append(math.log(x))
    pieces.append(-0.5 / x)
    inv2 = 1.0 / (x * x)
    power = inv2
    for c in _PSI_COEF:
        pieces.append(-c * power)
        power *= inv2
    return math.fsum(pieces)
