"""Special functions: digamma, exact harmonic differences, Bernoulli numbers.

Digamma is computed here, so that the package carries no dependency
beyond numpy and the Bernoulli numbers of its Stirling series are the
ones :func:`bernoulli` serves.  It has one evaluation: the Binet
remainder ``r(z) = ln z + 1/(2z) - psi(z+1)`` of :func:`_psi_remainder`
(a positive series per recurrence step, then the Stirling series), from
which :func:`digamma` and every closed form in :mod:`haarmi.page` read
``psi`` and ``r``.  Exact harmonic differences are summed by binary
splitting.  Nothing is cached at run time: the only table, ``B_0`` to
``B_120``, is built once at import from the integer tangent numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, _require_int

#: Euler-Mascheroni constant, correctly rounded to binary64.
EULER_GAMMA = 0.5772156649015328606065

#: Largest Bernoulli index served by :func:`bernoulli`.  The asymptotic
#: expansion never needs more (terms diverge long before), and the exact
#: numerators grow without bound past this point.
BERNOULLI_LIMIT = 120


def _bernoulli_table(limit: int) -> tuple[Fraction, ...]:
    """``B_0 .. B_limit`` (``limit`` even) from the tangent numbers ``T_k``
    (``tan x = sum_k T_k x^(2k-1) / (2k-1)!``), which an in-place integer
    recurrence builds in O(limit^2) multiply-adds (Brent & Harvey,
    "Fast computation of Bernoulli, tangent and secant numbers", 2011).
    Then ``B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))`` and the odd numbers
    past ``B_1`` vanish.
    """
    n = limit // 2
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    table = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, n + 1):
        four_k = 4**k
        b = Fraction(2 * k * t[k], four_k * (four_k - 1))
        table += (b if k % 2 else -b, Fraction(0))
    return tuple(table[: limit + 1])


_BERNOULLI = _bernoulli_table(BERNOULLI_LIMIT)

#: Longest range :func:`_range_sum` adds term by term in integers.
_HARMONIC_LEAF = 64


def bernoulli(m: int) -> Fraction:
    """Bernoulli number ``B_m`` as an exact rational (``B_1 = -1/2``).

    Read from the table built at import from the tangent numbers; the
    values satisfy the defining recurrence ``sum_j C(m+1, j) B_j = 0``.
    Indices above ``BERNOULLI_LIMIT`` are refused: they are never
    meaningful here and their exact numerators grow without bound.
    """
    _require_int("Bernoulli index", m, 0)
    if m > BERNOULLI_LIMIT:
        raise DomainError(
            f"Bernoulli index {m} exceeds the supported limit {BERNOULLI_LIMIT}"
        )
    return _BERNOULLI[m]


def zeta_negative_odd(k: int) -> Fraction:
    """Exact ``zeta(1 - 2k) = -B_{2k} / (2k)`` for integer ``k >= 1``.

    These rationals are the coefficients of the large-N expansion;
    ``zeta(-1) = -1/12``, ``zeta(-3) = 1/120``, ``zeta(-5) = -1/252``.
    """
    _require_int("k", k, 1)
    return -bernoulli(2 * k) / (2 * k)


def _range_sum(a: int, b: int) -> Fraction:
    """``sum_{k=a+1}^{b} 1/k`` for ``0 <= a < b`` by binary splitting.

    ``Fraction`` addition reduces at every merge, which keeps operands near
    the size of the result rather than the product of all denominators.
    """
    if b - a <= _HARMONIC_LEAF:
        p, q = 0, 1
        for k in range(a + 1, b + 1):
            p, q = p * k + q, q * k
        return Fraction(p, q)
    mid = (a + b) // 2
    return _range_sum(a, mid) + _range_sum(mid, b)


def harmonic_rational(n: int, start: int = 0) -> Fraction:
    """Exact harmonic difference ``H_n - H_start`` (``H_0 = 0``), for any
    two indices in either order; ``harmonic_rational(n)`` is ``H_n``.

    The range is summed by binary splitting (Haible & Papanikolaou, 1998),
    so working memory stays near the size of the result and nothing is
    kept between calls.
    """
    _require_int("harmonic index", n, 0)
    _require_int("harmonic start", start, 0)
    if n == start:
        return Fraction(0)
    if n < start:
        return -_range_sum(n, start)
    return _range_sum(start, n)


# Stirling coefficients B_{2k}/(2k), k = 1..10.  From z >= 10 on, the
# first omitted term, B_22/(22 z^22), is below 4e-17 of r(z).
_PSI_SHIFT = 10.0
_PSI_COEF = [float(bernoulli(2 * k)) / (2 * k) for k in range(1, 11)]
# The recurrence step's series in y = 1/(2z+1) (see _psi_remainder):
# 4k/(2k+1) for k = 1..17, so the omitted tail at y <= 1/3 is below
# 1e-16 of the step.
_STEP_COEF = [4.0 * k / (2 * k + 1) for k in range(1, 18)]


def _psi_remainder(z: float) -> float:
    """``r(z) = ln z + 1/(2z) - psi(z+1)`` for real ``z > 0``; this is
    ``2 * binet_tail(z)``, about ``1/(12 z^2)``.

    For ``z >= 10`` it is the Stirling series ``sum_k B_{2k} / (2k z^{2k})``.
    Below, the recurrence ``r(z) = r(z+1) - log1p(1/z) + 1/(2z) +
    1/(2(z+1))`` carries it down.  The three pieces of a step cancel to
    about ``1/(6 z^3)``, so for ``z >= 1`` the step is summed instead as
    the positive series ``2 sum_{k>=1} (2k/(2k+1)) y^(2k+1)`` in ``y =
    1/(2z+1) <= 1/3``, which keeps the result accurate in *relative*
    terms; only a step from ``z < 1``, where ``y`` nears 1, takes the three
    pieces.  ``z`` is made a float first: a huge int ``z`` then squares to
    infinity, a zero series term, instead of overflowing its conversion;
    an int too large for binary64 (from ``2**1024 - 2**970`` on) gives
    0.0, as ``r(z)`` does there.
    """
    try:
        z = float(z)
    except OverflowError:
        return 0.0
    pieces = []
    if z < 1.0:
        pieces += (-math.log1p(1.0 / z), 0.5 / z, 0.5 / (z + 1.0))
        z += 1.0
    while z < _PSI_SHIFT:
        y = 1.0 / (2.0 * z + 1.0)
        y2 = y * y
        power = y * y2
        for c in _STEP_COEF:
            pieces.append(c * power)
            power *= y2
        z += 1.0
    inv2 = 1.0 / (z * z)
    power = inv2
    for c in _PSI_COEF:
        pieces.append(c * power)
        power *= inv2
    return math.fsum(pieces)


def digamma(x: float) -> float:
    """Digamma function ``psi(x)`` for real ``x > 0``.

    ``psi(x) = ln x - 1/(2x) - r(x)``, with the Binet remainder ``r`` of
    :func:`_psi_remainder`, summed in one ``math.fsum``; every ``psi`` and
    ``r`` value in the package comes from that one evaluation of ``r``.
    A number too large for binary64 raises :class:`DomainError` like any
    other non-finite argument.
    """
    try:
        x = float(x)
    except OverflowError:
        raise DomainError(
            "digamma requires finite x > 0, got a value beyond binary64"
        ) from None
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"digamma requires finite x > 0, got {x!r}")
    if 1.0 / x == math.inf:  # psi(x) ~ -1/x - gamma overflows with 1/x
        return -math.inf
    return math.fsum((math.log(x), -0.5 / x, -_psi_remainder(x)))
