"""Exact references for every quantity the benchmark checks.

Nothing here imports haarmi: the benchmark must be able to tell when the
package is wrong.  Two independent evaluations of the Page formulas are
provided:

* exact rationals, summing ``1/k`` over a range by binary splitting;
* ``decimal`` at ``PREC`` digits, using ``G(n) = H_n - gamma`` from the
  Euler-Maclaurin expansion for ``n >= 64`` and downward recurrence below.

The average entanglement entropy of the ``m``-dimensional part of a random
pure state on ``m x n`` is ``H_{mn} - H_hi - (lo-1)/(2 hi)`` with
``lo, hi = sorted((m, n))``, and ``<I(A:B)> = <S_A> + <S_B> - <S_AB>``.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

#: Working precision (significant digits) of the decimal route.
PREC = 60

_ASYMPTOTIC_FROM = 64
_BERNOULLI_TERMS = 25


def _bernoulli_even(count: int) -> list[Fraction]:
    """``B_2, B_4, ..., B_{2 count}`` from the defining recurrence."""
    numbers = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        acc = sum(math.comb(m + 1, j) * numbers[j] for j in range(m))
        numbers.append(-acc / (m + 1))
    return [numbers[2 * k] for k in range(1, count + 1)]


_B_OVER_2K = [b / (2 * k) for k, b in enumerate(_bernoulli_even(_BERNOULLI_TERMS), 1)]


def _range_sum(a: int, b: int) -> tuple[int, int]:
    """``sum_{k=a+1}^{b} 1/k`` as an unreduced ``(p, q)`` by binary splitting."""
    if b - a == 1:
        return 1, b
    mid = (a + b) // 2
    p1, q1 = _range_sum(a, mid)
    p2, q2 = _range_sum(mid, b)
    return p1 * q2 + p2 * q1, q1 * q2


def harmonic_difference(a: int, b: int) -> Fraction:
    """Exact ``H_b - H_a`` for ``0 <= a <= b``."""
    if b == a:
        return Fraction(0)
    return Fraction(*_range_sum(a, b))


def page_entropy_fraction(m: int, n: int) -> Fraction:
    lo, hi = sorted((m, n))
    return harmonic_difference(hi, m * n) - Fraction(lo - 1, 2 * hi)


def mutual_information_fraction(d_a: int, d_b: int, d_e: int) -> Fraction:
    """Exact rational ``<I(A:B)>``."""
    return (
        page_entropy_fraction(d_a, d_b * d_e)
        + page_entropy_fraction(d_b, d_a * d_e)
        - page_entropy_fraction(d_a * d_b, d_e)
    )


def _g(n: int) -> Decimal:
    """``H_n - gamma`` (that is ``psi(n+1)``) at the current precision."""
    top = max(n, _ASYMPTOTIC_FROM)
    x = Decimal(top)
    inv2 = 1 / (x * x)
    value = x.ln() + 1 / (2 * x)
    power = inv2
    for coef in _B_OVER_2K:
        value -= Decimal(coef.numerator) / coef.denominator * power
        power *= inv2
    for k in range(n + 1, top + 1):
        value -= Decimal(1) / k
    return value


def _page_entropy_decimal(m: int, n: int) -> Decimal:
    lo, hi = sorted((m, n))
    return _g(m * n) - _g(hi) - Decimal(lo - 1) / (2 * hi)


def _diag_entropy_decimal(m: int, n: int) -> Decimal:
    return _g(m * n) - _g(n)


class Reference:
    """Decimal-precision closed forms for one triple ``(d_a, d_b, d_e)``."""

    def __init__(self, d_a: int, d_b: int, d_e: int):
        self.dims = (d_a, d_b, d_e)
        with localcontext() as ctx:
            ctx.prec = PREC
            s_a = _page_entropy_decimal(d_a, d_b * d_e)
            s_b = _page_entropy_decimal(d_b, d_a * d_e)
            s_ab = _page_entropy_decimal(d_a * d_b, d_e)
            mi = s_a + s_b - s_ab
            n = d_a * d_b * d_e
            su = (d_a * d_a - 1) * (d_b * d_b - 1)
            # <I> = su/(2N) - 2 su J in the factorised regime.
            j = (Decimal(su) / (2 * n) - mi) / (2 * su) if su else None
            self.mutual_information = float(mi)
            self.j = float(j) if j is not None else None
            m, rest = d_a, d_b * d_e
            self.oracle = {
                "mean_mutual_information": float(mi),
                "mean_entropy_a": float(s_a),
                "mean_entropy_b": float(s_b),
                "mean_entropy_ab": float(s_ab),
                "mean_purity_a": (m + rest) / (m * rest + 1),
                "mean_diagonal_entropy_a": float(_diag_entropy_decimal(m, rest)),
                "mean_diagonal_second_moment_a": (rest + 1) / (m * rest + 1),
            }
            if m >= 2:
                bloch = 2 / (m * (m * rest + 1))
                self.oracle["cartan_var"] = bloch
                self.oracle["offdiag_var"] = bloch

    def z_max(self, stats: dict) -> float:
        """Worst ``|mean - closed form| / stderr`` over the oracle statistics
        in ``stats`` (field names of ``HaarSampleStats``)."""
        worst = 0.0
        for name, expected in self.oracle.items():
            stderr_name = name.replace("mean_", "stderr_") if name.startswith(
                "mean_") else "stderr_" + name
            mean, stderr = stats.get(name), stats.get(stderr_name)
            if mean is None or not stderr:
                continue
            worst = max(worst, abs(mean - expected) / stderr)
        return worst
