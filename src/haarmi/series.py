"""Divergent large-N expansion of the average mutual information.

The expansion reads

    leading + sum_{k>=1} t_k,
    t_k = zeta(1-2k) * (d_a^{2k} - 1)(d_b^{2k} - 1) / N^{2k},

with ``leading = (d_a^2-1)(d_b^2-1)/(2N)`` and exact rational coefficients
``zeta(1-2k) = -B_{2k}/(2k)``.  Only even inverse powers of N appear.  The
factorial growth of the Bernoulli numbers makes the series divergent for
every fixed N: term magnitudes shrink to a minimum near ``k ~ pi * d_e``
and then explode.  Truncating at the smallest term (superasymptotic
truncation) leaves an error of the order of that term, which is what
``error_estimate`` reports.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

from .dims import Dimensions, leading_order
from .errors import DomainError, _require_int
# zeta_negative_odd stays importable here: perfbench's tracer wraps it.
from .special import BERNOULLI_LIMIT, _ZETA, zeta_negative_odd  # noqa: F401

#: Default number of terms kept by :func:`expand`.
K_MAX_DEFAULT = 40


@dataclass(frozen=True)
class SeriesExpansion:
    """Terms and running truncations of the large-N expansion.

    terms[i] is t_{i+1}; partial_sums[k] = leading + t_1 + ... + t_k, built
    strictly sequentially so partial_sums[k] == partial_sums[k-1] + terms[k-1]
    holds bitwise, with partial_sums[0] == leading.

    optimal_k:      1-based index of the smallest-magnitude term: the
                    superasymptotic truncation point.
    error_estimate: magnitude of the first term beyond the truncation
                    point (the last computed term if none was beyond).
    divergence_k:   first 1-based index whose magnitude strictly exceeds
                    its predecessor's, or None if magnitudes never grow.
    """

    dims: Dimensions
    leading: float
    terms: list[float]
    partial_sums: list[float]
    optimal_k: int
    error_estimate: float
    divergence_k: int | None

    @property
    def value_at_optimal(self) -> float:
        """The superasymptotically truncated value, partial_sums[optimal_k]."""
        return self.partial_sums[self.optimal_k]


def _check_k_max(k_max: int) -> None:
    _require_int("k_max", k_max, 1)
    if 2 * k_max > BERNOULLI_LIMIT:
        raise DomainError(
            f"k_max={k_max} needs Bernoulli numbers past the supported "
            f"limit {BERNOULLI_LIMIT}"
        )


def _terms(dims: Dimensions, ks: Iterable[int]) -> list[float]:
    """``t_k`` for each ``k`` in ``ks``, unchecked: the one kernel behind
    :func:`bernoulli_term` and :func:`expand`."""
    n = dims.n
    # Integer true division is correctly rounded for every N < 2**1024, and
    # gives a_sq == inv_n exactly when d_a = 1; float(N) overflows near it.
    a_sq, b_sq, inv_n = dims.d_a * dims.d_a / n, dims.d_b * dims.d_b / n, 1 / n
    return [
        _ZETA[k - 1] * (a_sq**k - inv_n**k) * (b_sq**k - inv_n**k) for k in ks
    ]


def bernoulli_term(dims: Dimensions, k: int) -> float:
    """Term ``t_k = zeta(1-2k) (d_a^{2k}-1)(d_b^{2k}-1) / N^{2k}``.

    Defined only in the factorised regime (:class:`RegimeError` otherwise).
    Each dimension factor is evaluated as ``(d^2/N)^k - (1/N)^k``, which is
    exactly zero when ``d = 1`` and keeps the term's sign pattern
    ``(-1)^k`` intact.  No term can overflow: both bases ``d^2/N`` are at
    most 1 when ``d_a d_b <= d_e``, and ``|zeta(1-2k)| <= 1.85e101`` for
    every allowed ``k <= 60``.
    """
    _check_k_max(k)
    dims.require_factorised("series")
    return _terms(dims, (k,))[0]


def expand(dims: Dimensions, k_max: int = K_MAX_DEFAULT) -> SeriesExpansion:
    """Evaluate the first ``k_max`` terms together with their partial sums
    and the superasymptotic truncation bookkeeping; factorised regime only.
    ``terms[k-1]`` equals ``bernoulli_term(dims, k)`` bitwise."""
    _check_k_max(k_max)
    dims.require_factorised("series")
    lead = leading_order(dims)
    terms = _terms(dims, range(1, k_max + 1))
    partial_sums = list(accumulate(terms, initial=lead))

    # One scan: a tie stops the descent (optimal_k), only strict growth
    # marks divergence, and strict growth can come no earlier than a tie.
    magnitudes = [abs(t) for t in terms]
    optimal_k, divergence_k = k_max, None
    for k in range(1, k_max):
        if magnitudes[k] >= magnitudes[k - 1]:
            optimal_k = min(optimal_k, k)
            if magnitudes[k] > magnitudes[k - 1]:
                divergence_k = k + 1
                break
    error_estimate = magnitudes[optimal_k] if optimal_k < k_max else magnitudes[-1]

    return SeriesExpansion(
        dims=dims,
        leading=lead,
        terms=terms,
        partial_sums=partial_sums,
        optimal_k=optimal_k,
        error_estimate=error_estimate,
        divergence_k=divergence_k,
    )
