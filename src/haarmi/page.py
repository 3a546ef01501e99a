"""Closed-form ensemble averages for Haar-random bipartite pure states.

Two independent exact routes are provided for every quantity: a binary64
route built on the digamma function, and an exact rational route built on
harmonic differences ``H_b - H_a`` (the two are related by
``psi(n+1) = H_n - gamma``, and gamma cancels in every combination used
here).  Each difference is summed once, with no state kept between calls;
``<I>`` telescopes the ``H_N`` its three Page entropies share.
The binary64 diagonal part cancels the logarithms of its four digammas in
closed form, so its O(1/N) value stays accurate in *relative* terms.

Conventions: ``page_entropy(m, n)`` is the average entanglement entropy of
the dimension-``m`` part of a random pure state on ``m x n`` (symmetric
under swapping, computed with the smaller factor in the correction term);
``diagonal_entropy_avg(m, n)`` is the average Shannon entropy of the
*diagonal* of the reduced density matrix in a fixed basis, which is
asymmetric: ``m`` counts the diagonal cells, ``n`` is the effective
Dirichlet concentration per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dims import Dimensions, casimir_counts
from .errors import (
    DomainError,
    InvalidDimensionError,
    NumericalValidityError,
    _require_int,
)
from .special import _psi_remainder, digamma, harmonic_rational


def _check_sizes(m: int, n: int) -> None:
    _require_int("m", m, 1, InvalidDimensionError)
    _require_int("n", n, 1, InvalidDimensionError)


@dataclass(frozen=True)
class MutualInformationBreakdown:
    """Exact average mutual information split into its two physical parts.

    total:    <I(A:B)> = i_diag + delta_ev (this identity holds bitwise).
    i_diag:   average mutual information of the *diagonal* (classical)
              distribution in a product basis.
    delta_ev: the eigenvector / basis-optimisation contribution.
    g_value:  total divided by (d_a^2-1)(d_b^2-1), the universal scale
              factor of the factorised regime; None in the swapped regime
              or when the numerator count vanishes (a dimension is 1).
    """

    dims: Dimensions
    total: float
    i_diag: float
    delta_ev: float
    g_value: float | None


def page_entropy(m: int, n: int) -> float:
    """Average entanglement entropy ``psi(mn+1) - psi(hi+1) - (lo-1)/(2 hi)``
    where ``lo, hi = sorted((m, n))``."""
    _check_sizes(m, n)
    lo, hi = sorted((m, n))
    return digamma(m * n + 1) - digamma(hi + 1) - (lo - 1) / (2 * hi)


def _page_hi_correction(m: int, n: int) -> tuple[int, Fraction]:
    """``hi`` and the correction ``(lo-1)/(2 hi)`` of Page's formula."""
    lo, hi = sorted((m, n))
    return hi, Fraction(lo - 1, 2 * hi)


def page_entropy_rational(m: int, n: int) -> Fraction:
    """Exact rational counterpart of :func:`page_entropy`
    (``H_{mn} - H_hi - (lo-1)/(2 hi)``)."""
    _check_sizes(m, n)
    hi, correction = _page_hi_correction(m, n)
    return harmonic_rational(m * n, hi) - correction


def diagonal_entropy_avg(m: int, n: int) -> float:
    """Average Shannon entropy of the diagonal: ``psi(mn+1) - psi(n+1)``."""
    _check_sizes(m, n)
    return digamma(m * n + 1) - digamma(n + 1)


def diagonal_entropy_avg_rational(m: int, n: int) -> Fraction:
    """Exact rational counterpart of :func:`diagonal_entropy_avg`."""
    _check_sizes(m, n)
    return harmonic_rational(m * n, n)


def schur_deficit(m: int, n: int) -> float:
    """Gap ``diagonal_entropy_avg - page_entropy = (m-1)/(2n)`` for m <= n.

    The gap is non-negative (diagonals majorise nothing: dephasing can only
    raise entropy on average), and this closed form requires the subsystem
    to be the smaller factor.
    """
    _check_sizes(m, n)
    if m > n:
        raise DomainError(
            f"schur_deficit closed form requires m <= n, got m={m}, n={n}"
        )
    return (m - 1) / (2 * n)


def lubkin_purity(m: int, n: int) -> Fraction:
    """Average purity ``<Tr rho_A^2> = (m+n)/(mn+1)`` of the m-dimensional
    part of a random pure state on ``m x n``."""
    _check_sizes(m, n)
    return Fraction(m + n, m * n + 1)


def diagonal_second_moment(m: int, n: int) -> Fraction:
    """Average ``<sum_i rho_ii^2> = (n+1)/(mn+1)`` over the m diagonal
    entries (each cell a Dirichlet weight with concentration n)."""
    _check_sizes(m, n)
    return Fraction(n + 1, m * n + 1)


def bloch_variance(m: int, n: int) -> Fraction:
    """Per-generator variance ``<r_a^2> = 2 / (m (mn+1))`` of the Bloch
    components ``r_a = Tr(rho_A lambda_a)``, identical for every generator
    ``lambda_a`` normalised to ``Tr(lambda_a lambda_b) = 2 delta_ab``."""
    _check_sizes(m, n)
    return Fraction(2, m * (m * n + 1))


def _i_diag_float(dims: Dimensions) -> float:
    """``psi(N+1) - psi(d_b d_e+1) - psi(d_a d_e+1) + psi(d_e+1)`` with
    ``psi(z+1) = ln z + 1/(2z) - r(z)``: the logs cancel exactly, since
    ``N d_e = (d_a d_e)(d_b d_e)``, and the ``1/(2z)`` terms sum to
    ``cartan/(2N)``."""
    d_e = dims.d_e
    cartan = casimir_counts(dims).cartan_product
    return cartan / (2 * dims.n) - math.fsum(
        (
            _psi_remainder(dims.n),
            -_psi_remainder(dims.d_b * d_e),
            -_psi_remainder(dims.d_a * d_e),
            _psi_remainder(d_e),
        )
    )


def i_diag_rational(dims: Dimensions) -> Fraction:
    """Exact rational diagonal mutual information
    ``(H_N - H_{N/d_a}) - (H_{N/d_b} - H_{N/(d_a d_b)})``."""
    d_e = dims.d_e
    return (
        harmonic_rational(dims.n, dims.d_b * d_e)
        - harmonic_rational(dims.d_a * d_e, d_e)
    )


def mutual_information_rational(dims: Dimensions) -> Fraction:
    """Exact rational ``<I(A:B)> = <S_A> + <S_B> - <S_AB>`` (both regimes)
    with the shared ``H_N`` cancelled: ``(H_N - H_a) - (H_b - H_c)
    - (lo_a-1)/(2a) - (lo_b-1)/(2b) + (lo_c-1)/(2c)``, ``a, b, c`` the ``hi``
    of ``S_A, S_B, S_AB``: ``(N-a) + |b-c|`` terms, not three ranges."""
    a, corr_a = _page_hi_correction(dims.d_a, dims.d_b * dims.d_e)
    b, corr_b = _page_hi_correction(dims.d_b, dims.d_a * dims.d_e)
    c, corr_c = _page_hi_correction(dims.d_a * dims.d_b, dims.d_e)
    tail = harmonic_rational(b, c) + corr_a + corr_b - corr_c
    return harmonic_rational(dims.n, a) - tail


def forced_factorised_value(dims: Dimensions) -> float:
    """The factorised-regime closed form ``i_diag + (su - cartan)/(2N)``
    evaluated regardless of the actual regime.

    In the swapped regime this is *not* the mutual information; it is
    exposed so the size of the regime discontinuity can be quantified.
    """
    counts = casimir_counts(dims)
    delta_ev = (counts.su_product - counts.cartan_product) / (2 * dims.n)
    return _i_diag_float(dims) + delta_ev


def mutual_information_exact(dims: Dimensions) -> MutualInformationBreakdown:
    """Average mutual information with its diagonal/eigenvector split.

    In the factorised regime ``delta_ev`` has the closed form
    ``((d_a^2-1)(d_b^2-1) - (d_a-1)(d_b-1)) / (2N)`` and the result is
    cross-checked against the entropy route; in the swapped regime
    ``delta_ev`` is defined by difference from the entropy route.
    """
    i_diag = _i_diag_float(dims)
    total_entropy_route = (
        page_entropy(dims.d_a, dims.d_b * dims.d_e)
        + page_entropy(dims.d_b, dims.d_a * dims.d_e)
        - page_entropy(dims.d_a * dims.d_b, dims.d_e)
    )
    if dims.factorised_regime:
        counts = casimir_counts(dims)
        delta_ev = (counts.su_product - counts.cartan_product) / (2 * dims.n)
        total = i_diag + delta_ev
        drift = abs(total_entropy_route - total)
        if drift > 1e-12 * max(1.0, math.log(dims.n)):
            raise NumericalValidityError(
                f"entropy route and diagonal+correction route disagree by "
                f"{drift:.3e} for {dims}"
            )
        g_value = (
            total / counts.su_product if counts.su_product > 0 else None
        )
    else:
        delta_ev = total_entropy_route - i_diag
        total = i_diag + delta_ev
        g_value = None
    return MutualInformationBreakdown(
        dims=dims, total=total, i_diag=i_diag, delta_ev=delta_ev, g_value=g_value
    )
