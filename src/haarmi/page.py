"""Closed-form ensemble averages for Haar-random bipartite pure states.

Two independent exact routes are provided for every quantity.  The
binary64 route reads one set of poles: a bipartition ``lo x hi`` of
``N = lo hi`` (``lo <= hi``) has ``<S> = ln lo + (1 - lo^2)/(2N) - r(N) +
r(hi)``, and ``m`` diagonal cells of concentration ``n`` have the average
Shannon entropy ``ln m + (1 - m)/(2mn) - r(mn) + r(n)``, with ``r(z) = ln z
+ 1/(2z) - psi(z+1)`` the Binet remainder, so no ``ln N``-sized terms
cancel and the O(1/N) values of ``<I>``, its diagonal part and the
diagonal entropy stay accurate in *relative* terms.  The rational route sums
harmonic differences ``H_b - H_a``, each once, with no state kept between
calls; ``<I>`` telescopes the ``H_N`` its three Page entropies share.

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

from .dims import _N_LIMIT, Dimensions, casimir_counts
from .errors import DomainError, InvalidDimensionError, _require_int
# digamma stays importable here: perfbench's tracer wraps ``page.digamma``.
from .special import _psi_remainder, digamma, harmonic_rational  # noqa: F401


def _check_sizes(m: int, n: int) -> None:
    _require_int("m", m, 1, InvalidDimensionError)
    _require_int("n", n, 1, InvalidDimensionError)


def _float_size(what: str, m: int, n: int) -> int:
    """``m n`` for a binary64 route, which needs it below ``2**1024``."""
    _check_sizes(m, n)
    size = m * n
    if size >= _N_LIMIT:
        raise DomainError(f"{what} requires m*n < 2**1024, got "
                          f"{size.bit_length()} bits")
    return size


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
    where ``lo, hi = sorted((m, n))``, evaluated as ``ln lo + (1 - lo^2)/(2mn)
    - r(mn) + r(hi)``; ``m n`` must be below ``2**1024``."""
    size = _float_size("page_entropy", m, n)
    lo, hi = sorted((m, n))
    return math.fsum((math.log(lo), (1 - lo * lo) / (2 * size),
                      -_psi_remainder(size), _psi_remainder(hi)))


def page_entropy_rational(m: int, n: int) -> Fraction:
    """Exact rational counterpart of :func:`page_entropy`
    (``H_{mn} - H_hi - (lo-1)/(2 hi)``)."""
    _check_sizes(m, n)
    lo, hi = sorted((m, n))
    return harmonic_rational(m * n, hi) - Fraction(lo - 1, 2 * hi)


def diagonal_entropy_avg(m: int, n: int) -> float:
    """Average Shannon entropy of the diagonal ``psi(mn+1) - psi(n+1)``,
    evaluated as ``ln m + (1 - m)/(2mn) - r(mn) + r(n)``; ``m n`` must be
    below ``2**1024``."""
    size = _float_size("diagonal_entropy_avg", m, n)
    return math.fsum((math.log(m), (1 - m) / (2 * size),
                      -_psi_remainder(size), _psi_remainder(n)))


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
    return cartan / (2 * dims.n) - math.fsum((
        _psi_remainder(dims.n), -_psi_remainder(dims.d_b * d_e),
        -_psi_remainder(dims.d_a * d_e), _psi_remainder(d_e),
    ))


def i_diag_rational(dims: Dimensions) -> Fraction:
    """Exact rational diagonal mutual information
    ``(H_N - H_{N/d_a}) - (H_{N/d_b} - H_{N/(d_a d_b)})``."""
    d_e = dims.d_e
    return (
        harmonic_rational(dims.n, dims.d_b * d_e)
        - harmonic_rational(dims.d_a * d_e, d_e)
    )


def _bipartitions(dims: Dimensions) -> tuple[tuple[int, int], ...]:
    """``(lo, hi)`` of ``S_A``, ``S_B`` and ``S_AB``: the sorted factor pairs
    ``(d_a, d_b d_e)``, ``(d_b, d_a d_e)`` and ``(d_a d_b, d_e)``; every
    pair has ``lo * hi = N``, and ``a, b, c`` below name the three ``hi``."""
    d_a, d_b, d_e = dims.d_a, dims.d_b, dims.d_e
    pairs = ((d_a, d_b * d_e), (d_b, d_a * d_e), (d_a * d_b, d_e))
    return tuple((min(pair), max(pair)) for pair in pairs)


def _binet_total(dims: Dimensions) -> float:
    """``<I> = ln(lo_a lo_b / lo_c) + (1 - lo_a^2 - lo_b^2 + lo_c^2)/(2N)
    - r(N) + r(a) + r(b) - r(c)``: ``S_A + S_B - S_AB`` in the form of
    :func:`page_entropy`, with the log and the rational each rounded once."""
    (lo_a, a), (lo_b, b), (lo_c, c) = _bipartitions(dims)
    return math.fsum((
        math.log(lo_a * lo_b / lo_c),
        (1 - lo_a * lo_a - lo_b * lo_b + lo_c * lo_c) / (2 * dims.n),
        -_psi_remainder(dims.n), _psi_remainder(a), _psi_remainder(b),
        -_psi_remainder(c),
    ))


def mutual_information_rational(dims: Dimensions) -> Fraction:
    """Exact rational ``<I(A:B)> = <S_A> + <S_B> - <S_AB>`` (both regimes)
    with the shared ``H_N`` cancelled: ``(H_N - H_a) - (H_b - H_c) - (lo_a-1)
    /(2a) - (lo_b-1)/(2b) + (lo_c-1)/(2c)``, ``(N-a) + |b-c|`` terms."""
    (lo_a, a), (lo_b, b), (lo_c, c) = _bipartitions(dims)
    tail = (harmonic_rational(b, c) + Fraction(lo_a - 1, 2 * a)
            + Fraction(lo_b - 1, 2 * b) - Fraction(lo_c - 1, 2 * c))
    return harmonic_rational(dims.n, a) - tail


def _factorised_delta_ev(dims: Dimensions) -> float:
    """The factorised regime's eigenvector part ``(su - cartan)/(2N)``."""
    counts = casimir_counts(dims)
    return (counts.su_product - counts.cartan_product) / (2 * dims.n)


def forced_factorised_value(dims: Dimensions) -> float:
    """The factorised-regime closed form ``i_diag + (su - cartan)/(2N)``
    evaluated regardless of the actual regime.

    In the swapped regime this is *not* the mutual information; it is
    exposed so the size of the regime discontinuity can be quantified.
    """
    return _i_diag_float(dims) + _factorised_delta_ev(dims)


def mutual_information_exact(dims: Dimensions) -> MutualInformationBreakdown:
    """Average mutual information with its diagonal/eigenvector split.

    In the factorised regime ``delta_ev`` has the closed form
    ``((d_a^2-1)(d_b^2-1) - (d_a-1)(d_b-1)) / (2N)``; in the swapped regime
    it is the one-``fsum`` total of the three bipartitions minus ``i_diag``.
    No second route is run here: ``haarmi verify`` checks the rational one.
    """
    i_diag = _i_diag_float(dims)
    if dims.factorised_regime:
        delta_ev = _factorised_delta_ev(dims)
    else:
        delta_ev = _binet_total(dims) - i_diag
    total = i_diag + delta_ev
    su = casimir_counts(dims).su_product
    # Through Fraction: float(su) overflows once su reaches 2**1024.
    g_value = float(Fraction(total) / su) if dims.factorised_regime and su else None
    return MutualInformationBreakdown(
        dims=dims, total=total, i_diag=i_diag, delta_ev=delta_ev, g_value=g_value
    )
