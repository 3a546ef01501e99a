"""Closed-form ensemble averages for Haar-random bipartite pure states.

Every entropy closed form here is a signed sum of *entropy parts* ``(s, m,
n, p)`` of one size ``mn``, each worth ``<S> = ln m + (1 - m^p)/(2mn) -
r(mn) + r(n)`` with ``r(z) = ln z + 1/(2z) - psi(z+1)`` the Binet
remainder: ``p = 2`` is Page's entropy of the smaller factor ``m`` of ``m x
n``, ``p = 1`` the Shannon entropy of ``m`` diagonal cells of concentration
``n``.  ``<I>`` is ``S_A + S_B - S_AB`` on the sorted factor pairs, its
diagonal part the same with ``p = 1`` on the unsorted ones, and its
eigenvector part the difference.  The binary64 evaluator sums parts in one
``fsum`` over the poles whose signs do not cancel, so no ``ln N``-sized
terms cancel and O(1/N) values stay accurate in *relative* terms.  The
rational one sums ``H_mn - H_n - (m^(p-1) - 1)/(2n)``, pairing harmonic
numbers into ranges each summed once, with no state kept between calls;
``<I>`` telescopes the ``H_N`` its three Page entropies share.

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


def _check_sizes(m: int, n: int, route: str | None = None) -> None:
    """Check ``m, n >= 1``; a binary64 ``route`` needs ``m n < 2**1024``."""
    _require_int("m", m, 1, InvalidDimensionError)
    _require_int("n", n, 1, InvalidDimensionError)
    if route and m * n >= _N_LIMIT:
        raise DomainError(f"{route} requires m*n < 2**1024, got "
                          f"{(m * n).bit_length()} bits")


def _float_value(parts: tuple) -> float:
    """Binary64 value of the parts: one ``fsum`` of ``ln prod m^s`` and
    ``sum s(1 - m^p) / (2mn)``, each rounded once, and ``s r(z)`` for each
    pole (``-s`` at ``mn``, ``+s`` at ``n``) whose net sign is not 0."""
    num = den = 1
    rational = net = 0
    poles: dict[int, int] = {}
    for s, m, n, p in parts:
        if s > 0:
            num *= m
        else:
            den *= m
        rational += s * (1 - m**p)
        net += s
        poles[n] = poles.get(n, 0) + s
    poles[m * n] = poles.get(m * n, 0) - net
    try:
        log = math.log(num / den)
    except OverflowError:  # the ratio rounds up to 2**1024
        log = math.log(num) - math.log(den)
    remainders = [s * _psi_remainder(z) for z, s in poles.items() if s]
    return math.fsum([log, rational / (2 * m * n), *remainders])


def _rational_value(parts: tuple) -> Fraction:
    """Exact ``sum s(H_mn - H_n - (m^(p-1) - 1)/(2n))``: the shared ``H_mn``
    enters once with its net sign, and the harmonic numbers added and those
    taken are paired in sorted order into ranges (of length 0 too)."""
    size = parts[0][1] * parts[0][2]
    net = sum(s for s, _, _, _ in parts)
    added = [size] * net + [n for s, _, n, _ in parts if s < 0]
    taken = [size] * -net + [n for s, _, n, _ in parts if s > 0]
    ranges = zip(sorted(added), sorted(taken))
    correction = sum(Fraction(s * (m ** (p - 1) - 1), 2 * n) for s, m, n, p in parts)
    return sum(harmonic_rational(x, y) for x, y in ranges) - correction


def _mutual_parts(dims: Dimensions, p: int, sort: bool, sign: int = 1) -> tuple:
    """``sign (S_A + S_B - S_AB)`` as parts of power ``p`` on the factor
    pairs ``(d_a, d_b d_e)``, ``(d_b, d_a d_e)`` and ``(d_a d_b, d_e)``,
    each of size ``N``: ``p = 2`` on the sorted pairs is ``<I>``, ``p = 1``
    on the unsorted pairs its diagonal part."""
    d_a, d_b, d_e = dims.d_a, dims.d_b, dims.d_e
    pairs = ((d_a, d_b * d_e), (d_b, d_a * d_e), (d_a * d_b, d_e))
    if sort:
        pairs = [(m, n) if m <= n else (n, m) for m, n in pairs]
    (m_a, n_a), (m_b, n_b), (m_c, n_c) = pairs
    return ((sign, m_a, n_a, p), (sign, m_b, n_b, p), (-sign, m_c, n_c, p))


@dataclass(frozen=True)
class MutualInformationBreakdown:
    """Exact average mutual information split into its two physical parts.

    total:    <I(A:B)> = i_diag + delta_ev (this identity holds bitwise).
    i_diag:   average mutual information of the *diagonal* (classical)
              distribution in a product basis.
    delta_ev: the eigenvector / basis-optimisation contribution, the
              ``<I>`` parts less the diagonal ones, summed once.
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
    _check_sizes(m, n, "page_entropy")
    return _float_value(((1, *sorted((m, n)), 2),))


def page_entropy_rational(m: int, n: int) -> Fraction:
    """Exact rational counterpart of :func:`page_entropy`
    (``H_{mn} - H_hi - (lo-1)/(2 hi)``)."""
    _check_sizes(m, n)
    return _rational_value(((1, *sorted((m, n)), 2),))


def diagonal_entropy_avg(m: int, n: int) -> float:
    """Average Shannon entropy of the diagonal ``psi(mn+1) - psi(n+1)``,
    evaluated as ``ln m + (1 - m)/(2mn) - r(mn) + r(n)``; ``m n`` must be
    below ``2**1024``."""
    _check_sizes(m, n, "diagonal_entropy_avg")
    return _float_value(((1, m, n, 1),))


def diagonal_entropy_avg_rational(m: int, n: int) -> Fraction:
    """Exact rational counterpart of :func:`diagonal_entropy_avg`."""
    _check_sizes(m, n)
    return _rational_value(((1, m, n, 1),))


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


def i_diag_rational(dims: Dimensions) -> Fraction:
    """Exact rational diagonal mutual information
    ``(H_N - H_{N/d_a}) - (H_{N/d_b} - H_{N/(d_a d_b)})``."""
    return _rational_value(_mutual_parts(dims, 1, sort=False))


def mutual_information_rational(dims: Dimensions) -> Fraction:
    """Exact rational ``<I(A:B)> = <S_A> + <S_B> - <S_AB>`` (both regimes)
    with the shared ``H_N`` cancelled: two harmonic ranges, at most ``(N-a)
    + |b-c|`` terms (``a, b, c`` the larger factors of S_A, S_B, S_AB)."""
    return _rational_value(_mutual_parts(dims, 2, sort=True))


def _split(dims: Dimensions, sort: bool) -> tuple[float, float]:
    """``(i_diag, delta_ev)``: the diagonal parts, and the ``<I>`` parts (on
    the sorted or unsorted pairs) with the diagonal parts negated."""
    negated = _mutual_parts(dims, 1, sort=False, sign=-1)
    return (_float_value(_mutual_parts(dims, 1, sort=False)),
            _float_value(_mutual_parts(dims, 2, sort) + negated))


def forced_factorised_value(dims: Dimensions) -> float:
    """The factorised-regime closed form ``i_diag + (su - cartan)/(2N)``: the
    split of :func:`mutual_information_exact` on the unsorted factor pairs.
    In the swapped regime this is *not* the mutual information; it is
    exposed so the size of the regime discontinuity can be quantified."""
    i_diag, delta_ev = _split(dims, sort=False)
    return i_diag + delta_ev


def mutual_information_exact(dims: Dimensions) -> MutualInformationBreakdown:
    """Average mutual information with its diagonal/eigenvector split.

    In the factorised regime the sorted pairs are the unsorted ones, so
    every pole of ``delta_ev`` cancels, leaving ``(su - cartan)/(2N)``.  No
    second route is run here: ``haarmi verify`` checks the rational one.
    """
    i_diag, delta_ev = _split(dims, sort=True)
    total = i_diag + delta_ev
    su = casimir_counts(dims).su_product
    # One correctly rounded integer division: float(su) overflows from 2**1024.
    num, den = total.as_integer_ratio()
    g_value = num / (den * su) if dims.factorised_regime and su else None
    return MutualInformationBreakdown(
        dims=dims, total=total, i_diag=i_diag, delta_ev=delta_ev, g_value=g_value
    )
