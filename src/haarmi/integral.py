"""Convergent integral representation of the average mutual information.

Summing the divergent large-N expansion term by term under the integral
sign (Borel style) turns the Bernoulli coefficients back into the
Bose-Einstein kernel ``1/(e^{2 pi t} - 1)`` and yields, in the factorised
regime ``d_a d_b <= d_e``, the exact closed form

    <I(A:B)> = (d_a^2-1)(d_b^2-1) * ( 1/(2N) - 2*J ),

    J = integral_0^inf R(u) / (e^{2 pi d_e u} - 1) du,

    R(u) = u (C^2 - u^4) / ((u^2+1)(u^2+d_a^2)(u^2+d_b^2)(u^2+C^2)),

with ``C = d_a d_b``.  Since ``J > 0``, the leading order ``su/(2N)`` is a
strict upper bound.  The kernel obeys the scale inversion
``R(C/u) * C/u^2 = -R(u)``, so folding the domain at ``u = sqrt(C)`` gives
an everywhere non-negative integrand on ``(0, sqrt(C)]``:

    J = integral_0^{sqrt(C)} R(u) [f(u) - f(C/u)] du,   f(x) = 1/(e^{2 pi d_e x} - 1).

All quadratures are composite 32-point Gauss-Legendre with panel doubling
until two successive refinements differ by at most ``tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dims import Dimensions, casimir_counts, leading_order
from .errors import DegeneratePoleError, DomainError, NonConvergenceError

#: Hard cap on integrand evaluations per quadrature call.
EVAL_BUDGET = 1_000_000

_GL_ORDER = 32
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

#: Bose-Einstein factors below exp(-_EXP_CUT) are flushed to zero.
_EXP_CUT = 700.0


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a converged adaptive quadrature (failure to converge raises
    :class:`NonConvergenceError` instead of returning).

    error_estimate is the difference between the last two panel
    refinements; evaluations counts every integrand evaluation made.
    """

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class PartialFractionForm:
    """Four-pole decomposition ``R(u) = c * sum_i s_i * u / (u^2 + p_i^2)``
    with poles ``p = (1, d_a, d_b, d_a d_b)``, signs ``s = (+1, -1, -1, +1)``
    and common factor ``c = 1 / ((d_a^2-1)(d_b^2-1))``."""

    poles: tuple[float, float, float, float]
    signs: tuple[int, int, int, int]
    common_factor: float


def _composite_gauss(
    fn: Callable[[np.ndarray], np.ndarray],
    upper: float,
    tol: float,
) -> QuadratureResult:
    """Composite Gauss-Legendre on (0, upper] with panel-count doubling,
    within ``EVAL_BUDGET`` integrand evaluations."""
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tolerance must be a positive finite real, got {tol!r}")
    previous = None
    panels = 2
    evaluations = 0
    while True:
        if evaluations + panels * _GL_ORDER > EVAL_BUDGET:
            raise NonConvergenceError(
                f"quadrature exceeded {EVAL_BUDGET} evaluations without two "
                f"refinements agreeing to {tol:g}"
            )
        edges = np.linspace(0.0, upper, panels + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * upper / panels
        points = centers[:, None] + half * _GL_NODES[None, :]
        values = fn(points.ravel()).reshape(panels, _GL_ORDER)
        evaluations += points.size
        total = half * float(np.sum(values @ _GL_WEIGHTS))
        if previous is not None:
            drift = abs(total - previous)
            if drift <= tol:
                return QuadratureResult(
                    value=total, error_estimate=drift, evaluations=evaluations
                )
        previous = total
        panels *= 2


def binet_tail(z: float, tol: float = 1e-14) -> QuadratureResult:
    """Tail integral ``integral_0^inf t / ((t^2 + z^2)(e^{2 pi t} - 1)) dt``.

    This is the correction term of the log-plus-half asymptotic of the
    digamma function: ``psi(z+1) = ln z + 1/(2z) - 2 * binet_tail(z)``
    for every real ``z > 0``.  It decays like ``1/(24 z^2)``.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"binet_tail requires finite z > 0, got {z!r}")
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tolerance must be a positive finite real, got {tol!r}")
    z2 = z * z
    upper = max(1.0, math.log(10.0 / tol) / (2.0 * math.pi))

    def integrand(t: np.ndarray) -> np.ndarray:
        return t / ((t * t + z2) * np.expm1(2.0 * math.pi * t))

    return _composite_gauss(integrand, upper, tol)


def kernel_R(u: float, dims: Dimensions) -> float:
    """Rational kernel ``u (C^2-u^4) / ((u^2+1)(u^2+d_a^2)(u^2+d_b^2)(u^2+C^2))``.

    Positive on (0, C^{1/2}), negative beyond, and antisymmetric under the
    scale inversion ``u -> C/u`` with weight ``C/u^2``.
    """
    return float(_kernel_np(np.asarray(float(u)), dims))


def _kernel_np(u: np.ndarray, dims: Dimensions) -> np.ndarray:
    a2 = float(dims.d_a * dims.d_a)
    b2 = float(dims.d_b * dims.d_b)
    c = float(dims.d_a * dims.d_b)
    u2 = u * u
    return (
        u
        * (c * c - u2 * u2)
        / ((u2 + 1.0) * (u2 + a2) * (u2 + b2) * (u2 + c * c))
    )


def partial_fractions(dims: Dimensions) -> PartialFractionForm:
    """Pole decomposition of :func:`kernel_R`; requires the four poles
    ``1, d_a, d_b, d_a d_b`` to be pairwise distinct."""
    d_a, d_b = dims.d_a, dims.d_b
    if d_a == 1 or d_b == 1 or d_a == d_b:
        raise DegeneratePoleError(
            f"poles (1, {d_a}, {d_b}, {d_a * d_b}) are not pairwise distinct"
        )
    su = casimir_counts(dims).su_product
    return PartialFractionForm(
        poles=(1.0, float(d_a), float(d_b), float(d_a * d_b)),
        signs=(1, -1, -1, 1),
        common_factor=1.0 / su,
    )


def _bose_factor(x: np.ndarray) -> np.ndarray:
    """``1/(e^x - 1)`` flushed to zero once e^x overflows binary64 range."""
    clipped = np.minimum(x, _EXP_CUT)
    return np.where(x < _EXP_CUT, 1.0 / np.expm1(clipped), 0.0)


def _folded_np(u: np.ndarray, dims: Dimensions) -> np.ndarray:
    c = float(dims.d_a * dims.d_b)
    scale = 2.0 * math.pi * dims.d_e
    bracket = _bose_factor(scale * u) - _bose_factor(scale * (c / u))
    return _kernel_np(u, dims) * bracket


def folded_integrand(u: float, dims: Dimensions) -> float:
    """Folded, non-negative integrand ``R(u) [f(u) - f(C/u)]`` on
    ``(0, sqrt(C)]``; exactly zero at the fold point ``u = sqrt(C)``."""
    u = float(u)
    c = float(dims.d_a * dims.d_b)
    fold = math.sqrt(c)
    if not (0.0 < u <= fold):
        raise DomainError(
            f"folded integrand is defined on (0, {fold!r}], got u={u!r}"
        )
    if u == fold:
        return 0.0
    return float(_folded_np(np.asarray(u), dims))


def compute_J(dims: Dimensions, tol: float = 1e-14) -> QuadratureResult:
    """The positive integral ``J`` via the folded representation.

    Refused for ``d_a = 1`` or ``d_b = 1``: there the prefactor
    ``(d_a^2-1)(d_b^2-1)`` vanishes, every caller short-circuits to zero,
    and the pole structure degenerates.  Equal dimensions ``d_a == d_b``
    are fine (the integral itself has no repeated-pole problem).
    """
    if dims.d_a == 1 or dims.d_b == 1:
        raise DegeneratePoleError(
            "J is not needed when a dimension is 1 (its prefactor vanishes)"
        )
    fold = math.sqrt(float(dims.d_a * dims.d_b))
    return _composite_gauss(lambda u: _folded_np(u, dims), fold, tol)


def mutual_information_integral(dims: Dimensions, tol: float = 1e-14) -> float:
    """Average mutual information via ``su * (1/(2N) - 2 J)``, i.e. the
    leading order minus :func:`bound_deficit`.

    Only valid in the factorised regime ``d_a d_b <= d_e``
    (:class:`RegimeError` otherwise); exactly zero (without quadrature)
    when either dimension is 1.
    """
    return leading_order(dims) - bound_deficit(dims, tol)


def bound_deficit(dims: Dimensions, tol: float = 1e-14) -> float:
    """Gap ``leading_order - <I> = 2 su J``, strictly positive whenever
    both dimensions exceed 1; quantifies the strict upper bound
    ``<I> < (d_a^2-1)(d_b^2-1)/(2N)``."""
    dims.require_factorised("integral")
    if dims.d_a == 1 or dims.d_b == 1:
        return 0.0
    su = casimir_counts(dims).su_product
    return 2.0 * su * compute_J(dims, tol).value
