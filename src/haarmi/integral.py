"""Convergent integral representation of the average mutual information.

Summing the divergent large-N expansion term by term under the integral
sign (Borel style) turns the Bernoulli coefficients back into the
Bose-Einstein kernel and yields, in the factorised regime
``d_a d_b <= d_e``, the exact closed form

    <I(A:B)> = (d_a^2-1)(d_b^2-1) * ( 1/(2N) - 2*J ),

    J = integral_0^inf R(u) / (e^{2 pi d_e u} - 1) du
      = (1/d_e) integral_0^inf R(t/d_e) / (e^{2 pi t} - 1) dt,
    R(u) = u (C^2 - u^4) / ((u^2+1)(u^2+d_a^2)(u^2+d_b^2)(u^2+C^2)),

with ``C = d_a d_b``.  In ``t = d_e u`` each partial fraction of R is a
Binet tail (:func:`binet_tail` at ``z = p d_e``) and the weight has unit
width for every ``d_e``, so ``J`` and ``binet_tail`` share one quadrature.

Since ``J > 0``, the leading order ``su/(2N)`` is a strict upper bound.  The
witness: ``R(C/u) * C/u^2 = -R(u)``, so folding at ``u = sqrt(C)`` gives an
everywhere non-negative integrand, ``f(x) = 1/(e^{2 pi d_e x} - 1)``:

    J = integral_0^{sqrt(C)} R(u) [f(u) - f(C/u)] du.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable

import numpy as np

from .dims import Dimensions, casimir_counts, leading_order
from .errors import DomainError, NonConvergenceError

#: Hard cap on integrand evaluations per quadrature call.
EVAL_BUDGET = 1_000_000

#: Bose-Einstein factors below exp(-_EXP_CUT) are flushed to zero.
_EXP_CUT = 700.0


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule, correctly rounded: Newton on the Legendre
    recurrence in 34-digit decimals from numpy's nodes, then weights
    ``2(1-x^2)/(n P_{n-1}(x))^2`` (numpy's are 6e-14 off near the ends)."""
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 34
        for guess in np.polynomial.legendre.leggauss(n)[0]:
            x = Decimal(float(guess))
            for _ in range(2):  # the second pass re-evaluates P at the root
                p0, p1 = Decimal(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                x -= p1 * (1 - x * x) / (n * (p0 - x * p1))
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * p0) ** 2))
    return np.array(nodes), np.array(weights)


_GL_ORDER = 32
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(_GL_ORDER)


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a converged quadrature (failure to converge raises
    :class:`NonConvergenceError` instead). error_estimate is the difference
    between the last two panel refinements, floored at 8 ulp of the value
    for rounding; evaluations counts every integrand evaluation made."""

    value: float
    error_estimate: float
    evaluations: int


def _bose_quad(g: Callable[[np.ndarray], np.ndarray], tol: float) -> QuadratureResult:
    """``integral_0^inf g(t) / (e^{2 pi t} - 1) dt`` for g analytic near the
    real axis, by composite Gauss-Legendre on ``(0, T]``,
    ``T = ln(1000/tol)/(2 pi)`` (clamped so ``e^{2 pi T}`` stays finite).
    Panels double until two refinements differ by less than ``tol``
    relative (a tolerance that underflows to 0 is never met), within
    ``EVAL_BUDGET`` integrand evaluations.  ``tol`` must lie in (0, 1): a
    relative tolerance of 1 accepts any value, and past 1000 T is negative."""
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must be in (0, 1), got {tol!r}")
    upper = min(math.log(1000.0 / tol), _EXP_CUT) / (2.0 * math.pi)
    previous = None
    panels = 2
    evaluations = 0
    while True:
        if evaluations + panels * _GL_ORDER > EVAL_BUDGET:
            raise NonConvergenceError(
                f"quadrature exceeded {EVAL_BUDGET} evaluations without two "
                f"refinements agreeing to {tol:g} relative"
            )
        half = 0.5 * upper / panels  # panel k is [2k, 2k+2] * half
        t = (half * (2.0 * np.arange(panels)[:, None] + 1.0 + _GL_NODES)).ravel()
        values = (g(t) / np.expm1(2.0 * math.pi * t)).reshape(panels, _GL_ORDER)
        evaluations += t.size
        total = half * float(np.sum(values @ _GL_WEIGHTS))
        if previous is not None:
            drift = abs(total - previous)
            if drift < tol * abs(total):
                error = max(drift, 8.0 * math.ulp(total))
                return QuadratureResult(total, error, evaluations)
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
    z2 = z * z
    return _bose_quad(lambda t: t / (t * t + z2), tol)


def kernel_R(u: float | np.ndarray, dims: Dimensions) -> float | np.ndarray:
    """Rational kernel ``u (C^2-u^4) / ((u^2+1)(u^2+d_a^2)(u^2+d_b^2)(u^2+C^2))``
    at a real ``u`` or elementwise on an array.

    Positive on (0, C^{1/2}), negative beyond, and antisymmetric under the
    scale inversion ``u -> C/u`` with weight ``C/u^2``.
    """
    a2 = float(dims.d_a * dims.d_a)
    b2 = float(dims.d_b * dims.d_b)
    c = float(dims.d_a * dims.d_b)
    u2 = u * u
    return (
        u
        * (c * c - u2 * u2)
        / ((u2 + 1.0) * (u2 + a2) * (u2 + b2) * (u2 + c * c))
    )


def _bose_factor(x: float) -> float:
    """``1/(e^x - 1)`` flushed to zero once e^x nears the binary64 range."""
    return 1.0 / math.expm1(x) if x < _EXP_CUT else 0.0


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
    scale = 2.0 * math.pi * dims.d_e
    return kernel_R(u, dims) * (_bose_factor(scale * u) - _bose_factor(scale * c / u))


def compute_J(dims: Dimensions, tol: float = 1e-14) -> QuadratureResult:
    """The positive integral ``J``: the quadrature in ``t = d_e u`` with
    value and error divided by ``d_e``, the error floored at 8 ulp of the
    returned value, so a J that underflows still carries an honest error;
    ``tol`` is relative.  Defined for every triple (R is finite when a
    dimension is 1)."""
    d_e = float(dims.d_e)
    t_form = _bose_quad(lambda t: kernel_R(t / d_e, dims), tol)
    value = t_form.value / d_e
    error = max(t_form.error_estimate / d_e, 8.0 * math.ulp(value))
    return QuadratureResult(value, error, t_form.evaluations)


def mutual_information_integral(dims: Dimensions, tol: float = 1e-14) -> float:
    """Average mutual information via ``su * (1/(2N) - 2 J)``, i.e. the
    leading order minus :func:`bound_deficit`.

    Only valid in the factorised regime ``d_a d_b <= d_e``
    (:class:`RegimeError` otherwise); exactly zero when a dimension is 1.
    """
    return leading_order(dims) - bound_deficit(dims, tol)


def bound_deficit(dims: Dimensions, tol: float = 1e-14) -> float:
    """Gap ``leading_order - <I> = 2 su J`` of the strict upper bound
    ``<I> < (d_a^2-1)(d_b^2-1)/(2N)``: positive when both dimensions exceed
    1, exactly 0 (``su = 0``) otherwise."""
    dims.require_factorised("integral")
    su = casimir_counts(dims).su_product
    return 2.0 * su * compute_J(dims, tol).value
