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
Its nodes and Bose denominators depend on the tolerance alone: each
refinement level is tabulated on first use, in a bounded cache, and the
first pair of levels (2 and 4 panels) is one integrand call on 192 nodes.
The Gauss-Legendre rule itself is built at import in pure Python; numpy is
imported at the first quadrature, so importing this module loads none.

Since ``J > 0``, the leading order ``su/(2N)`` is a strict upper bound.  The
witness: ``R(C/u) * C/u^2 = -R(u)``, so folding at ``u = sqrt(C)`` gives an
everywhere non-negative integrand, ``f(x) = 1/(e^{2 pi d_e x} - 1)``:

    J = integral_0^{sqrt(C)} R(u) [f(u) - f(C/u)] du.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import TYPE_CHECKING, Callable

from .dims import Dimensions, casimir_counts, leading_order
from .errors import DomainError, NonConvergenceError

if TYPE_CHECKING:
    import numpy as np

#: The largest binary64, as an integer: the bound on every integer the
#: integral route converts to float (``float()`` overflows just above it).
_FLOAT_MAX = int(sys.float_info.max)

#: Hard cap on integrand evaluations per quadrature call.
EVAL_BUDGET = 1_000_000

#: Bose-Einstein factors below exp(-_EXP_CUT) are flushed to zero.
_EXP_CUT = 700.0

#: Levels of up to this many panels (8192 nodes, 128 KiB of tables) are
#: cached by :func:`_nodes`; deeper ones are built per call.
_CACHED_PANELS = 256


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """n-point Gauss-Legendre rule, correctly rounded: float Newton on the
    Legendre recurrence from ``cos(pi (i - 1/4) / (n + 1/2))``, all roots
    stepped together until every step is below 1e-15, then two Newton
    passes in 34-digit decimals, then weights ``2(1-x^2)/(n P_{n-1}(x))^2``."""
    roots = [math.cos(math.pi * (i - 0.25) / (n + 0.5)) for i in range(1, n + 1)]
    step = [1.0]
    while max(map(abs, step)) > 1e-15:
        step = []
        for x in roots:
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            step.append(p1 * (1 - x * x) / (n * (p0 - x * p1)))
        roots = [x - dx for x, dx in zip(roots, step)]
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 34
        for guess in sorted(roots):
            x = Decimal(guess)
            for _ in range(2):  # the second pass re-evaluates P at the root
                p0, p1 = Decimal(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                x -= p1 * (1 - x * x) / (n * (p0 - x * p1))
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * p0) ** 2))
    return tuple(nodes), tuple(weights)


_GL_ORDER = 32
#: Built at import, in pure Python (~3 ms): deferring it to the first
#: quadrature would put the Decimal passes inside that call.
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(_GL_ORDER)


@functools.cache
def _gl_arrays() -> tuple[np.ndarray, np.ndarray]:
    """Read-only numpy copies of ``_GL_NODES`` and ``_GL_WEIGHTS``, made
    once, at the first quadrature (the first import of numpy here)."""
    import numpy as np

    nodes, weights = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a converged quadrature (failure to converge raises
    :class:`NonConvergenceError` instead). error_estimate is the difference
    between the last two panel refinements, floored at 8 ulp of the value
    for rounding; evaluations counts every integrand evaluation made."""

    value: float
    error_estimate: float
    evaluations: int


@functools.lru_cache(maxsize=16)
def _nodes(
    upper: float, *levels: int
) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """Panel half-widths, nodes ``t`` and Bose denominators ``expm1(2 pi t)``
    of the composite rules with the given panel counts on ``(0, upper]``,
    joined level after level (panel k of a level is ``[2k, 2k+2] * half``).
    The arrays are read-only: every call with the same tolerance shares
    them.  Cached levels have at most ``_CACHED_PANELS`` panels, so the 16
    entries hold at most 2 MiB."""
    import numpy as np

    gl_nodes, _ = _gl_arrays()
    halves = tuple(0.5 * upper / panels for panels in levels)
    parts = [
        (half * (2.0 * np.arange(panels)[:, None] + 1.0 + gl_nodes)).ravel()
        for half, panels in zip(halves, levels)
    ]
    t = np.concatenate(parts)
    bose = np.concatenate([np.expm1(2.0 * math.pi * part) for part in parts])
    t.flags.writeable = bose.flags.writeable = False
    return halves, t, bose


def _bose_quad(g: Callable[[np.ndarray], np.ndarray], tol: float) -> QuadratureResult:
    """``integral_0^inf g(t) / (e^{2 pi t} - 1) dt`` for g analytic near the
    real axis, by composite Gauss-Legendre on ``(0, T]``,
    ``T = ln(1000/tol)/(2 pi)`` (clamped so ``e^{2 pi T}`` stays finite).
    Panels double until two refinements differ by less than ``tol``
    relative (a tolerance that underflows to 0 is never met), within
    ``EVAL_BUDGET`` integrand evaluations.  ``tol`` must lie in (0, 1): a
    relative tolerance of 1 accepts any value, and past 1000 T is negative.

    The nodes and Bose denominators depend on ``tol`` alone, so each level
    is tabulated on first use (:func:`_nodes`).  The first refinement pair,
    2 and 4 panels, is tabulated and evaluated together: one call of ``g``
    on 192 nodes, with the budget checked for all of them before it."""
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must be in (0, 1), got {tol!r}")
    upper = min(math.log(1000.0 / tol), _EXP_CUT) / (2.0 * math.pi)
    _, gl_weights = _gl_arrays()
    previous = None
    levels = (2, 4)
    evaluations = 0
    while True:
        count = sum(levels) * _GL_ORDER
        if evaluations + count > EVAL_BUDGET:
            raise NonConvergenceError(
                f"quadrature exceeded {EVAL_BUDGET} evaluations without two "
                f"refinements agreeing to {tol:g} relative"
            )
        tabulate = _nodes if levels[-1] <= _CACHED_PANELS else _nodes.__wrapped__
        halves, t, bose = tabulate(upper, *levels)
        rows = (g(t) / bose).reshape(-1, _GL_ORDER)
        evaluations += count
        start = 0
        for half, panels in zip(halves, levels):
            total = half * float((rows[start:start + panels] @ gl_weights).sum())
            start += panels
            if previous is not None:
                drift = abs(total - previous)
                if drift < tol * abs(total):
                    error = max(drift, 8.0 * math.ulp(total))
                    return QuadratureResult(total, error, evaluations)
            previous = total
        levels = (2 * levels[-1],)


def binet_tail(z: float, tol: float = 1e-14) -> QuadratureResult:
    """Tail integral ``integral_0^inf t / ((t^2 + z^2)(e^{2 pi t} - 1)) dt``.

    This is the correction term of the log-plus-half asymptotic of the
    digamma function: ``psi(z+1) = ln z + 1/(2z) - 2 * binet_tail(z)``
    for every real ``z > 0``.  It decays like ``1/(24 z^2)``.

    ``z*z`` must be finite, so ``z`` is at most about 1.34e154
    (:class:`DomainError` beyond, where the integrand would read 0).  The
    value is subnormal from about 1.4e153 (2.89e-310 at 1.2e154), and near
    the bound two refinements may no longer agree to ``tol``
    (:class:`NonConvergenceError`).
    """
    try:
        z = float(z)
    except OverflowError:  # an integer beyond binary64
        z = math.inf
    z2 = z * z
    if not (z > 0.0 and math.isfinite(z2)):
        raise DomainError(
            f"binet_tail requires z > 0 with z*z finite (z < 1.34e154), "
            f"got {z!r}"
        )
    return _bose_quad(lambda t: t / (t * t + z2), tol)


def _binary64(name: str, value: int) -> float:
    """``float(value)``, or :class:`DomainError` naming the limit where that
    would overflow."""
    if value > _FLOAT_MAX:
        raise DomainError(f"the integral route needs {name} to fit binary64 "
                          f"(at most ~1.8e308), got {value.bit_length()} bits")
    return float(value)


def _c_float(dims: Dimensions) -> float:
    """``C = d_a d_b`` in binary64, checked through the kernel's constants:
    ``C^2``, which it forms as ``c * c``, and its denominator at ``u = 0``,
    ``d_a^2 d_b^2 C^2 = C^4``, formed as :func:`kernel_R` forms it.  Near
    ``u = 0``, where J lives, the denominator is that constant, so once it
    overflows the integrand reads 0 everywhere."""
    c = dims.d_a * dims.d_b
    _binary64("C^2 = (d_a d_b)^2", c * c)
    c_float = float(c)
    if math.isinf(float(dims.d_a**2) * float(dims.d_b**2) * (c_float * c_float)):
        raise DomainError(
            f"the integral route needs C^4 = (d_a d_b)^4 to fit binary64 "
            f"(C below 2**256), got C with {c.bit_length()} bits"
        )
    return c_float


def kernel_R(u: float | np.ndarray, dims: Dimensions) -> float | np.ndarray:
    """Rational kernel ``u (C^2-u^4) / ((u^2+1)(u^2+d_a^2)(u^2+d_b^2)(u^2+C^2))``
    at a real ``u`` or elementwise on an array.

    Positive on (0, C^{1/2}), negative beyond, and antisymmetric under the
    scale inversion ``u -> C/u`` with weight ``C/u^2``.  ``C^4``, its
    denominator at ``u = 0``, must fit binary64, so C is below ``2**256``
    (:class:`DomainError` otherwise).
    """
    c = _c_float(dims)
    a2 = float(dims.d_a * dims.d_a)
    b2 = float(dims.d_b * dims.d_b)
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
    c = _c_float(dims)
    fold = math.sqrt(c)
    if not (0.0 < u <= fold):
        raise DomainError(
            f"folded integrand is defined on (0, {fold!r}], got u={u!r}"
        )
    if u == fold:
        return 0.0
    scale = 2.0 * math.pi * _binary64("d_e", dims.d_e)
    return kernel_R(u, dims) * (_bose_factor(scale * u) - _bose_factor(scale * c / u))


def compute_J(dims: Dimensions, tol: float = 1e-14) -> QuadratureResult:
    """The positive integral ``J``: the quadrature in ``t = d_e u`` with
    value and error divided by ``d_e``, the error floored at 8 ulp of the
    returned value, so a J that underflows still carries an honest error;
    ``tol`` is relative.  Defined for every triple whose ``C^4`` and ``d_e``
    fit binary64 (C below ``2**256``), and finite when a dimension is 1;
    :class:`DomainError` otherwise."""
    d_e = _binary64("d_e", dims.d_e)
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
