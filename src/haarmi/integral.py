"""Convergent integral representation of the average mutual information.

Summing the divergent large-N expansion term by term under the integral
sign (Borel style) turns the Bernoulli coefficients back into the
Bose-Einstein kernel and yields, in the factorised regime
``d_a d_b <= d_e``, the exact closed form

    <I(A:B)> = (d_a^2-1)(d_b^2-1) * ( 1/(2N) - 2*J ),

    J = integral_0^inf R(u) / (e^{2 pi d_e u} - 1) du,
    R(u) = u (C^2 - u^4) / ((u^2+1)(u^2+d_a^2)(u^2+d_b^2)(u^2+C^2)),

with ``C = d_a d_b``.  The scale of R is ``u/C^2`` (:func:`_kernel_h`),
so in ``t = d_e u``

    J = Jhat / (C d_e)^2,   Jhat = integral_0^inf t h(t/d_e) / (e^{2 pi t} - 1) dt,

where the weight has unit width and ``t h`` is O(1) for every accepted
triple; the scale returns as one product, which underflows J to 0 once
``C d_e`` passes about ``2**537``.  Each partial fraction of R is a Binet
tail (:func:`binet_tail` at ``z = p d_e``), scaled the same way, so ``J``
and ``binet_tail`` share one quadrature with an a-priori error bound
(:func:`_bose_quad`): one integrand call per block of rows on panels fixed
in advance.  A row is one integral, and every J row shares the panels, so
``sweep`` gets the J of all its rows from one call (:func:`_j_rows`);
``compute_J`` and ``binet_tail`` are its one-row case.
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
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import TYPE_CHECKING, Callable

from .dims import Dimensions, casimir_counts, leading_order
from .errors import DomainError, NonConvergenceError

if TYPE_CHECKING:
    import numpy as np

#: Default relative tolerance of every quadrature here and of ``--tol``.
_TOL_DEFAULT = 1e-14

#: Bose-Einstein factors below exp(-_EXP_CUT) are flushed to zero.
_EXP_CUT = 700.0


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
    """Value of a quadrature, error_estimate an a-priori bound on its error
    (:func:`_bose_quad`), and evaluations the integrand evaluations made."""

    value: float
    error_estimate: float
    evaluations: int


#: Bernstein ellipse, and panel bound per half-width and majorant (_bose_quad).
_RHO = 2.4
_PANEL_BOUND = 64 / 15 * 8 * _RHO ** (2 - 2 * _GL_ORDER) / (_RHO**2 - 1)


def _plan(upper: float, pole: float) -> tuple[tuple[float, float, int], ...]:
    """Panels on ``(0, upper]`` as runs ``(lower, half, count)``: if the
    nearest pole z is below 1, geometric panels ``[0, z], [z, 2z], ...``
    below 1, then the fewest equal panels of width at most 2."""
    runs, lower = [], 0.0
    if pole < 1:
        runs, lower = [(0.0, 0.5 * pole, 1)], float(pole)
        while 2.0 * lower < 1.0:
            runs.append((lower, 0.5 * lower, 1))
            lower *= 2.0
    count = math.ceil((upper - lower) / 2.0)
    runs.append((lower, 0.5 * (upper - lower) / count, count))
    return tuple(runs)


def _tabulate(runs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes ``t`` and Bose denominators ``expm1(2 pi t)`` of a plan."""
    import numpy as np

    gl_nodes, _ = _gl_arrays()
    t = np.concatenate([
        (lower + half * (2.0 * np.arange(count)[:, None] + 1.0 + gl_nodes)).ravel()
        for lower, half, count in runs
    ])
    bose = np.expm1(2.0 * math.pi * t)
    t.flags.writeable = bose.flags.writeable = False
    return t, bose


#: The equal panels on ``(0, T]``, keyed by T: each tolerance is tabulated
#: once, in 16 entries of at most 1792 nodes; geometric plans, per call.
_equal_panels = functools.lru_cache(maxsize=16)(_tabulate)


#: The most float64 entries a block of rows holds in each temporary of
#: :func:`_bose_quad` (rows times nodes; a block holds at least one row).
_BLOCK_ENTRIES = 2**12


def _bose_quad(
    g: Callable[[np.ndarray, slice], np.ndarray],
    majorant: Callable[[float], float],
    pole: float,
    tol: float,
    scales: Sequence[float],
) -> list[QuadratureResult]:
    """``scale^2 integral_0^inf g(t) / (e^{2 pi t} - 1) dt`` for each row,
    one per scale: 32-point Gauss-Legendre on the panels of :func:`_plan`
    on ``(0, T]``, ``T = min(ln(1000/tol), 700)/(2 pi)``; ``tol`` in (0,
    1).  ``g(t, rows)`` returns the rows ``rows`` (a slice) at the nodes,
    row by row, as ``rows x nodes`` values; the rows share the nodes, and
    so the pole and majorant.  They go through in blocks of at most
    ``_BLOCK_ENTRIES // nodes`` rows (at least one), so no temporary grows
    with the number of rows, and each row's panel sums are one
    matrix-vector product of its own: a row's result does not depend on
    its block, and is bitwise that of a one-row call.

    Each row ``g(t) = t q(t)`` comes with the nearest pole and a
    non-increasing majorant, ``|q(t)| <= majorant(a)`` for real ``t >=
    a``.  The error bound sums the tail, ``majorant(T) (T/(2 pi) + 1/(4
    pi^2)) r/(1 - r)`` with ``r = e^{-2 pi T}`` (``integral_T^inf t/(e^{2
    pi t} - 1) dt`` is ``sum_k r^k
    (T/(2 pi k) + 1/(2 pi k)^2)``), 8 ulp for rounding, and the panels'
    error: n points err by at most ``w (64/15) M rho^(2-2n)/(rho^2 - 1)``
    on a panel of half-width w if the integrand is analytic and bounded by
    M in its Bernstein ellipse (Trefethen, SIAM Rev. 50, 67, 2008, Thm
    4.5).  The poles lie on the imaginary axis, at ``+-ik`` (k >= 1) and
    at or beyond ``+-i pole``; at ``rho = 2.4`` a planned panel's ellipse
    (``w <= 1``) meets that axis only below ``0.7 w``, and only if the
    panel starts at 0.  Sampled there, the integrand stays within ``6.35
    majorant(a)``, ``a`` the panel's left end (worst on ``[0, 2]`` at
    (1,1,1)), so with ``M = 8 majorant(a)`` a panel adds ``_PANEL_BOUND w
    majorant(a)``, about ``1.9e-23 w``: below 1e-19 of every value here.
    So only the tail can miss ``tol``, and :class:`NonConvergenceError` is
    raised, at the first row where it passes ``tol |value|``, which the cap
    on T allows only below tol of about 1e-301.  The tail and panel bounds
    are the same for every row.  The error is floored at 8 ulp of the
    scaled value, so a value that underflows still carries an honest
    error."""
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must be in (0, 1), got {tol!r}")
    upper = min(math.log(1000.0 / tol), _EXP_CUT) / (2.0 * math.pi)
    runs = _plan(upper, pole)
    t, bose = _equal_panels(runs) if len(runs) == 1 else _tabulate(runs)
    _, gl_weights = _gl_arrays()
    bound = 0.0
    for lower, half, count in runs:
        bound += _PANEL_BOUND * count * half * majorant(lower)
    r = math.exp(-2.0 * math.pi * upper)
    tail = majorant(upper) * (upper / (2 * math.pi) + 0.25 / math.pi**2) * r / (1 - r)
    results = []
    step = max(1, _BLOCK_ENTRIES // t.size)
    for start in range(0, len(scales), step):
        rows = slice(start, start + step)
        # (rows, panels, 32) @ (32,) is one matrix-vector product per row; one
        # over the whole block would round a row by its place in the block
        sums = (g(t, rows) / bose).reshape(-1, t.size // _GL_ORDER, _GL_ORDER) @ gl_weights
        for row_sums, scale in zip(sums, scales[rows]):
            value, panels = 0.0, 0
            for _, half, count in runs:
                value += half * float(row_sums[panels:panels + count].sum())
                panels += count
            if tail > tol * abs(value):
                raise NonConvergenceError(f"quadrature tail beyond t = {upper:.4g} is "
                                          f"bounded by {tail:.3g}, above {tol:g} relative")
            error = (tail + bound + 8.0 * math.ulp(value)) * scale * scale
            value = value * scale * scale
            results.append(QuadratureResult(value, max(error, 8.0 * math.ulp(value)), t.size))
    return results


def binet_tail(z: float, tol: float = _TOL_DEFAULT) -> QuadratureResult:
    """Tail integral ``integral_0^inf t / ((t^2 + z^2)(e^{2 pi t} - 1)) dt``.

    This is the correction term of the log-plus-half asymptotic of the
    digamma function: ``psi(z+1) = ln z + 1/(2z) - 2 * binet_tail(z)``
    for every real ``z > 0``.  It decays like ``1/(24 z^2)``, and is
    computed as ``(1/z)^2 integral t / (1 + (t/z)^2) ...``: the integrand
    is O(1) for every ``z``, so a value that underflows reads 0, never
    ``NonConvergenceError``.  Below 1 its pole at ``iz`` nears the real
    axis, and the panels start geometric from z (:func:`_plan`).  ``z``
    may be an int beyond binary64.  At ``z <= 2**-1024`` (about
    5.56e-309, where ``1/z`` overflows) the scale is infinite, and
    :class:`DomainError` is raised; from the next float up the value is
    finite and within its error of ``1/(4z)``.
    """
    if not z > 0:
        raise DomainError(f"binet_tail requires z > 0, got {z!r}")
    inv = 1 / z
    if inv == math.inf:
        raise DomainError(f"binet_tail requires 1/z finite (z > 2**-1024), got {z!r}")
    import numpy as np

    def g(t: np.ndarray, rows: slice) -> np.ndarray:
        # Below z ~ 5e-154, (t * inv) ** 2 overflows to inf, and t / inf = 0
        # is the integrand's value there.
        with np.errstate(over="ignore"):
            return t / (1.0 + (t * inv) ** 2)

    # a * inv * a * inv overflows to inf where (a * inv) ** 2 would raise
    return _bose_quad(g, lambda a: 1.0 / (1.0 + a * inv * a * inv), z, tol, [inv])[0]


def _kernel_coefficients(dims: Dimensions, scale: int) -> tuple[float, ...]:
    """The coefficients ``(k_v, k_1, k_a, k_b, k_c)`` of ``h(x / scale)``
    (:func:`_kernel_h`).  Each is an integer true division (``1/(C
    scale^2)``, ``1/(d_a scale)^2``, ...), so no dimension is converted to
    binary64; one that underflows reads 0, where its term is below 1's
    last bit."""
    c = dims.d_a * dims.d_b
    return (1 / (c * scale * scale),
            *(1 / (d * scale) ** 2 for d in (1, dims.d_a, dims.d_b, c)))


def _kernel_h(x, k_v, k_1, k_a, k_b, k_c):
    """The kernel without its scale, ``R(u) = (u / C^2) h(u)``: with ``v =
    u^2 / C``,

        h(u) = (1 - v)(1 + v) / ((1+u^2)(1+u^2/d_a^2)(1+u^2/d_b^2)(1+u^2/C^2)),

    here ``h(x / scale)`` from :func:`_kernel_coefficients` at that scale,
    as floats or as one column of them per row."""
    x2 = x * x
    v = x2 * k_v
    return (1.0 - v) * (1.0 + v) / (
        (1.0 + x2 * k_1) * (1.0 + x2 * k_a) * (1.0 + x2 * k_b) * (1.0 + x2 * k_c)
    )


def kernel_R(u: float | np.ndarray, dims: Dimensions) -> float | np.ndarray:
    """Rational kernel ``u (C^2-u^4) / ((u^2+1)(u^2+d_a^2)(u^2+d_b^2)(u^2+C^2))``
    at a real ``u`` or elementwise on an array, formed as
    ``(u / C^2) h(u)`` (:func:`_kernel_h` at scale 1), so it is finite
    for every accepted triple.

    Positive on (0, C^{1/2}), negative beyond, and antisymmetric under the
    scale inversion ``u -> C/u`` with weight ``C/u^2``.
    """
    c = dims.d_a * dims.d_b
    return u * (1 / (c * c)) * _kernel_h(u, *_kernel_coefficients(dims, 1))


def _bose_factor(x: float) -> float:
    """``1/(e^x - 1)`` flushed to zero once e^x nears the binary64 range."""
    return 1.0 / math.expm1(x) if x < _EXP_CUT else 0.0


def folded_integrand(u: float, dims: Dimensions) -> float:
    """Folded, non-negative integrand ``R(u) [f(u) - f(C/u)]`` on
    ``(0, sqrt(C)]``; exactly zero at the fold point ``u = sqrt(C)``."""
    u = float(u)
    # C, d_e and N may round up to 2**1024 in binary64; their quarters and
    # halves never do, and scaling back by 2 rounds as the float would.
    fold = 2.0 * math.sqrt(dims.d_a * dims.d_b / 4)
    if not (0.0 < u <= fold):
        raise DomainError(
            f"folded integrand is defined on (0, {fold!r}], got u={u!r}"
        )
    if u == fold:
        return 0.0
    scale = 4.0 * math.pi * (dims.d_e / 2)  # 2 pi d_e
    mirror = 4.0 * math.pi * (dims.n / 2)  # 2 pi d_e C
    return kernel_R(u, dims) * (_bose_factor(scale * u) - _bose_factor(mirror / u))


def compute_J(dims: Dimensions, tol: float = _TOL_DEFAULT) -> QuadratureResult:
    """The positive integral ``J = Jhat / (C d_e)^2`` (module docstring);
    ``tol`` is relative.  The error is floored at 8 ulp of the returned
    value, so a J that underflows reads 0 with an honest error.  Defined
    for every accepted triple, and finite when a dimension is 1."""
    return _j_rows([dims], tol)[0]


def _j_rows(dims_seq: Sequence[Dimensions], tol: float) -> list[QuadratureResult]:
    """:func:`compute_J` of each triple, in order, from one quadrature: a
    row per triple, all on the equal panels, as every pole is at least 1."""
    import numpy as np

    # one row of coefficients per triple, read as columns by the integrand
    coefficients = np.array([_kernel_coefficients(dims, dims.d_e) for dims in dims_seq])

    def g(t: np.ndarray, rows: slice) -> np.ndarray:
        return t * _kernel_h(t, *coefficients[rows].T[:, :, None])

    # |h| <= 1 on the real axis, and its poles lie at +-i d_e {1, d_a, d_b, C}
    return _bose_quad(g, lambda a: 1.0, 1, tol, [1 / dims.n for dims in dims_seq])


def mutual_information_integral(dims: Dimensions, tol: float = _TOL_DEFAULT) -> float:
    """Average mutual information via ``su * (1/(2N) - 2 J)``, i.e. the
    leading order minus :func:`bound_deficit`.

    Only valid in the factorised regime ``d_a d_b <= d_e``
    (:class:`RegimeError` otherwise); exactly zero when a dimension is 1.
    """
    return leading_order(dims) - bound_deficit(dims, tol)


def bound_deficit(dims: Dimensions, tol: float = _TOL_DEFAULT) -> float:
    """Gap ``leading_order - <I> = 2 su J`` of the strict upper bound
    ``<I> < (d_a^2-1)(d_b^2-1)/(2N)``: exactly 0 (``su = 0``) when a
    dimension is 1, positive otherwise until J, and with it the deficit,
    underflows to 0 once ``C d_e`` passes about ``2**537``.  The deficit is
    about ``1/(6 C d_e)`` of the leading order, so there it is far below
    the leading order's last bit."""
    dims.require_factorised("integral")
    return _deficit(dims, compute_J(dims, tol).value)


def _deficit(dims: Dimensions, j: float) -> float:
    """``2 su J`` from a computed J, and exactly 0 where J is."""
    su = casimir_counts(dims).su_product
    # su rounds past binary64 (C within 2**-56 of 2**512) only where J is 0
    return 2.0 * su * j if j else 0.0
