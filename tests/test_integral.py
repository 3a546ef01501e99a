"""Integral route: Bose quadrature, Binet tail, kernel algebra, the folded
witness, and the strict bound."""

import json
import math
import os
import random
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from haarmi import (
    Dimensions,
    DomainError,
    NonConvergenceError,
    RegimeError,
    binet_tail,
    bound_deficit,
    casimir_counts,
    compute_J,
    digamma,
    expand,
    folded_integrand,
    i_diag_rational,
    kernel_R,
    leading_order,
    mutual_information_exact,
    mutual_information_integral,
)
from haarmi import cli
from haarmi import integral as integral_module

from exact_reference import binet_remainder

# ---------------------------------------------------------------------------
# binet_tail


def test_binet_tail_known_values():
    # binet_tail(1) = (gamma - 1/2) / 2
    assert binet_tail(1.0).value == pytest.approx(
        0.03860783245076643, abs=1e-14, rel=0
    )
    assert binet_tail(42.0).value == pytest.approx(
        2.3619220662125432e-05, abs=1e-14, rel=0
    )
    assert binet_tail(100.0).value == pytest.approx(
        4.166625001983919e-06, abs=1e-14, rel=0
    )


@pytest.mark.parametrize("z", [1.0, 2.0, 6.0, 42.0, 100.0, 1000.0])
def test_binet_tail_digamma_identity(z):
    reconstructed = math.log(z) + 0.5 / z - 2.0 * binet_tail(z).value
    assert abs(reconstructed - digamma(z + 1.0)) <= 1e-13


def test_binet_tail_asymptotic_scale():
    # theta(z) ~ 1/(24 z^2) for large z
    value = binet_tail(500.0).value
    assert value == pytest.approx(1.0 / (24.0 * 500.0**2), rel=1e-4)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_binet_tail_domain(bad):
    with pytest.raises(DomainError):
        binet_tail(bad)


def test_binet_tail_scales_out_z():
    """The quadrature is of ``t / (1 + (t/z)^2)``, which is O(1) for every
    z, times ``(1/z)^2``: near the subnormal range the tail is ``1/(24
    z^2)`` from the default plan's 4 panels, past ``z*z`` overflowing it is
    finite with a positive error, and an int beyond binary64 is a valid
    ``z``."""
    below = binet_tail(1.2e154)
    assert below.value == pytest.approx(1.0 / 24.0 / 1.2e154 / 1.2e154, rel=1e-12)
    assert below.evaluations == 128
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [binet_tail(z) for z in (1.5e154, 1e300, 10**400, math.inf)]
    assert results[0].value == pytest.approx(1.0 / 24.0 / 1.5e154 / 1.5e154, rel=1e-12)
    assert [r.value for r in results[1:]] == [0.0, 0.0, 0.0]
    assert all(0.0 < r.error_estimate < 1e-300 for r in results)


@pytest.mark.parametrize("z", [1e-160, 1e-300])
def test_binet_tail_near_zero_raises_no_warning(z):
    """Below z ~ 5e-154 ``(t/z)^2`` overflows to inf on most nodes, where
    the integrand is 0; that raises no warning, and the tail is ``1/(4z)``
    (its next term, ``(ln z + gamma)/2``, is below 1e-156 of it) to 2 ulp."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = binet_tail(z).value
    low = math.nextafter(math.nextafter(1.0, 0.0), 0.0)
    high = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
    assert low <= value * 4.0 * z <= high


@pytest.mark.parametrize("z", [2.0**-40, 2.0**-20, 2.0**-10, 0.01, 0.1])
def test_binet_tail_below_one_matches_reference(z):
    """Below 1 the pole at ``iz`` nears the axis, and geometric panels from
    z resolve it: the tail is within its error bound of ``r(z)/2`` in
    50-digit decimals, and that bound meets the default tolerance."""
    with localcontext() as ctx:
        ctx.prec = 50
        reference = binet_remainder(Fraction(z)) / 2
    result = binet_tail(z)
    assert abs(Decimal(result.value) - reference) <= Decimal(result.error_estimate)
    assert result.error_estimate <= 1e-14 * result.value


def _panel_ellipse(lower: float, half: float) -> np.ndarray:
    """4096 points of the Bernstein ellipse (parameter ``_RHO``) of the
    panel ``[lower, lower + 2 half]``."""
    rho = integral_module._RHO
    w = np.exp(2j * np.pi * np.arange(4096) / 4096)
    return lower + half * (1.0 + 0.5 * (rho * w + 1.0 / (rho * w)))


def _j_integrand(triple):
    h = integral_module._kernel_shape(Dimensions(*triple), triple[2])
    return lambda t: t * h(t) / np.expm1(2.0 * np.pi * t), lambda a: 1.0


def _binet_integrand(z):
    return (lambda t: t / (1.0 + (t / z) ** 2) / np.expm1(2.0 * np.pi * t),
            lambda a: 1.0 / (1.0 + (a / z) ** 2))


@pytest.mark.parametrize("integrand, lower, half", [
    # [0, 2] at (1,1,1), the largest: h's triple pole meets the Bose pole
    pytest.param(_j_integrand((1, 1, 1)), 0.0, 1.0, id="J-1-1-1-first"),
    pytest.param(_j_integrand((1, 1, 1)), 2.0, 1.0, id="J-1-1-1-second"),
    pytest.param(_j_integrand((2, 3, 7)), 0.0, 0.7785, id="J-2-3-7-default"),
    pytest.param(_binet_integrand(1.0), 0.0, 1.0, id="binet-1"),
    pytest.param(_binet_integrand(0.99), 0.0, 0.495, id="binet-0.99-geometric"),
    pytest.param(_binet_integrand(0.01), 0.32, 0.16, id="binet-0.01-geometric"),
    pytest.param(_binet_integrand(2.0**-40), 0.5, 1.0, id="binet-2^-40-equal"),
])
def test_panel_ellipses_hold_the_stated_majorant(integrand, lower, half):
    """The panel bound of ``_bose_quad`` takes ``|f| <= 8 m(a)`` on the
    ellipse of every panel (``a`` its left end, m the majorant): sampled
    on the worst panels, the ellipse stays off the imaginary axis or
    crosses it below ``0.7 half``, clear of every pole, and the integrand
    holds the majorant."""
    f, majorant = integrand
    t = _panel_ellipse(lower, half)
    assert np.all(np.abs(t.imag) < 0.992 * half)
    assert lower > 0.41 * half or np.all(np.abs(t.imag[t.real <= 0]) < 0.7 * half)
    assert np.max(np.abs(f(t))) <= 8.0 * majorant(lower)


def test_quadrature_result_contract():
    result = binet_tail(6.0, tol=1e-14)
    assert result.error_estimate <= 1e-14
    assert result.evaluations > 0


def test_tolerance_validation():
    with pytest.raises(DomainError):
        binet_tail(1.0, tol=0.0)
    with pytest.raises(DomainError):
        compute_J(Dimensions(2, 3, 7), tol=-1e-10)
    # a relative tolerance of 1 accepts anything; past 1000 the range is < 0
    for tol in (1.0, 2000.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            binet_tail(6.0, tol=tol)
        with pytest.raises(DomainError):
            compute_J(Dimensions(2, 2, 4), tol=tol)


def test_plan_evaluation_counts():
    """One integrand call on 32 nodes per panel: ``ceil(T/2)`` equal panels
    on ``(0, T]``, ``T = min(ln(1000/tol), 700)/(2 pi)``, and for
    ``binet_tail`` below 1 the geometric panels ``[0, z], [z, 2z], ...``
    below 1 first, the equal panels then starting where they end."""
    def equal(tol, lower=0.0):
        upper = min(math.log(1000.0 / tol), 700.0) / (2.0 * math.pi)
        return 32 * math.ceil((upper - lower) / 2.0)

    dims = Dimensions(2, 3, 7)
    for tol, evaluations in ((1e-3, 64), (1e-14, 128), (1e-100, 608),
                             (1e-300, 1792)):
        assert compute_J(dims, tol).evaluations == equal(tol) == evaluations
        assert binet_tail(6.0, tol).evaluations == evaluations
    # 0.01 to 0.64 in 7 geometric panels, then 3 equal ones
    assert binet_tail(0.01).evaluations == 32 * 7 + equal(1e-14, 0.64) == 320
    # 2**-40 to 2**-1 in 40, then 3
    assert binet_tail(2.0**-40).evaluations == 32 * 40 + equal(1e-14, 0.5) == 1376
    assert binet_tail(0.75).evaluations == 32 + equal(1e-14, 0.75)


#: The default plan's 4 panels (128 evaluations) and binet_tail below 1.
#: Re-captured when the plan replaced the refinement loop: every value is
#: bitwise the one the loop returned (its 4-panel level, or agreeing to
#: the last bit); the errors are the a-priori bounds, and the counts the
#: plan's.
QUADRATURE_PINS = [
    pytest.param(lambda: compute_J(Dimensions(2, 3, 7)),
                 "0x1.8b2ce11351ea9p-16", "0x1.5fa8f0383208ap-65", 128,
                 id="J-2-3-7"),
    pytest.param(lambda: compute_J(Dimensions(1, 1, 5), 1e-16),
                 "0x1.ae3212012f4d2p-10", "0x1.485978c556eb0p-59", 128,
                 id="J-1-1-5-tol-1e-16"),
    pytest.param(lambda: compute_J(Dimensions(1, 1, 2), 1e-16),
                 "0x1.39b362da21638p-7", "0x1.0085e65a2be79p-56", 128,
                 id="J-1-1-2-tol-1e-16"),
    pytest.param(lambda: binet_tail(0.1),
                 "0x1.8f827e59f56f6p+0", "0x1.0000000000000p-49", 224,
                 id="binet-0.1"),
    pytest.param(lambda: binet_tail(0.01),
                 "0x1.6fa54e0c681e6p+4", "0x1.38809c0f8f03ep-45", 320,
                 id="binet-0.01"),
]


@pytest.mark.parametrize("run, value, error, evaluations", QUADRATURE_PINS)
def test_quadrature_is_bitwise_pinned(run, value, error, evaluations):
    for _ in range(2):  # building the tables, then reading them
        result = run()
        assert result.value.hex() == value
        assert result.error_estimate.hex() == error
        assert result.evaluations == evaluations


def test_node_tables_are_bounded_and_read_only():
    """Only the equal panels from 0 are cached, one entry per T; every
    table, cached or built per call, is read-only."""
    for tol in (1e-3, 1e-14, 1e-300):
        compute_J(Dimensions(2, 3, 7), tol)
    cache = integral_module._equal_panels.cache_info()
    assert cache.maxsize is not None and cache.currsize <= cache.maxsize
    upper = math.log(1000.0 / 1e-14) / (2.0 * math.pi)
    for runs in (integral_module._plan(upper, 7), integral_module._plan(upper, 0.01)):
        t, bose = (integral_module._equal_panels(runs) if len(runs) == 1
                   else integral_module._tabulate(runs))
        assert t.size == bose.size == integral_module._GL_ORDER * sum(
            count for _, _, count in runs)
        for table in (t, bose):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1.0


def _numpy_gauss_legendre(n: int) -> tuple[list[float], list[float]]:
    """The rule as derived while ``haarmi.integral`` imported numpy at load:
    the float Newton vectorised over all roots, then the same Decimal
    passes."""
    from decimal import Decimal, localcontext

    roots = np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    step = np.ones(n)
    while np.max(np.abs(step)) > 1e-15:
        p0, p1 = np.ones(n), roots
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * roots * p1 - (j - 1) * p0) / j
        step = p1 * (1 - roots * roots) / (n * (p0 - roots * p1))
        roots = roots - step
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 34
        for guess in np.sort(roots):
            x = Decimal(float(guess))
            for _ in range(2):
                p0, p1 = Decimal(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                x -= p1 * (1 - x * x) / (n * (p0 - x * p1))
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * p0) ** 2))
    return nodes, weights


def test_gauss_legendre_table_matches_the_numpy_derivation():
    nodes, weights = _numpy_gauss_legendre(integral_module._GL_ORDER)
    assert [x.hex() for x in integral_module._GL_NODES] == [x.hex() for x in nodes]
    assert [w.hex() for w in integral_module._GL_WEIGHTS] == [w.hex() for w in weights]
    arrays = integral_module._gl_arrays()
    assert arrays[0].tolist() == nodes and arrays[1].tolist() == weights
    assert not (arrays[0].flags.writeable or arrays[1].flags.writeable)


def test_import_leaves_numpy_polynomial_out():
    """The Gauss-Legendre rule is seeded without ``numpy.polynomial``, so
    importing the CLI loads it only if numpy itself does (numpy < 2)."""
    src = Path(integral_module.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, numpy; print('numpy.polynomial' in sys.modules); "
        "import haarmi.cli; print('numpy.polynomial' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, check=True)
    with_numpy, with_cli = result.stdout.split()
    assert with_cli == with_numpy


# ---------------------------------------------------------------------------
# kernel and partial fractions


def test_kernel_value_and_roots():
    dims = Dimensions(2, 3, 7)
    assert kernel_R(1.0, dims) == pytest.approx(35.0 / 3700.0, rel=1e-15, abs=0)
    fold = math.sqrt(6.0)
    assert abs(kernel_R(fold, dims)) < 1e-16  # C^2 - u^4 vanishes
    assert kernel_R(3.0, dims) < 0.0  # negative past the fold
    assert kernel_R(0.5, dims) > 0.0


def test_kernel_scale_inversion_antisymmetry():
    """R(C/u) * C / u^2 = -R(u) across several dims and a dense grid."""
    for triple in [(2, 3, 7), (2, 2, 4), (4, 5, 20), (3, 3, 11)]:
        dims = Dimensions(*triple)
        c = dims.d_a * dims.d_b
        for u in np.linspace(0.05, 3.0 * c, 400):
            lhs = kernel_R(c / u, dims) * c / (u * u)
            rhs = -kernel_R(u, dims)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) <= 1e-13 * scale


def test_kernel_partial_fraction_identity():
    """R(u) = (1/su) * sum_i s_i u / (u^2 + p_i^2) with poles
    (1, d_a, d_b, d_a d_b) and signs (+, -, -, +), equal dimensions included."""
    for triple in [(2, 5, 11), (2, 2, 4), (3, 3, 9)]:
        dims = Dimensions(*triple)
        poles = (1.0, float(dims.d_a), float(dims.d_b), float(dims.d_a * dims.d_b))
        factor = 1.0 / casimir_counts(dims).su_product
        for u in np.linspace(0.1, 20.0, 311):
            total = factor * sum(
                sign * u / (u * u + pole * pole)
                for sign, pole in zip((1, -1, -1, 1), poles)
            )
            direct = kernel_R(u, dims)
            assert abs(total - direct) <= 1e-13 * max(abs(direct), 1e-6)


# ---------------------------------------------------------------------------
# folded integrand


#: Accepted triples at the edges of binary64: d_e, C or N within 2**970
#: of 2**1024 (where ``float()`` of them overflows), C**2 past it, and C**4
#: past it.
EDGE_TRIPLES = [
    (1, 1, 2**1024 - 1), (2**1023, 1, 1), (2**1024 - 1, 1, 1), (2**600, 1, 1),
    (2**511, 2**511, 2), (3, 2**1000, 2), (2**128, 2**128, 2**256),
]


@pytest.mark.parametrize("triple", EDGE_TRIPLES)
@pytest.mark.parametrize("call", [
    pytest.param(lambda dims: compute_J(dims).value, id="compute_J"),
    pytest.param(lambda dims: compute_J(dims).error_estimate, id="J_error"),
    pytest.param(lambda dims: kernel_R(0.5, dims), id="kernel_R"),
    pytest.param(lambda dims: folded_integrand(0.5, dims), id="folded"),
])
def test_integral_route_is_finite_on_the_accepted_domain(call, triple):
    """No dimension is converted to binary64 whole, so every accepted
    triple gives a finite value: no OverflowError, NaN or warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(call(Dimensions(*triple)))


def test_kernel_beyond_c_fourth_power():
    """``C^4``, the unscaled denominator at u = 0, overflows binary64 from
    C = 2**256; the kernel, formed as ``(u/C^2) h(u)``, still matches its
    exact rational value there, and vanishes at the fold."""
    for triple in ((2**128, 2**128, 2**256), (2**256 - 1, 1, 2**256)):
        dims = Dimensions(*triple)
        a2, b2, c = dims.d_a**2, dims.d_b**2, dims.d_a * dims.d_b
        for u in (0.5, 3.0):
            x = Fraction(u) ** 2
            exact = (Fraction(u) * (c * c - x * x)
                     / ((x + 1) * (x + a2) * (x + b2) * (x + c * c)))
            assert kernel_R(u, dims) == pytest.approx(float(exact), rel=1e-15, abs=0)
        assert kernel_R(math.sqrt(c), dims) == 0.0


def test_compute_j_below_c_to_the_256():
    """At C = 2**255, J is its leading asymptotic ``1/(24 C^2 d_e^2)``."""
    d_a, d_b, d_e = 2**127, 2**128, 2**256
    j = compute_J(Dimensions(d_a, d_b, d_e)).value
    assert j * 24 * (d_a * d_b) ** 2 * d_e**2 == pytest.approx(1.0, rel=1e-12)


def test_compute_j_beyond_c_fourth_power():
    """From C = 2**256 the unscaled kernel's ``C^4`` overflows (C = 2**256 - 1
    rounds up); J is still its leading asymptotic ``1/(24 C^2 d_e^2)``, a
    subnormal, and the CLI answers."""
    for triple in ((2**128, 2**128, 2**256), (2**256 - 1, 1, 2**256)):
        d_a, d_b, d_e = triple
        j = compute_J(Dimensions(*triple)).value
        assert j * 24 * (d_a * d_b) ** 2 * d_e**2 == pytest.approx(1.0, rel=1e-12)
        code = cli.main(["integral", "--da", str(d_a), "--db", str(d_b),
                         "--de", str(d_e)])
        assert code == 0


def test_folded_integrand_domain_and_fold_point():
    dims = Dimensions(2, 3, 7)
    fold = math.sqrt(6.0)
    assert folded_integrand(fold, dims) == 0.0
    with pytest.raises(DomainError):
        folded_integrand(0.0, dims)
    with pytest.raises(DomainError):
        folded_integrand(-0.5, dims)
    with pytest.raises(DomainError):
        folded_integrand(fold * 1.0001, dims)


@pytest.mark.parametrize("triple", [(2, 3, 7), (2, 2, 4), (3, 3, 9)])
def test_folded_integrand_positive(triple):
    dims = Dimensions(*triple)
    fold = math.sqrt(dims.d_a * dims.d_b)
    grid = np.linspace(fold / 10_000, fold, 10_000)
    values = [folded_integrand(u, dims) for u in grid]
    assert all(v >= 0.0 for v in values)
    assert all(v > 0.0 for v in values[:-1])  # strictly positive inside


def test_folded_integrand_finite_small_u():
    """Near u = 0 the 1/u blowup of the thermal factor cancels the kernel's
    zero: the product approaches 1 / (2 pi d_e d_a^2 d_b^2)."""
    dims = Dimensions(2, 3, 7)
    limit = 1.0 / (2.0 * math.pi * 7 * 4 * 9)
    assert folded_integrand(1e-6, dims) == pytest.approx(limit, rel=1e-4)
    assert folded_integrand(1e-9, dims) == pytest.approx(limit, rel=1e-6)


# ---------------------------------------------------------------------------
# J, the integral route, and the strict bound


def test_compute_j_values():
    assert compute_J(Dimensions(2, 3, 7)).value == pytest.approx(
        2.3554283939546350e-05, rel=1e-12, abs=0
    )
    assert compute_J(Dimensions(2, 2, 4)).value == pytest.approx(
        1.6121995288661955e-04, rel=1e-12, abs=0
    )


def test_compute_j_matches_binet_combination():
    """J = (binet(d_e) - binet(d_a d_e) - binet(d_b d_e) + binet(N)) / su:
    the partial-fraction poles rescaled by d_e."""
    for triple in [(2, 3, 7), (2, 5, 10), (4, 5, 21)]:
        dims = Dimensions(*triple)
        su = casimir_counts(dims).su_product
        combo = (
            binet_tail(dims.d_e * 1.0).value
            - binet_tail(dims.d_a * dims.d_e * 1.0).value
            - binet_tail(dims.d_b * dims.d_e * 1.0).value
            + binet_tail(dims.n * 1.0).value
        ) / su
        direct = compute_J(dims).value
        assert abs(direct - combo) <= 1e-15


def test_compute_j_guards():
    # R is finite when a dimension is 1, so J is defined there; the
    # deficit vanishes through su = 0, with no special case
    for triple in [(1, 5, 9), (3, 1, 9)]:
        dims = Dimensions(*triple)
        j = compute_J(dims).value
        assert math.isfinite(j) and j > 0.0
        assert bound_deficit(dims) == 0.0
    # equal dimensions are not a problem for the integral itself
    assert compute_J(Dimensions(2, 2, 4)).value > 0.0


def test_compute_j_underflow_carries_error():
    """Past d_e ~ 1e160 J is subnormal or zero; its error stays honest.  The
    leading term 1/(24 C^2 d_e^2) is exact to relative O(d_e^-2)."""
    d_e = 10**160
    result = compute_J(Dimensions(2, 3, d_e))
    leading = Fraction(1, 24 * 36 * d_e * d_e)
    assert Fraction(result.error_estimate) >= abs(Fraction(result.value) - leading)
    assert compute_J(Dimensions(2, 3, 10**300)).error_estimate > 0.0


@pytest.mark.parametrize(
    "triple", [(3, 3, 1152), (2, 6, 1536), (6, 6, 288), (2, 3, 7),
               (3, 2, 78), (2, 2, 32), (4, 2, 104)]
)
def test_compute_j_matches_exact_rational(triple):
    """psi(z+1) = ln z + 1/(2z) - 2 binet_tail(z) in the four harmonic
    numbers of i_diag leaves i_diag = (d_a-1)(d_b-1)/(2N) - 2 su J, so J is
    known exactly; wide environments (d_e up to 128 C) included.  At every
    tolerance from 1e-3 to 1e-300, J lands within its tolerance (or 1e-14)
    and within its error bound; the last three triples are ones where two
    refinements failed to agree at 1e-16 or 3e-17."""
    dims = Dimensions(*triple)
    su = casimir_counts(dims).su_product
    exact = (
        Fraction((dims.d_a - 1) * (dims.d_b - 1), 2 * dims.n)
        - i_diag_rational(dims)
    ) / (2 * su)
    for tol in (1e-3, 1e-6, 1e-10, 1e-14, 1e-16, 3e-17, 1e-30, 1e-100, 1e-300):
        result = compute_J(dims, tol)
        gap = abs(Fraction(result.value) - exact)
        assert gap <= Fraction(max(tol, 1e-14)) * exact, tol
        assert gap <= Fraction(result.error_estimate), tol


def test_unattainable_tolerance_fails_loudly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError):
            compute_J(Dimensions(2, 3, 7), tol=5e-324)


def _pole_sum(dims: Dimensions) -> Decimal:
    """``2 su J = r(N) - r(d_b d_e) - r(d_a d_e) + r(d_e)`` at 50 digits,
    so ``<I> = su/(2N) - _pole_sum`` in the factorised regime."""
    d_a, d_b, d_e = dims.d_a, dims.d_b, dims.d_e
    with localcontext() as ctx:
        ctx.prec = 50
        return (binet_remainder(dims.n) - binet_remainder(d_b * d_e)
                - binet_remainder(d_a * d_e) + binet_remainder(d_e))


def _seeded_factorised_triples(count: int = 40, seed: int = 15) -> list:
    """Factorised triples in four strata, in turn: both d_a, d_b >= 2 and N
    below 2**41, where the deficit shows in I; C up to 2**62 with J a
    normal binary64; C at least 2**256; N within a factor 8 of 2**1024.
    Each dimension is uniform within its octave ``[2**k, 2**(k+1))``, so
    ``k_a + k_b + 2 <= k_e`` keeps C <= d_e and ``k_a + k_b + k_e <= 1021``
    keeps N below 2**1024."""
    rng = random.Random(seed)
    strata = (((1, 4), 20), ((0, 30), 120), ((128, 254), 1021), ((0, 254), None))
    triples = []
    for i in range(count):
        bits, span = strata[i % 4]
        k_a, k_b = rng.randint(*bits), rng.randint(*bits)
        lowest, highest = k_a + k_b + 2, 1021 - k_a - k_b
        k_e = highest if span is None else rng.randint(lowest, min(highest, lowest + span))
        triples.append(tuple(rng.randrange(1 << k, 2 << k) for k in (k_a, k_b, k_e)))
    return triples


#: One where the unscaled integrand underflowed (``d_e C^2`` past 2**1074),
#: four with C >= 2**256, and C within 2**-56 of 2**512, where
#: ``float(su)`` overflows.
WIDE_TRIPLES = [
    (2**127, 2**128, 2**700), (2**128, 2**128, 2**256), (2**300, 2**200, 2**510),
    (3, 2**400, 2**600), (2**255, 2, 2**300),
    (2**256 - 1, 2**256 + 1, 2**512 - 1),
]


def test_integral_route_over_the_factorised_domain():
    """On a fixed seeded set that reaches C >= 2**256, ``d_e C^2`` past
    2**1074 (where the unscaled integrand underflowed) and N near 2**1023,
    the integral route lands within verify's integral band,
    ``max(1e-14, 10 tol) |I|``, of a 50-digit Decimal reference, and J
    within its error estimate of the exact pole sum."""
    dims_list = [Dimensions(*t) for t in _seeded_factorised_triples() + WIDE_TRIPLES]
    assert all(d.factorised_regime for d in dims_list)
    sizes = [(d.d_a * d.d_b, d.n) for d in dims_list]
    assert sum(c >= 2**256 for c, _ in sizes) >= 10
    assert sum(n * c > 2**1074 for c, n in sizes) >= 10  # d_e C^2 = N C
    assert sum(n >= 2**1021 for _, n in sizes) >= 10
    shown = 0
    for dims in dims_list:
        su = casimir_counts(dims).su_product
        poles = _pole_sum(dims)
        with localcontext() as ctx:
            ctx.prec = 50
            lead = Decimal(su) / (2 * Decimal(dims.n))
            reference = lead - poles
            j_exact = poles / (2 * su) if su else None
        shown += abs(lead - reference) > Decimal(1e-15) * reference
        value = mutual_information_integral(dims)
        assert abs(Decimal(value) - reference) <= Decimal(1e-13) * reference, dims
        if su:
            j = compute_J(dims)
            assert abs(Decimal(j.value) - j_exact) <= Decimal(j.error_estimate), dims
            floor = Decimal(8 * math.ulp(0.0))
            assert Decimal(j.error_estimate) <= max(Decimal(1e-13) * j_exact, floor)
    assert shown >= 10


@pytest.mark.parametrize("triple", WIDE_TRIPLES)
def test_integral_command_answers_beyond_c_fourth_power(triple, capsys):
    """``haarmi integral`` exits 0 where the unscaled kernel raised; its
    I_integral is the library's to the last bit, and the closed form's."""
    argv = ["integral", "--format", "json"]
    for flag, d in zip(("--da", "--db", "--de"), triple):
        argv += [flag, str(d)]
    assert cli.main(argv) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    dims = Dimensions(*triple)
    assert row["I_integral"] == mutual_information_integral(dims)
    if dims.d_a * dims.d_b < 2**511:  # the closed form's I/su overflows above
        assert row["I_integral"] == mutual_information_exact(dims).total


def test_integral_route_matches_exact():
    for triple in [(2, 3, 7), (2, 2, 4), (3, 4, 12), (5, 6, 60)]:
        dims = Dimensions(*triple)
        via_integral = mutual_information_integral(dims)
        exact = mutual_information_exact(dims).total
        assert abs(via_integral - exact) <= 1e-13 * abs(exact)


def test_folded_equals_unfolded_truncated():
    """Integrating the folded integrand on a fixed dense grid over
    (0, sqrt(C)] agrees with J from the unfolded quadrature in t = d_e u."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    for triple in [(2, 3, 7), (2, 2, 4), (3, 4, 13)]:
        dims = Dimensions(*triple)
        fold = math.sqrt(dims.d_a * dims.d_b)
        edges = np.linspace(0.0, fold, 201)
        folded = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            vals = [folded_integrand(x, dims) for x in mid + half * nodes]
            folded += half * float(np.dot(vals, weights))
        j = compute_J(dims).value
        assert abs(folded - j) <= 1e-14 * j


def test_borel_sum_matches_series_truncation():
    """The integral route agrees with the optimally truncated series within
    the series' own estimate plus binary64 rounding of the value."""
    for triple in [(2, 2, 4), (2, 3, 7), (3, 3, 9), (4, 5, 20), (2, 2, 12),
                 (6, 6, 36)]:
        dims = Dimensions(*triple)
        expansion = expand(dims)
        value, estimate = expansion.value_at_optimal, expansion.error_estimate
        resummed = mutual_information_integral(dims)
        assert abs(resummed - value) <= 2.0 * estimate + 1e-13 * abs(resummed)


def test_integral_route_regime_guard():
    # (1, 5, 3): the guard comes before the dimension-1 short-circuit
    for triple in [(3, 4, 2), (2, 2, 3), (1, 5, 3)]:
        dims = Dimensions(*triple)
        with pytest.raises(RegimeError, match="requires the factorised regime"):
            mutual_information_integral(dims)
        with pytest.raises(RegimeError, match="requires the factorised regime"):
            bound_deficit(dims)


def test_integral_route_dimension_one_short_circuit():
    assert mutual_information_integral(Dimensions(1, 5, 9)) == 0.0
    assert bound_deficit(Dimensions(1, 5, 9)) == 0.0
    assert bound_deficit(Dimensions(4, 1, 9)) == 0.0


def test_strict_bound():
    for triple in [(2, 3, 7), (2, 2, 4), (3, 3, 9), (6, 6, 72)]:
        dims = Dimensions(*triple)
        deficit = bound_deficit(dims)
        assert deficit > 0.0
        lead = leading_order(dims)
        assert mutual_information_integral(dims) < lead
        # consistency: deficit == lead - value up to roundoff
        assert deficit == pytest.approx(
            lead - mutual_information_integral(dims), rel=1e-10, abs=1e-18
        )


def test_deficit_fraction_2_2_4():
    dims = Dimensions(2, 2, 4)
    fraction = bound_deficit(dims) / leading_order(dims)
    assert 0.008 < fraction < 0.013
    assert fraction == pytest.approx(0.010318076984743652, rel=1e-10, abs=0)
