"""Integral route: Bose quadrature, Binet tail, kernel algebra, the folded
witness, and the strict bound."""

import math
import os
import subprocess
import sys
import warnings
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
from haarmi import integral as integral_module

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


def test_binet_tail_bound_on_z_squared():
    """Up to the bound ``z*z`` stays finite and the tail is a subnormal
    ``1/(24 z^2)``; past it the integrand would be identically 0, so the
    call raises instead of exhausting the evaluation budget."""
    below = binet_tail(1.2e154)
    assert below.value == pytest.approx(1.0 / 24.0 / 1.2e154 / 1.2e154, rel=1e-12)
    bound = math.sqrt(sys.float_info.max)
    for z in (math.nextafter(bound, math.inf), 1.4e154, 10**400, math.inf):
        with pytest.raises(DomainError, match="1.34e154"):
            binet_tail(z)


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


def test_evaluation_budget_enforced(monkeypatch):
    monkeypatch.setattr(integral_module, "EVAL_BUDGET", 64)
    with pytest.raises(NonConvergenceError):
        binet_tail(1.0, tol=1e-18)


def test_budget_covers_the_first_refinement_pair(monkeypatch):
    """The 2- and 4-panel levels are evaluated together (192 nodes): a
    budget one short of them raises, as it would between the two levels."""
    dims = Dimensions(2, 3, 7)
    monkeypatch.setattr(integral_module, "EVAL_BUDGET", 191)
    with pytest.raises(NonConvergenceError):
        compute_J(dims)
    monkeypatch.setattr(integral_module, "EVAL_BUDGET", 192)
    assert compute_J(dims).evaluations == 192


#: Results recorded before the levels were tabulated, at refinement depths
#: from the first pair (192 evaluations) to 256 panels (16 320).
QUADRATURE_PINS = [
    (lambda: compute_J(Dimensions(2, 3, 7)),
     "0x1.8b2ce11351eabp-16", "0x1.2492492492492p-65", 192),
    (lambda: compute_J(Dimensions(1, 1, 5), 1e-16),
     "0x1.ae3212012f4cep-10", "0x1.999999999999ap-59", 448),
    (lambda: compute_J(Dimensions(1, 1, 2), 1e-16),
     "0x1.39b362da21638p-7", "0x1.0000000000000p-56", 1984),
    (lambda: binet_tail(0.1),
     "0x1.8f827e59f56f3p+0", "0x1.9800000000000p-47", 960),
    (lambda: binet_tail(0.01),
     "0x1.6fa54e0c681e8p+4", "0x1.0000000000000p-45", 16320),
]


@pytest.mark.parametrize("run, value, error, evaluations", QUADRATURE_PINS)
def test_quadrature_is_bitwise_pinned(run, value, error, evaluations):
    for _ in range(2):  # building the tables, then reading them
        result = run()
        assert result.value.hex() == value
        assert result.error_estimate.hex() == error
        assert result.evaluations == evaluations


def test_node_tables_are_bounded_and_read_only():
    binet_tail(0.01)  # tabulates levels up to 256 panels
    cache = integral_module._nodes.cache_info()
    assert cache.maxsize is not None and cache.currsize <= cache.maxsize
    upper = math.log(1000.0 / 1e-14) / (2.0 * math.pi)
    for levels in [(2, 4), (8,), (integral_module._CACHED_PANELS,)]:
        halves, t, bose = integral_module._nodes(upper, *levels)
        assert len(halves) == len(levels)
        assert t.size == bose.size == sum(levels) * integral_module._GL_ORDER
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


@pytest.mark.parametrize("call", [
    compute_J,
    lambda dims: kernel_R(0.5, dims),
    lambda dims: folded_integrand(0.5, dims),
])
def test_kernel_needs_c_squared_in_binary64(call):
    """``Dimensions`` accepts C up to N, but the kernel forms ``C^2``; past
    the largest binary64 the route raises DomainError, not OverflowError.
    No factorised triple gets there (``C^2 <= N``)."""
    with pytest.raises(DomainError, match=r"C\^2 = \(d_a d_b\)\^2"):
        call(Dimensions(2**600, 1, 1))
    with pytest.raises(DomainError, match=r"C\^2"):
        call(Dimensions(2**512 - 1, 1, 1))  # rounds to 2**512: c * c = inf


@pytest.mark.parametrize("call", [
    compute_J, lambda dims: folded_integrand(0.5, dims),
])
def test_integral_route_needs_d_e_in_binary64(call):
    with pytest.raises(DomainError, match="d_e to fit binary64"):
        call(Dimensions(1, 1, 2**1024 - 1))


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
    "triple", [(3, 3, 1152), (2, 6, 1536), (6, 6, 288), (2, 3, 7)]
)
def test_compute_j_matches_exact_rational(triple):
    """psi(z+1) = ln z + 1/(2z) - 2 binet_tail(z) in the four harmonic
    numbers of i_diag leaves i_diag = (d_a-1)(d_b-1)/(2N) - 2 su J, so J is
    known exactly; wide environments (d_e up to 128 C) included."""
    dims = Dimensions(*triple)
    su = casimir_counts(dims).su_product
    exact = (
        Fraction((dims.d_a - 1) * (dims.d_b - 1), 2 * dims.n)
        - i_diag_rational(dims)
    ) / (2 * su)
    result = compute_J(dims)
    gap = abs(Fraction(result.value) - exact)
    assert gap <= Fraction(1e-14) * exact
    assert gap <= Fraction(result.error_estimate)


def test_unattainable_tolerance_fails_loudly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError):
            compute_J(Dimensions(2, 3, 7), tol=5e-324)


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
