"""End-to-end acceptance checks, one test per shipped guarantee.

Each test records a single PASS/FAIL line (echoed in the terminal summary)
and then asserts, so a failing criterion is visible both ways.  Tolerances
and runtimes are the published ones; the analytic targets are cross-checked
against the exact rational route, never against stored floats alone.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np

from haarmi import (
    Dimensions,
    binet_tail,
    bloch_variance,
    bound_deficit,
    casimir_counts,
    diagonal_entropy_avg,
    diagonal_second_moment,
    digamma,
    expand,
    folded_integrand,
    forced_factorised_value,
    kernel_R,
    leading_order,
    lubkin_purity,
    mutual_information_exact,
    mutual_information_integral,
    mutual_information_rational,
    page_entropy,
    run_oracle,
)

from exact_reference import series_term

SEED = 42
N_SAMPLES = 20_000


def _factorised_grid():
    """All ordered (d_a, d_b) in [2,6]^2 with d_e in {C, 2C, 4C}; 75 dims."""
    cases = []
    for d_a in range(2, 7):
        for d_b in range(2, 7):
            c = d_a * d_b
            for mult in (1, 2, 4):
                cases.append(Dimensions(d_a, d_b, mult * c))
    return cases


def _wide_environment_grid():
    """All ordered (d_a, d_b) in [2,6]^2 with d_e = m C for m in
    {1, 2, 4, ..., 128} and N <= 2e4; 173 dims."""
    return [
        Dimensions(d_a, d_b, 2**j * d_a * d_b)
        for d_a in range(2, 7)
        for d_b in range(2, 7)
        for j in range(8)
        if 2**j * (d_a * d_b) ** 2 <= 20_000
    ]


def test_golden_mutual_information(acceptance):
    dims = Dimensions(2, 3, 7)
    total = mutual_information_exact(dims).total
    exact = float(mutual_information_rational(dims))
    five_figures = format(total, ".5g") == "0.28458"
    rel = abs(total - exact) / exact
    ok = five_figures and rel <= 1e-14
    assert acceptance(
        1,
        "golden value I(2,3,7) = 0.28458 to 5 figures, 1e-14 vs rational",
        ok,
        note=f"total={total:.17g}, rel={rel:.1e}",
    )


def test_route_equality_grid(acceptance):
    started = time.perf_counter()
    grid = _wide_environment_grid()
    worst = 0.0
    for dims in grid:
        reference = mutual_information_rational(dims)
        quadrature = Fraction(mutual_information_integral(dims))
        worst = max(worst, float(abs(quadrature - reference) / reference))
    elapsed = time.perf_counter() - started
    ok = len(grid) == 173 and worst <= 1e-13 and elapsed < 10.0
    assert acceptance(
        2,
        "rational and integral routes agree to 1e-13 across 173 dims, "
        "d_e up to 128 C",
        ok,
        note=f"worst rel {worst:.1e}, {elapsed:.2f}s",
    )


def test_trivial_subsystem_factorisation(acceptance):
    cases = [Dimensions(1, d_b, d_e) for d_b in range(1, 6) for d_e in (1, 3, 8)]
    cases += [Dimensions(d_a, 1, d_e) for d_a in range(2, 7) for d_e in (1, 3, 8)]
    assert len(cases) == 30
    worst = max(abs(mutual_information_exact(dims).total) for dims in cases)
    ok = worst <= 1e-15
    assert acceptance(
        3,
        "mutual information vanishes to 1e-15 when either side is trivial",
        ok,
        note=f"30 cases, worst |I| = {worst:.1e}",
    )


def test_strict_leading_order_bound(acceptance):
    started = time.perf_counter()
    violations = []
    for dims in _factorised_grid():
        deficit = bound_deficit(dims)
        total = mutual_information_exact(dims).total
        if not (deficit > 0.0 and total < leading_order(dims)):
            violations.append(dims)
    fraction = bound_deficit(Dimensions(2, 2, 4)) / leading_order(Dimensions(2, 2, 4))
    elapsed = time.perf_counter() - started
    ok = not violations and 0.008 <= fraction <= 0.013 and elapsed < 10.0
    assert acceptance(
        4,
        "leading order strictly bounds I on the grid; (2,2,4) deficit ~1%",
        ok,
        note=f"fraction {fraction:.4%}, {elapsed:.2f}s",
    )


def test_regime_break_values(acceptance):
    dims = Dimensions(3, 4, 2)
    total = mutual_information_exact(dims).total
    forced = forced_factorised_value(dims)
    ok = 1.377 <= total <= 1.379 and 2.482 <= forced <= 2.484
    assert acceptance(
        5,
        "swapped regime (3,4,2): true ~1.378, factorised form ~2.483",
        ok,
        note=f"total={total:.6f}, forced={forced:.6f}",
    )


def test_series_divergence_and_truncation_honesty(acceptance):
    started = time.perf_counter()
    diverged = expand(Dimensions(2, 2, 4), k_max=60).divergence_k is not None
    worst_ratio = 0.0
    for dims in _factorised_grid():
        expansion = expand(dims)
        truncated = Fraction(casimir_counts(dims).su_product, 2 * dims.n)
        for k in range(1, expansion.optimal_k + 1):
            truncated += series_term(dims, k)
        gap = abs(truncated - mutual_information_rational(dims))
        ratio = float(gap / Fraction(expansion.error_estimate))
        worst_ratio = max(worst_ratio, ratio)
    elapsed = time.perf_counter() - started
    ok = diverged and worst_ratio <= 2.0 and elapsed < 5.0
    assert acceptance(
        6,
        "series diverges at k_max=60 yet optimal truncation is honest",
        ok,
        note=f"worst gap/estimate {worst_ratio:.3f}, {elapsed:.2f}s",
    )


def test_even_power_remainder_decay(acceptance):
    started = time.perf_counter()
    sizes = []
    gaps = []
    for d_e in (36, 72, 144, 288):
        dims = Dimensions(2, 3, d_e)
        expansion = expand(dims)
        gaps.append(abs(mutual_information_exact(dims).total - expansion.partial_sums[1]))
        sizes.append(dims.n)
    slope = float(np.polyfit(np.log(sizes), np.log(gaps), 1)[0])
    elapsed = time.perf_counter() - started
    ok = -4.1 <= slope <= -3.9 and elapsed < 5.0
    assert acceptance(
        7,
        "remainder past the first correction falls off as N^-4",
        ok,
        note=f"slope {slope:.4f}, {elapsed:.2f}s",
    )


def test_folded_positivity_and_kernel_antisymmetry(acceptance):
    started = time.perf_counter()
    positive = True
    for triple in [(2, 3, 7), (2, 2, 4), (3, 3, 9)]:
        dims = Dimensions(*triple)
        fold = math.sqrt(dims.d_a * dims.d_b)
        grid = np.linspace(fold * 1e-4, fold, 10_000)
        values = np.array([folded_integrand(u, dims) for u in grid])
        positive = positive and bool(np.all(values >= 0.0))

    antisymmetric = True
    for triple in [(2, 3, 7), (2, 2, 4), (4, 5, 20), (3, 3, 11)]:
        dims = Dimensions(*triple)
        c = dims.d_a * dims.d_b
        for u in np.linspace(0.05, 3.0 * c, 400):
            lhs = kernel_R(c / u, dims) * c / (u * u)
            rhs = -kernel_R(u, dims)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            if abs(lhs - rhs) > 1e-13 * scale:
                antisymmetric = False
    elapsed = time.perf_counter() - started
    ok = positive and antisymmetric and elapsed < 5.0
    assert acceptance(
        8,
        "folded integrand >= 0 on dense grids; kernel inversion to 1e-13",
        ok,
        note=f"{elapsed:.2f}s",
    )


def test_monte_carlo_concordance(acceptance):
    started = time.perf_counter()
    worst_z = 0.0
    for triple in [(2, 2, 4), (2, 3, 7)]:
        dims = Dimensions(*triple)
        stats = run_oracle(dims, n_samples=N_SAMPLES, seed=SEED, workers=4)
        d_a, d_b, d_e = dims.d_a, dims.d_b, dims.d_e
        targets = [
            (stats.mean_mutual_information, stats.stderr_mutual_information,
             mutual_information_exact(dims).total),
            (stats.mean_entropy_a, stats.stderr_entropy_a,
             page_entropy(d_a, d_b * d_e)),
            (stats.mean_entropy_b, stats.stderr_entropy_b,
             page_entropy(d_b, d_a * d_e)),
            (stats.mean_entropy_ab, stats.stderr_entropy_ab,
             page_entropy(d_a * d_b, d_e)),
            (stats.mean_diagonal_entropy_a, stats.stderr_diagonal_entropy_a,
             diagonal_entropy_avg(d_a, d_b * d_e)),
            (stats.mean_purity_a, stats.stderr_purity_a,
             float(lubkin_purity(d_a, d_b * d_e))),
            (stats.mean_diagonal_second_moment_a,
             stats.stderr_diagonal_second_moment_a,
             float(diagonal_second_moment(d_a, d_b * d_e))),
        ]
        for mean, stderr, analytic in targets:
            worst_z = max(worst_z, abs(mean - analytic) / stderr)
    elapsed = time.perf_counter() - started
    ok = worst_z <= 3.0 and elapsed < 60.0
    assert acceptance(
        9,
        "sampled means match analytic averages within 3 standard errors",
        ok,
        note=f"worst |z| = {worst_z:.2f}, 2x{N_SAMPLES} samples, {elapsed:.1f}s",
    )


def test_democratic_bloch_variance(acceptance):
    started = time.perf_counter()
    worst_z = 0.0
    for m, n in [(2, 8), (3, 3)]:
        stats = run_oracle(
            Dimensions(m, n, 1), n_samples=N_SAMPLES, seed=SEED, workers=4
        )
        target = float(bloch_variance(m, n))
        worst_z = max(
            worst_z,
            abs(stats.cartan_var - target) / stats.stderr_cartan_var,
            abs(stats.offdiag_var - target) / stats.stderr_offdiag_var,
            abs(stats.cartan_var - stats.offdiag_var)
            / math.hypot(stats.stderr_cartan_var, stats.stderr_offdiag_var),
        )
    elapsed = time.perf_counter() - started
    ok = worst_z <= 3.0 and elapsed < 60.0
    assert acceptance(
        10,
        "Cartan and off-diagonal sectors share variance 2/(m(mn+1))",
        ok,
        note=f"worst |z| = {worst_z:.2f}, {elapsed:.1f}s",
    )


def test_binet_digamma_identity(acceptance):
    worst = 0.0
    for z in (1, 2, 6, 42, 100):
        direct = digamma(z + 1.0)
        via_integral = math.log(z) + 0.5 / z - 2.0 * binet_tail(float(z)).value
        worst = max(worst, abs(direct - via_integral))
    ok = worst <= 1e-13
    assert acceptance(
        11,
        "digamma(z+1) = ln z + 1/(2z) - 2*tail integral to 1e-13",
        ok,
        note=f"worst gap {worst:.1e}",
    )


def test_parallel_oracle_determinism(acceptance):
    started = time.perf_counter()
    dims = Dimensions(2, 3, 7)
    runs = [
        dataclasses.asdict(run_oracle(dims, n_samples=N_SAMPLES, seed=SEED,
                                      workers=workers))
        for workers in (1, 4, 8)
    ]
    elapsed = time.perf_counter() - started
    ok = runs[0] == runs[1] == runs[2] and elapsed < 90.0
    assert acceptance(
        12,
        "oracle output is bitwise identical for 1, 4 and 8 workers",
        ok,
        note=f"{N_SAMPLES} samples x3, {elapsed:.1f}s",
    )
