"""Closed-form averages: entropy formulas, moments, and the breakdown of
the average mutual information into diagonal and eigenvector parts."""

import hashlib
import math
import random
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from haarmi import (
    Dimensions,
    DomainError,
    EULER_GAMMA,
    InvalidDimensionError,
    bernoulli,
    bloch_variance,
    casimir_counts,
    diagonal_entropy_avg,
    diagonal_entropy_avg_rational,
    diagonal_second_moment,
    forced_factorised_value,
    i_diag_rational,
    kernel_R,
    leading_order,
    lubkin_purity,
    mutual_information_exact,
    mutual_information_rational,
    page_entropy,
    page_entropy_rational,
    schur_deficit,
)
from haarmi import page as page_module

from exact_reference import digamma as digamma_decimal, series_term

# ---------------------------------------------------------------------------
# entropy formulas


def test_page_entropy_known_values():
    # <S> for a 2x2 split: H_4 - H_2 - 1/4 = 25/12 - 3/2 - 1/4 = 1/3
    assert page_entropy(2, 2) == pytest.approx(1.0 / 3.0, abs=1e-15, rel=0)
    assert page_entropy(6, 7) == pytest.approx(1.376742806648339, abs=1e-14, rel=0)
    assert page_entropy_rational(2, 2) == Fraction(1, 3)


def test_page_entropy_symmetric_and_trivial():
    for m, n in [(2, 5), (3, 7), (4, 4), (1, 9)]:
        assert page_entropy(m, n) == page_entropy(n, m)
        assert page_entropy_rational(m, n) == page_entropy_rational(n, m)
    assert page_entropy(1, 9) == 0.0
    assert page_entropy_rational(1, 9) == 0
    # m n must stay below 2**1024; just below it the remainders vanish
    for n in (2**1023, 2**1024):
        with pytest.raises(DomainError):
            page_entropy(2, n)
    assert page_entropy(2, 2**1023 - 1) == math.log(2.0)


def test_page_entropy_routes_agree():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 40)
        n = rng.randint(1, 40)
        exact = float(page_entropy_rational(m, n))
        assert abs(page_entropy(m, n) - exact) <= 1e-14 * max(1.0, abs(exact))


def test_diagonal_entropy_avg():
    assert diagonal_entropy_avg(4, 4) == pytest.approx(
        1.29739565989566, abs=1e-13, rel=0
    )
    # asymmetric by construction
    assert diagonal_entropy_avg(2, 8) != diagonal_entropy_avg(8, 2)
    assert diagonal_entropy_avg_rational(4, 4) == (
        Fraction(2436559, 720720) - Fraction(25, 12)
    )
    assert diagonal_entropy_avg(1, 5) == 0.0
    # m n must stay below 2**1024; just below it the remainders vanish
    for n in (2**1023, 2**1024):
        with pytest.raises(DomainError):
            diagonal_entropy_avg(2, n)
    assert diagonal_entropy_avg(2, 2**1023 - 1) == math.log(2.0)


def test_schur_deficit_closed_form():
    assert schur_deficit(2, 2) == 0.25
    assert schur_deficit(3, 7) == pytest.approx(2.0 / 14.0, abs=0, rel=1e-15)
    assert schur_deficit(1, 99) == 0.0
    with pytest.raises(DomainError):
        schur_deficit(5, 4)


def test_schur_deficit_matches_entropy_gap():
    for m in range(1, 9):
        for n in range(m, 33):
            gap = diagonal_entropy_avg(m, n) - page_entropy(m, n)
            assert abs(gap - schur_deficit(m, n)) <= 4e-15
            # dephasing can only raise the average entropy
            assert page_entropy(m, n) <= diagonal_entropy_avg(m, n) + 1e-15


def test_schur_inequality_rational_sweep():
    for m in range(1, 65):
        for n in range(m, 65):
            gap = diagonal_entropy_avg_rational(m, n) - page_entropy_rational(m, n)
            assert gap == Fraction(m - 1, 2 * n)
            assert gap >= 0


# ---------------------------------------------------------------------------
# purity and Bloch moments


def test_moment_values():
    assert lubkin_purity(2, 2) == Fraction(4, 5)
    assert lubkin_purity(2, 8) == Fraction(10, 17)
    assert diagonal_second_moment(2, 8) == Fraction(9, 17)
    assert bloch_variance(2, 8) == Fraction(2, 34)
    assert bloch_variance(3, 3) == Fraction(2, 30)


def test_moment_consistency_identities():
    """purity - 1/m = (m^2-1)/2 * var  and  diag2 - 1/m = (m-1)/2 * var:
    the excess purity is spread evenly over all m^2-1 generators, of which
    m-1 (the diagonal ones) carry the diagonal excess."""
    for m in range(2, 9):
        for n in range(1, 65):
            var = bloch_variance(m, n)
            assert lubkin_purity(m, n) - Fraction(1, m) == Fraction(m * m - 1, 2) * var
            assert diagonal_second_moment(m, n) - Fraction(1, m) == Fraction(m - 1, 2) * var


@pytest.mark.parametrize(
    "fn", [lubkin_purity, diagonal_second_moment, bloch_variance, page_entropy]
)
def test_moment_domain(fn):
    with pytest.raises(InvalidDimensionError):
        fn(0, 5)
    with pytest.raises(InvalidDimensionError):
        fn(2, -1)
    with pytest.raises(InvalidDimensionError):
        fn(True, 5)
    with pytest.raises(InvalidDimensionError):
        fn(5, True)


# ---------------------------------------------------------------------------
# mutual information breakdown


def test_golden_breakdown_2_3_7():
    b = mutual_information_exact(Dimensions(2, 3, 7))
    assert b.total == pytest.approx(0.2845836800851875, abs=2e-15, rel=0)
    assert b.i_diag == pytest.approx(0.02267891818042558, abs=2e-15, rel=0)
    assert b.delta_ev == (24 - 2) / 84  # exact: (su - cartan)/(2N)
    assert b.g_value == pytest.approx(b.total / 24.0, abs=0, rel=1e-15)
    assert b.dims.regime_label == "factorised"


def test_breakdown_identity_bitwise():
    cases = [
        Dimensions(2, 3, 7),
        Dimensions(2, 2, 4),
        Dimensions(3, 4, 2),
        Dimensions(5, 5, 25),
        Dimensions(1, 5, 9),
        Dimensions(4, 3, 50),
    ]
    for dims in cases:
        b = mutual_information_exact(dims)
        assert b.total == b.i_diag + b.delta_ev  # exact float identity


def test_rational_route_2_3_7():
    value = mutual_information_rational(Dimensions(2, 3, 7))
    assert value == Fraction(62340954956252293, 219060189739591200)
    assert value == (
        i_diag_rational(Dimensions(2, 3, 7)) + Fraction(22, 84)
    )


def test_rational_route_2_2_4():
    assert mutual_information_rational(Dimensions(2, 2, 4)) == Fraction(200611, 720720)


def test_no_environment_case():
    # d_e = 1: globally pure AB, so I = 2 S_A for d_a = d_b
    assert mutual_information_rational(Dimensions(2, 2, 1)) == Fraction(2, 3)


def test_float_vs_rational_across_dims():
    rng = random.Random(123)
    cases = [(2, 3, 7), (2, 2, 4), (3, 4, 2), (1, 5, 9), (6, 6, 144)]
    while len(cases) < 25:
        d_a, d_b = rng.randint(1, 8), rng.randint(1, 8)
        d_e = rng.randint(1, 10_000 // (d_a * d_b))
        cases.append((d_a, d_b, d_e))
    for d_a, d_b, d_e in cases:
        dims = Dimensions(d_a, d_b, d_e)
        exact = float(mutual_information_rational(dims))
        total = mutual_information_exact(dims).total
        assert abs(total - exact) <= 1e-14 * max(1.0, abs(exact))


def test_float_vs_rational_relative_up_to_1e5():
    """Both the total and its diagonal part are within 1e-14 *relative* of
    the rational route, in both regimes and out to N = 1e5, where four
    O(ln N) digammas would cancel down to an O(1/N) result."""
    cases = [
        (d_a, d_b, d_e)
        for d_a in range(1, 7) for d_b in range(1, 7) for d_e in range(1, 13)
    ]
    cases += [(8, 9, 60), (3, 5, 1920), (2, 2, 15000), (2, 2, 25000)]
    for case in cases:
        dims = Dimensions(*case)
        b = mutual_information_exact(dims)
        for value, exact in (
            (b.total, float(mutual_information_rational(dims))),
            (b.i_diag, float(i_diag_rational(dims))),
        ):
            assert abs(value - exact) <= 1e-14 * abs(exact), case


def test_float_total_within_5e16_of_rational_on_grid():
    """Every triple with d_a, d_b <= 8 and d_e < 80, both regimes, including
    triples where one side outweighs the rest, such as (8, 2, 3), whose log
    term is not ``ln(C / d_e)``; the swapped regime reached 6.7e-15 at
    (8, 8, 63) when the total subtracted three ln N-sized entropies.  Its
    two parts, ``i_diag`` and ``delta_ev``, are held at the same 5e-16."""
    swapped = 0
    for d_a in range(1, 9):
        for d_b in range(1, 9):
            for d_e in range(1, 80):
                dims = Dimensions(d_a, d_b, d_e)
                rational = mutual_information_rational(dims)
                diagonal = i_diag_rational(dims)
                b = mutual_information_exact(dims)
                for value, exact, band in (
                    (b.total, float(rational), 5e-16),
                    (b.i_diag, float(diagonal), 5e-16),
                    (b.delta_ev, float(rational - diagonal), 5e-16),
                ):
                    assert abs(value - exact) <= band * abs(exact), (dims, value)
                swapped += not dims.factorised_regime
    assert swapped == 1232


def _page_decimal(m: int, n: int) -> Decimal:
    """Page's formula ``psi(mn+1) - psi(hi+1) - (lo-1)/(2 hi)``, term by
    term in Decimal."""
    lo, hi = sorted((m, n))
    return (
        digamma_decimal(m * n + 1) - digamma_decimal(hi + 1)
        - Decimal(lo - 1) / (2 * Decimal(hi))
    )


@pytest.mark.parametrize(
    "triple",
    [
        (10**6, 10**6, 10**12 - 1),
        (9, 54 * 10**12, 33 * 10**13),
        (64, 64, 8),
        (64, 2, 3),
        (2**300, 2**300, 2**400 - 1),  # N near 2**1000
        (2, 2**500, 2**500),
        (2, 2**30, 2**30),
        (3, 10**6, 10**6),
    ],
)
def test_large_n_against_decimal_reference(triple):
    """The total, its three Page entropies and the diagonal entropies of
    the same three bipartitions within 5e-16 relative of a 60-digit
    reference.  Subtracting three ``ln N``-sized entropies lost up to
    2.7e-14 at (10^6, 10^6, 10^12 - 1), and the digamma difference
    ``psi(mn+1) - psi(n+1)`` lost 7.9e-14 at the diagonal (2, 2^1000)."""
    d_a, d_b, d_e = triple
    pairs = ((d_a, d_b * d_e), (d_b, d_a * d_e), (d_a * d_b, d_e))
    with localcontext() as ctx:
        ctx.prec = 60
        entropies = [(page_entropy(m, n), _page_decimal(m, n)) for m, n in pairs]
        diagonal = [
            (diagonal_entropy_avg(m, n),
             digamma_decimal(m * n + 1) - digamma_decimal(n + 1))
            for m, n in pairs
        ]
        (_, s_a), (_, s_b), (_, s_ab) = entropies
        total = mutual_information_exact(Dimensions(*triple)).total
        checks = entropies + diagonal + [(total, s_a + s_b - s_ab)]
        for value, reference in checks:
            assert abs(Decimal(value) - reference) <= Decimal(5e-16) * abs(
                reference
            ), (value, reference)


def test_factorised_poles_are_the_paper_closed_form():
    """In the factorised regime the ``<I>`` parts are ``d_a x d_b d_e``,
    ``d_b x d_a d_e`` and ``C x d_e``: the log ratio vanishes, the
    rational's numerator is ``su``, and the parts' value, which the
    breakdown reads only through ``i_diag + delta_ev``, is as accurate."""
    for d_a in range(1, 6):
        for d_b in range(1, 6):
            c = d_a * d_b
            for d_e in (c, c + 1, 3 * c + 2):
                dims = Dimensions(d_a, d_b, d_e)
                parts = page_module._mutual_parts(dims, 2, sort=True)
                assert parts == (
                    (1, d_a, d_b * d_e, 2), (1, d_b, d_a * d_e, 2), (-1, c, d_e, 2)
                )
                (_, lo_a, _, _), (_, lo_b, _, _), (_, lo_c, _, _) = parts
                assert math.log(lo_a * lo_b / lo_c) == 0.0
                assert (
                    sum(s * (1 - m**p) for s, m, _, p in parts)
                    == casimir_counts(dims).su_product
                )
                exact = float(mutual_information_rational(dims))
                total = page_module._float_value(parts)
                assert abs(total - exact) <= 5e-16 * abs(exact), dims


def _poles(dims):
    """The net sign of each Binet pole of the ``<I>`` parts: a part
    ``(s, m, n, p)`` puts ``-s`` at ``m n`` and ``+s`` at ``n``, so the
    signs are ``-1`` at ``N`` and ``c``, ``+1`` at ``a`` and ``b`` (the
    ``hi`` of ``S_A``, ``S_B``, ``S_AB``), summed where two coincide."""
    poles = {}
    for s, m, n, _ in page_module._mutual_parts(dims, 2, sort=True):
        poles[m * n] = poles.get(m * n, 0) - s
        poles[n] = poles.get(n, 0) + s
    return poles


def test_poles_give_the_bernoulli_terms():
    """The Stirling series of the signed remainders is the paper's series:
    ``sum_i s_i B_2k / (2k z_i^2k) = zeta(1-2k) (d_a^2k - 1) (d_b^2k - 1)
    / N^2k``, exactly, with ``s_i`` the pole signs of the parts."""
    for d_a, d_b, d_e in [(2, 3, 7), (2, 2, 4), (3, 3, 9), (1, 4, 5), (2, 5, 12)]:
        dims = Dimensions(d_a, d_b, d_e)
        poles = _poles(dims)
        for k in range(1, 11):
            coef = bernoulli(2 * k) / (2 * k)
            series = sum(
                sign * coef / Fraction(z) ** (2 * k)
                for z, sign in poles.items()
            )
            assert series == series_term(dims, k), (dims, k)


def test_poles_give_the_bose_kernel():
    """``sum_i s_i t / (t^2 + z_i^2) = su kernel_R(t / d_e) / d_e`` with
    ``s_i`` the negated pole signs of the parts, equal dimensions
    included; the band scales with the sum of magnitudes because the
    kernel changes sign at ``t = d_e sqrt(C)``."""
    for triple in [(2, 3, 7), (3, 4, 20), (2, 2, 4), (3, 3, 9)]:
        dims = Dimensions(*triple)
        poles = {float(z): -sign for z, sign in _poles(dims).items()}
        su = casimir_counts(dims).su_product
        for t in [0.05 * 1.5**j for j in range(24)]:
            parts = [
                sign * t / (t * t + z * z)
                for z, sign in poles.items()
            ]
            kernel = su * kernel_R(t / dims.d_e, dims) / dims.d_e
            assert abs(math.fsum(parts) - kernel) <= 1e-14 * sum(
                abs(p) for p in parts
            ), (triple, t)


@pytest.mark.parametrize(
    "triple, total, i_diag, delta_ev",
    [
        ((2, 3, 7), "0x1.2369e77bc3cbcp-2", "0x1.739246f9308a8p-6",
         "0x1.0c30c30c30c31p-2"),
        ((3, 5, 960), "0x1.b4e6cfe7a83a2p-8", "0x1.2330b11c1420dp-12",
         "0x1.a2b3c4d5e6f81p-8"),
        ((20, 20, 400), "0x1.fd7152c6f8b95p-2", "0x1.279868c379d25p-10",
         "0x1.fc49ba5e353f8p-2"),
        ((1, 4, 9), "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        # swapped regime, where delta_ev keeps the poles of the sorted pairs
        ((3, 4, 2), "0x1.60c330ebb9203p+0", "0x1.bac82698b2bdfp-4",
         "0x1.4516ae822df45p+0"),
        ((10, 10, 50), "0x1.d8b2d9612c6c4p-1", "0x1.0859ae1ec6511p-7",
         "0x1.d49172a8b1530p-1"),
        ((64, 2, 3), "0x1.58e54c5f64794p+0", "0x1.33f01365f6692p-4",
         "0x1.45a64b290512bp+0"),
    ],
)
def test_breakdown_is_bitwise_pinned(triple, total, i_diag, delta_ev):
    b = mutual_information_exact(Dimensions(*triple))
    assert (b.total.hex(), b.i_diag.hex(), b.delta_ev.hex()) == (
        total, i_diag, delta_ev
    )


def test_rational_route_identities_on_grid():
    """The telescoped route equals the sum of its three Page entropies, is
    symmetric under A <-> B and, in the factorised regime, equals the
    diagonal part plus ``(su - cartan)/(2N)``, which sums other ranges."""
    grid = [
        Dimensions(d_a, d_b, d_e)
        for d_a in range(1, 7) for d_b in range(1, 7) for d_e in range(1, 40)
    ]
    factorised = 0
    for dims in grid:
        value = mutual_information_rational(dims)
        d_a, d_b, d_e = dims.d_a, dims.d_b, dims.d_e
        assert value == (
            page_entropy_rational(d_a, d_b * d_e)
            + page_entropy_rational(d_b, d_a * d_e)
            - page_entropy_rational(d_a * d_b, d_e)
        ), dims
        assert value == mutual_information_rational(Dimensions(d_b, d_a, d_e))
        if dims.factorised_regime:
            factorised += 1
            counts = casimir_counts(dims)
            delta_ev = Fraction(
                counts.su_product - counts.cartan_product, 2 * dims.n
            )
            assert value == i_diag_rational(dims) + delta_ev, dims
    assert (factorised, len(grid) - factorised) == (999, 405)


def test_rational_route_sums_two_ranges(monkeypatch):
    """Two harmonic ranges per triple, ``(N - a) + |b - c|`` terms in all,
    with ``a``, ``b``, ``c`` the larger factor of S_A, S_B, S_AB: both
    regimes, ``c > b`` at (4,4,2), and at (2,3,3) ``b == c``, whose range
    of length 0 is not summed."""
    lengths = []
    real = page_module._range_sum

    def counting(a, b):
        lengths.append(b - a)
        return real(a, b)

    monkeypatch.setattr(page_module, "_range_sum", counting)
    for triple, ranges, terms in [
        ((4, 5, 1000), 2, 18_000), ((4, 4, 2), 2, 32), ((2, 3, 3), 1, 9),
        ((3, 4, 2), 2, 22),
    ]:
        lengths.clear()
        mutual_information_rational(Dimensions(*triple))
        assert len(lengths) == ranges and sum(lengths) == terms, triple


#: sha256 of the exact values at each triple, captured before the rational
#: route summed in integer pairs: the benchmark's four ``exact-rational``
#: triples, a swapped triple and one with a dimension of 1.
RATIONAL_PINS = [
    ((2, 3, 1000), "4d8153b380314cb2fa0db6734869fe39affc4d6e834079bb0ff7d192a1db3f6e"),
    ((3, 4, 1000), "84afde7fb3aa18ca7738b4650dca774bc67e7e6e45e3752c5f2e49d72fa84d6c"),
    ((4, 5, 1000), "6c16d15244d438c83ffdaabaed820d18a7617eb689cb2ae33ae7107508292f1f"),
    ((2, 2, 5000), "575ee59ee2b8bf3bdd0b4424b5ef80adda01e6abd46463c865490f9374efeb17"),
    ((3, 4, 2), "ec26d457d947b46a51770e48b3d1e23c4377750c32650c6563e9d36b7fc9e8ba"),
    ((1, 3, 7), "b28733617c66c8e45fdec9774e8e82d89671fa748ba18818d9ee67c8c562298a"),
]


@pytest.mark.parametrize("triple, digest", RATIONAL_PINS)
def test_rational_values_are_pinned(triple, digest):
    """``<I>`` and ``i_diag``, then the Page and diagonal entropies of the
    factor pairs ``(d_a, d_b d_e)``, ``(d_b, d_a d_e)`` and ``(d_a d_b,
    d_e)``, as hex numerators and denominators."""
    dims = Dimensions(*triple)
    d_a, d_b, d_e = triple
    values = [mutual_information_rational(dims), i_diag_rational(dims)]
    for m, n in ((d_a, d_b * d_e), (d_b, d_a * d_e), (d_a * d_b, d_e)):
        values += [page_entropy_rational(m, n), diagonal_entropy_avg_rational(m, n)]
    text = ";".join(f"{v.numerator:x}/{v.denominator:x}" for v in values)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_closed_forms_evaluate_only_the_poles_left(monkeypatch):
    """Cost guard: a factorised breakdown evaluates the four remainders of
    ``i_diag`` and none for ``delta_ev``, whose poles all cancel (three at
    (2,2,4), where the poles at ``d_a d_e = d_b d_e`` merge); a swapped one
    evaluates at most ten; ``page_entropy`` at most two."""
    calls = []
    real = page_module._psi_remainder

    def counting(z):
        calls.append(z)
        return real(z)

    monkeypatch.setattr(page_module, "_psi_remainder", counting)
    for triple, count in [
        ((2, 3, 7), 4), ((3, 5, 960), 4), ((20, 21, 420), 4), ((2, 2, 4), 3)
    ]:
        calls.clear()
        mutual_information_exact(Dimensions(*triple))
        assert len(calls) == count, triple
    for d_a in range(1, 9):
        for d_b in range(1, 9):
            for d_e in range(1, d_a * d_b):
                calls.clear()
                mutual_information_exact(Dimensions(d_a, d_b, d_e))
                assert len(calls) <= 10, (d_a, d_b, d_e)
    for m, n in [(2, 3), (7, 7), (1, 9), (64, 5)]:
        calls.clear()
        page_entropy(m, n)
        assert len(calls) <= 2, (m, n)


def test_rational_route_leaves_no_state():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mutual_information_rational(Dimensions(2, 2, 6000))
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 100_000


@pytest.mark.parametrize("triple", [(2, 2, 2**14), (4, 5, 1000)])
def test_rational_route_memory_is_linear_in_the_result(triple):
    """The tracemalloc peak of one call is at most 7 S, S the size of the
    result's numerator plus denominator (two integers of size W = S/2).

    The bound is the design's held integers plus a measured margin for one
    product.  Every pair is at most W per integer: a merge divides out the
    gcd of its denominators, so the last one's is near the lcm of the
    range, within 1 % of the reduced result's.  While the longest range's
    top merge runs, the route holds the other range's pair (2W), the
    merge's two operand pairs (4W: each is at most the merged one), its
    gcd and quotients (W, their product is the merged denominator) and one
    finished product (W), 8W in all.  The product being formed is the
    largest temporary, and its cost is the interpreter's, so it is
    measured, not derived: on CPython 3.11 the tracemalloc peak of one
    product of two W/2-size integers, its result included, is 4.9W at
    (2,2,2**14) and 4.6W at (4,5,1000), and uneven operands peak lower.
    8W + 5W = 13W leaves 1W of 14W = 7 S for other interpreters, and the
    final reduction holds less.  No term grows with the number of merges,
    so memory stays linear in N."""
    dims = Dimensions(*triple)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = mutual_information_rational(dims)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(value.numerator) + sys.getsizeof(value.denominator)
    assert peak <= 7 * size, (peak, size)


def test_exact_factorisation_when_dimension_one():
    for d_b in range(1, 7):
        for d_e in (1, 2, 5, 11):
            assert mutual_information_exact(Dimensions(1, d_b, d_e)).total == 0.0
            assert mutual_information_exact(Dimensions(d_b, 1, d_e)).total == 0.0
            assert mutual_information_rational(Dimensions(1, d_b, d_e)) == 0
    # N within 2**970 of 2**1024 converts to no float; the remainders vanish
    assert mutual_information_exact(Dimensions(1, 1, 2**1024 - 1)).total == 0.0


def test_log_ratio_that_rounds_past_binary64():
    """The parts' integer ratio ``prod m^s`` stays below 2**1024 but can
    round up to it; its log is then a difference of two logs.  The total at
    (d, d, 1) overflowed that way: a pure state on AB, so <I> = 2 <S_A>."""
    m = 2**1024 - 1
    assert diagonal_entropy_avg(m, 1) == pytest.approx(
        math.log(m) - 1 + EULER_GAMMA, abs=0, rel=1e-15
    )
    d = 2**512 - 1
    b = mutual_information_exact(Dimensions(d, d, 1))
    assert b.total == pytest.approx(2 * page_entropy(d, d), abs=0, rel=1e-15)
    assert b.g_value is None


def test_swapped_regime_break():
    dims = Dimensions(3, 4, 2)
    b = mutual_information_exact(dims)
    assert not dims.factorised_regime
    assert 1.377 < b.total < 1.379
    assert b.g_value is None
    forced = forced_factorised_value(dims)
    assert 2.482 < forced < 2.484
    # rational route covers the swapped regime too
    exact = float(mutual_information_rational(dims))
    assert abs(b.total - exact) <= 1e-14 * exact
    assert mutual_information_rational(dims) == Fraction(7378011637, 5354228880)


def test_forced_value_matches_exact_in_factorised_regime():
    for dims in (Dimensions(2, 3, 7), Dimensions(2, 2, 4), Dimensions(4, 5, 20)):
        assert forced_factorised_value(dims) == mutual_information_exact(dims).total


def test_delta_ev_closed_form_in_factorised_regime():
    for dims in (Dimensions(2, 3, 7), Dimensions(3, 3, 9), Dimensions(2, 5, 40)):
        b = mutual_information_exact(dims)
        counts = casimir_counts(dims)
        assert b.delta_ev == (counts.su_product - counts.cartan_product) / (2 * dims.n)


def test_total_below_leading_order():
    # exhaustive over the factorised band d_e in [C, 4C], not just spot values
    for d_a in range(2, 7):
        for d_b in range(2, 7):
            c = d_a * d_b
            for d_e in range(c, 4 * c + 1):
                b = mutual_information_exact(Dimensions(d_a, d_b, d_e))
                assert b.total < leading_order(b.dims)
                assert b.delta_ev > 0.0


def test_i_diag_rational_vs_float():
    for dims in (Dimensions(2, 3, 7), Dimensions(2, 2, 4), Dimensions(5, 4, 20)):
        b = mutual_information_exact(dims)
        exact = float(i_diag_rational(dims))
        assert abs(b.i_diag - exact) <= 1e-14 * max(1.0, abs(exact))
        assert math.copysign(1.0, b.i_diag) > 0
