# The Monte Carlo oracle: sampled states against closed forms
# ------------------------------------------------------------
#
# Everything analytic in this package can be checked by brute force:
# draw the Wishart (Bartlett) factor of the rho_AB of Haar-random pure
# states, trace out parts, diagonalise, average.
# This script runs the sampler on one triple and reports z-scores of
# every analytic prediction, then shows the "democratic" Bloch-variance
# property and the bitwise determinism of the parallel sampler.
#
# Run:  python demos/04_haar_oracle.py

import dataclasses

from haarmi import (
    Dimensions,
    bloch_variance,
    diagonal_entropy_avg,
    diagonal_second_moment,
    lubkin_purity,
    mutual_information_exact,
    page_entropy,
    run_oracle,
)

dims = Dimensions(2, 3, 7)
d_a, d_b, d_e = dims.d_a, dims.d_b, dims.d_e
stats = run_oracle(dims, n_samples=20_000, seed=42, workers=4)

print(f"{stats.n_samples} Haar samples on {dims}, seed {stats.seed}")
print(f"rng: {stats.rng}")
print()
print("quantity                 sampled       analytic      z")
rows = [
    ("mutual information", stats.mean_mutual_information,
     stats.stderr_mutual_information, mutual_information_exact(dims).total),
    ("entropy of A", stats.mean_entropy_a, stats.stderr_entropy_a,
     page_entropy(d_a, d_b * d_e)),
    ("entropy of B", stats.mean_entropy_b, stats.stderr_entropy_b,
     page_entropy(d_b, d_a * d_e)),
    ("entropy of AB", stats.mean_entropy_ab, stats.stderr_entropy_ab,
     page_entropy(d_a * d_b, d_e)),
    ("diagonal entropy of A", stats.mean_diagonal_entropy_a,
     stats.stderr_diagonal_entropy_a, diagonal_entropy_avg(d_a, d_b * d_e)),
    ("purity of A", stats.mean_purity_a, stats.stderr_purity_a,
     float(lubkin_purity(d_a, d_b * d_e))),
    ("diag second moment", stats.mean_diagonal_second_moment_a,
     stats.stderr_diagonal_second_moment_a,
     float(diagonal_second_moment(d_a, d_b * d_e))),
]
for label, mean, stderr, analytic in rows:
    z = (mean - analytic) / stderr
    print(f"{label:22s} {mean:.6f}   {analytic:.6f}  {z:+5.2f}")

# Bloch democracy: every su(m) generator of the reduced state carries the
# same variance, whether it lives in the diagonal (Cartan) sector or not.
print("\nBloch-sector variances of the reduced state (m levels, env n):")
for m, n in [(2, 8), (3, 3)]:
    b = run_oracle(Dimensions(m, n, 1), n_samples=20_000, seed=42, workers=4)
    target = float(bloch_variance(m, n))
    print(f"  m = {m}, n = {n}:  cartan {b.cartan_var:.6f}"
          f" +- {b.stderr_cartan_var:.6f},  off-diag {b.offdiag_var:.6f}"
          f" +- {b.stderr_offdiag_var:.6f},  2/(m(mn+1)) = {target:.6f}")

# Determinism: each chunk of 512 samples is one stream keyed by
# (seed, chunk index), from which it draws the Bartlett factors of rho_AB
# in either regime, so the worker count cannot change a single bit of the
# result.
single = run_oracle(dims, n_samples=5_000, seed=7, workers=1)
eight = run_oracle(dims, n_samples=5_000, seed=7, workers=8)
same = dataclasses.asdict(single) == dataclasses.asdict(eight)
print(f"\n1 worker vs 8 workers, 5000 samples: bitwise identical = {same}")
