# The integral that resums the series, and the bound it proves
# -------------------------------------------------------------
#
# The divergent Bernoulli series has a convergent counterpart: a single
# integral of a rational kernel against the Bose-Einstein weight
# 1/(e^{2 pi d_E u} - 1).  The kernel changes sign at u = sqrt(d_A d_B),
# but it is antisymmetric under the scale inversion u -> d_A d_B / u, so
# folding the integral onto (0, sqrt(d_A d_B)] makes the integrand
# pointwise non-negative.  A manifestly positive integral means the
# leading-order value strictly overshoots the true average -- for every
# dimension triple in the factorised regime, not just asymptotically.
#
# Run:  python demos/03_folded_integral.py

import math

import numpy as np

from haarmi import (
    Dimensions,
    binet_tail,
    bound_deficit,
    compute_J,
    digamma,
    folded_integrand,
    kernel_R,
    leading_order,
    mutual_information_exact,
)

dims = Dimensions(2, 3, 7)
c = dims.d_a * dims.d_b
fold = math.sqrt(c)

print(f"dims = {dims}, kernel sign flips at u = sqrt({c}) = {fold:.4f}")
print()
print("  u      kernel R(u)      folded integrand")
for u in (0.5, 1.0, 2.0, fold, 3.0, 5.0):
    folded = folded_integrand(u, dims) if u <= fold else float("nan")
    shown = f"{folded:.6e}" if u <= fold else "  (outside fold)"
    print(f"{u:5.3f}  {kernel_R(u, dims):+.6e}   {shown}")

# The folded integrand never goes negative on a dense grid.
grid = np.linspace(fold * 1e-4, fold, 10_000)
values = [folded_integrand(u, dims) for u in grid]
print(f"\nminimum of the folded integrand on 10^4 points: {min(values):.3e}")

# The fold is the witness that J > 0; J itself comes from one quadrature
# in t = d_E u, where the weight 1/(e^{2 pi t} - 1) has unit width.  The
# folded form, integrated on a fixed grid, gives the same number.
result = compute_J(dims)
print(f"\nJ = {result.value:.17g}  "
      f"({result.evaluations} evaluations, error {result.error_estimate:.1e})")
nodes, weights = np.polynomial.legendre.leggauss(48)
edges = np.linspace(0.0, fold, 201)
folded = 0.0
for lo, hi in zip(edges[:-1], edges[1:]):
    u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    values = [folded_integrand(x, dims) for x in u]
    folded += 0.5 * (hi - lo) * float(np.dot(values, weights))
print(f"folded form on a fixed grid: {folded:.17g}")
lead = leading_order(dims)
exact = mutual_information_exact(dims).total
deficit = bound_deficit(dims)
print(f"leading order      {lead:.12f}")
print(f"exact average      {exact:.12f}")
print(f"deficit (= 2suJ)   {deficit:.3e}   fraction {deficit / lead:.4%}")

print("\nfractional deficit across a few factorised triples:")
for triple in [(2, 2, 4), (2, 3, 6), (3, 3, 9), (4, 4, 16), (2, 3, 24)]:
    d = Dimensions(*triple)
    print(f"  {triple}: {bound_deficit(d) / leading_order(d):.4%}")

# The same machinery, one level down: the quadrature reproduces the
# digamma function itself through its tail-integral representation.
print("\ndigamma(z+1) vs ln z + 1/(2z) - 2 * tail integral:")
for z in (1.0, 6.0, 42.0):
    lhs = digamma(z + 1.0)
    rhs = math.log(z) + 0.5 / z - 2.0 * binet_tail(z).value
    print(f"  z = {z:5.1f}: {lhs:.15f} vs {rhs:.15f}  "
          f"(gap {abs(lhs - rhs):.1e})")
