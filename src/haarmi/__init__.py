"""Average bipartite mutual information of Haar-random pure states.

For a random pure state on A x B x E the ensemble-average mutual
information <I(A:B)> is computed by four independent routes:

* exact closed form in binary64 (digamma) and exact rationals (harmonic
  numbers) -- :mod:`haarmi.page`;
* a divergent large-N Bernoulli expansion with superasymptotic
  truncation -- :mod:`haarmi.series`;
* a convergent Bose-Einstein integral that resums that expansion and
  proves the strict leading-order bound -- :mod:`haarmi.integral`;
* a Haar Monte Carlo oracle -- :mod:`haarmi.sampling`.

Only the quadrature and the oracle need numpy.  The oracle's names are
resolved on first use (PEP 562), so ``import haarmi`` loads no numpy, and
the quadrature imports it on its first call.
"""

__version__ = "0.1.0"

from .dims import (
    CHUNK_SIZE,
    RNG_IDENTITY,
    STATE_DIMENSION_CAP,
    CasimirCounts,
    Dimensions,
    casimir_counts,
    leading_order,
)
from .errors import (
    DomainError,
    HaarMIError,
    InvalidDimensionError,
    NonConvergenceError,
    NumericalValidityError,
    OracleWorkerError,
    RegimeError,
)
from .special import (
    BERNOULLI_LIMIT,
    EULER_GAMMA,
    bernoulli,
    digamma,
    harmonic_rational,
    zeta_negative_odd,
)
from .page import (
    MutualInformationBreakdown,
    bloch_variance,
    diagonal_entropy_avg,
    diagonal_entropy_avg_rational,
    diagonal_second_moment,
    forced_factorised_value,
    i_diag_rational,
    lubkin_purity,
    mutual_information_exact,
    mutual_information_rational,
    page_entropy,
    page_entropy_rational,
    schur_deficit,
)
from .series import (
    K_MAX_DEFAULT,
    SeriesExpansion,
    bernoulli_term,
    expand,
)
from .integral import (
    EVAL_BUDGET,
    QuadratureResult,
    binet_tail,
    bound_deficit,
    compute_J,
    folded_integrand,
    kernel_R,
    mutual_information_integral,
)

__all__ = [
    "__version__",
    # dims
    "CasimirCounts", "Dimensions", "casimir_counts", "leading_order",
    # errors
    "HaarMIError", "InvalidDimensionError", "DomainError", "RegimeError",
    "NonConvergenceError", "NumericalValidityError", "OracleWorkerError",
    # special functions
    "BERNOULLI_LIMIT", "EULER_GAMMA", "bernoulli", "digamma",
    "harmonic_rational", "zeta_negative_odd",
    # closed forms
    "MutualInformationBreakdown", "page_entropy", "page_entropy_rational",
    "diagonal_entropy_avg", "diagonal_entropy_avg_rational", "schur_deficit",
    "mutual_information_exact", "mutual_information_rational",
    "forced_factorised_value", "i_diag_rational", "lubkin_purity",
    "diagonal_second_moment", "bloch_variance",
    # series
    "K_MAX_DEFAULT", "SeriesExpansion", "bernoulli_term", "expand",
    # integral
    "EVAL_BUDGET", "QuadratureResult", "binet_tail", "bound_deficit",
    "compute_J", "folded_integrand", "kernel_R", "mutual_information_integral",
    # sampling
    "CHUNK_SIZE", "RNG_IDENTITY", "STATE_DIMENSION_CAP",
    "HaarSampleStats", "run_oracle",
]

#: Public names of :mod:`haarmi.sampling`, which imports numpy at load.
_SAMPLING_NAMES = frozenset({"HaarSampleStats", "run_oracle"})


def __getattr__(name: str):
    if name in _SAMPLING_NAMES:
        from . import sampling

        return getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SAMPLING_NAMES)
