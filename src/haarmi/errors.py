"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class.
The command-line driver maps the invalid-input classes (bad dimension,
domain, regime) to exit code 2 and every other :class:`HaarMIError` to
exit code 3.
"""


class HaarMIError(Exception):
    """Base class for all package-specific errors; never raised itself."""


class InvalidDimensionError(HaarMIError, ValueError):
    """A subsystem dimension is not a positive integer, or a product overflows
    a configured cap."""


class DomainError(HaarMIError, ValueError):
    """An argument lies outside the mathematical domain of a function
    (e.g. a non-positive point for the digamma function, an even index
    where an odd one is required)."""


class RegimeError(HaarMIError, ValueError):
    """An operation that requires the factorised regime (d_A * d_B <= d_E)
    was invoked on swapped-regime dimensions; raised only by
    ``Dimensions.require_factorised``."""


class NonConvergenceError(HaarMIError, ArithmeticError):
    """A quadrature's error bound cannot meet the requested tolerance."""


class NumericalValidityError(HaarMIError, ArithmeticError):
    """A numerical sanity invariant was violated (e.g. a reduced density
    matrix produced an eigenvalue below -1e-10 or a non-finite weight)."""


class OracleWorkerError(HaarMIError, RuntimeError):
    """A Monte Carlo worker raised; the run is aborted and partial results
    are discarded."""


def _require_int(
    name: str, value, minimum: int, error: type[HaarMIError] = DomainError
) -> None:
    """Raise ``error`` unless ``value`` is an int (bools excluded) that is
    at least ``minimum``; the one integer check every module shares."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise error(f"{name} must be an int >= {minimum}, got {value!r}")
