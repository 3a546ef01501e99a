"""Dimension bookkeeping for a tripartite A:B:E split of a pure state.

A global pure state lives on a Hilbert space of total dimension
``N = d_a * d_b * d_e``.  Subsystems A and B are the ones whose mutual
information is studied; E is the traced-over environment.  Everything
downstream branches on a single regime flag: the *factorised* regime
``d_a * d_b <= d_e`` (environment at least as large as the joint system)
versus the *swapped* regime (environment smaller).

It also holds the oracle's contract, which needs no numpy: the sampling
cap (:func:`_cap_excess`), the largest N whose draw fits binary64, the
chunk size, the seed range and the identity string of the random streams.
``haarmi.sampling`` draws by it and the CLI checks and reports it, so every
command can validate its seed and the ``verify`` skip rules without
loading the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidDimensionError, RegimeError, _require_int


#: Exclusive bound on ``N``: ``float(N)`` and ``1.0 / N`` overflow from here.
_N_LIMIT = 2**1024

#: Most entries of the one array the oracle forms per sample: the Bartlett
#: factor, ``C e`` entries with ``e = min(C, d_e)`` (N in the swapped
#: regime, C^2 in the factorised one).
STATE_DIMENSION_CAP = 4096

#: Largest N the oracle can draw in binary64.  The unscaled Bartlett
#: factor's squared norm has mean 2N in both regimes (``2 Gamma(d_e)`` when
#: C = 1); near N = 2**1023 it overflows, and the normalised factor reads 0
#: or NaN.  Half the range leaves room for its spread and rounding.  Only
#: factorised triples reach it; the sampling cap stops swapped ones far below.
_DRAW_N_LIMIT = 2**1022

#: Samples per work unit; fixed so results never depend on worker count.
CHUNK_SIZE = 512

#: Identity string of the random streams, recorded in every result.
RNG_IDENTITY = (
    f"philox4x64-10 (numpy.random.Philox), "
    f"key=(seed, sample_index // {CHUNK_SIZE}), "
    f"sample = row sample_index % {CHUNK_SIZE}; "
    f"Bartlett factor of rho_AB, C x e lower trapezoidal with "
    f"e = min(C, d_e): the chunk's {CHUNK_SIZE} x e gammas Gamma(d_e - i) "
    f"then C*e - e(e+1)/2 complex normals per row"
)

#: Seeds must fit one 64-bit word; the seed and the chunk index are the
#: two words of the Philox key.
_KEY_LIMIT = 2**64


class CasimirCounts(NamedTuple):
    """Generator counts entering the leading term and its correction.

    su_product:     (d_a^2 - 1) * (d_b^2 - 1), the number of generator pairs
                    of su(d_a) x su(d_b).
    cartan_product: (d_a - 1) * (d_b - 1), the diagonal (Cartan) subset.
    """

    su_product: int
    cartan_product: int


@dataclass(frozen=True)
class Dimensions:
    """Validated subsystem dimensions ``(d_a, d_b, d_e)``.

    All three must be positive integers; ``d_e = 1`` (no environment,
    globally pure AB) is allowed.  ``N = d_a d_b d_e`` must be below
    ``2**1024``, the binary64 range every float route divides by.
    """

    d_a: int
    d_b: int
    d_e: int

    def __post_init__(self):
        for name in ("d_a", "d_b", "d_e"):
            _require_int(name, getattr(self, name), 1, InvalidDimensionError)
        if self.n >= _N_LIMIT:
            raise InvalidDimensionError(
                f"N = d_a*d_b*d_e has {self.n.bit_length()} bits; "
                f"the routes need N < 2**1024"
            )

    @property
    def n(self) -> int:
        """Total Hilbert-space dimension ``d_a * d_b * d_e``."""
        return self.d_a * self.d_b * self.d_e

    @property
    def factorised_regime(self) -> bool:
        """True when ``d_a * d_b <= d_e`` (large-environment regime)."""
        return self.d_a * self.d_b <= self.d_e

    @property
    def regime_label(self) -> str:
        return "factorised" if self.factorised_regime else "swapped"

    def require_factorised(self, route: str) -> None:
        """Raise :class:`RegimeError` unless ``d_a * d_b <= d_e``: the one
        guard of every route that expands the factorised closed form."""
        if not self.factorised_regime:
            raise RegimeError(
                f"the {route} route requires the factorised regime "
                f"d_a*d_b <= d_e, got {self}"
            )


def casimir_counts(dims: Dimensions) -> CasimirCounts:
    """Exact integer counts ``((d_a^2-1)(d_b^2-1), (d_a-1)(d_b-1))``."""
    return CasimirCounts(
        su_product=(dims.d_a**2 - 1) * (dims.d_b**2 - 1),
        cartan_product=(dims.d_a - 1) * (dims.d_b - 1),
    )


def leading_order(dims: Dimensions) -> float:
    """Leading large-N mutual information ``(d_a^2-1)(d_b^2-1) / (2N)``.

    Both numerator and denominator are exact integers, so the result is
    correctly rounded; it is exactly 0.0 when either dimension is 1.
    """
    counts = casimir_counts(dims)
    return counts.su_product / (2 * dims.n)


def _cap_excess(dims: Dimensions) -> str | None:
    """The size of the Bartlett factor the oracle draws per sample, ``C e``
    entries on ``A x B x E'``: ``"N = 5000"`` (swapped regime, ``e = d_e``)
    or ``"C^2 = 5184"`` (factorised regime, ``e = C``), when it exceeds
    ``STATE_DIMENSION_CAP`` entries; else None."""
    c = dims.d_a * dims.d_b
    name, size = ("C^2", c * c) if dims.factorised_regime else ("N", dims.n)
    return f"{name} = {size}" if size > STATE_DIMENSION_CAP else None
