"""Monte Carlo oracle: entropies of Haar-random pure states.

States are drawn by normalising a vector of iid complex Gaussians, which
is exactly Haar-distributed on the unit sphere.  The chunk of
``CHUNK_SIZE`` samples is the unit of randomness: chunk ``c`` under
``seed`` is one counter-based Philox stream keyed by ``(seed, c)`` (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), drawn as
one ``(CHUNK_SIZE, N)`` block of complex Gaussians, and sample ``index`` is
row ``index % CHUNK_SIZE`` of chunk ``index // CHUNK_SIZE``.  Every sample
is therefore reproducible in isolation, and results are bitwise
independent of chunking order and worker count.

:func:`run_oracle` goes through one chunk driver: it splits the sample
range into fixed chunks of ``CHUNK_SIZE`` states and calls the run's work
function on each, on a pool of ``workers`` threads.  Each chunk writes a
disjoint slice of the per-sample result arrays, so the worker count
changes nothing about the final reductions (numpy's pairwise
``sum``/``mean`` over a fixed-length array is a fixed reduction tree).

Every reduced state is one batched Gram product ``x @ x^H`` of a reshaped
view ``x`` of the chunk, shaped ``(z, d_a, d_b, d_e)``: ``rho_A`` keeps the
A axis as rows, ``rho_B`` the B axis, ``rho_AB`` the merged AB axis, and
``rho_E`` the E axis (the transpose of the AB view).  A pure state has
``S_AB = S_E``, so :func:`run_oracle` takes ``S_AB`` from ``rho_AB`` when
``d_a d_b <= d_e`` and from ``rho_E`` otherwise, and never diagonalises a
matrix larger than ``max(d_a, d_b, min(d_a d_b, d_e))``.  The same kernel
serves :func:`mutual_info_sample` and :func:`reduce_state`, each a batch
of one, so the batched and single-sample routes agree bitwise.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dims import Dimensions
from .errors import (
    DomainError,
    InvalidDimensionError,
    NumericalValidityError,
    OracleWorkerError,
    _require_int,
)

#: Largest total Hilbert-space dimension a state may have.
STATE_DIMENSION_CAP = 4096

#: Samples per work unit; fixed so results never depend on worker count.
CHUNK_SIZE = 512

#: Identity string of the random stream, recorded in every result.
RNG_IDENTITY = (
    f"philox4x64-10 (numpy.random.Philox), "
    f"key=(seed, sample_index // {CHUNK_SIZE}), "
    f"sample = row sample_index % {CHUNK_SIZE}"
)

#: Seeds and sample indices must fit one 64-bit word; the seed and the
#: chunk index are the two words of the Philox key.
_KEY_LIMIT = 2**64

_EIG_FLOOR = 1e-14
_EIG_NEG_LIMIT = -1e-10


@dataclass(frozen=True)
class PureState:
    """Normalised state vector of length ``dims.n``."""

    amplitudes: np.ndarray
    dims: Dimensions


@dataclass(frozen=True)
class HaarSampleStats:
    """Sample means (with standard errors) over a Haar Monte Carlo run.

    The Bloch-sector fields pool the squared components ``r_a^2`` of the
    reduced state of A over the diagonal (Cartan) generators and over the
    off-diagonal generators separately; they are None when ``d_a = 1``
    (no generators).  The Bloch statistics of an m-level state with
    environment n are those of ``Dimensions(m, n, 1)``.
    """

    dims: Dimensions
    n_samples: int
    seed: int
    rng: str
    mean_entropy_a: float
    stderr_entropy_a: float
    mean_entropy_b: float
    stderr_entropy_b: float
    mean_entropy_ab: float
    stderr_entropy_ab: float
    mean_mutual_information: float
    stderr_mutual_information: float
    mean_purity_a: float
    stderr_purity_a: float
    mean_diagonal_entropy_a: float
    stderr_diagonal_entropy_a: float
    mean_diagonal_second_moment_a: float
    stderr_diagonal_second_moment_a: float
    cartan_var: float | None
    stderr_cartan_var: float | None
    offdiag_var: float | None
    stderr_offdiag_var: float | None


@dataclass(frozen=True)
class GellMannBasis:
    """Traceless Hermitian generators normalised to Tr(g_a g_b) = 2 delta_ab.

    Ordering: for each index pair i < j the symmetric then the
    antisymmetric generator, followed by the m-1 diagonal (Cartan)
    generators.
    """

    matrices: np.ndarray
    is_cartan: np.ndarray

    @property
    def count(self) -> int:
        return self.matrices.shape[0]


def _check_key(name: str, value: int) -> None:
    _require_int(name, value, 0)
    if value >= _KEY_LIMIT:
        raise DomainError(f"{name} must be below 2**64, got {value}")


def _check_cap(dims: Dimensions) -> None:
    if dims.n > STATE_DIMENSION_CAP:
        raise InvalidDimensionError(
            f"total dimension {dims.n} exceeds the sampling cap "
            f"{STATE_DIMENSION_CAP}"
        )


def _sample_block(dims: Dimensions, seed: int, start: int, count: int) -> np.ndarray:
    """Rows ``start .. start+count-1`` of the sample stream, shape (count, N).

    The rows must lie in one chunk.  Its stream is drawn from the chunk's
    first row, so rows before ``start`` are drawn and dropped."""
    chunk, row = divmod(start, CHUNK_SIZE)
    assert row + count <= CHUNK_SIZE, "rows span two chunks"
    key = np.array([seed, chunk], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    block = np.empty((row + count, dims.n), dtype=np.complex128)
    # Real and imaginary parts alternate, as in the complex128 memory layout.
    gen.standard_normal(out=block.view(np.float64))
    if row:
        block = block[row:].copy()
    parts = block.view(np.float64)
    # einsum forms the squared row norms without a block-sized temporary.
    parts /= np.sqrt(np.einsum("ij,ij->i", parts, parts))[:, None]
    return block


def _check_run(dims: Dimensions, n_samples: int, seed: int) -> None:
    _check_key("seed", seed)
    _check_cap(dims)
    _require_int("n_samples", n_samples, 2)


def sample_state(dims: Dimensions, seed: int, index: int) -> PureState:
    """The ``index``-th Haar-random pure state under ``seed``: row
    ``index % CHUNK_SIZE`` of chunk ``index // CHUNK_SIZE``, identical no
    matter which other samples are drawn.

    The chunk's stream is drawn up to the requested row, so one call costs
    the Gaussian draws of ``index % CHUNK_SIZE + 1`` states (up to
    ``CHUNK_SIZE``); use :func:`run_oracle` to sample many states."""
    _check_key("seed", seed)
    _check_key("sample index", index)
    _check_cap(dims)
    amplitudes = _sample_block(dims, seed, index, 1)[0]
    return PureState(amplitudes=amplitudes, dims=dims)


def _gram(x: np.ndarray) -> np.ndarray:
    """``x @ x^H`` for a batch of matrices ``x`` shaped ``(z, m, k)``: the
    reduced state on the ``m`` row levels, with the ``k`` column levels
    traced out."""
    return x @ x.conj().transpose(0, 2, 1)


#: Per target, the ``(z, m, k)`` view of a batch of states shaped
#: ``(z, d_a, d_b, d_e)`` whose Gram product is that reduced state.  The E
#: view is the transpose of the AB view, so its Gram product is ``rho_E``
#: itself, not its conjugate.
_VIEWS = {
    "A": lambda t, a, b, e: t.reshape(-1, a, b * e),
    "B": lambda t, a, b, e: t.transpose(0, 2, 1, 3).reshape(-1, b, a * e),
    "AB": lambda t, a, b, e: t.reshape(-1, a * b, e),
    "E": lambda t, a, b, e: t.reshape(-1, a * b, e).transpose(0, 2, 1),
}


def _reduce(t: np.ndarray, keep: str) -> np.ndarray:
    """The reduced states on ``keep`` of a batch of states shaped
    ``(z, d_a, d_b, d_e)``."""
    return _gram(_VIEWS[keep](t, *t.shape[1:]))


def reduce_state(
    state: PureState, keep: Literal["A", "B", "AB", "E"]
) -> np.ndarray:
    """Partial trace of a pure tripartite state down to A, B, AB or E: the
    Hermitian, unit-trace reduced density matrix."""
    if keep not in _VIEWS:
        raise DomainError(f"keep must be 'A', 'B', 'AB' or 'E', got {keep!r}")
    d = state.dims
    return _reduce(state.amplitudes.reshape(1, d.d_a, d.d_b, d.d_e), keep)[0]


def _entropy_from_weights(weights: np.ndarray, what: str) -> np.ndarray:
    """Shannon entropy along the last axis with the eigenvalue policy:
    weights below -1e-10 are an error, tiny/negative ones contribute 0."""
    if np.any(weights < _EIG_NEG_LIMIT):
        raise NumericalValidityError(
            f"{what} produced a weight below {_EIG_NEG_LIMIT:g}: "
            f"{float(weights.min()):.3e}"
        )
    safe = np.maximum(weights, _EIG_FLOOR)
    contrib = np.where(weights > _EIG_FLOOR, -safe * np.log(safe), 0.0)
    return np.sum(contrib, axis=-1)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """``-Tr rho ln rho`` from the eigenvalues of a Hermitian matrix."""
    eigenvalues = np.linalg.eigvalsh(rho)
    return float(_entropy_from_weights(eigenvalues, "eigendecomposition"))


def diagonal_entropy(rho: np.ndarray) -> float:
    """Shannon entropy of the diagonal of a density matrix in the
    computational basis."""
    diag = np.diagonal(rho).real.copy()
    return float(_entropy_from_weights(diag, "diagonal"))


def _entropies(rho: np.ndarray, what: str) -> np.ndarray:
    """Per-sample von Neumann entropy of a batch of reduced states; a
    one-level state is pure and has entropy 0."""
    if rho.shape[-1] == 1:
        return np.zeros(rho.shape[0])
    return _entropy_from_weights(
        np.linalg.eigvalsh(rho), f"eigendecomposition of {what}"
    )


def _sample_entropies(
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``rho_A`` and the per-sample ``S_A``, ``S_B``, ``S_AB`` of a batch of
    states shaped ``(z, d_a, d_b, d_e)``.

    A pure state has ``S_AB = S_E`` (Schmidt), so ``S_AB`` comes from the
    smaller of ``rho_AB`` and ``rho_E``.  When ``d_a = 1`` (``d_b = 1``),
    ``rho_AB`` is ``rho_B`` (``rho_A``), and ``S_AB`` is taken from it, so
    that the per-sample I is exactly 0."""
    _, d_a, d_b, d_e = t.shape
    rho_a = _reduce(t, "A")
    s_a = _entropies(rho_a, "A")
    s_b = _entropies(_reduce(t, "B"), "B")
    if d_a == 1:
        s_ab = s_b
    elif d_b == 1:
        s_ab = s_a
    else:
        side = "AB" if d_a * d_b <= d_e else "E"
        s_ab = _entropies(_reduce(t, side), side)
    return rho_a, s_a, s_b, s_ab


def mutual_info_sample(dims: Dimensions, seed: int, index: int) -> float:
    """``S_A + S_B - S_AB`` for one reproducible sample, by the oracle's
    kernel on a batch of one."""
    state = sample_state(dims, seed, index)
    t = state.amplitudes.reshape(1, dims.d_a, dims.d_b, dims.d_e)
    _, s_a, s_b, s_ab = _sample_entropies(t)
    return float(s_a[0] + s_b[0] - s_ab[0])


def gell_mann_basis(m: int) -> GellMannBasis:
    """The ``m^2 - 1`` generalised Gell-Mann matrices for su(m)."""
    _require_int("m", m, 2)
    matrices = np.zeros((m * m - 1, m, m), dtype=np.complex128)
    flags = np.zeros(m * m - 1, dtype=bool)
    idx = 0
    for i in range(m):
        for j in range(i + 1, m):
            matrices[idx, i, j] = 1.0
            matrices[idx, j, i] = 1.0
            idx += 1
            matrices[idx, i, j] = -1.0j
            matrices[idx, j, i] = 1.0j
            idx += 1
    for level in range(1, m):
        scale = math.sqrt(2.0 / (level * (level + 1)))
        for i in range(level):
            matrices[idx, i, i] = scale
        matrices[idx, level, level] = -level * scale
        flags[idx] = True
        idx += 1
    return GellMannBasis(matrices=matrices, is_cartan=flags)


def _run_chunks(n_samples: int, workers: int, work) -> None:
    """Call ``work(start, stop)`` on each ``CHUNK_SIZE`` slice of
    ``range(n_samples)`` on a pool of ``workers`` threads; any failure in a
    chunk is raised as :class:`OracleWorkerError`."""
    _require_int("workers", workers, 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(work, start, min(start + CHUNK_SIZE, n_samples))
            for start in range(0, n_samples, CHUNK_SIZE)
        ]
        for future in futures:
            try:
                future.result()
            except Exception as exc:
                raise OracleWorkerError(
                    f"a Monte Carlo worker failed ({exc!r}); partial "
                    f"results discarded"
                ) from exc


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return mean, stderr


def run_oracle(
    dims: Dimensions, n_samples: int, seed: int, workers: int = 1
) -> HaarSampleStats:
    """Sample statistics of S_A, S_B, S_AB, I, purity, diagonal moments and
    Bloch sector variances over ``n_samples`` Haar-random states."""
    _check_run(dims, n_samples, seed)
    d_a, d_b = dims.d_a, dims.d_b
    basis = gell_mann_basis(d_a) if d_a >= 2 else None

    entropy_a = np.empty(n_samples)
    entropy_b = np.empty(n_samples)
    entropy_ab = np.empty(n_samples)
    purity_a = np.empty(n_samples)
    diag_entropy_a = np.empty(n_samples)
    diag_second_a = np.empty(n_samples)
    cartan_sq = np.empty(n_samples) if basis is not None else None
    offdiag_sq = np.empty(n_samples) if basis is not None else None

    def work(start: int, stop: int) -> None:
        block = _sample_block(dims, seed, start, stop - start)
        rho_a, s_a, s_b, s_ab = _sample_entropies(
            block.reshape(-1, d_a, d_b, dims.d_e)
        )
        entropy_a[start:stop] = s_a
        entropy_b[start:stop] = s_b
        entropy_ab[start:stop] = s_ab
        purity_a[start:stop] = np.einsum("zij,zji->z", rho_a, rho_a).real
        diag = np.diagonal(rho_a, axis1=1, axis2=2).real
        diag_entropy_a[start:stop] = _entropy_from_weights(diag, "diagonal of A")
        diag_second_a[start:stop] = np.sum(diag * diag, axis=-1)
        if basis is not None:
            bloch = np.einsum("gij,zji->zg", basis.matrices, rho_a).real
            squares = bloch * bloch
            cartan_sq[start:stop] = np.mean(squares[:, basis.is_cartan], axis=1)
            offdiag_sq[start:stop] = np.mean(squares[:, ~basis.is_cartan], axis=1)

    _run_chunks(n_samples, workers, work)

    mutual_information = entropy_a + entropy_b - entropy_ab
    mean_sa, se_sa = _mean_stderr(entropy_a)
    mean_sb, se_sb = _mean_stderr(entropy_b)
    mean_sab, se_sab = _mean_stderr(entropy_ab)
    mean_i, se_i = _mean_stderr(mutual_information)
    mean_pur, se_pur = _mean_stderr(purity_a)
    mean_de, se_de = _mean_stderr(diag_entropy_a)
    mean_d2, se_d2 = _mean_stderr(diag_second_a)
    if basis is not None:
        cartan_var, se_cartan = _mean_stderr(cartan_sq)
        offdiag_var, se_offdiag = _mean_stderr(offdiag_sq)
    else:
        cartan_var = se_cartan = offdiag_var = se_offdiag = None

    return HaarSampleStats(
        dims=dims,
        n_samples=n_samples,
        seed=seed,
        rng=RNG_IDENTITY,
        mean_entropy_a=mean_sa,
        stderr_entropy_a=se_sa,
        mean_entropy_b=mean_sb,
        stderr_entropy_b=se_sb,
        mean_entropy_ab=mean_sab,
        stderr_entropy_ab=se_sab,
        mean_mutual_information=mean_i,
        stderr_mutual_information=se_i,
        mean_purity_a=mean_pur,
        stderr_purity_a=se_pur,
        mean_diagonal_entropy_a=mean_de,
        stderr_diagonal_entropy_a=se_de,
        mean_diagonal_second_moment_a=mean_d2,
        stderr_diagonal_second_moment_a=se_d2,
        cartan_var=cartan_var,
        stderr_cartan_var=se_cartan,
        offdiag_var=offdiag_var,
        stderr_offdiag_var=se_offdiag,
    )

