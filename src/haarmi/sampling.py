"""Monte Carlo oracle: entropies of Haar-random pure states.

A Haar-random pure state is a normalised vector of iid complex Gaussians.
:func:`run_oracle` draws each sample as one purification: a unit vector on
``A x B x E'`` with ``e = min(C, d_e)`` levels on ``E'`` (``C = d_a d_b``),
whose reduced state on AB has the law of the Haar state's.  What it draws
depends on the regime, chosen by ``Dimensions.factorised_regime``; how it
reduces does not.  Every reduced state is one batched Gram product
``x @ x^H`` of a reshaped view ``x`` of the purifications, shaped
``(z, d_a, d_b, e)``: ``rho_A`` keeps the A axis as rows, ``rho_B`` the B
axis and ``rho_E'`` the E' axis.  A pure state has ``S_AB = S_E'``
(Schmidt), so ``S_AB`` comes from ``rho_E'``, and no matrix larger than
``max(d_a, d_b, min(C, d_e))`` is diagonalised.  The Bloch sectors need
no generator basis: with ``Tr(g_a g_b) = 2 delta_ab``, the Cartan
components of ``rho_A`` square-sum to ``2 sum_i (rho_ii - Tr rho/d_a)^2``
and each off-diagonal pair ``i < j`` to ``4 |rho_ij|^2``; unlike
``sum_i rho_ii^2 - 1/d_a`` or ``purity - sum_i rho_ii^2``, neither cancels.
Spectra are chosen by matrix size (:func:`_spectrum`): two levels in closed
form, three by the trigonometric root of the characteristic cubic, and
four and up by LAPACK's ``eigvalsh``, which also takes the three-level
states with two nearly coinciding eigenvalues.

* **Factorised** (``C <= d_e``, ``e = C``).  Reshaped as a ``C x d_e``
  matrix G, the state has ``rho_AB = W / Tr W`` with ``W = G G^H`` a
  complex Wishart matrix with ``d_e`` degrees of freedom (the induced
  measure; Zyczkowski and Sommers, J. Phys. A 34, 7111, 2001).  By the
  Bartlett decomposition ``W = L L^H`` with L lower triangular,
  ``L_ij ~ CN`` below the diagonal and ``L_ii^2 = 2 Gamma(d_e - i)``
  (Goodman, 1963), on the scale of the Gaussian parts below.  The oracle
  draws L and normalises it; read as a ``C x C`` matrix from AB to E', it
  is a purification of ``rho_AB = L L^H``, and ``rho_E' = L^T conj(L)`` has
  the same spectrum.  A sample costs ``C(C-1)/2`` complex normals and ``C``
  gammas whatever ``d_e`` is.
* **Swapped** (``d_e < C``, ``e = d_e``).  The oracle draws the state
  itself, and E' is E.

The chunk of ``CHUNK_SIZE`` samples is the unit of randomness: chunk ``c``
under ``seed`` is one counter-based Philox stream keyed by ``(seed, c)``
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), and
sample ``index`` is row ``index % CHUNK_SIZE`` of chunk
``index // CHUNK_SIZE``.  The swapped path draws N complex normals per
row; the factorised path draws the whole chunk's ``(CHUNK_SIZE, C)``
gammas first, then ``C(C-1)/2`` complex normals per row.  Either way a
partial last chunk is a prefix of a full one, so every sample is
independent of ``n_samples``.  A worker draws its chunk in consecutive
row slices (:func:`_purifications`), each with at most ``2**16`` entries
per array, and reduces each slice before it draws the next.  The stream
is read in order, so the slices hold the same numbers as one whole-chunk
draw, and what a worker holds does not grow with the chunk.  That
contract (``CHUNK_SIZE``, the seed range, ``RNG_IDENTITY``, the sampling
cap and the largest N whose draw fits binary64) lives in
:mod:`haarmi.dims`, which needs no numpy, and is imported from there.

:func:`run_oracle` goes through one chunk driver: it splits the sample
range into fixed chunks of ``CHUNK_SIZE`` samples and calls the run's work
function on each, on a pool of ``workers`` threads.  Each row slice writes
a disjoint part of the per-sample result arrays, and every per-row
reduction has a fixed order whatever the slice's size, so the worker count
changes nothing about the final reductions (numpy's pairwise
``sum``/``mean`` over a fixed-length array is a fixed reduction tree).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dims import (
    _DRAW_N_LIMIT,
    _KEY_LIMIT,
    CHUNK_SIZE,
    RNG_IDENTITY,
    STATE_DIMENSION_CAP,
    Dimensions,
    _cap_excess,
)
from .errors import (
    DomainError,
    InvalidDimensionError,
    NumericalValidityError,
    OracleWorkerError,
    _require_int,
)

_EIG_FLOOR = 1e-14
_EIG_NEG_LIMIT = -1e-10

#: Three-level rows with ``|r| > 1 - _CUBIC_MARGIN`` go to LAPACK (see
#: :func:`_spectrum`).  At 1e-3 the cubic's per-sample entropies stay
#: within 1e-14 of LAPACK's (worst 8.4e-15, rank-deficient states at
#: (3,1,2)), and about one full-rank Haar state in 10^4 takes the guard.
_CUBIC_MARGIN = 1e-3

#: Most entries in one array of a row slice: 2**16 complex128 entries,
#: 1 MiB.  :func:`_purifications` sizes its slices by the largest
#: per-sample array.
_SLICE_ENTRIES = 2**16


@dataclass(frozen=True)
class HaarSampleStats:
    """Sample means (with standard errors) over a Haar Monte Carlo run.

    The Bloch-sector fields pool the squared components ``r_a^2`` of the
    reduced state of A over the diagonal (Cartan) generators and over the
    off-diagonal generators separately, from the centred diagonal and the
    upper triangle of ``rho_A``; they are None when ``d_a = 1``.  The Bloch
    statistics of an m-level state with environment n are those of
    ``Dimensions(m, n, 1)``.
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
    cartan_var: float | None = None
    stderr_cartan_var: float | None = None
    offdiag_var: float | None = None
    stderr_offdiag_var: float | None = None


def _check_run(dims: Dimensions, n_samples: int, seed: int) -> None:
    _require_int("seed", seed, 0)
    if seed >= _KEY_LIMIT:
        raise DomainError(f"seed must be below 2**64, got {seed}")
    excess = _cap_excess(dims)
    if excess:
        raise InvalidDimensionError(
            f"{excess} exceeds the sampling cap {STATE_DIMENSION_CAP}"
        )
    if dims.n > _DRAW_N_LIMIT:
        raise DomainError(
            f"the oracle needs N <= 2**1022 to draw in binary64, got "
            f"{dims.n.bit_length()} bits"
        )
    _require_int("n_samples", n_samples, 2)


def _chunk_stream(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64))
    )


def _unit_rows(block: np.ndarray) -> np.ndarray:
    """Scale each row of a complex ``(z, k)`` block to unit norm, in place."""
    parts = block.view(np.float64)
    # einsum forms the squared row norms without a block-sized temporary.
    parts /= np.sqrt(np.einsum("ij,ij->i", parts, parts))[:, None]
    return block


def _normals(gen: np.random.Generator, rows: int, k: int) -> np.ndarray:
    """A ``(rows, k)`` block of complex normals, drawn in one call: real and
    imaginary parts alternate, as in the complex128 memory layout."""
    block = np.empty((rows, k), dtype=np.complex128)
    gen.standard_normal(out=block.view(np.float64))
    return block


def _purifications(dims: Dimensions, seed: int, chunk: int, count: int):
    """The first ``count`` samples of chunk ``chunk`` as unit vectors on
    ``A x B x E'``, yielded in consecutive row slices shaped ``(rows, d_a,
    d_b, e)`` with ``e = min(C, d_e)``: the normalised Bartlett factors in
    the factorised regime, the states in the swapped one.

    The chunk's Philox stream is read in order, so the slices hold the same
    numbers as one whole-chunk draw.  A slice has ``max(1, _SLICE_ENTRIES //
    m)`` rows, ``m`` the entries per sample of the largest array it becomes:
    the purification (``C e``), ``rho_A`` (``d_a^2``) or ``rho_B``
    (``d_b^2``).  In the factorised regime the whole chunk's
    ``(CHUNK_SIZE, C)`` gammas are drawn first, so the normals of a partial
    chunk are a prefix of a full chunk's."""
    d_a, d_b, c = dims.d_a, dims.d_b, dims.d_a * dims.d_b
    e = min(c, dims.d_e)
    rows = max(1, _SLICE_ENTRIES // max(c * e, d_a * d_a, d_b * d_b))
    gen = _chunk_stream(seed, chunk)
    if dims.factorised_regime:
        shapes = np.arange(dims.d_e, dims.d_e - c, -1, dtype=np.float64)
        diagonal = np.sqrt(2.0 * gen.standard_gamma(shapes, size=(CHUNK_SIZE, c)))
        below = np.flatnonzero(np.tri(c, k=-1))
    for start in range(0, count, rows):
        z = min(rows, count - start)
        if dims.factorised_regime:
            block = np.zeros((z, c * c), dtype=np.complex128)
            block[:, below] = _normals(gen, z, below.size)
            block[:, :: c + 1] = diagonal[start : start + z]
        else:
            block = _normals(gen, z, dims.n)
        yield _unit_rows(block).reshape(z, d_a, d_b, e)


def _gram(x: np.ndarray) -> np.ndarray:
    """``x @ x^H`` for a batch of matrices ``x`` shaped ``(z, m, k)``: the
    reduced state on the ``m`` row levels, with the ``k`` column levels
    traced out."""
    return x @ x.conj().transpose(0, 2, 1)


def _state_reductions(
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``rho_A``, ``rho_B`` and ``rho_E'`` of a batch of pure states shaped
    ``(z, d_a, d_b, e)``, each the Gram product of a ``(z, m, k)`` view
    with the kept levels as rows."""
    _, a, b, e = t.shape
    return (
        _gram(t.reshape(-1, a, b * e)),
        _gram(t.transpose(0, 2, 1, 3).reshape(-1, b, a * e)),
        # The transpose of the merged AB view: its Gram product is rho_E'
        # itself, not its conjugate.
        _gram(t.reshape(-1, a * b, e).transpose(0, 2, 1)),
    )


def _spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a batch of Hermitian matrices shaped ``(z, m, m)``,
    shape ``(z, m)``, by matrix size: the closed form for two levels, the
    trigonometric root of the characteristic cubic for three (Smith, CACM
    4, 168, 1961; Kopp, Int. J. Mod. Phys. C 19, 523, 2008), and LAPACK for
    one level, for four and up, and for the three-level rows the cubic
    cannot resolve (:func:`_lapack_spectrum`, which gives NaN for a row
    with a non-finite diagonal).  The batch must have a positive trace, as
    density matrices do."""
    m = rho.shape[-1]
    if m == 2:
        a, d = rho[:, 0, 0].real, rho[:, 1, 1].real
        b = rho[:, 0, 1]
        off = b.real**2 + b.imag**2
        high = 0.5 * (a + d + np.sqrt((a - d) ** 2 + 4.0 * off))
        # det / high, not trace - high, which cancels for a nearly pure state.
        return np.stack([(a * d - off) / high, high], axis=-1)
    if m != 3:
        return _lapack_spectrum(rho)
    diag = np.diagonal(rho, axis1=1, axis2=2).real
    trace = np.sum(diag, axis=-1)
    q = trace / 3.0
    d0, d1, d2 = (diag - q[:, None]).T
    x, y, z = rho[:, 0, 1], rho[:, 1, 2], rho[:, 0, 2]
    xx, yy, zz = (v.real**2 + v.imag**2 for v in (x, y, z))
    # rho = q I + B has eigenvalues q + 2 p cos(phi + 2 pi k / 3), with
    # p^2 = Tr B^2 / 6 and cos(3 phi) = r = det(B / p) / 2.
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (xx + yy + zz)) / 6.0)
    xy = x * y
    det = (
        d0 * d1 * d2 + 2.0 * (xy.real * z.real + xy.imag * z.imag)
        - d0 * yy - d1 * zz - d2 * xx
    )
    # p = 0 is rho = q I, where det = 0 and every root is q.
    r = det / (2.0 * np.where(p > 0.0, p, 1.0) ** 3)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    high = q + 2.0 * p * np.cos(phi)
    low = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    values = np.stack([low, trace - high - low, high], axis=-1)
    # Near |r| = 1 two roots nearly coincide, and arccos loses sqrt(eps).
    guard = np.abs(r) > 1.0 - _CUBIC_MARGIN
    if np.any(guard):
        values[guard] = _lapack_spectrum(rho[guard])
    return values


def _lapack_spectrum(rho: np.ndarray) -> np.ndarray:
    """LAPACK's ``eigvalsh`` of the rows with a finite diagonal, and NaN
    weights for the others: LAPACK can return a finite spectrum for a NaN
    on the diagonal (``diag(nan, 1, 1, 1)`` gives ``[0, -0, 1, 1]``)."""
    finite = np.isfinite(np.diagonal(rho, axis1=1, axis2=2)).all(axis=-1)
    if finite.all():
        return np.linalg.eigvalsh(rho)
    values = np.full(rho.shape[:-1], np.nan)
    values[finite] = np.linalg.eigvalsh(rho[finite])
    return values


def _entropy_from_weights(weights: np.ndarray, what: str) -> np.ndarray:
    """Shannon entropy along the last axis with the eigenvalue policy:
    a non-finite weight or one below -1e-10 is an error, tiny/negative
    ones contribute 0, and a single weight (a one-level state) has entropy
    exactly 0."""
    if not np.all(np.isfinite(weights)):
        raise NumericalValidityError(f"{what} produced a non-finite weight")
    if np.any(weights < _EIG_NEG_LIMIT):
        raise NumericalValidityError(
            f"{what} produced a weight below {_EIG_NEG_LIMIT:g}: "
            f"{float(weights.min()):.3e}"
        )
    if weights.shape[-1] == 1:
        return np.zeros(weights.shape[:-1])
    safe = np.maximum(weights, _EIG_FLOOR)
    contrib = np.where(weights > _EIG_FLOOR, -safe * np.log(safe), 0.0)
    return np.sum(contrib, axis=-1)


def _entropies(rho: np.ndarray, what: str) -> np.ndarray:
    """Per-sample von Neumann entropy of a batch of reduced states."""
    return _entropy_from_weights(_spectrum(rho), f"eigendecomposition of {what}")


def _sample_entropies(
    rho_a: np.ndarray, rho_b: np.ndarray, rho_e: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample ``S_A``, ``S_B`` and ``S_AB`` of a batch of purifications
    on ``A x B x E'``, the last from the spectrum of ``rho_E'``.  When
    ``d_a = 1`` (``d_b = 1``), ``S_AB`` is ``S_B`` (``S_A``), so that the
    per-sample I is exactly 0."""
    s_a = _entropies(rho_a, "A")
    s_b = _entropies(rho_b, "B")
    if rho_a.shape[-1] == 1:
        return s_a, s_b, s_b
    if rho_b.shape[-1] == 1:
        return s_a, s_b, s_a
    return s_a, s_b, _entropies(rho_e, "E'")


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
    Bloch sector variances over ``n_samples`` Haar-random states; the sector
    variances come from the diagonal and upper triangle of each ``rho_A``.

    Each sample is one purification on ``A x B x E'`` with ``e = min(C,
    d_e)`` levels on E': the normalised Bartlett factor of ``rho_AB`` on
    factorised triples, the state on swapped ones (see the module
    docstring); every chunk is reduced by the same Gram products.  The
    chunk is the unit of randomness, but each worker holds one row slice of
    it at a time, at most ``2**16`` entries (1 MiB) per array, so memory
    does not grow with ``n_samples`` or the purification's size.  The
    sampling cap bounds the purification, so factorised triples with
    ``C <= 64`` are accepted at any ``d_e`` up to ``N = 2**1022``, past
    which the unscaled Bartlett factor's squared norm, about ``2N``, nears
    the binary64 range (:class:`DomainError`).

    Precision: I is a difference of entropies of size ``ln C`` while I
    itself is about ``su/(2N)`` (``su = (d_a^2 - 1)(d_b^2 - 1)``), so
    binary64 rounding adds about ``5e-16 N/su`` to ``2e-15 N/su`` relative
    to I (root mean square per sample, against the same matrices in a
    random rotated basis, over 4096 samples at each of (2,2,4), (2,3,7),
    (3,2,7), (3,4,2), (4,4,64), (8,8,16) and (2,2,62500); the largest
    sample was ``7e-15 N/su``).  The closed-form spectra of two- and
    three-level states are within that spread.  It stays below the
    relative standard error, about 1e-3 at 20 000 samples for any N,
    up to ``N/su`` of about 1e11."""
    _check_run(dims, n_samples, seed)
    d_a = dims.d_a
    sectors = d_a >= 2
    rows, cols = np.triu_indices(d_a, k=1)
    # Per-sample columns, keyed by the HaarSampleStats mean field they feed.
    names = ["mean_entropy_a", "mean_entropy_b", "mean_entropy_ab",
             "mean_mutual_information", "mean_purity_a",
             "mean_diagonal_entropy_a", "mean_diagonal_second_moment_a"]
    if sectors:
        names += ["cartan_var", "offdiag_var"]
    columns = {name: np.empty(n_samples) for name in names}

    def work(start: int, stop: int) -> None:
        hi = start
        for t in _purifications(dims, seed, start // CHUNK_SIZE, stop - start):
            lo, hi = hi, hi + len(t)
            rho_a, rho_b, rho_e = _state_reductions(t)
            s_a, s_b, s_ab = _sample_entropies(rho_a, rho_b, rho_e)
            diag = np.diagonal(rho_a, axis1=1, axis2=2).real
            values = dict(
                mean_entropy_a=s_a,
                mean_entropy_b=s_b,
                mean_entropy_ab=s_ab,
                mean_mutual_information=s_a + s_b - s_ab,
                mean_purity_a=np.einsum("zij,zji->z", rho_a, rho_a).real,
                mean_diagonal_entropy_a=_entropy_from_weights(diag, "diagonal of A"),
                mean_diagonal_second_moment_a=np.sum(diag * diag, axis=-1),
            )
            if sectors:
                centred = diag - np.mean(diag, axis=-1, keepdims=True)
                upper = rho_a[:, rows, cols]
                # A running sum fixes each row's order of addition; np.sum
                # adds a lone row pairwise but a batch's rows in sequence.
                pairs = np.cumsum(upper.real**2 + upper.imag**2, axis=-1)[:, -1]
                values["cartan_var"] = 2.0 * np.sum(centred**2, axis=-1) / (d_a - 1)
                values["offdiag_var"] = 4.0 * pairs / (d_a * (d_a - 1))
            for name, column in columns.items():
                column[lo:hi] = values[name]

    _run_chunks(n_samples, workers, work)

    stats = {}
    for name, column in columns.items():
        stderr_name = "stderr_" + name.removeprefix("mean_")
        stats[name], stats[stderr_name] = _mean_stderr(column)
    return HaarSampleStats(
        dims=dims, n_samples=n_samples, seed=seed, rng=RNG_IDENTITY, **stats
    )
