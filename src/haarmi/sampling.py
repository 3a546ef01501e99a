"""Monte Carlo oracle: entropies of Haar-random pure states.

A Haar-random pure state is a normalised vector of iid complex Gaussians.
:func:`run_oracle` draws each sample as one purification: a unit vector on
``A x B x E'`` with ``e = min(C, d_e)`` levels on ``E'`` (``C = d_a d_b``),
whose reduced state on AB has the law of the Haar state's.  Every reduced
state comes from batched Gram products ``x @ x^H`` of views ``x`` of the
purifications, shaped ``(z, d_a, d_b, e)``, and of their one conjugate:
``rho_A`` keeps the A axis as rows, ``rho_E'`` the E' axis, and ``rho_B``
is the sum over A of the Gram products of the ``(d_b, e)`` blocks, so
that the batch is never copied with B first.  A pure state
has ``S_AB = S_E'`` (Schmidt), so ``S_AB`` comes from ``rho_E'``, and no
matrix larger than ``max(d_a, d_b, min(C, d_e))`` is diagonalised.  The
Bloch sectors need no generator basis: with ``Tr(g_a g_b) = 2 delta_ab``,
the Cartan components of ``rho_A`` square-sum to ``2 sum_i (rho_ii - Tr
rho/d_a)^2`` and each off-diagonal pair ``i < j`` to ``4 |rho_ij|^2``;
unlike ``sum_i rho_ii^2 - 1/d_a`` or ``purity - sum_i rho_ii^2``, neither
cancels.  Spectra are chosen by matrix size (:func:`_spectrum`): two
levels in closed form, three by the trigonometric root of the
characteristic cubic, and four and up by LAPACK's ``eigvalsh``, which also
takes the three-level states with two nearly coinciding eigenvalues.

Reshaped as a ``C x d_e`` matrix G, the state has ``rho_AB = W / Tr W``
with ``W = G G^H`` a complex Wishart matrix with ``d_e`` degrees of freedom
(the induced measure; Zyczkowski and Sommers, J. Phys. A 34, 7111, 2001),
singular when ``d_e < C``.  Its Bartlett factor is the ``C x e`` lower
trapezoidal L of ``G = L Q`` (Q with orthonormal rows), so ``W = L L^H``:
``L_ij ~ CN`` below the diagonal and ``L_ii^2 = 2 Gamma(d_e - i)`` for
``i < e``, on the scale of the Gaussian parts below (Goodman, 1963;
Srivastava, Ann. Statist. 31, 1537, 2003, for the singular case).  The
oracle draws L and normalises it; read as a ``C x e`` matrix from AB to
E', it is a purification of ``rho_AB = L L^H``, and ``rho_E' = L^T
conj(L)`` has the same nonzero spectrum.  A sample costs ``C e - e(e+1)/2``
complex normals and ``e`` gammas: ``C(C-1)/2`` and ``C`` whatever ``d_e``
is in the factorised regime (``C <= d_e``), and fewer than the state's N
in the swapped one.

The chunk of ``CHUNK_SIZE`` samples is the unit of randomness: chunk ``c``
under ``seed`` is one counter-based Philox stream keyed by ``(seed, c)``
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), and
sample ``index`` is row ``index % CHUNK_SIZE`` of chunk
``index // CHUNK_SIZE``.  The chunk's ``(CHUNK_SIZE, e)`` gammas are drawn
first, then ``C e - e(e+1)/2`` complex normals per row, so a partial last
chunk is a prefix of a full one, and every sample is independent of
``n_samples``.  A worker draws its chunk in consecutive row slices
(:func:`_purifications`), sized so that a slice's arrays and one copy of
each fit ``2**17`` entries, and reduces each slice to its per-sample
statistics, releasing the slice and its reduced states, before it draws
the next.  The stream is read in order, so the slices hold the same
numbers as one whole-chunk draw, and what a worker holds does not grow
with the chunk.  That contract
(``CHUNK_SIZE``, the seed range, ``RNG_IDENTITY`` and the admission rule,
which compares a triple with the sampling cap and the largest N whose
draw fits binary64) lives in :mod:`haarmi.dims`, which needs no numpy.

:func:`run_oracle` goes through one chunk driver, :func:`_run_chunks`: it
splits the sample range into fixed chunks of ``CHUNK_SIZE`` samples, runs
the work function on each on a pool of ``workers`` threads, with at most
``2 * workers`` chunks in flight, and yields the results in chunk order.
A chunk's result is the count, mean vector and centred co-moment matrix
of its per-sample statistics, and the results merge in chunk order by the
pairwise update (:func:`_merge`).  Every per-row reduction has a fixed
order whatever the slice's size, a chunk's moments are taken over the
whole chunk, and the merge order is fixed, so the worker count changes
nothing about the result.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dims import _KEY_LIMIT, CHUNK_SIZE, RNG_IDENTITY, Dimensions, _oracle_refusal
from .errors import DomainError, NumericalValidityError, OracleWorkerError, _require_int

_EIG_FLOOR = 1e-14
_EIG_NEG_LIMIT = -1e-10

#: Three-level rows with ``|r| > 1 - _CUBIC_MARGIN`` go to LAPACK (see
#: :func:`_spectrum`).  At 1e-3 the cubic's per-sample entropies stay
#: within 1e-14 of LAPACK's (worst 8.4e-15, rank-deficient states at
#: (3,1,2)), and about one full-rank Haar state in 10^4 takes the guard.
_CUBIC_MARGIN = 1e-3

#: Most complex128 entries a worker holds at once for one row slice:
#: 2**17, 2 MiB, over the purification, its three reduced states and one
#: copy of each (see :func:`_purifications`).
_SLICE_ENTRIES = 2**17

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
    refusal = _oracle_refusal(dims)
    if refusal:
        error, reason, _ = refusal
        raise error(reason)
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
    d_b, e)`` with ``e = min(C, d_e)``: the normalised Bartlett factors of
    ``rho_AB``, lower trapezoidal ``C x e``.

    The chunk's Philox stream is read in order, so the slices hold the same
    numbers as one whole-chunk draw.  A slice has ``max(1, _SLICE_ENTRIES //
    2m)`` rows, with ``m = C e + d_a^2 + d_b^2 + e^2`` the entries per sample
    of the purification and its three reduced states: the budget covers
    each of them and one copy (the conjugate of the purification, the
    LAPACK copy of a reduced state).  A slice is dropped here before the
    next is drawn, so it lives only as long as its consumer holds it.  The
    whole chunk's ``(CHUNK_SIZE, e)`` gammas are drawn first, so the
    normals of a partial chunk are a prefix of a full chunk's."""
    d_a, d_b, c = dims.d_a, dims.d_b, dims.d_a * dims.d_b
    e = min(c, dims.d_e)
    rows = max(1, _SLICE_ENTRIES // (2 * (c * e + d_a * d_a + d_b * d_b + e * e)))
    gen = _chunk_stream(seed, chunk)
    shapes = np.arange(dims.d_e, dims.d_e - e, -1, dtype=np.float64)
    diagonal = np.sqrt(2.0 * gen.standard_gamma(shapes, size=(CHUNK_SIZE, e)))
    below = np.flatnonzero(np.tri(c, e, k=-1))
    for start in range(0, count, rows):
        z = min(rows, count - start)
        block = np.zeros((z, c * e), dtype=np.complex128)
        block[:, below] = _normals(gen, z, below.size)
        # L_ii sits at flat index i (e + 1), for i < e.
        block[:, : e * e : e + 1] = diagonal[start : start + z]
        yield _unit_rows(block).reshape(z, d_a, d_b, e)
        # Drop the slice before the next is drawn: only the consumer holds it.
        del block


def _gram(x: np.ndarray, x_conj: np.ndarray) -> np.ndarray:
    """``x @ x^H`` for a batch of matrices ``x`` shaped ``(z, m, k)``, given
    ``x_conj = conj(x)``: the reduced state on the ``m`` row levels, with
    the ``k`` column levels traced out."""
    return x @ x_conj.transpose(0, 2, 1)


def _state_reductions(
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``rho_A``, ``rho_B`` and ``rho_E'`` of a batch of pure states shaped
    ``(z, d_a, d_b, e)``, as Gram products of views of ``t`` and of its one
    conjugate: ``rho_A`` of the ``(z, d_a, d_b e)`` view, ``rho_E'`` of the
    transposed ``(z, e, d_a d_b)`` view, and ``rho_B`` as the sum over A of
    the Gram products of the ``(z, d_b, e)`` views, so that no B-first copy
    of the batch is made."""
    z, a, b, e = t.shape
    t_conj = t.conj()
    rho_b = _gram(t[:, 0], t_conj[:, 0])
    for i in range(1, a):
        rho_b += _gram(t[:, i], t_conj[:, i])
    return (
        _gram(t.reshape(z, a, b * e), t_conj.reshape(z, a, b * e)),
        rho_b,
        # The transpose of the merged AB view: its Gram product is rho_E'
        # itself, not its conjugate.
        _gram(t.reshape(z, a * b, e).transpose(0, 2, 1),
              t_conj.reshape(z, a * b, e).transpose(0, 2, 1)),
    )


def _spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a batch of Hermitian matrices shaped ``(z, m, m)``,
    shape ``(z, m)``, by matrix size: the closed form for two levels, the
    trigonometric root of the characteristic cubic for three (Smith, CACM
    4, 168, 1961; Kopp, Int. J. Mod. Phys. C 19, 523, 2008), and LAPACK's
    ``eigvalsh`` for one level, for four and up, and for the three-level
    rows the cubic cannot resolve.  The batch must have a positive trace
    and a finite diagonal, as the reduced states :func:`_entropies` passes
    do: LAPACK can return a finite spectrum for a NaN on the diagonal
    (``diag(nan, 1, 1, 1)`` gives ``[0, -0, 1, 1]``)."""
    m = rho.shape[-1]
    if m == 2:
        a, d = rho[:, 0, 0].real, rho[:, 1, 1].real
        b = rho[:, 0, 1]
        off = b.real**2 + b.imag**2
        high = 0.5 * (a + d + np.sqrt((a - d) ** 2 + 4.0 * off))
        # det / high, not trace - high, which cancels for a nearly pure state.
        return np.stack([(a * d - off) / high, high], axis=-1)
    if m != 3:
        return np.linalg.eigvalsh(rho)
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
        values[guard] = np.linalg.eigvalsh(rho[guard])
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
    """Per-sample von Neumann entropy of a batch of reduced states.  A Gram
    product has a non-finite diagonal wherever its factor has a non-finite
    entry, so one check of the diagonal, before any spectrum, is the
    state's validity check."""
    if not np.isfinite(np.diagonal(rho, axis1=1, axis2=2)).all():
        raise NumericalValidityError(f"rho_{what} has a non-finite diagonal")
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


def _slice_statistics(t: np.ndarray) -> np.ndarray:
    """The per-sample statistics of a row slice of purifications shaped
    ``(z, d_a, d_b, e)``, shaped ``(k, z)``, one row per statistic in the
    order of the :class:`HaarSampleStats` fields: the Bloch pair comes last
    and is left out when ``d_a = 1``, where its fields stay None."""
    d_a = t.shape[1]
    rho_a, rho_b, rho_e = _state_reductions(t)
    s_a, s_b, s_ab = _sample_entropies(rho_a, rho_b, rho_e)
    diag = np.diagonal(rho_a, axis1=1, axis2=2).real
    values = [
        s_a,
        s_b,
        s_ab,
        s_a + s_b - s_ab,
        np.einsum("zij,zji->z", rho_a, rho_a).real,
        _entropy_from_weights(diag, "diagonal of A"),
        np.sum(diag * diag, axis=-1),
    ]
    if d_a >= 2:
        centred = diag - np.mean(diag, axis=-1, keepdims=True)
        # The strict upper triangle, row by row: the complement of tri.
        upper = rho_a[:, ~np.tri(d_a, dtype=bool)]
        # A running sum fixes each row's order of addition; np.sum adds a
        # lone row pairwise but a batch's rows in sequence.
        pairs = (upper.real**2 + upper.imag**2).cumsum(axis=-1)[:, -1]
        values.append(2.0 * np.sum(centred**2, axis=-1) / (d_a - 1))
        values.append(4.0 * pairs / (d_a * (d_a - 1)))
    return np.stack(values)


def _moments(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The count, mean vector and centred co-moment matrix ``sum_i (x_i -
    mean)(x_i - mean)^T`` of the columns of a ``(k, z)`` block."""
    mean = np.mean(values, axis=1)
    centred = values - mean[:, None]
    return values.shape[1], mean, centred @ centred.T


def _merge(left, right) -> tuple[int, np.ndarray, np.ndarray]:
    """The :func:`_moments` of two blocks joined, from theirs: the pairwise
    update of Chan, Golub and LeVeque (Am. Stat. 37, 242, 1983), with the
    cross-moments as in Pebay (Sandia report SAND2008-6212)."""
    n_left, mean_left, co_left = left
    n_right, mean_right, co_right = right
    n = n_left + n_right
    delta = mean_right - mean_left
    return (
        n,
        mean_left + delta * (n_right / n),
        co_left + co_right + np.outer(delta, delta) * (n_left * n_right / n),
    )


def _run_chunks(n_samples: int, workers: int, work):
    """Yield ``work(start, stop)`` for each ``CHUNK_SIZE`` slice of
    ``range(n_samples)``, in chunk order, computed on a pool of ``workers``
    threads.  At most ``2 * workers`` chunks are submitted and not yet
    yielded, so the pending results do not grow with ``n_samples``.  A
    failure in a chunk is raised as :class:`OracleWorkerError` when its
    result is read, and no chunk starts after that."""
    _require_int("workers", workers, 1)
    pool = ThreadPoolExecutor(max_workers=workers)
    futures = (
        pool.submit(work, start, min(start + CHUNK_SIZE, n_samples))
        for start in range(0, n_samples, CHUNK_SIZE)
    )
    window = deque(itertools.islice(futures, 2 * workers))
    try:
        while window:
            try:
                result = window.popleft().result()
            except Exception as exc:
                raise OracleWorkerError(
                    f"a Monte Carlo worker failed ({exc!r}); partial "
                    f"results discarded"
                ) from exc
            window.extend(itertools.islice(futures, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def run_oracle(
    dims: Dimensions, n_samples: int, seed: int, workers: int = 1
) -> HaarSampleStats:
    """Sample statistics of S_A, S_B, S_AB, I, purity, diagonal moments and
    Bloch sector variances over ``n_samples`` Haar-random states; the sector
    variances come from the diagonal and upper triangle of each ``rho_A``.

    Each sample is one purification on ``A x B x E'`` with ``e = min(C,
    d_e)`` levels on E': the normalised ``C x e`` Bartlett factor of
    ``rho_AB`` (see the module docstring), reduced by Gram products.  The
    chunk is the unit of randomness, but each worker holds one row slice of
    it at a time, with at most ``2**17`` complex128 entries (2 MiB) over
    every per-sample array the slice has alive at once, whatever
    ``n_samples`` or the purification's size.  Each chunk reduces to the
    count, mean vector and centred co-moment matrix of its per-sample
    statistics (nine, seven when ``d_a = 1``), and the chunks merge in
    chunk order by the pairwise update (:func:`_merge`).  So neither the
    per-sample values nor the pending chunks grow with ``n_samples``, and
    the fixed merge order keeps every field independent of the worker
    count.  A triple is admitted by the one rule that ``verify`` also
    reads, :func:`haarmi.dims._oracle_refusal`, and refused with its
    reason: past the sampling cap on the purification
    (:class:`InvalidDimensionError`), so factorised triples with ``C <=
    64`` are accepted at any ``d_e`` up to ``N = 2**1022``, past which the
    unscaled Bartlett factor's squared norm, about ``2N``, nears the
    binary64 range (:class:`DomainError`).

    Precision: I is a difference of entropies of size ``ln C`` while I
    itself is about ``su/(2N)`` (``su = (d_a^2 - 1)(d_b^2 - 1)``), so
    binary64 rounding adds about ``5e-16 N/su`` to ``2e-15 N/su`` relative
    to I (root mean square per sample, against the same matrices in a
    random rotated basis, over 4096 samples at each of (2,2,4), (2,3,7),
    (3,2,7), (3,4,2), (4,4,64), (8,8,16) and (2,2,62500); the largest
    sample was ``7e-15 N/su``).  The closed-form spectra of two- and
    three-level states are within that spread.  The mean I does move away
    from ``<I>``, always downwards, past an onset in ``N/su`` that falls as
    C grows.  At 20 000 samples (relative standard error about 1e-3; seeds
    1-3, ROADMAP item 19) the shift first exceeds 3 standard errors between
    ``N/su`` = 4.4e13 and 4.4e14 at C = 4, near 7.5e13 at C = 6 (z about
    -2.4 there), between 7.1e11 and 7.1e12 at C = 16, and between 1.6e10
    and 1.6e11 at C = 64.  Its cause is not established, and such triples
    are not refused."""
    _check_run(dims, n_samples, seed)

    def work(start: int, stop: int) -> tuple[int, np.ndarray, np.ndarray]:
        slices = _purifications(dims, seed, start // CHUNK_SIZE, stop - start)
        # map holds each slice only while its statistics are formed, so no
        # slice or reduction is alive when the next slice is drawn.
        return _moments(np.hstack(list(map(_slice_statistics, slices))))

    count, mean, comoment = functools.reduce(
        _merge, _run_chunks(n_samples, workers, work)
    )
    stderr = np.sqrt(np.diagonal(comoment) / (count - 1)) / math.sqrt(count)
    # Each statistic's mean and standard error, in the dataclass's order.
    values = [float(v) for pair in zip(mean, stderr) for v in pair]
    return HaarSampleStats(dims, n_samples, seed, RNG_IDENTITY, *values)
