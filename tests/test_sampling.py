"""Monte Carlo machinery: reproducible Bartlett factors drawn in bounded
slices, their reductions as purifications, entropies, Bloch sectors, and
the parallel oracle."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from haarmi import (
    CHUNK_SIZE,
    Dimensions,
    DomainError,
    InvalidDimensionError,
    NumericalValidityError,
    OracleWorkerError,
    bloch_variance,
    lubkin_purity,
    mutual_information_exact,
    mutual_information_rational,
    run_oracle,
)
from haarmi import cli
from haarmi import sampling as sampling_module
from haarmi.dims import _oracle_refusal

DIMS = Dimensions(2, 3, 4)  # swapped: d_e < C
FACTORISED = Dimensions(2, 3, 7)  # factorised: C <= d_e

#: One triple per regime: both draw Bartlett factors, lower trapezoidal
#: C x d_e in the swapped one and lower triangular C x C in the factorised
#: one.
REGIMES = (DIMS, FACTORISED)


def _entropy(rho: np.ndarray) -> float:
    """The kernel's von Neumann entropy of one density matrix."""
    return float(sampling_module._entropies(rho[None], "test")[0])


def _record_eigvalsh_sizes(monkeypatch) -> list[int]:
    """Patch ``np.linalg.eigvalsh`` to append the size of each batch it
    diagonalises to the returned list."""
    sizes = []
    real_eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


def _chunk(dims: Dimensions, seed: int, chunk: int, count: int) -> np.ndarray:
    """The first ``count`` purifications of a chunk, its slices joined."""
    return np.concatenate(
        list(sampling_module._purifications(dims, seed, chunk, count))
    )


def _states(triple, seed: int, count: int) -> np.ndarray:
    """``count`` Haar-random pure states on ``d_a x d_b x d_e``, in either
    regime, shaped ``(count, d_a, d_b, d_e)``."""
    block = np.random.default_rng(seed).standard_normal(
        (count, 2 * math.prod(triple))
    )
    return sampling_module._unit_rows(block.view(np.complex128)).reshape(
        count, *triple
    )


def _chunk_reductions(dims: Dimensions, seed: int, chunk: int, count: int):
    """``rho_A``, ``rho_B`` and ``rho_E'`` of a chunk, as the oracle reduces
    it in either regime."""
    return sampling_module._state_reductions(_chunk(dims, seed, chunk, count))


def _per_sample_mutual_information(dims: Dimensions, seed: int, n: int):
    """I of samples 0 .. n-1, each chunk through the reduction and entropy
    kernels on its own."""
    values = []
    for start in range(0, n, CHUNK_SIZE):
        count = min(CHUNK_SIZE, n - start)
        s_a, s_b, s_ab = sampling_module._sample_entropies(
            *_chunk_reductions(dims, seed, start // CHUNK_SIZE, count)
        )
        values.append(s_a + s_b - s_ab)
    return np.concatenate(values)


# ---------------------------------------------------------------------------
# Bartlett-factor sampling


def test_sample_state_normalised_and_reproducible():
    """Read as C x e, each purification is lower trapezoidal (lower
    triangular when e = C) with a real positive diagonal and Tr L L^H = 1,
    in both regimes."""
    for dims, e in ((DIMS, 4), (FACTORISED, 6)):
        purification = _chunk(dims, 42, 5, 7)
        assert np.array_equal(purification, _chunk(dims, 42, 5, 7))
        assert purification.shape == (7, 2, 3, e)
        assert purification.dtype == np.complex128
        factor = purification.reshape(7, 6, e)
        assert np.all(np.triu(factor, k=1) == 0)
        diagonal = np.diagonal(factor, axis1=1, axis2=2)
        assert np.all(diagonal.imag == 0) and np.all(diagonal.real > 0)
        np.testing.assert_allclose(
            np.linalg.norm(factor, axis=(1, 2)), 1.0, atol=1e-12
        )


#: The first purification of chunk 0 under seed 1, read as C x e, row by
#: row up to the diagonal (every entry above it is 0).  A change of the
#: streams, of the order they are read in or of the draw moves these.
PINNED_DRAWS = {
    (2, 3, 4): (
        (0.5124920559358636,),
        (0.05066395500280152-0.0013612162673498622j, 0.3165883258005191),
        (
            -0.03663035747967216-0.032381458668505024j,
            0.18143486053949487-0.0721736824806944j,
            0.32749064515819537,
        ),
        (
            -0.07031177511323754-0.08040766821401152j,
            0.06631658383061183+0.18446152257478704j,
            -0.12185657324147665+0.3048786841438091j,
            0.2818505041606216,
        ),
        (
            0.18278381407366082-0.07556949575497818j,
            0.11533912875116187+0.05228331182506353j,
            0.2527130456954279+0.042818728834817306j,
            0.016030986992863726-0.09608460112085637j,
        ),
        (
            -0.05072759681882614-0.2155120426251341j,
            -0.12925529270560834-0.05701261983255651j,
            0.1515750150346619-0.03597957422154265j,
            -0.15812784943587496-0.03346887206122872j,
        ),
    ),
    (2, 3, 7): (
        (0.49584233147511353,),
        (-0.12484194197872235+0.26797154894909747j, 0.36026737991594415),
        (
            0.06295735517911426+0.06956275635376291j,
            -0.08622410896605869+0.03737071946782866j,
            0.3875148738573951,
        ),
        (
            0.15060515617253303-0.034850441767732776j,
            0.04772841410831683-0.08114968657011498j,
            -0.03967739504833889+0.1469117859642368j,
            0.1819227213187965,
        ),
        (
            0.11177377912594913-0.0445621164466949j,
            0.062203881276940896+0.026606490785268038j,
            0.003338931946707502+0.085880559988494j,
            0.1688843332227584-0.12371456834769577j,
            0.2703758832094179,
        ),
        (
            -0.04708549004877526+0.10222227103630768j,
            0.0764913350835918+0.1673998040826213j,
            0.10615498405545579+0.1179840990591618j,
            -0.08887203468385196+0.11775200207331829j,
            0.03424545583702668-0.02697678669810395j,
            0.20340159472043964,
        ),
    ),
}


@pytest.mark.parametrize("triple", list(PINNED_DRAWS))
def test_first_draws_are_pinned(triple):
    dims = Dimensions(*triple)
    e = min(6, dims.d_e)
    factor = _chunk(dims, 1, 0, 1).reshape(6, e)
    for i, row in enumerate(PINNED_DRAWS[triple]):
        np.testing.assert_allclose(factor[i, :len(row)], row, rtol=1e-12,
                                   atol=0)
        assert np.all(factor[i, len(row):] == 0)


def test_sample_state_streams_differ():
    for dims in REGIMES:
        base = _chunk(dims, 42, 0, 4)
        assert not np.array_equal(base, _chunk(dims, 42, 1, 4))
        assert not np.array_equal(base, _chunk(dims, 43, 0, 4))
        assert not np.array_equal(base[0], base[1])


def test_sample_state_is_row_of_its_chunk(monkeypatch):
    """In both regimes a run of CHUNK_SIZE + 3 samples draws the same first
    chunk as one of 2 * CHUNK_SIZE, and a prefix of its second: the
    Bartlett stream draws the whole chunk's gammas before the normals of
    its rows."""
    real_draw = sampling_module._purifications
    for dims in REGIMES:
        chunks = [_chunk(dims, 3, c, CHUNK_SIZE) for c in (0, 1)]
        runs = []

        def recording(dims, seed, chunk, count):
            slices = list(real_draw(dims, seed, chunk, count))
            runs[-1][chunk] = np.concatenate(slices)
            yield from slices

        monkeypatch.setattr(sampling_module, "_purifications", recording)
        for n_samples in (CHUNK_SIZE + 3, 2 * CHUNK_SIZE):
            runs.append({})
            run_oracle(dims, n_samples=n_samples, seed=3)
        monkeypatch.undo()
        short, full = runs
        assert len(short[1]) == 3
        assert np.array_equal(short[0], chunks[0])
        assert np.array_equal(full[0], chunks[0])
        assert np.array_equal(short[1], full[1][:3])
        assert np.array_equal(full[1], chunks[1])
        assert not np.array_equal(chunks[0][0], chunks[1][0])


def test_sample_state_validation():
    """The cap bounds the per-sample array, the C x e Bartlett factor: N
    entries in the swapped regime, C^2 in the factorised one; either
    reaches it exactly."""
    swapped = Dimensions(16, 16, 17)  # N = 4352
    with pytest.raises(InvalidDimensionError, match="N = 4352 above"):
        run_oracle(swapped, n_samples=2, seed=0)
    wide = Dimensions(9, 8, 100)  # C^2 = 5184, N = 7200
    with pytest.raises(InvalidDimensionError, match=r"C\^2 = 5184 above"):
        run_oracle(wide, n_samples=2, seed=0)
    assert _oracle_refusal(Dimensions(8, 8, 64)) is None
    assert _oracle_refusal(Dimensions(16, 16, 16)) is None
    stats = run_oracle(Dimensions(16, 16, 16), n_samples=2, seed=0)  # N = 4096
    assert stats.n_samples == 2
    stats = run_oracle(Dimensions(8, 8, 1000), n_samples=2, seed=0)  # N = 64000
    assert stats.n_samples == 2


@pytest.mark.parametrize("triple,normals", [
    ((4, 4, 64), 16 * 16 - 16 * 17 // 2),
    ((8, 8, 16), 64 * 16 - 16 * 17 // 2),
    ((2, 3, 4), 6 * 4 - 4 * 5 // 2),
])
def test_runs_draw_no_state(triple, normals, monkeypatch):
    """No (count, N) block is drawn in either regime: a chunk costs its
    CHUNK_SIZE x e gammas, e = min(C, d_e), then C e - e(e+1)/2 complex
    normals per sample, drawn per slice (888 against the state's 1024 at
    (8,8,16)).  A slice's budget of 2**17 entries covers its purification,
    the three reduced states and one copy of each, so at (4,4,64) a slice
    holds 2**17 // (2 (C^2 + 16 + 16 + C^2)) = 120 samples: the full chunk
    takes five draws and the 3-sample one a single one."""
    dims = Dimensions(*triple)
    c = dims.d_a * dims.d_b
    e = min(c, dims.d_e)
    rows = 2**17 // (2 * (c * e + dims.d_a**2 + dims.d_b**2 + e * e))
    draws = {"standard_normal": [], "standard_gamma": []}
    real_generator = np.random.Generator

    class Counting:
        def __init__(self, bit_generator):
            self._gen = real_generator(bit_generator)

        def standard_normal(self, *args, out=None, **kwargs):
            draws["standard_normal"].append(out.size)
            return self._gen.standard_normal(*args, out=out, **kwargs)

        def standard_gamma(self, shape, size=None, **kwargs):
            draws["standard_gamma"].append(size)
            return self._gen.standard_gamma(shape, size=size, **kwargs)

        def __getattr__(self, name):
            return getattr(self._gen, name)

    monkeypatch.setattr(np.random, "Generator", Counting)
    run_oracle(dims, n_samples=CHUNK_SIZE + 3, seed=1, workers=2)
    slices = [min(rows, count - start) for count in (CHUNK_SIZE, 3)
              for start in range(0, count, rows)]
    assert sorted(draws["standard_normal"]) == sorted(
        2 * normals * z for z in slices)
    assert draws["standard_gamma"] == [(CHUNK_SIZE, e)] * 2


# ---------------------------------------------------------------------------
# reductions


def _reductions_by_side():
    """Eight samples' reductions per side; "AB" is the C-level rho_E' of the
    factorised Bartlett factor, "E" the d_e-level rho_E' of the swapped one,
    which stands for the environment."""
    swapped = _chunk_reductions(DIMS, 1, 0, 8)
    factorised = _chunk_reductions(FACTORISED, 1, 0, 8)
    return {
        "A": (swapped[0], factorised[0]),
        "B": (swapped[1], factorised[1]),
        "AB": (factorised[2],),
        "E": (swapped[2],),
    }


@pytest.mark.parametrize("keep,dim", [("A", 2), ("B", 3), ("AB", 6), ("E", 4)])
def test_reduce_state_is_density_matrix(keep, dim):
    for rho in _reductions_by_side()[keep]:
        assert rho.shape == (8, dim, dim)
        assert np.max(np.abs(rho - rho.conj().transpose(0, 2, 1))) < 1e-12
        np.testing.assert_allclose(
            np.trace(rho, axis1=1, axis2=2).real, 1.0, atol=1e-12
        )
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_reduce_product_state():
    """For psi = u (x) v (x) w the reductions are the pure projectors."""
    u = np.array([1.0, 1.0j]) / math.sqrt(2)
    v = np.array([1.0, 0.0, 0.0])
    w = np.array([0.6, 0.8, 0.0, 0.0])
    t = np.einsum("a,b,e->abe", u, v, w)[None]
    rho_a, rho_b, rho_e = sampling_module._state_reductions(t)
    np.testing.assert_allclose(rho_a[0], np.outer(u, u.conj()), atol=1e-14)
    np.testing.assert_allclose(rho_b[0], np.outer(v, v.conj()), atol=1e-14)
    np.testing.assert_allclose(rho_e[0], np.outer(w, w.conj()), atol=1e-14)


@pytest.mark.parametrize("triple", [(2, 3, 7), (4, 4, 64), (3, 2, 6),
                                    (3, 4, 2), (8, 8, 16), (64, 1, 2)])
def test_bartlett_factor_is_a_purification(triple):
    """Read as a vector on A x B x E', the C x e Bartlett factor L purifies
    rho_AB = L L^H in both regimes: its A and B reductions are the partial
    traces of L L^H, and rho_E' has the top e eigenvalues of L L^H (all C
    of them when e = C)."""
    dims = Dimensions(*triple)
    d_a, d_b, c = dims.d_a, dims.d_b, dims.d_a * dims.d_b
    e = min(c, dims.d_e)
    factor = _chunk(dims, 2, 0, 64).reshape(-1, c, e)
    rho_ab = np.einsum("zij,zkj->zik", factor, factor.conj())
    blocks = rho_ab.reshape(-1, d_a, d_b, d_a, d_b)
    rho_a, rho_b, rho_e = sampling_module._state_reductions(
        factor.reshape(-1, d_a, d_b, e)
    )
    assert np.max(np.abs(rho_a - np.einsum("zibjb->zij", blocks))) < 1e-15
    assert np.max(np.abs(rho_b - np.einsum("zaiaj->zij", blocks))) < 1e-15
    spectrum = np.linalg.eigvalsh(rho_e)
    top = np.linalg.eigvalsh(rho_ab)[:, c - e:]
    assert np.max(np.abs(spectrum - top)) < 1e-15


def test_schmidt_symmetry():
    """Nonzero spectrum of rho_A equals that of the complementary reduction."""
    t = _chunk(DIMS, 3, 0, 8)
    flat = t[7].reshape(2, 12)
    rho_be = np.einsum("ax,ay->xy", flat.conj(), flat)  # complement of A
    eig_a = np.linalg.eigvalsh(sampling_module._state_reductions(t)[0][7])
    eig_be = np.linalg.eigvalsh(rho_be)
    largest = np.sort(eig_be)[-2:]
    np.testing.assert_allclose(np.sort(eig_a), largest, atol=1e-12)


@pytest.mark.parametrize("triple", [(2, 3, 4), (3, 4, 2), (4, 4, 64), (8, 8, 16)])
def test_schmidt_identity_ab_equals_e(triple):
    """S(rho_AB) = S(rho_E) for a pure state, whichever side is smaller."""
    d_a, d_b, d_e = triple
    t = _states(triple, 5, 256)
    joint = t.reshape(-1, d_a * d_b, d_e)
    rho_ab = sampling_module._gram(joint, joint.conj())
    rho_e = sampling_module._state_reductions(t)[2]
    s_ab = sampling_module._entropies(rho_ab, "AB")
    s_e = sampling_module._entropies(rho_e, "E")
    assert np.max(np.abs(s_ab - s_e)) <= 1e-13


def test_no_environment_gives_pure_joint_state():
    stats = run_oracle(Dimensions(2, 3, 1), n_samples=50, seed=0)
    assert stats.mean_entropy_ab == 0.0
    assert stats.stderr_entropy_ab == 0.0


# ---------------------------------------------------------------------------
# entropies


def test_von_neumann_entropy_known():
    assert _entropy(np.diag([0.75, 0.25])) == pytest.approx(
        0.5623351446188083, abs=1e-15, rel=0
    )
    pure = np.outer([1, 0, 0], [1, 0, 0]).astype(float)
    assert _entropy(pure) == 0.0


def test_entropy_eigenvalue_policy():
    # tiny negatives are clamped, real negatives are an error
    assert _entropy(np.diag([1.0, -5e-11])) == 0.0
    with pytest.raises(NumericalValidityError):
        _entropy(np.diag([1.5, -0.5]))
    with pytest.raises(NumericalValidityError):
        sampling_module._entropy_from_weights(np.array([1.5, -0.5]), "diagonal")
    # a single weight 1 +- ulp is a one-level state: entropy exactly 0
    one_level = np.array([[1.0 + 2.0**-52], [1.0 - 2.0**-53]])
    entropy = sampling_module._entropy_from_weights(one_level, "diagonal")
    assert np.array_equal(entropy, np.zeros(2))
    # a non-finite weight is an error, never an entropy
    for weights in ([[np.nan, 1.0]], [[np.inf, 0.5]]):
        with pytest.raises(NumericalValidityError):
            sampling_module._entropy_from_weights(np.array(weights), "diagonal")
    for diagonal in ([np.nan, 1.0], [np.nan, 0.5, 0.5], [np.nan, 1.0, 1.0, 1.0]):
        with pytest.raises(NumericalValidityError):
            _entropy(np.diag(diagonal))
    # LAPACK returns [0, -0, 1, 1] for the last one, also beside a finite row
    batch = np.stack([np.eye(4) / 4.0, np.diag([np.nan, 1.0, 1.0, 1.0])])
    with pytest.raises(NumericalValidityError):
        sampling_module._entropies(batch, "test")


#: Triples whose reduced states include two- or three-level ones; the last
#: three have rank-deficient ones.
CLOSED_FORM_TRIPLES = [
    (2, 3, 7), (3, 4, 2), (3, 2, 7), (2, 2, 4), (3, 3, 9),
    (3, 1, 2), (3, 3, 1), (2, 2, 1),
]


@pytest.mark.parametrize("triple", CLOSED_FORM_TRIPLES)
def test_closed_form_entropies_match_lapack(triple):
    """Per sample, the two- and three-level closed forms give the entropy
    of LAPACK's spectrum to 1e-14, over 20 chunks."""
    dims = Dimensions(*triple)
    checked = 0
    for chunk in range(20):
        for rho in _chunk_reductions(dims, 1, chunk, CHUNK_SIZE):
            if rho.shape[-1] in (2, 3):
                reference = sampling_module._entropy_from_weights(
                    np.linalg.eigvalsh(rho), "LAPACK"
                )
                difference = sampling_module._entropies(rho, "test") - reference
                assert np.max(np.abs(difference)) <= 1e-14
                checked += 1
    assert checked >= 20


def _unitary(m: int, seed: int) -> np.ndarray:
    """A Haar-random m x m unitary: QR of a complex Gaussian matrix, with
    the phases of R's diagonal moved into Q."""
    gen = np.random.default_rng(seed)
    q, r = np.linalg.qr(gen.standard_normal((m, 2 * m)).view(complex))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


#: Edge states: the weights of their spectra, and whether the three-level
#: form hands them to LAPACK (None: either way, by rounding).
EDGE_STATES = {
    "pure": ([1.0, 0.0, 0.0], True),
    "rank_two": ([0.5, 0.5, 0.0], True),
    "maximally_mixed_3": ([1 / 3, 1 / 3, 1 / 3], None),
    "maximally_mixed_2": ([0.5, 0.5], False),
    "near_degenerate": ([0.5, 0.25 + 1e-9, 0.25 - 1e-9], True),
}


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("name", EDGE_STATES)
def test_closed_form_edge_states(name, rotated, monkeypatch):
    """Coinciding eigenvalues, zero eigenvalues and multiples of the
    identity, in their eigenbasis and in a random one: the entropy is that
    of the weights to 1e-14, and rows where two roots of the cubic nearly
    coincide go to LAPACK."""
    weights, guarded = EDGE_STATES[name]
    rho = np.diag(weights).astype(complex)
    if rotated:
        u = _unitary(len(weights), 7)
        rho = u @ rho @ u.conj().T
    sizes = _record_eigvalsh_sizes(monkeypatch)
    expected = sampling_module._entropy_from_weights(np.array(weights), "test")
    assert abs(_entropy(rho) - expected) <= 1e-14
    if guarded is not None:
        assert (sizes == [3]) is guarded


def test_diagonal_vs_eigenvalue_entropy():
    plus = 0.5 * np.ones((2, 2))  # |+><+|
    diagonal = sampling_module._entropy_from_weights(np.diagonal(plus), "diagonal")
    assert diagonal == pytest.approx(math.log(2.0), abs=1e-15, rel=0)
    assert _entropy(plus) < 1e-12


def test_per_sample_schur_inequality():
    for rho_a in _reductions_by_side()["A"]:
        diag = np.diagonal(rho_a, axis1=1, axis2=2).real
        diagonal = sampling_module._entropy_from_weights(diag, "diagonal")
        assert np.all(diagonal >= sampling_module._entropies(rho_a, "A") - 1e-12)


def test_mutual_info_sample_composition():
    """Per sample, I = S_A + S_B - S_AB with S_AB from the joint side, and
    I >= 0 (subadditivity)."""
    for dims in (DIMS, FACTORISED):
        values = _per_sample_mutual_information(dims, 4, 40)
        assert values.shape == (40,)
        assert values.min() >= -1e-12
    rho_a, rho_b, rho_e = _chunk_reductions(DIMS, 4, 0, 40)
    s_a, s_b, s_ab = sampling_module._sample_entropies(rho_a, rho_b, rho_e)
    assert np.array_equal(s_ab, sampling_module._entropies(rho_e, "E"))
    assert np.array_equal(s_a, sampling_module._entropies(rho_a, "A"))
    assert np.array_equal(s_b, sampling_module._entropies(rho_b, "B"))


# ---------------------------------------------------------------------------
# oracle runs


def test_run_oracle_deterministic_across_workers():
    # swapped factors at (2,3,4) and (8,8,16), factorised at (2,3,7) and
    # (4,4,64)
    for dims in (DIMS, FACTORISED, Dimensions(8, 8, 16), Dimensions(4, 4, 64)):
        reference = run_oracle(dims, n_samples=700, seed=9, workers=1)
        for workers in (2, 4):
            other = run_oracle(dims, n_samples=700, seed=9, workers=workers)
            for name in reference.__dataclass_fields__:
                if name in ("dims", "rng"):
                    continue
                assert getattr(reference, name) == getattr(other, name), (
                    dims, name)


def test_run_oracle_statistics_concord():
    dims = Dimensions(2, 2, 4)
    stats = run_oracle(dims, n_samples=4000, seed=5, workers=4)
    env = dims.d_b * dims.d_e
    # generous 5-sigma bands: this is a smoke check, the acceptance suite
    # pins tighter ones at higher sample counts
    assert abs(
        stats.mean_mutual_information
        - float(mutual_information_rational(dims))
    ) < 5 * stats.stderr_mutual_information
    assert abs(stats.mean_purity_a - float(lubkin_purity(2, env))) < (
        5 * stats.stderr_purity_a
    )
    assert stats.stderr_mutual_information > 0
    assert stats.n_samples == 4000
    assert stats.seed == 5
    assert "philox" in stats.rng


def test_run_oracle_chunking_boundaries():
    # sample counts straddling the chunk size agree field by field across
    # worker counts, in both regimes
    for dims in REGIMES:
        for n_samples in (CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 3):
            one = run_oracle(dims, n_samples=n_samples, seed=2, workers=1)
            two = run_oracle(dims, n_samples=n_samples, seed=2, workers=2)
            assert one.n_samples == n_samples
            for name in one.__dataclass_fields__:
                assert getattr(one, name) == getattr(two, name), (
                    dims, n_samples, name)


def _fields(stats) -> dict:
    return {name: getattr(stats, name) for name in stats.__dataclass_fields__}


@pytest.mark.parametrize("dims", [DIMS, FACTORISED, Dimensions(64, 1, 2)])
def test_one_row_slices_are_bitwise_equal(dims, monkeypatch):
    """Slicing is invisible: with a budget of one entry every slice is one
    row, and every field equals the default run's bitwise, across a
    partial chunk and for 1 and 2 workers.  (64,1,2) has 15-row slices by
    default, sized mostly by its 64 x 64 rho_A."""
    n = CHUNK_SIZE + 3
    reference = _fields(run_oracle(dims, n_samples=n, seed=11))
    rows = []
    real_draw = sampling_module._purifications

    def recording(*args):
        for t in real_draw(*args):
            rows.append(len(t))
            yield t

    monkeypatch.setattr(sampling_module, "_SLICE_ENTRIES", 1)
    monkeypatch.setattr(sampling_module, "_purifications", recording)
    for workers in (1, 2):
        assert _fields(run_oracle(dims, n, seed=11, workers=workers)) == reference
    assert rows == [1] * (2 * n)


def _traced_peak(dims: Dimensions, n_samples: int, workers: int = 1) -> int:
    """The tracemalloc peak of one oracle run, in bytes, after a 16-sample
    run at the same triple has made the one-time allocations (lazy imports,
    LAPACK set-up)."""
    run_oracle(dims, n_samples=16, seed=1)
    tracemalloc.start()
    try:
        run_oracle(dims, n_samples=n_samples, seed=1, workers=workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: Traced peak allowed per worker: the slice budget is 2**17 entries (2 MiB)
#: over a slice's arrays and one copy of each, and the measured peaks of
#: 1024-sample runs are 1.6-2.3 MiB per worker (2.23 MiB at (64,1,2)).
_WORKER_PEAK = 3 * 2**20


@pytest.mark.parametrize("triple", [(16, 16, 16), (8, 8, 64), (64, 1, 2),
                                    (4, 4, 64)])
def test_run_oracle_memory_is_bounded(triple):
    """Each worker holds one row slice, whose arrays and one copy of each
    fit 2**17 entries, so a 1024-sample run peaks below 3 MiB, far below
    the 64 MiB that all its purifications (or, at (64,1,2), all its rho_A)
    would take."""
    assert _traced_peak(Dimensions(*triple), 1024) < _WORKER_PEAK


def test_run_oracle_memory_is_bounded_per_worker():
    """Two workers hold two slices: the bound is per worker."""
    assert _traced_peak(Dimensions(4, 4, 64), 1024, workers=2) < 2 * _WORKER_PEAK


def test_run_oracle_memory_does_not_grow_with_the_sample_count():
    """Each chunk reduces to its count, means and co-moments before it is
    merged, so 40 chunks peak within 64 KiB of 4 chunks (keeping the 72
    bytes per sample of nine per-sample columns would add 1.3 MiB)."""
    dims = FACTORISED
    four = _traced_peak(dims, 4 * CHUNK_SIZE)
    forty = _traced_peak(dims, 40 * CHUNK_SIZE)
    assert forty - four < 64 * 2**10


def test_draws_need_n_within_binary64():
    """Past N = 2**1022 the unscaled Bartlett factor's squared norm, about
    2N, nears the binary64 range, and the run is refused before any worker
    starts; at the limit every draw is finite, in both the one-level and
    the largest factorised case."""
    for triple in ((1, 1, 2**1022 + 1), (8, 8, 2**1016 + 1),
                   (1, 1, 2**1024 - 1)):
        with pytest.raises(DomainError, match=r"N above 2\*\*1022"):
            run_oracle(Dimensions(*triple), n_samples=2, seed=0)
    for triple in ((1, 1, 2**1022), (8, 8, 2**1016)):
        stats = run_oracle(Dimensions(*triple), n_samples=64, seed=0)
        assert stats.mean_purity_a == pytest.approx(1 / triple[0], rel=1e-12)
        assert stats.mean_entropy_ab == pytest.approx(
            math.log(triple[0] * triple[1]), rel=1e-12)


def test_verify_skips_the_oracle_past_the_draw_limit(capsys):
    """The analytic routes are defined at N = 2**1024 - 1; verify runs them
    and records the oracle as skipped."""
    d_e = str(2**1024 - 1)
    assert cli.main(["verify", "--da", "1", "--db", "1", "--de", d_e]) == 0
    assert "[SKIPPED] oracle_3se: N above 2**1022" in capsys.readouterr().out


#: Triples on either side of each oracle limit: the admitted one, the
#: refused one, the error run_oracle raises and the size its reason names.
ADMISSION_EDGES = {
    "swapped_cap": ((64, 64, 1), (65, 64, 1), InvalidDimensionError,
                    "N = 4160"),
    "factorised_cap": ((8, 8, 64), (9, 8, 100), InvalidDimensionError,
                       "C^2 = 5184"),
    "draw_limit": ((1, 1, 2**1022), (1, 1, 2**1022 + 1), DomainError,
                   "N above 2**1022"),
}


@pytest.mark.parametrize("edge", ADMISSION_EDGES)
def test_oracle_refuses_exactly_where_verify_skips(edge, capsys):
    """One rule admits a triple to run_oracle and to verify's oracle check:
    on both sides of each limit, run_oracle refuses exactly where verify
    records oracle_3se as skipped, and with the same reason."""
    admitted, refused, error, size = ADMISSION_EDGES[edge]

    def oracle_check(triple):
        argv = ["verify", "--da", str(triple[0]), "--db", str(triple[1]),
                "--de", str(triple[2]), "--samples", "2", "--workers", "1",
                "--format", "json"]
        assert cli.main(argv) in (0, 4)
        checks = json.loads(capsys.readouterr().out)["checks"]
        return next(c for c in checks if c["name"] == "oracle_3se")

    assert run_oracle(Dimensions(*admitted), n_samples=2, seed=0).n_samples == 2
    assert oracle_check(admitted)["status"] != "skipped"
    with pytest.raises(error) as refusal:
        run_oracle(Dimensions(*refused), n_samples=2, seed=0)
    check = oracle_check(refused)
    assert check["status"] == "skipped"
    assert check["detail"] == str(refusal.value)
    assert str(refusal.value).startswith(size)


def test_run_oracle_validation():
    with pytest.raises(DomainError):
        run_oracle(DIMS, n_samples=1, seed=0)
    with pytest.raises(DomainError):
        run_oracle(DIMS, n_samples=True, seed=0)
    with pytest.raises(DomainError):
        run_oracle(DIMS, n_samples=100, seed=-4)


def test_key_words_must_fit_64_bits():
    for dims in REGIMES:
        for workers in (1, 2):
            with pytest.raises(DomainError):
                run_oracle(dims, n_samples=10, seed=2**64, workers=workers)
        assert run_oracle(dims, n_samples=10, seed=2**64 - 1).n_samples == 10


#: Relative band between a merged mean or standard error and the one taken
#: over the whole per-sample column: eight ulps.  Merging moves each by a
#: few ulps: 1.9e-16 on the mean and 2.3e-16 on the SE at (2,3,7) x 20 000
#: (40 chunks, ROADMAP item 20), and at most 4.3e-16 in the tests below.
_MERGE_REL = 8 * 2.0**-52


@pytest.mark.parametrize("dims", [DIMS, Dimensions(3, 4, 2), FACTORISED])
def test_oracle_mean_equals_per_sample_route(dims):
    """The oracle's mean I, merged from its chunks' moments, is the mean of
    the per-sample I of the kernel, chunk by chunk, to a few ulps, for any
    worker count."""
    n = CHUNK_SIZE + 3
    per_sample = np.mean(_per_sample_mutual_information(dims, 6, n))
    for workers in (1, 2):
        stats = run_oracle(dims, n, 6, workers=workers)
        assert stats.mean_mutual_information == pytest.approx(
            per_sample, rel=_MERGE_REL, abs=0)


def _per_sample_columns(dims: Dimensions, seed: int, n: int) -> dict:
    """Each per-sample statistic of samples 0 .. n-1, keyed by the (mean,
    stderr) field pair of :class:`HaarSampleStats` it feeds, each chunk
    through the reduction and entropy kernels on its own."""
    m = dims.d_a
    chunks = []
    for start in range(0, n, CHUNK_SIZE):
        count = min(CHUNK_SIZE, n - start)
        rho_a, rho_b, rho_e = _chunk_reductions(dims, seed, start // CHUNK_SIZE,
                                                count)
        s_a, s_b, s_ab = sampling_module._sample_entropies(rho_a, rho_b, rho_e)
        diag = np.diagonal(rho_a, axis1=1, axis2=2).real
        columns = {
            ("mean_entropy_a", "stderr_entropy_a"): s_a,
            ("mean_entropy_b", "stderr_entropy_b"): s_b,
            ("mean_entropy_ab", "stderr_entropy_ab"): s_ab,
            ("mean_mutual_information", "stderr_mutual_information"):
                s_a + s_b - s_ab,
            ("mean_purity_a", "stderr_purity_a"):
                np.einsum("zij,zji->z", rho_a, rho_a).real,
            ("mean_diagonal_entropy_a", "stderr_diagonal_entropy_a"):
                sampling_module._entropy_from_weights(diag, "test"),
            ("mean_diagonal_second_moment_a", "stderr_diagonal_second_moment_a"):
                np.sum(diag * diag, axis=-1),
        }
        if m >= 2:
            centred = diag - np.mean(diag, axis=-1, keepdims=True)
            rows, cols = np.triu_indices(m, k=1)
            upper = rho_a[:, rows, cols]
            columns["cartan_var", "stderr_cartan_var"] = (
                2.0 * np.sum(centred**2, axis=-1) / (m - 1))
            columns["offdiag_var", "stderr_offdiag_var"] = (
                4.0 * np.sum(upper.real**2 + upper.imag**2, axis=-1)
                / (m * (m - 1)))
        chunks.append(columns)
    return {key: np.concatenate([c[key] for c in chunks]) for key in chunks[0]}


@pytest.mark.parametrize("dims", [DIMS, FACTORISED, Dimensions(1, 3, 5)])
def test_oracle_fields_are_their_per_sample_columns(dims):
    """Every mean/stderr pair of the oracle's stats, merged from its chunks'
    moments, is the mean and standard error of its own per-sample column to
    a few ulps (exactly, for a column of zeros), across a chunk boundary, in
    both regimes; at d_A = 1 the sector fields are None."""
    n = CHUNK_SIZE + 5
    stats = run_oracle(dims, n, 9, workers=2)
    columns = _per_sample_columns(dims, 9, n)
    for (mean_field, stderr_field), values in columns.items():
        mean = np.mean(values)
        stderr = np.std(values, ddof=1) / math.sqrt(n)
        assert getattr(stats, mean_field) == pytest.approx(
            mean, rel=_MERGE_REL, abs=0), mean_field
        assert getattr(stats, stderr_field) == pytest.approx(
            stderr, rel=_MERGE_REL, abs=0), stderr_field
    fields = {f.name for f in dataclasses.fields(stats)}
    covered = {name for pair in columns for name in pair}
    sectors = {"cartan_var", "stderr_cartan_var", "offdiag_var",
               "stderr_offdiag_var"}
    assert fields - covered == {"dims", "n_samples", "seed", "rng"} | (
        sectors if dims.d_a == 1 else set())
    if dims.d_a == 1:
        assert all(getattr(stats, name) is None for name in sectors)


def _eigvalsh_sizes(triple, monkeypatch) -> list[int]:
    """The sizes of the matrices a 20-sample oracle run passes to LAPACK."""
    sizes = _record_eigvalsh_sizes(monkeypatch)
    run_oracle(Dimensions(*triple), n_samples=20, seed=1, workers=2)
    return sizes


@pytest.mark.parametrize(
    "triple,largest", [((8, 8, 16), 16), ((3, 4, 2), 4), ((4, 4, 64), 16)]
)
def test_run_oracle_diagonalises_the_smaller_side(triple, largest, monkeypatch):
    """No eigenproblem exceeds max(d_A, d_B, min(d_A d_B, d_E))."""
    assert max(_eigvalsh_sizes(triple, monkeypatch)) == largest


@pytest.mark.parametrize("triple,sizes", [((2, 3, 7), {6}), ((3, 4, 2), {4})])
def test_run_oracle_solves_two_and_three_levels_in_closed_form(
    triple, sizes, monkeypatch
):
    """Only reduced states of four levels and up reach LAPACK: the 6x6
    rho_E' at (2,3,7) and the 4x4 rho_B at (3,4,2)."""
    assert set(_eigvalsh_sizes(triple, monkeypatch)) == sizes


@pytest.mark.parametrize("triple", [(1, 3, 7), (3, 1, 7), (1, 8, 4), (8, 1, 4)])
def test_trivial_subsystem_mutual_information_is_exactly_zero(triple, capsys):
    """With d_A = 1 or d_B = 1 every sample has I = 0 bitwise, so verify's
    3-SE band (then 0) holds against the exact 0 on every seed."""
    dims = Dimensions(*triple)
    da, db, de = (str(d) for d in triple)
    for seed in (1, 2, 3):
        stats = run_oracle(dims, n_samples=2000, seed=seed, workers=2)
        assert stats.mean_mutual_information == 0.0
        assert stats.stderr_mutual_information == 0.0
        code = cli.main(["verify", "--da", da, "--db", db, "--de", de,
                         "--samples", "2000", "--seed", str(seed)])
        assert code == 0, capsys.readouterr()


@pytest.mark.parametrize("triple", [(1, 3, 5), (1, 2, 9), (1, 2, 1), (1, 8, 4)])
def test_one_level_diagonal_entropy_is_exactly_zero(triple):
    """With d_A = 1 the diagonal of rho_A is one weight 1 +- ulp; its
    entropy is exactly 0, like S_A, in both regimes."""
    stats = run_oracle(Dimensions(*triple), n_samples=600, seed=4, workers=2)
    assert stats.mean_diagonal_entropy_a == 0.0
    assert stats.stderr_diagonal_entropy_a == 0.0
    assert stats.mean_entropy_a == 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_run_oracle_worker_failure(workers, monkeypatch):
    """A failure after a chunk's first slice discards the whole run."""
    real_draw = sampling_module._purifications

    def flaky(dims, seed, chunk, count):
        for i, t in enumerate(real_draw(dims, seed, chunk, count)):
            if chunk >= 1 and i == 1:
                raise RuntimeError("injected failure")
            yield t

    monkeypatch.setattr(sampling_module, "_SLICE_ENTRIES", 4096)
    monkeypatch.setattr(sampling_module, "_purifications", flaky)
    for dims in REGIMES:
        with pytest.raises(OracleWorkerError):
            run_oracle(dims, n_samples=2 * CHUNK_SIZE, seed=0, workers=workers)


def test_oracle_bloch_sector_fields():
    stats = run_oracle(Dimensions(1, 3, 3), n_samples=50, seed=1)
    assert stats.cartan_var is None and stats.offdiag_var is None
    stats2 = run_oracle(Dimensions(2, 2, 2), n_samples=50, seed=1)
    assert stats2.cartan_var is not None and stats2.offdiag_var > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_chunk_stops_the_run(workers, monkeypatch):
    """At most 2 * workers chunks are in flight, and none starts once a
    failure is read: with chunk 0 failing, fewer than 5 of 40 chunks
    start."""
    started = []
    real_draw = sampling_module._purifications

    def failing(dims, seed, chunk, count):
        started.append(chunk)
        if chunk == 0:
            raise RuntimeError("injected failure")
        yield from real_draw(dims, seed, chunk, count)

    monkeypatch.setattr(sampling_module, "_purifications", failing)
    with pytest.raises(OracleWorkerError):
        run_oracle(FACTORISED, n_samples=40 * CHUNK_SIZE, seed=0,
                   workers=workers)
    assert len(started) < 5


def test_bloch_variances_structure_and_concordance():
    # the Bloch statistics of m levels with environment n, here (2, 4),
    # are the oracle's sector fields at (m, n, 1)
    stats = run_oracle(Dimensions(2, 4, 1), n_samples=4000, seed=8, workers=2)
    target = float(bloch_variance(2, 4))
    assert abs(stats.cartan_var - target) < 5 * stats.stderr_cartan_var
    assert abs(stats.offdiag_var - target) < 5 * stats.stderr_offdiag_var


def _componentwise_sector_squares(dims: Dimensions, seed: int, n: int):
    """Per-sample mean squared Bloch component of ``rho_A`` over the Cartan
    and over the off-diagonal Gell-Mann generators (``Tr(g_a g_b) = 2
    delta_ab``), each component ``Tr(g rho)`` evaluated on its own."""
    m = dims.d_a
    cartan, offdiag = [], []
    for start in range(0, n, CHUNK_SIZE):
        count = min(CHUNK_SIZE, n - start)
        rho = _chunk_reductions(dims, seed, start // CHUNK_SIZE, count)[0]
        pairs = []
        for i in range(m):
            for j in range(i + 1, m):
                pairs.append(2.0 * rho[:, i, j].real)  # symmetric generator
                pairs.append(-2.0 * rho[:, i, j].imag)  # antisymmetric one
        diagonal = []
        for level in range(1, m):
            scale = math.sqrt(2.0 / (level * (level + 1)))
            above = np.sum(rho[:, range(level), range(level)].real, axis=1)
            diagonal.append(scale * (above - level * rho[:, level, level].real))
        offdiag.append(np.mean(np.square(pairs), axis=0))
        cartan.append(np.mean(np.square(diagonal), axis=0))
    return np.concatenate(cartan), np.concatenate(offdiag)


@pytest.mark.parametrize("triple", [(2, 3, 7), (3, 4, 2), (4, 4, 64), (8, 8, 16)])
def test_oracle_bloch_sectors_match_componentwise_generators(triple):
    """The closed-form sector sums over the diagonal and upper triangle of
    rho_A equal the generator-by-generator sums, in both regimes and across
    a chunk boundary."""
    dims = Dimensions(*triple)
    n = CHUNK_SIZE + 88
    stats = run_oracle(dims, n_samples=n, seed=3, workers=2)
    cartan, offdiag = _componentwise_sector_squares(dims, seed=3, n=n)
    for field, squares in (("cartan_var", cartan), ("offdiag_var", offdiag)):
        mean = float(np.mean(squares))
        stderr = float(np.std(squares, ddof=1) / math.sqrt(n))
        assert getattr(stats, field) == pytest.approx(mean, rel=1e-13, abs=0)
        assert getattr(stats, "stderr_" + field) == pytest.approx(
            stderr, rel=1e-13, abs=0)


def test_run_oracle_reaches_a_million_dimensions():
    """(4,4,62500) has N = 1e6, far above the sampling cap, but its
    Bartlett factor has C^2 = 256 entries; I ~ 1e-4 is matched to 4 SE."""
    dims = Dimensions(4, 4, 62500)
    stats = run_oracle(dims, n_samples=20_000, seed=42, workers=2)
    exact = mutual_information_exact(dims).total
    assert abs(stats.mean_mutual_information - exact) < (
        4 * stats.stderr_mutual_information
    )
