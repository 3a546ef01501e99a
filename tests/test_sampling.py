"""Monte Carlo machinery: reproducible states, partial traces, entropies,
generator basis, and the parallel oracle."""

import math

import numpy as np
import pytest

from haarmi import (
    CHUNK_SIZE,
    Dimensions,
    DomainError,
    InvalidDimensionError,
    NumericalValidityError,
    OracleWorkerError,
    STATE_DIMENSION_CAP,
    bloch_variance,
    diagonal_entropy,
    gell_mann_basis,
    lubkin_purity,
    mutual_info_sample,
    mutual_information_rational,
    reduce_state,
    run_oracle,
    sample_state,
    von_neumann_entropy,
)
from haarmi import cli
from haarmi import sampling as sampling_module

DIMS = Dimensions(2, 3, 4)


# ---------------------------------------------------------------------------
# state sampling


def test_sample_state_normalised_and_reproducible():
    a = sample_state(DIMS, seed=42, index=5)
    b = sample_state(DIMS, seed=42, index=5)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
    assert a.amplitudes.shape == (24,)
    assert a.amplitudes.dtype == np.complex128


def test_sample_state_streams_differ():
    base = sample_state(DIMS, seed=42, index=0).amplitudes
    assert not np.array_equal(base, sample_state(DIMS, seed=42, index=1).amplitudes)
    assert not np.array_equal(base, sample_state(DIMS, seed=43, index=0).amplitudes)


def test_sample_state_is_row_of_its_chunk(monkeypatch):
    chunks = {}
    for index in (0, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 2):
        chunk, row = divmod(index, CHUNK_SIZE)
        if chunk not in chunks:
            chunks[chunk] = sampling_module._sample_block(
                DIMS, 3, chunk * CHUNK_SIZE, CHUNK_SIZE
            )
        state = sample_state(DIMS, seed=3, index=index)
        assert np.array_equal(state.amplitudes, chunks[chunk][row]), index
    assert not np.array_equal(chunks[0][0], chunks[1][0])
    # a run of CHUNK_SIZE + 3 samples draws the same first chunk as one of
    # 2 * CHUNK_SIZE, and a prefix of its second
    drawn = {}
    real_block = sampling_module._sample_block

    def recording(dims, seed, start, count):
        drawn[start] = real_block(dims, seed, start, count)
        return drawn[start]

    monkeypatch.setattr(sampling_module, "_sample_block", recording)
    run_oracle(DIMS, n_samples=CHUNK_SIZE + 3, seed=3)
    short = dict(drawn)
    run_oracle(DIMS, n_samples=2 * CHUNK_SIZE, seed=3)
    assert np.array_equal(short[0], chunks[0])
    assert np.array_equal(drawn[0], chunks[0])
    assert np.array_equal(short[CHUNK_SIZE], drawn[CHUNK_SIZE][:3])
    assert np.array_equal(drawn[CHUNK_SIZE], chunks[1])


def test_sample_state_validation():
    with pytest.raises(DomainError):
        sample_state(DIMS, seed=-1, index=0)
    with pytest.raises(DomainError):
        sample_state(DIMS, seed=42, index=-3)
    with pytest.raises(DomainError):
        sample_state(DIMS, seed=True, index=0)
    with pytest.raises(DomainError):
        sample_state(DIMS, seed=42, index=True)
    big = Dimensions(16, 16, 17)  # N = 4352
    assert big.n > STATE_DIMENSION_CAP
    with pytest.raises(InvalidDimensionError):
        sample_state(big, seed=0, index=0)


# ---------------------------------------------------------------------------
# partial traces


@pytest.mark.parametrize("keep,dim", [("A", 2), ("B", 3), ("AB", 6), ("E", 4)])
def test_reduce_state_is_density_matrix(keep, dim):
    state = sample_state(DIMS, seed=1, index=0)
    rho = reduce_state(state, keep)
    assert rho.shape[0] == dim
    assert rho.shape == (dim, dim)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_reduce_state_bad_target():
    state = sample_state(DIMS, seed=1, index=0)
    with pytest.raises(DomainError):
        reduce_state(state, "AE")


def test_reduce_product_state():
    """For psi = u (x) v (x) w the reductions are the pure projectors."""
    u = np.array([1.0, 1.0j]) / math.sqrt(2)
    v = np.array([1.0, 0.0, 0.0])
    w = np.array([0.6, 0.8, 0.0, 0.0])
    dims = Dimensions(2, 3, 4)
    psi = np.einsum("a,b,e->abe", u, v, w).reshape(-1)
    state = sampling_module.PureState(amplitudes=psi, dims=dims)
    np.testing.assert_allclose(
        reduce_state(state, "A"), np.outer(u, u.conj()), atol=1e-14
    )
    np.testing.assert_allclose(
        reduce_state(state, "B"), np.outer(v, v.conj()), atol=1e-14
    )
    uv = np.kron(u, v)
    np.testing.assert_allclose(
        reduce_state(state, "AB"), np.outer(uv, uv.conj()), atol=1e-14
    )
    np.testing.assert_allclose(
        reduce_state(state, "E"), np.outer(w, w.conj()), atol=1e-14
    )


def test_schmidt_symmetry():
    """Nonzero spectrum of rho_A equals that of the complementary reduction."""
    state = sample_state(Dimensions(2, 3, 4), seed=3, index=7)
    t = state.amplitudes.reshape(2, 12)
    rho_be = np.einsum("ax,ay->xy", t.conj(), t)  # complement of A
    eig_a = np.linalg.eigvalsh(reduce_state(state, "A"))
    eig_be = np.linalg.eigvalsh(rho_be)
    largest = np.sort(eig_be)[-2:]
    np.testing.assert_allclose(np.sort(eig_a), largest, atol=1e-12)


@pytest.mark.parametrize("triple", [(2, 3, 4), (3, 4, 2), (4, 4, 64), (8, 8, 16)])
def test_schmidt_identity_ab_equals_e(triple):
    """S(rho_AB) = S(rho_E) for a pure state, whichever side is smaller."""
    dims = Dimensions(*triple)
    t = sampling_module._sample_block(dims, 5, 0, 256).reshape(-1, *triple)
    s_ab, s_e = (
        sampling_module._entropies(sampling_module._reduce(t, side), side)
        for side in ("AB", "E")
    )
    assert np.max(np.abs(s_ab - s_e)) <= 1e-13


def test_no_environment_gives_pure_joint_state():
    state = sample_state(Dimensions(2, 3, 1), seed=0, index=0)
    assert von_neumann_entropy(reduce_state(state, "AB")) < 1e-12


# ---------------------------------------------------------------------------
# entropies


def test_von_neumann_entropy_known():
    rho = np.diag([0.75, 0.25])
    assert von_neumann_entropy(rho) == pytest.approx(
        0.5623351446188083, abs=1e-15, rel=0
    )
    pure = np.outer([1, 0, 0], [1, 0, 0]).astype(float)
    assert von_neumann_entropy(pure) == 0.0


def test_entropy_eigenvalue_policy():
    # tiny negatives are clamped, real negatives are an error
    assert von_neumann_entropy(np.diag([1.0, -5e-11])) == 0.0
    with pytest.raises(NumericalValidityError):
        von_neumann_entropy(np.diag([1.5, -0.5]))
    with pytest.raises(NumericalValidityError):
        diagonal_entropy(np.diag([1.5, -0.5]))


def test_diagonal_vs_eigenvalue_entropy():
    plus = 0.5 * np.ones((2, 2))  # |+><+|
    assert diagonal_entropy(plus) == pytest.approx(math.log(2.0), abs=1e-15, rel=0)
    assert von_neumann_entropy(plus) < 1e-12


def test_per_sample_schur_inequality():
    for index in range(20):
        state = sample_state(DIMS, seed=11, index=index)
        rho = reduce_state(state, "A")
        assert diagonal_entropy(rho) >= von_neumann_entropy(rho) - 1e-12


def test_mutual_info_sample_composition():
    state = sample_state(DIMS, seed=4, index=2)
    manual = (
        von_neumann_entropy(reduce_state(state, "A"))
        + von_neumann_entropy(reduce_state(state, "B"))
        - von_neumann_entropy(reduce_state(state, "E"))
    )
    assert mutual_info_sample(DIMS, seed=4, index=2) == manual
    assert mutual_info_sample(DIMS, seed=4, index=2) >= -1e-12


# ---------------------------------------------------------------------------
# generator basis


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_gell_mann_basis_orthonormal(m):
    basis = gell_mann_basis(m)
    assert basis.count == m * m - 1
    assert int(basis.is_cartan.sum()) == m - 1
    for g in basis.matrices:
        np.testing.assert_allclose(g, g.conj().T, atol=1e-15)
        assert abs(np.trace(g)) < 1e-14
    gram = np.einsum("aij,bji->ab", basis.matrices, basis.matrices).real
    np.testing.assert_allclose(gram, 2.0 * np.eye(m * m - 1), atol=1e-13)


def test_gell_mann_basis_m2_is_pauli():
    basis = gell_mann_basis(2)
    np.testing.assert_allclose(basis.matrices[0], [[0, 1], [1, 0]], atol=0)
    np.testing.assert_allclose(basis.matrices[1], [[0, -1j], [1j, 0]], atol=0)
    np.testing.assert_allclose(basis.matrices[2], [[1, 0], [0, -1]], atol=1e-15)
    assert list(basis.is_cartan) == [False, False, True]


def test_gell_mann_basis_domain():
    with pytest.raises(DomainError):
        gell_mann_basis(1)
    with pytest.raises(DomainError):
        gell_mann_basis(True)


# ---------------------------------------------------------------------------
# oracle runs


def test_run_oracle_deterministic_across_workers():
    # S_AB from rho_E at (2,3,4) and (8,8,16), from rho_AB at (2,3,7)
    for dims in (DIMS, Dimensions(2, 3, 7), Dimensions(8, 8, 16)):
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
    # worker counts
    for n_samples in (CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 3):
        one = run_oracle(DIMS, n_samples=n_samples, seed=2, workers=1)
        two = run_oracle(DIMS, n_samples=n_samples, seed=2, workers=2)
        assert one.n_samples == n_samples
        for name in one.__dataclass_fields__:
            assert getattr(one, name) == getattr(two, name), (n_samples, name)


def test_run_oracle_validation():
    with pytest.raises(DomainError):
        run_oracle(DIMS, n_samples=1, seed=0)
    with pytest.raises(DomainError):
        run_oracle(DIMS, n_samples=True, seed=0)
    with pytest.raises(DomainError):
        run_oracle(DIMS, n_samples=100, seed=-4)


def test_key_words_must_fit_64_bits():
    for workers in (1, 2):
        with pytest.raises(DomainError):
            run_oracle(DIMS, n_samples=10, seed=2**64, workers=workers)
    with pytest.raises(DomainError):
        sample_state(DIMS, seed=0, index=2**64)
    with pytest.raises(DomainError):
        sample_state(DIMS, seed=2**64, index=0)
    state = sample_state(DIMS, seed=2**64 - 1, index=2**64 - 1)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    assert run_oracle(DIMS, n_samples=10, seed=2**64 - 1).n_samples == 10


@pytest.mark.parametrize(
    "dims", [Dimensions(2, 3, 4), Dimensions(3, 4, 2), Dimensions(2, 3, 7)]
)
def test_oracle_mean_equals_per_sample_route(dims):
    """The batched chunk kernel and the single-sample route agree bitwise."""
    n = CHUNK_SIZE + 3
    per_sample = np.mean([mutual_info_sample(dims, 6, i) for i in range(n)])
    for workers in (1, 2):
        stats = run_oracle(dims, n, 6, workers=workers)
        assert stats.mean_mutual_information == per_sample


@pytest.mark.parametrize("triple,largest", [((8, 8, 16), 16), ((3, 4, 2), 4)])
def test_run_oracle_diagonalises_the_smaller_side(triple, largest, monkeypatch):
    """No eigenproblem exceeds max(d_A, d_B, min(d_A d_B, d_E))."""
    sizes = []
    real_eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    run_oracle(Dimensions(*triple), n_samples=20, seed=1, workers=2)
    assert max(sizes) == largest


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


@pytest.mark.parametrize("workers", [1, 2])
def test_run_oracle_worker_failure(workers, monkeypatch):
    real_block = sampling_module._sample_block

    def flaky(dims, seed, start, count):
        if start >= CHUNK_SIZE:
            raise RuntimeError("injected failure")
        return real_block(dims, seed, start, count)

    monkeypatch.setattr(sampling_module, "_sample_block", flaky)
    with pytest.raises(OracleWorkerError):
        run_oracle(DIMS, n_samples=2 * CHUNK_SIZE, seed=0, workers=workers)


def test_oracle_bloch_sector_fields():
    stats = run_oracle(Dimensions(1, 3, 3), n_samples=50, seed=1)
    assert stats.cartan_var is None and stats.offdiag_var is None
    stats2 = run_oracle(Dimensions(2, 2, 2), n_samples=50, seed=1)
    assert stats2.cartan_var is not None and stats2.offdiag_var > 0


def test_bloch_variances_structure_and_concordance():
    # the Bloch statistics of m levels with environment n, here (2, 4),
    # are the oracle's sector fields at (m, n, 1)
    assert gell_mann_basis(2).is_cartan.tolist() == [False, False, True]
    stats = run_oracle(Dimensions(2, 4, 1), n_samples=4000, seed=8, workers=2)
    target = float(bloch_variance(2, 4))
    assert abs(stats.cartan_var - target) < 5 * stats.stderr_cartan_var
    assert abs(stats.offdiag_var - target) < 5 * stats.stderr_offdiag_var
