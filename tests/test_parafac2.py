import numpy as np
import pytest

from intentrec.parafac2 import (
    Parafac2Factors,
    decompose,
    initial_latent_factors,
    loading_matrix,
    reconstruct,
)


def _planted_tensor(rng, rank, n_users=3, T=12, sizes=(6, 8, 7)):
    """Panels constructed exactly from the model (noise-free).

    The planted mixing matrices are kept well-conditioned; heavily collinear
    components push alternating least squares into a swamp where convergence
    to the tight recovery tolerance takes unreasonably many sweeps.
    """
    Qh, _ = np.linalg.qr(rng.normal(size=(rank, rank)))
    H = Qh * rng.uniform(0.8, 1.25, size=rank)
    Qv, _ = np.linalg.qr(rng.normal(size=(T, rank)))
    V = Qv[:, :rank] * rng.uniform(0.8, 1.25, size=rank)
    mats = []
    for u in range(n_users):
        n_u = sizes[u % len(sizes)]
        M = rng.normal(size=(n_u, rank))
        Q, _ = np.linalg.qr(M)
        G = Q[:, :rank]
        s = rng.uniform(0.5, 2.0, size=rank)
        mats.append(G @ H @ np.diag(s) @ V.T)
    return mats


class TestDecompose:
    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_recovers_constructed_tensor(self, rank):
        rng = np.random.default_rng(100 + rank)
        tensor = _planted_tensor(rng, rank)
        factors, report = decompose(tensor, rank=rank, tol=1e-14, max_iters=2000, seed=0)
        for u, X in enumerate(tensor):
            rel = np.linalg.norm(X - reconstruct(factors, u)) / np.linalg.norm(X)
            assert rel <= 1e-6

    def test_error_sequence_non_increasing(self):
        rng = np.random.default_rng(2)
        tensor = _planted_tensor(rng, 3)
        # add noise so the fit cannot be exact
        for m in tensor:
            m += 0.05 * rng.normal(size=m.shape)
        _, report = decompose(tensor, rank=3, tol=1e-12, max_iters=100, seed=1)
        errs = report.errors
        assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))

    def test_g_orthonormal(self):
        rng = np.random.default_rng(3)
        tensor = _planted_tensor(rng, 4)
        factors, _ = decompose(tensor, rank=4, max_iters=50, seed=0)
        for G in factors.G:
            np.testing.assert_allclose(G.T @ G, np.eye(4), atol=1e-8)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        tensor = _planted_tensor(rng, 2)
        f1, _ = decompose(tensor, rank=2, max_iters=30, seed=9)
        f2, _ = decompose(tensor, rank=2, max_iters=30, seed=9)
        np.testing.assert_array_equal(f1.V, f2.V)
        np.testing.assert_array_equal(f1.H, f2.H)

    def test_invalid_rank(self):
        rng = np.random.default_rng(5)
        tensor = _planted_tensor(rng, 2)
        with pytest.raises(ValueError):
            decompose(tensor, rank=0)
        with pytest.raises(ValueError):
            decompose(tensor, rank=99)

    def test_empty_tensor(self):
        with pytest.raises(ValueError):
            decompose([], rank=1)

    def test_differing_column_counts_rejected(self):
        rng = np.random.default_rng(10)
        tensor = _planted_tensor(rng, 2)
        tensor[1] = tensor[1][:, :-1]
        with pytest.raises(ValueError, match="column count"):
            decompose(tensor, rank=2)

    def test_nan_rejected(self):
        rng = np.random.default_rng(6)
        tensor = _planted_tensor(rng, 2)
        tensor[0][0, 0] = np.nan
        with pytest.raises(ValueError):
            decompose(tensor, rank=2)


class TestDerivedMatrices:
    def test_initial_latent_factors_shape(self):
        rng = np.random.default_rng(7)
        tensor = _planted_tensor(rng, 3)
        factors, _ = decompose(tensor, rank=3, max_iters=30, seed=0)
        F = initial_latent_factors(factors)
        assert F.shape == (3, tensor[0].shape[1])
        np.testing.assert_allclose(F, factors.V.T)

    def test_loading_matrix_reconstructs(self):
        rng = np.random.default_rng(8)
        tensor = _planted_tensor(rng, 3)
        factors, _ = decompose(tensor, rank=3, max_iters=200, seed=0)
        for u in range(factors.n_users):
            lam = loading_matrix(factors, u)
            np.testing.assert_allclose(
                lam @ factors.V.T, reconstruct(factors, u), atol=1e-10
            )

    def test_index_bounds(self):
        rng = np.random.default_rng(9)
        tensor = _planted_tensor(rng, 2)
        factors, _ = decompose(tensor, rank=2, max_iters=10, seed=0)
        with pytest.raises(IndexError):
            reconstruct(factors, 99)
        with pytest.raises(IndexError):
            loading_matrix(factors, -1)
