import json

import numpy as np
import pytest

from intentrec.parafac2 import (
    decompose,
    initial_latent_factors,
    loading_matrix,
    stack_panels,
)

from conftest import cluster_arrays, two_width_workdir


# The per-member ALS as it was before each width group of a cluster became
# one stack: one NumPy call per member per update. It is the bitwise oracle
# of the stacked code; it returns (G, H, S, V) and (iterations, errors,
# converged) instead of the factor and report records.


def _polar_orthonormal(M: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal polar factor of M (N x R), via SVD."""
    U, _, Wt = np.linalg.svd(M, full_matrices=False)
    return U[:, :rank] @ Wt[:rank]


def oracle_decompose(panels, rank, tol, max_iters, seed=0):
    X = panels
    if not X:
        raise ValueError("empty tensor")
    if any(np.isnan(m).any() for m in X):
        raise ValueError("NaN in input tensor")
    T = X[0].shape[1]
    if any(m.shape[1] != T for m in X):
        raise ValueError(f"panels differ in column count: {sorted({m.shape[1] for m in X})}")
    min_n = min(m.shape[0] for m in X)
    if rank < 1 or rank > min(T, min_n):
        raise ValueError(f"rank {rank} outside [1, min(T, min_u N_u)={min(T, min_n)}]")

    # Every panel's row space lies in the span of V, so the leading right
    # singular vectors of the stacked panels are a strong starting point; a
    # tiny seeded perturbation breaks ties between equal singular values.
    rng = np.random.default_rng(seed)
    _, _, Wt = np.linalg.svd(np.vstack(X), full_matrices=False)
    V = Wt[:rank].T + 1e-6 * rng.standard_normal((T, rank))
    H = np.eye(rank)
    S = [np.ones(rank) for _ in X]
    G = [np.zeros((m.shape[0], rank)) for m in X]

    norm_sq = sum(float((m**2).sum()) for m in X)
    errors: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        for u, Xu in enumerate(X):
            G[u] = _polar_orthonormal(Xu @ V @ np.diag(S[u]) @ H.T, rank)
        Y = [G[u].T @ Xu for u, Xu in enumerate(X)]  # R x T, projected panels

        VtV = V.T @ V
        # H update
        lhs = np.zeros((rank, rank))
        rhs = np.zeros((rank, rank))
        for u, Yu in enumerate(Y):
            D = np.diag(S[u])
            rhs += Yu @ V @ D
            lhs += D @ VtV @ D
        H = rhs @ np.linalg.pinv(lhs)
        HtH = H.T @ H
        # V update
        lhs = np.zeros((rank, rank))
        rhs = np.zeros((T, rank))
        for u, Yu in enumerate(Y):
            D = np.diag(S[u])
            rhs += Yu.T @ H @ D
            lhs += D @ HtH @ D
        V = rhs @ np.linalg.pinv(lhs)
        VtV = V.T @ V
        # per-user diagonal update
        hadamard = HtH * VtV
        pinv_h = np.linalg.pinv(hadamard)
        for u, Yu in enumerate(Y):
            S[u] = pinv_h @ np.diag(H.T @ Yu @ V)

        err = 0.0
        for u, Xu in enumerate(X):
            rec = G[u] @ H @ np.diag(S[u]) @ V.T
            err += float(((Xu - rec) ** 2).sum())
        errors.append(err)

        if norm_sq == 0:
            converged = True
            break
        if len(errors) >= 2:
            prev = errors[-2]
            if abs(prev - err) <= tol * max(norm_sq, 1e-300):
                converged = True
                break

    return (G, H, S, V), (it, errors, converged)


def _member_G(factors) -> list[np.ndarray]:
    """Each member's G, in member order, from the width groups' stacks."""
    G = [None] * factors.n_users
    for stack, members in zip(factors.G, factors.members):
        for row, u in zip(stack, members):
            G[u] = row
    return G


def _assert_matches_oracle(panels, rank, tol, max_iters, seed):
    """decompose on the panels' width-group stacks equals the per-member
    oracle, bit for bit; returns the oracle's (iterations, errors, converged)."""
    factors, report = decompose(
        *stack_panels(panels), rank=rank, tol=tol, max_iters=max_iters, seed=seed
    )
    (G, H, S, V), fit = oracle_decompose(panels, rank, tol, max_iters, seed)
    assert all(np.array_equal(got, want) for got, want in zip(_member_G(factors), G, strict=True))
    assert np.array_equal(factors.H, H)
    assert np.array_equal(factors.S, np.array(S))
    assert np.array_equal(factors.V, V)
    assert report.errors == fit[1]
    assert (report.iterations, report.converged) == (fit[0], fit[2])
    assert report.norm_sq == sum(float((m**2).sum()) for m in panels)
    return fit


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


def _fit(panels, **kwargs):
    return decompose(*stack_panels(panels), **kwargs)


def _reconstructions(factors) -> list[np.ndarray]:
    """Each member's reconstruction, in member order."""
    out = [None] * factors.n_users
    for g, members in enumerate(factors.members):
        for u, X_hat in zip(members, loading_matrix(factors, g) @ factors.V.T):
            out[u] = X_hat
    return out


class TestStackedOracle:
    def test_interleaved_widths(self):
        # members of widths 6, 12, 6, 18: the width-6 stack holds members 0
        # and 2, and every sum adds the members in member order
        rng = np.random.default_rng(11)
        panels = [rng.normal(size=(n, 20)) for n in (6, 12, 6, 18)]
        stacks, members = stack_panels(panels)
        assert [s.shape for s in stacks] == [(2, 6, 20), (1, 12, 20), (1, 18, 20)]
        assert members == [[0, 2], [1], [3]]
        iterations, _, converged = _assert_matches_oracle(panels, 3, 1e-5, 500, seed=4)
        assert converged and iterations > 2

    def test_a_single_member(self):
        rng = np.random.default_rng(12)
        _assert_matches_oracle([rng.normal(size=(6, 15))], 4, 1e-9, 100, seed=1)

    def test_a_run_stopped_at_max_iters(self):
        rng = np.random.default_rng(13)
        panels = [rng.normal(size=(6, 30)) for _ in range(9)]
        iterations, errors, converged = _assert_matches_oracle(panels, 5, 1e-15, 25, seed=2)
        assert (iterations, len(errors), converged) == (25, 25, False)

    def test_an_all_zero_tensor(self):
        panels = [np.zeros((n, 10)) for n in (6, 12, 6)]
        iterations, errors, converged = _assert_matches_oracle(panels, 3, 1e-7, 50, seed=0)
        assert (iterations, errors, converged) == (1, [0.0], True)

    def test_rank_equal_to_the_smallest_dimension(self):
        # rank = min(T, N_u), by T and by N_u: the width-6 polar factors are square
        rng = np.random.default_rng(14)
        _assert_matches_oracle([rng.normal(size=(n, 6)) for n in (6, 12)], 6, 1e-7, 60, seed=3)
        _assert_matches_oracle([rng.normal(size=(6, 20)) for _ in range(3)], 6, 1e-7, 60, seed=5)


def test_stage_factorize_writes_the_oracle_factors(tmp_path):
    # one cluster holds members of widths 12, 6, 12; each cluster's
    # arrays in tensors.npz and factors.npz hold one stack per width group, and every
    # array equals the oracle's fit of the cluster's panels in member order
    cfg, wide = two_width_workdir(tmp_path)
    doc = json.loads((tmp_path / "clustering.json").read_text())
    fits = json.loads((tmp_path / "manifest.json").read_text())["factorize"]["clusters"]
    (home,) = [c for c, members in doc["clusters"].items() if wide[0] in members]
    widths = {c: [6 * len(doc["slots"][u]) for u in members] for c, members in doc["clusters"].items()}
    assert widths[home] == [12, 6, 12]
    for cluster, members in doc["clusters"].items():
        groups = sorted(set(widths[cluster]), key=widths[cluster].index)
        with np.load(tmp_path / "tensors.npz") as z:
            z = cluster_arrays(z, cluster)
            assert list(z) == [f"X_{w}" for w in groups]
            stacks = {w: z[f"X_{w}"] for w in groups}
        rows = {w: iter(stacks[w]) for w in groups}
        panels = [next(rows[w]) for w in widths[cluster]]
        (G, H, S, V), (iterations, _, converged) = oracle_decompose(
            panels, fits[cluster]["rank"], 1e-6, cfg.max_iters, cfg.seed + int(cluster)
        )
        with np.load(tmp_path / "factors.npz") as z:
            z = cluster_arrays(z, cluster)
            assert sorted(z) == sorted([*(f"G_{w}" for w in groups), "H", "S", "V"])
            for w in groups:
                want = [g for g, n in zip(G, widths[cluster]) if n == w]
                assert np.array_equal(z[f"G_{w}"], np.stack(want)), (cluster, w)
            assert np.array_equal(z["H"], H), cluster
            assert np.array_equal(z["S"], np.array(S)), cluster
            assert np.array_equal(z["V"], V), cluster
        assert (fits[cluster]["iterations"], fits[cluster]["converged"]) == (iterations, converged)


class TestDecompose:
    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_recovers_constructed_tensor(self, rank):
        rng = np.random.default_rng(100 + rank)
        tensor = _planted_tensor(rng, rank)
        factors, report = _fit(tensor, rank=rank, tol=1e-14, max_iters=2000, seed=0)
        for X, X_hat in zip(tensor, _reconstructions(factors), strict=True):
            rel = np.linalg.norm(X - X_hat) / np.linalg.norm(X)
            assert rel <= 1e-6

    def test_error_sequence_non_increasing(self):
        rng = np.random.default_rng(2)
        tensor = _planted_tensor(rng, 3)
        # add noise so the fit cannot be exact
        for m in tensor:
            m += 0.05 * rng.normal(size=m.shape)
        _, report = _fit(tensor, rank=3, tol=1e-12, max_iters=100, seed=1)
        errs = report.errors
        assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))

    def test_g_orthonormal(self):
        rng = np.random.default_rng(3)
        tensor = _planted_tensor(rng, 4)
        factors, _ = _fit(tensor, rank=4, max_iters=50, seed=0)
        for G in _member_G(factors):
            np.testing.assert_allclose(G.T @ G, np.eye(4), atol=1e-8)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        tensor = _planted_tensor(rng, 2)
        f1, _ = _fit(tensor, rank=2, max_iters=30, seed=9)
        f2, _ = _fit(tensor, rank=2, max_iters=30, seed=9)
        np.testing.assert_array_equal(f1.V, f2.V)
        np.testing.assert_array_equal(f1.H, f2.H)

    def test_invalid_rank(self):
        rng = np.random.default_rng(5)
        tensor = _planted_tensor(rng, 2)
        with pytest.raises(ValueError):
            _fit(tensor, rank=0)
        with pytest.raises(ValueError):
            _fit(tensor, rank=99)

    def test_empty_tensor(self):
        with pytest.raises(ValueError):
            decompose([], [], rank=1)

    def test_differing_column_counts_rejected(self):
        rng = np.random.default_rng(10)
        tensor = _planted_tensor(rng, 2)
        tensor[1] = tensor[1][:, :-1]
        with pytest.raises(ValueError, match="column count"):
            _fit(tensor, rank=2)

    def test_nan_rejected(self):
        rng = np.random.default_rng(6)
        tensor = _planted_tensor(rng, 2)
        tensor[0][0, 0] = np.nan
        with pytest.raises(ValueError):
            _fit(tensor, rank=2)

    def test_member_positions_must_match_the_stacks(self):
        rng = np.random.default_rng(15)
        stacks, _ = stack_panels([rng.normal(size=(6, 8)) for _ in range(3)])
        for members in ([[0, 1]], [[0, 1, 1]], [[1, 2, 3]], []):
            with pytest.raises(ValueError, match="member positions"):
                decompose(stacks, members, rank=2)


class TestDerivedMatrices:
    def test_initial_latent_factors_shape(self):
        rng = np.random.default_rng(7)
        tensor = _planted_tensor(rng, 3)
        factors, _ = _fit(tensor, rank=3, max_iters=30, seed=0)
        F = initial_latent_factors(factors)
        assert F.shape == (3, tensor[0].shape[1])
        np.testing.assert_allclose(F, factors.V.T)

    def test_loading_matrix_reconstructs(self):
        # a width group's loading matrices G_u H diag(s_u), one per member,
        # bit for bit the per-member product
        rng = np.random.default_rng(8)
        tensor = _planted_tensor(rng, 3, n_users=5)
        factors, _ = _fit(tensor, rank=3, max_iters=200, seed=0)
        assert [len(m) for m in factors.members] == [2, 2, 1]
        G = _member_G(factors)
        for g, members in enumerate(factors.members):
            lam = loading_matrix(factors, g)
            for u, lam_u in zip(members, lam, strict=True):
                want = G[u] @ factors.H @ np.diag(factors.S[u])
                assert np.array_equal(lam_u, want), u
            # X_hat_u = G_u H diag(s_u) V' of each member
            X_hat = [G[u] @ factors.H @ np.diag(factors.S[u]) @ factors.V.T for u in members]
            np.testing.assert_allclose(lam @ factors.V.T, np.stack(X_hat), atol=1e-10)

    def test_index_bounds(self):
        rng = np.random.default_rng(9)
        tensor = _planted_tensor(rng, 2)
        factors, _ = _fit(tensor, rank=2, max_iters=10, seed=0)
        with pytest.raises(IndexError):
            loading_matrix(factors, 99)
        with pytest.raises(IndexError):
            loading_matrix(factors, -1)
