"""PARAFAC2 decomposition of a ragged context tensor, given as its panels
(one N_u x T matrix per user), via direct-fitting alternating least squares."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RANK = 5
DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 500


@dataclass
class Parafac2Factors:
    rank: int
    G: list[np.ndarray]  # per user, N_u x R with orthonormal columns
    H: np.ndarray  # R x R, shared
    S: list[np.ndarray]  # per user diagonal, stored as R-vectors
    V: np.ndarray  # T x R collaborative latent factors

    @property
    def n_users(self) -> int:
        return len(self.G)


@dataclass
class FitReport:
    iterations: int
    errors: list[float]  # total squared Frobenius error per sweep
    converged: bool


def _polar_orthonormal(M: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal polar factor of M (N x R), via SVD."""
    U, _, Wt = np.linalg.svd(M, full_matrices=False)
    return U[:, :rank] @ Wt[:rank]


def decompose(
    panels: list[np.ndarray],
    rank: int = DEFAULT_RANK,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int = 0,
) -> tuple[Parafac2Factors, FitReport]:
    """Fit each panel X_u ~= G_u H diag(s_u) V' by ALS.

    Each sweep updates every G_u as the orthonormal polar factor of
    X_u V diag(s_u) H', then runs one CP least-squares round for H, V, s_u on
    the projected panels G_u' X_u. Deterministic given the seed.
    """
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

    factors = Parafac2Factors(rank=rank, G=G, H=H, S=S, V=V)
    return factors, FitReport(iterations=it, errors=errors, converged=converged)


def reconstruct(factors: Parafac2Factors, user_index: int) -> np.ndarray:
    """X_hat_u = G_u H diag(s_u) V'."""
    return loading_matrix(factors, user_index) @ factors.V.T


def initial_latent_factors(factors: Parafac2Factors) -> np.ndarray:
    """Shared initial latent factors V' (R x T), identical for every user.

    Column-major, the layout of the view V.T. BLAS sums in a layout-dependent
    order, so this keeps Kalman fits bit-identical to ones computed from V.T.
    """
    return factors.V.T.copy(order="F")


def loading_matrix(factors: Parafac2Factors, user_index: int) -> np.ndarray:
    """Per-user loading matrix G_u H diag(s_u), shape N_u x R."""
    if not 0 <= user_index < factors.n_users:
        raise IndexError("user_index out of range")
    return factors.G[user_index] @ factors.H @ np.diag(factors.S[user_index])
