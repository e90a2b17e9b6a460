"""PARAFAC2 decomposition of a ragged context tensor by direct-fitting
alternating least squares (Kiers, ten Berge & Bro, *J. Chemometrics* 13,
1999).

A cluster's panels (one N_u x T matrix per member) come as stacks, one per
width N_u: `width_groups` gives each width's member positions in member
order, and stack g holds the panels of the members at `members[g]`. Within
a sweep the members' updates are independent (Perros et al., SPARTan, KDD
2017), so each stack takes its polar update (one stacked SVD), projection,
H and V terms, s update and error as stacked products. Every sum over
members adds the members' terms in member order, so each member gets the
bits the per-member loop gave it."""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_MAX_ITERS, DEFAULT_RANK

DEFAULT_TOL = 1e-7


@dataclass
class Parafac2Factors:
    rank: int
    G: list[np.ndarray]  # per width group, B_g x N_g x R with orthonormal columns
    H: np.ndarray  # R x R, shared
    S: np.ndarray  # B x R, each member's diagonal, in member order
    V: np.ndarray  # T x R collaborative latent factors
    members: list[list[int]]  # the member positions of each G stack's rows

    @property
    def n_users(self) -> int:
        return len(self.S)


@dataclass
class FitReport:
    iterations: int
    errors: list[float]  # total squared Frobenius error per sweep
    converged: bool
    norm_sq: float  # total squared Frobenius norm of the panels


def width_groups(widths: Iterable[int]) -> dict[int, list[int]]:
    """Each width's member positions, in member order, keyed by width in
    order of first appearance: a cluster's width groups."""
    groups: dict[int, list[int]] = {}
    for pos, width in enumerate(widths):
        groups.setdefault(int(width), []).append(pos)
    return groups


def stack_panels(panels: list[np.ndarray]) -> tuple[list[np.ndarray], list[list[int]]]:
    """The panels (in member order) as one row-major stack per width group,
    and each stack's member positions. BLAS sums in a layout-dependent
    order, and the fitted model's last bits are pinned to row-major panels."""
    groups = width_groups(m.shape[0] for m in panels)
    stacks = [np.ascontiguousarray(np.stack([panels[i] for i in idx])) for idx in groups.values()]
    return stacks, list(groups.values())


def _mT(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _diag(S: np.ndarray) -> np.ndarray:
    """diag(s) of each row s of S (B x R), built as np.diag builds it."""
    B, r = S.shape
    D = np.zeros((B, r, r))
    D.reshape(B, r * r)[:, :: r + 1] = S
    return D


def _polar_orthonormal(M: np.ndarray) -> np.ndarray:
    """Orthonormal polar factor of each N x R matrix (N >= R) of a stack,
    via one stacked SVD."""
    U, _, Wt = np.linalg.svd(M, full_matrices=False)
    return U @ Wt


def decompose(
    stacks: list[np.ndarray],
    members: list[list[int]],
    rank: int = DEFAULT_RANK,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int = 0,
) -> tuple[Parafac2Factors, FitReport]:
    """Fit each member's panel X_u ~= G_u H diag(s_u) V' by ALS.

    stacks[g] (B_g x N_g x T, row-major) holds the panels of the members at
    positions members[g]; together the positions number the members 0..B-1.
    Each sweep updates every G_u as the orthonormal polar factor of
    X_u V diag(s_u) H', then runs one CP least-squares round for H, V, s_u
    on the projected panels G_u' X_u. Deterministic given the seed.
    """
    if not stacks:
        raise ValueError("empty tensor")
    if len(members) != len(stacks) or any(len(i) != len(X) for i, X in zip(members, stacks)):
        raise ValueError("the member positions do not match the stacks")
    order = np.concatenate(members).astype(int)
    if sorted(order.tolist()) != list(range(len(order))):
        raise ValueError("the member positions do not number the members 0..B-1")
    if any(np.isnan(X).any() for X in stacks):
        raise ValueError("NaN in input tensor")
    T = stacks[0].shape[2]
    if any(X.shape[2] != T for X in stacks):
        raise ValueError(f"panels differ in column count: {sorted({X.shape[2] for X in stacks})}")
    min_n = min(X.shape[1] for X in stacks)
    if rank < 1 or rank > min(T, min_n):
        raise ValueError(f"rank {rank} outside [1, min(T, min_u N_u)={min(T, min_n)}]")

    at = np.argsort(order)  # each member's row in the stacks' concatenation

    def in_member_order(parts: list[np.ndarray]) -> np.ndarray:
        """Per-stack results, one row per member, stacked in member order:
        the order of every sum over members."""
        return np.concatenate(parts)[at]

    # Every panel's row space lies in the span of V, so the leading right
    # singular vectors of the stacked panels are a strong starting point; a
    # tiny seeded perturbation breaks ties between equal singular values.
    rng = np.random.default_rng(seed)
    panels = [m for X in stacks for m in X]
    _, _, Wt = np.linalg.svd(np.vstack([panels[i] for i in at]), full_matrices=False)
    V = Wt[:rank].T + 1e-6 * rng.standard_normal((T, rank))
    H = np.eye(rank)
    S = np.ones((len(order), rank))
    G = [np.zeros((len(X), X.shape[1], rank)) for X in stacks]

    norm_sq = sum(in_member_order([(X**2).sum(axis=(1, 2)) for X in stacks]).tolist())
    errors: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        D = [_diag(S[idx]) for idx in members]
        G = [_polar_orthonormal(X @ V @ Dg @ H.T) for X, Dg in zip(stacks, D)]
        Y = [_mT(Gg) @ X for Gg, X in zip(G, stacks)]  # R x T, projected panels

        D_all = _diag(S)
        VtV = V.T @ V
        # H update
        rhs = in_member_order([Yg @ V @ Dg for Yg, Dg in zip(Y, D)]).sum(axis=0)
        H = rhs @ np.linalg.pinv((D_all @ VtV @ D_all).sum(axis=0))
        HtH = H.T @ H
        # V update
        rhs = in_member_order([_mT(Yg) @ H @ Dg for Yg, Dg in zip(Y, D)]).sum(axis=0)
        V = rhs @ np.linalg.pinv((D_all @ HtH @ D_all).sum(axis=0))
        VtV = V.T @ V
        # per-user diagonal update
        pinv_h = np.linalg.pinv(HtH * VtV)
        diags = in_member_order([np.diagonal(H.T @ Yg @ V, axis1=1, axis2=2) for Yg in Y])
        S = (pinv_h @ diags[:, :, None])[:, :, 0]

        resid = in_member_order([
            ((X - Gg @ H @ _diag(S[idx]) @ V.T) ** 2).sum(axis=(1, 2))
            for X, Gg, idx in zip(stacks, G, members)
        ])
        # a running sum in member order, as the members' errors were added
        # one at a time; np.sum would add them pairwise
        err = float(np.cumsum(resid)[-1])
        errors.append(err)

        if norm_sq == 0:
            converged = True
            break
        if len(errors) >= 2:
            prev = errors[-2]
            if abs(prev - err) <= tol * max(norm_sq, 1e-300):
                converged = True
                break

    factors = Parafac2Factors(rank=rank, G=G, H=H, S=S, V=V, members=[list(i) for i in members])
    report = FitReport(iterations=it, errors=errors, converged=converged, norm_sq=norm_sq)
    return factors, report


def initial_latent_factors(factors: Parafac2Factors) -> np.ndarray:
    """Shared initial latent factors V' (R x T), identical for every user.

    Column-major, the layout of the view V.T. BLAS sums in a layout-dependent
    order, so this keeps Kalman fits bit-identical to ones computed from V.T.
    """
    return factors.V.T.copy(order="F")


def loading_matrix(factors: Parafac2Factors, group: int) -> np.ndarray:
    """The loading matrices G_u H diag(s_u) of a width group's members, a
    B_g x N_g x R stack."""
    if not 0 <= group < len(factors.G):
        raise IndexError("group out of range")
    return factors.G[group] @ factors.H @ _diag(factors.S[factors.members[group]])
