"""Kalman filtering of latent factors: per-user linear dynamics over the
PARAFAC2 factor sequence, with context vectors as observations.

`step` is the one exact predict/update. A missing view has no measurement,
so its posterior is its prediction: f <- A f, P <- A P A' + Q (Durbin &
Koopman, *Time Series Analysis by State Space Methods*, 2nd ed., 2012,
sec. 4.10). Fitting (`evolve_sequence`) and serving advance a filter the
same way, through `serve_step`: it runs `step` until the error covariance
settles, then moves observed views with the settled gain K as the
steady-state filter f <- (I - K Lam) A f + K x (Simon, *Optimal State
Estimation*, 2006, ch. 7). A missing view grows P away from the steady
state, so it always takes the exact step and drops the settled gain until P
settles again."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

MISSING = None  # sentinel for an absent contextual signal
DEFAULT_PROCESS_NOISE = 1.0
# An observed exact step that moves P_post by at most this much (relative,
# Frobenius norm) has settled P; serve_step then keeps its gain.
SETTLED_TOLERANCE = 1e-12


@dataclass
class KalmanState:
    A: np.ndarray  # R x R transition matrix
    Q: np.ndarray  # R x R process noise covariance
    Psi: np.ndarray  # N x N measurement noise covariance
    Lam: np.ndarray  # N x R loading matrix
    f_post: np.ndarray  # a posteriori latent factor
    P_post: np.ndarray  # a posteriori error covariance
    # gain of the last step; None after a missing view
    gain: np.ndarray | None = field(default=None, repr=False)
    # (I - K Lam) A and K of a settled covariance; set and cleared by serve_step,
    # and None on the state evolve_sequence returns
    settled: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def estimate_transition(F: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Least-squares transition fit for columns of F (R x T): f_t ~= A f_{t-1}.

    Minimizes sum_t ||f_t - A f_{t-1}||^2 + ridge ||A||_F^2.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    r, T = F.shape
    if T < 2:
        raise ValueError("need at least two time steps")
    prev = F[:, :-1]
    nxt = F[:, 1:]
    lhs = prev @ prev.T + ridge * np.eye(r)
    rhs = nxt @ prev.T
    return rhs @ np.linalg.pinv(lhs)


def step(state: KalmanState, x) -> KalmanState:
    """One exact predict/update for observation x, or MISSING, whose
    posterior is the prediction and whose gain is None."""
    A = state.A
    f_prior = A @ state.f_post
    P = A @ state.P_post @ A.T + state.Q
    P_prior = (P + P.T) / 2
    if x is MISSING:
        state.f_post, state.P_post, state.gain = f_prior, P_prior, None
        return state
    Lam = state.Lam
    n = Lam.shape[0]
    x_obs = np.asarray(x, dtype=float)
    if x_obs.shape != (n,):
        raise ValueError(f"observation shape {x_obs.shape} != ({n},)")

    innov_cov = Lam @ P_prior @ Lam.T + state.Psi
    try:
        gain = np.linalg.solve(innov_cov.T, (P_prior @ Lam.T).T).T
    except np.linalg.LinAlgError:
        log.warning("singular innovation covariance; regularizing")
        innov_cov = innov_cov + 1e-10 * np.eye(n)
        gain = np.linalg.solve(innov_cov.T, (P_prior @ Lam.T).T).T

    state.gain = gain
    state.f_post = f_prior + gain @ (x_obs - Lam @ f_prior)
    P = (np.eye(len(f_prior)) - gain @ Lam) @ P_prior
    state.P_post = (P + P.T) / 2
    return state


def serve_step(state: KalmanState, x) -> KalmanState:
    """One serving step: the settled gain for an observed view when the
    state carries one, else the exact `step`, which caches the gain once it
    leaves P_post (relatively) within SETTLED_TOLERANCE of where it was. A
    missing view clears the cache. Only f_post moves on the settled path."""
    if x is not MISSING and state.settled is not None:
        M, K = state.settled
        state.f_post = M @ state.f_post + K @ x
        return state
    P_before = state.P_post
    state = step(state, x)
    state.settled = None
    if x is not MISSING and np.linalg.norm(state.P_post - P_before) <= (
        SETTLED_TOLERANCE * np.linalg.norm(P_before)
    ):
        K = state.gain
        state.settled = ((np.eye(len(state.f_post)) - K @ state.Lam) @ state.A, K)
    return state


def initial_state(
    Lam: np.ndarray,
    A: np.ndarray,
    Q: np.ndarray,
    Psi: np.ndarray,
    f0: np.ndarray,
) -> KalmanState:
    r = len(f0)
    return KalmanState(
        A=A, Q=Q, Psi=Psi, Lam=Lam, f_post=np.asarray(f0, dtype=float), P_post=np.eye(r)
    )


def evolve_sequence(
    Lam: np.ndarray,
    A: np.ndarray,
    Q: np.ndarray,
    Psi: np.ndarray,
    observations,
    f0: np.ndarray,
) -> tuple[list[np.ndarray], KalmanState, int]:
    """Run the filter across all observation columns with `serve_step`.

    observations is a sequence of N-vectors (or MISSING entries). Starts from
    f0 with identity posterior covariance; returns the a posteriori factor per
    step, the final state for later serving and how many views took the
    settled gain. The final state carries no settled gain, like the state
    `pipeline.load_model` reads back, so serving re-caches it either way.
    """
    r = A.shape[0]
    if Lam.shape[1] != r or Q.shape != (r, r) or len(f0) != r:
        raise ValueError("inconsistent shapes")
    state = initial_state(Lam, A, Q, Psi, f0)
    out: list[np.ndarray] = []
    steady = 0
    for x in observations:
        steady += x is not MISSING and state.settled is not None
        state = serve_step(state, x)
        out.append(state.f_post.copy())
    state.settled = None
    return out, state, steady


def estimate_measurement_noise(X: np.ndarray, Lam: np.ndarray, F: np.ndarray) -> float:
    """Scalar residual variance of X - Lam F, floored for stability."""
    resid = X - Lam @ F
    var = float((resid**2).mean())
    return max(var, 1e-8)
