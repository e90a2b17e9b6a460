"""Kalman filtering of latent factors: per-user linear dynamics over the
PARAFAC2 factor sequence, with context vectors as observations.

The same expressions advance one filter or a stack of them. A stack has a
leading member axis on Lam, Psi and P_post, holds its factors and
observations as columns (B x R x 1 and B x N x 1) and shares A and Q; one
filter is a stack of one without the member axis, with plain vectors. Each
slice of a stacked product has the layout of the one-filter operand, so
each member gets the bits it would get alone.

`step` is the one exact predict/update. A missing view has no measurement,
so its posterior is its prediction: f <- A f, P <- A P A' + Q (Durbin &
Koopman, *Time Series Analysis by State Space Methods*, 2nd ed., 2012,
sec. 4.10). Once an observed exact step leaves P where it was, the filter
keeps that step's gain K and moves later observed views with the
steady-state filter f <- (I - K Lam) A f + K x (Simon, *Optimal State
Estimation*, 2006, ch. 7). A missing view grows P away from the steady
state, so it always takes the exact step and drops the settled gain until P
settles again.

Fitting advances every filter of a stack in lockstep (`evolve_sequence`):
at each time index the settled, observed members take one stacked settled
update and every other live member one stacked exact step. Serving advances
one filter per view (`serve_step`)."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

MISSING = None  # sentinel for an absent contextual signal
# An observed exact step that moves P_post by at most this much (relative,
# Frobenius norm) has settled P; the filter then keeps its gain.
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
    # (I - K Lam) A and K of a settled covariance; set and cleared by serve_step
    settled: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def _mT(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack."""
    return a.swapaxes(-1, -2)


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
    """One exact predict/update of the filter, or of every member of a
    stack, for observation x (N, or B x N x 1), or MISSING, whose posterior
    is the prediction and whose gain is None."""
    A = state.A
    f_prior = A @ state.f_post
    P = A @ state.P_post @ A.T + state.Q
    P_prior = (P + _mT(P)) / 2
    if x is MISSING:
        state.f_post, state.P_post, state.gain = f_prior, P_prior, None
        return state
    Lam = state.Lam
    n = Lam.shape[-2]
    x_obs = np.asarray(x, dtype=float)
    x_pred = Lam @ f_prior
    if x_obs.shape != x_pred.shape:
        raise ValueError(f"observation shape {x_obs.shape} != {x_pred.shape}")

    innov_cov = Lam @ P_prior @ _mT(Lam) + state.Psi
    try:
        gain = _mT(np.linalg.solve(_mT(innov_cov), _mT(P_prior @ _mT(Lam))))
    except np.linalg.LinAlgError:
        log.warning("singular innovation covariance; regularizing")
        innov_cov = innov_cov + 1e-10 * np.eye(n)
        gain = _mT(np.linalg.solve(_mT(innov_cov), _mT(P_prior @ _mT(Lam))))

    state.gain = gain
    state.f_post = f_prior + gain @ (x_obs - x_pred)
    P = (np.eye(A.shape[0]) - gain @ Lam) @ P_prior
    state.P_post = (P + _mT(P)) / 2
    return state


def _frobenius(P: np.ndarray) -> np.ndarray:
    """Each matrix's Frobenius norm, summed in `np.linalg.norm`'s order."""
    row = P.reshape(*P.shape[:-2], 1, -1)
    return np.sqrt(row @ _mT(row))[..., 0, 0]


def _settles(P_post: np.ndarray, P_before: np.ndarray):
    """Whether an observed exact step from P_before to P_post left P
    (relatively) within SETTLED_TOLERANCE of where it was, per member."""
    return _frobenius(P_post - P_before) <= SETTLED_TOLERANCE * _frobenius(P_before)


def _settled_transition(state: KalmanState) -> np.ndarray:
    """(I - K Lam) A for the gain K of the state's last exact step."""
    return (np.eye(state.A.shape[0]) - state.gain @ state.Lam) @ state.A


def serve_step(state: KalmanState, x) -> KalmanState:
    """One serving step: the settled gain for an observed view when the
    state carries one, else the exact `step`, which caches the gain once P
    settles. A missing view clears the cache. Only f_post moves on the
    settled path, the one settled update, which also moves every settled
    member of a stack at once."""
    if x is not MISSING and state.settled is not None:
        M, K = state.settled
        state.f_post = M @ state.f_post + K @ x
        return state
    P_before = state.P_post
    state = step(state, x)
    state.settled = None
    if x is not MISSING and _settles(state.P_post, P_before):
        state.settled = (_settled_transition(state), state.gain)
    return state


def initial_state(
    Lam: np.ndarray,
    A: np.ndarray,
    Q: np.ndarray,
    Psi: np.ndarray,
    f0: np.ndarray,
) -> KalmanState:
    """A filter at f0 with identity posterior covariance, or a stack of
    them when f0 is a B x R x 1 stack of columns."""
    f = np.asarray(f0, dtype=float)
    P = np.tile(np.eye(A.shape[0]), f.shape[:-2] + (1, 1))
    return KalmanState(A=A, Q=Q, Psi=Psi, Lam=Lam, f_post=f, P_post=P)


def evolve_sequence(
    Lam: np.ndarray,
    A: np.ndarray,
    Q: np.ndarray,
    Psi: np.ndarray,
    X: np.ndarray,
    views,
    f0: np.ndarray,
) -> tuple[np.ndarray, KalmanState, int, int]:
    """Advance a stack of B filters in lockstep over their views, each view
    as `serve_step` would advance it.

    Lam (B x N x R) and Psi (B x N x N) are the members' loading matrices
    and measurement noise. X (B x N x T) stacks their panels: member b's
    views are its first views[b] columns, and an all-zero column is a
    missing view. Every member starts from f0 with identity posterior
    covariance.

    Returns the a posteriori factors (B x T x R, of which member b's are its
    first views[b] rows), the final stack, and how many views took the
    settled gain and how many were missing. The final stack carries no
    settled gain, like the state `pipeline.load_model` reads back, so
    serving re-caches it either way.
    """
    B, n, T = X.shape
    r = A.shape[0]
    if Lam.shape != (B, n, r) or Psi.shape != (B, n, n) or Q.shape != (r, r) or len(f0) != r:
        raise ValueError("inconsistent shapes")
    live = np.arange(T) < np.asarray(views)[:, None]  # B x T: member b has a view at t
    observed = X.any(axis=1) & live
    f0 = np.asarray(f0, dtype=float)[:, None]
    stack = initial_state(Lam, A, Q, Psi, np.tile(f0, (B, 1, 1)))
    f, P = stack.f_post, stack.P_post
    settled = np.zeros(B, dtype=bool)
    M = np.zeros((B, r, r))
    # each settled K, stored transposed: K is the view with the solve's
    # column-major layout, which K @ x sums in
    K_T = np.zeros((B, n, r))
    evolved = np.empty((B, T, r))
    steady = 0
    for t in range(T):
        # the panel column's stride, as the settled update reads x
        x = X[:, :, t, None]
        take = settled & observed[:, t]
        if take.any():
            steady += int(np.count_nonzero(take))
            # serve_step's settled path moves the whole stack; members
            # without a settled gain or an observed view keep their f
            moved = serve_step(KalmanState(A, Q, Psi, Lam, f, P, settled=(M, _mT(K_T))), x)
            f = np.where(take[:, None, None], moved.f_post, f)
        exact = live[:, t] & ~take
        for ids, seen in (
            (np.flatnonzero(exact & observed[:, t]), True),
            (np.flatnonzero(exact & ~observed[:, t]), False),
        ):
            if not ids.size:
                continue
            P_before = P[ids]
            state = step(
                KalmanState(A, Q, Psi[ids], Lam[ids], f[ids], P_before),
                X[ids, :, t, None] if seen else MISSING,
            )
            f[ids], P[ids] = state.f_post, state.P_post
            settled[ids] = seen and _settles(state.P_post, P_before)
            if seen:
                now = settled[ids]
                M[ids[now]] = _settled_transition(state)[now]
                K_T[ids[now]] = _mT(state.gain)[now]
        evolved[:, t] = f[:, :, 0]
    stack.f_post, stack.P_post = f, P
    return evolved, stack, steady, int(np.count_nonzero(live & ~observed))


def estimate_measurement_noise(X: np.ndarray, Lam: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Scalar residual variance of X - Lam F, floored for stability, or one
    per member of a stack (X B x N x T, Lam B x N x R; F shared)."""
    resid = X - Lam @ F
    return np.maximum((resid**2).mean(axis=(-2, -1)), 1e-8)
