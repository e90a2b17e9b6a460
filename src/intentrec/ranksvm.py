"""Pairwise rank learning of per-intent weight vectors over evolved latent
factors, plus the normalized intent score."""
from __future__ import annotations

import logging
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_LAMBDA

log = logging.getLogger(__name__)

WEIGHT_NORM_CAP = 4.0
MAX_NEWTON_ITERS = 50
MAX_BACKTRACKS = 40
BATCH_INTENTS = 32  # sets solved together; bounds the padded temporaries


@dataclass
class RankTrainingSet:
    intent: str
    R1: np.ndarray  # factors from sessions ending at the intent, unit norm
    R2: np.ndarray  # factors from sessions ending elsewhere, unit norm


@dataclass
class IntentWeights:
    w: np.ndarray
    objective: float = 0.0
    violation_rate: float = 0.0
    degenerate: bool = False
    pairs: int = 0
    iterations: int = 0  # Newton steps taken


@dataclass
class RankModel:
    weights: dict[str, IntentWeights] = field(default_factory=dict)
    trade_off: float = DEFAULT_LAMBDA

    def to_json(self) -> dict:
        return {
            "lambda": self.trade_off,
            "intents": {
                intent: {**vars(iw), "w": iw.w.tolist()}
                for intent, iw in sorted(self.weights.items())
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RankModel":
        model = cls(trade_off=doc["lambda"])
        for intent, entry in doc["intents"].items():
            model.weights[intent] = IntentWeights(
                **{**entry, "w": np.asarray(entry["w"], dtype=float)}
            )
        return model


def _unit_rows(factors) -> np.ndarray:
    """The nonzero factors as unit rows, each divided by its `row_norms`
    norm; (0, 0) when none is nonzero."""
    if not len(factors):
        return np.empty((0, 0))
    rows = np.array(factors, dtype=float)
    norms = row_norms(rows)
    keep = norms > 0
    return rows[keep] / norms[keep, None] if keep.any() else np.empty((0, 0))


def session_final_target(report_sequence: list[str], targets: set[str]) -> str | None:
    """Last target-flagged node visited in the session, or None."""
    for report in reversed(report_sequence):
        if report in targets:
            return report
    return None


def training_sets_from_endings(
    endings: dict[str, list[np.ndarray]],
) -> dict[str, RankTrainingSet]:
    """Build per-intent training sets from factors grouped by session ending."""
    unit = {intent: _unit_rows(endings[intent]) for intent in sorted(endings)}
    out: dict[str, RankTrainingSet] = {}
    for intent, pos in unit.items():
        if len(pos) == 0:
            continue
        others = [rows for other, rows in unit.items() if other != intent and len(rows)]
        neg = np.concatenate(others) if others else np.empty((0, 0))
        out[intent] = RankTrainingSet(intent=intent, R1=pos, R2=neg)
    return out


def build_training_sets(
    session_factors: list[tuple[list[str], list[np.ndarray]]],
    targets: set[str],
) -> dict[str, RankTrainingSet]:
    """Per intent, split factor observations by whether the session ended there.

    session_factors pairs each session's report sequence with the evolved
    latent factor of each view. Sessions that visit no target are skipped;
    zero factors are dropped during unit normalization.
    """
    endings: dict[str, list[np.ndarray]] = {}
    for reports, factors in session_factors:
        final = session_final_target(reports, targets)
        if final is None:
            continue
        endings.setdefault(final, []).extend(factors)
    return training_sets_from_endings(endings)


class _Batch(NamedTuple):
    """Training sets of one rank, zero-padded to the batch's largest R1 and
    R2; `pos` and `neg` mark each set's real rows."""

    R1: np.ndarray  # (sets, positives, rank)
    R2: np.ndarray  # (sets, negatives, rank)
    pos: np.ndarray  # (sets, positives) bool
    neg: np.ndarray  # (sets, negatives) bool

    @classmethod
    def pad(cls, sets: list[RankTrainingSet]) -> "_Batch":
        def stack(side: str):
            rows = [getattr(ts, side) for ts in sets]
            padded = np.zeros((len(rows), max(map(len, rows)), rows[0].shape[1]))
            for i, r in enumerate(rows):
                padded[i, : len(r)] = r
            real = np.arange(padded.shape[1]) < np.array([len(r) for r in rows])[:, None]
            return padded, real

        (R1, pos), (R2, neg) = stack("R1"), stack("R2")
        return cls(R1, R2, pos, neg)

    def take(self, idx: np.ndarray) -> "_Batch":
        return _Batch(*(a[idx] for a in self))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i . b_i, each summed as `a_i @ b_i` sums it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm, the square root of the row's dot product
    with itself, as np.linalg.norm takes it."""
    return np.sqrt(_dots(rows, rows))


def _products(R: np.ndarray, rows: np.ndarray, W: np.ndarray) -> np.ndarray:
    """R_i @ w_i of every set, each as NumPy computes it on the unpadded R_i,
    which is a dot product where R_i has one row."""
    out = (R @ W[:, :, None])[:, :, 0]
    one = np.flatnonzero(rows == 1)
    if one.size and R.shape[1] > 1:
        out[one, 0] = _dots(R[one, 0], W[one])
    return out


def _row_sums(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each set's sum of x (sets, padded rows, k) over its own rows, as NumPy
    sums the unpadded (rows, k) array: row by row when k > 1, where trailing
    zero rows change nothing, but pairwise when k == 1, where they would
    regroup the terms."""
    if x.shape[2] > 1:
        return x.sum(axis=1)
    return np.array([x[i, :n].sum(axis=0) for i, n in enumerate(rows)])


def _pair_terms(W: np.ndarray, batch: _Batch, lam: float):
    """Objective ||w||^2 + lam * sum_ij max(0, 1 - w.(r1_i - r2_j))^2 over all
    pairs, with its gradient and generalized Hessian, of every set in batch
    at its row of W.

    Pair (i, j) is active when q_j > p_i - 1 (p = R1 w, q = R2 w), so each
    positive's active pairs are the negatives of largest q. Running sums of
    1, q, q^2, y, q*y and y y^T over the negatives by falling q give every
    positive's pair sums. A set's padded negatives come last and are never
    active, and padded positives take the zero row before the first sum, so
    every sum adds a set's real rows in the order its unpadded arrays would.
    """
    R1, R2, pos, neg = batch
    n_sets, n_neg, dim = R2.shape
    qy, yy = 3 + dim, 3 + 2 * dim  # first columns of q*y and y y^T; y starts at 3
    rows = pos.sum(axis=1)
    p, q = _products(R1, rows, W), _products(R2, neg.sum(axis=1), W)
    key = np.where(neg, q, -np.inf)
    # falling q, ties in reverse order of rows: a stable ascending sort read backwards
    order = np.argsort(key, axis=1, kind="stable")[:, ::-1]
    flat = order + n_neg * np.arange(n_sets)[:, None]
    q, y = q.ravel()[flat], R2.reshape(-1, dim)[flat]
    active = np.where(pos, np.sum(key[:, None, :] > (p - 1.0)[:, :, None], axis=2), 0)
    # running[:, k] sums the columns of the k negatives of largest q
    running = np.empty((n_sets, n_neg + 1, yy + dim * dim))
    running[:, 0] = 0.0
    cols = running[:, 1:]
    cols[..., 0], cols[..., 1], cols[..., 2], cols[..., 3:qy] = 1.0, q, q * q, y
    np.multiply(q[..., None], y, out=cols[..., qy:yy])
    for i in range(dim):
        np.multiply(y[..., i : i + 1], y, out=cols[..., yy + i * dim : yy + (i + 1) * dim])
    for k in range(2, n_neg + 1):  # in place, the additions np.cumsum makes
        running[:, k] += running[:, k - 1]
    sums = running.reshape(n_sets * (n_neg + 1), -1)[
        active + (n_neg + 1) * np.arange(n_sets)[:, None]
    ]
    n, s_q, s_qq = sums[..., :1], sums[..., 1:2], sums[..., 2:3]
    s_y, s_qy, s_yy = sums[..., 3:qy], sums[..., qy:yy], sums[..., yy:]
    a = 1.0 - p[..., None]  # the residual of pair (i, j) is a_i + q_j
    loss = _row_sums(n * a * a + 2.0 * a * s_q + s_qq, rows)[:, 0]
    # d/dw of the loss is 2 * sum_ij (a_i + q_j)(y_j - x_i) over active pairs
    pull = _row_sums(a * s_y + s_qy - R1 * (n * a + s_q), rows)
    # sum_ij (x_i - y_j)(x_i - y_j)^T over active pairs
    cross = R1.transpose(0, 2, 1) @ s_y
    pair_hess = (
        (R1 * n).transpose(0, 2, 1) @ R1 - cross - cross.transpose(0, 2, 1)
        + _row_sums(s_yy, rows).reshape(n_sets, dim, dim)
    )
    return (
        _dots(W, W) + lam * loss,
        2.0 * W + 2.0 * lam * pull,
        2.0 * np.eye(dim) + 2.0 * lam * pair_hess,
    )


def _solve_batch(sets: list[RankTrainingSet], lam: float) -> list[IntentWeights]:
    """Primal Newton solves of the squared-hinge pairwise SVM over every
    (positive, negative) pair (Chapelle & Keerthi 2010), with Armijo
    backtracking, of same-rank sets that all have negatives. The sets step
    in lockstep, each stopping on its own test; each weight norm is then
    capped at 4 so the affine score normalization stays in [0, 1].
    """
    batch = _Batch.pad(sets)
    W = np.zeros((len(sets), batch.R1.shape[2]))
    obj, grad, hess = _pair_terms(W, batch, lam)
    iterations = np.zeros(len(sets), dtype=int)
    live = np.arange(len(sets))  # the sets still taking Newton steps
    while live.size:
        step = np.linalg.solve(hess[live], grad[live][:, :, None])[:, :, 0]
        decrease = _dots(grad[live], step)
        # a set stops once its predicted change is below its objective's resolution
        moving = ~(decrease <= np.finfo(float).eps * obj[live])
        live, step, decrease = live[moving], step[moving], decrease[moving]
        searching = np.arange(live.size)  # positions in live not yet past Armijo
        for t in 0.5 ** np.arange(MAX_BACKTRACKS):
            if not searching.size:
                break
            idx = live[searching]
            trial = W[idx] - t * step[searching]
            terms = _pair_terms(trial, batch.take(idx), lam)
            ok = terms[0] <= obj[idx] - 1e-4 * t * decrease[searching]
            took = idx[ok]
            W[took], obj[took], grad[took], hess[took] = trial[ok], *(x[ok] for x in terms)
            iterations[took] += 1
            searching = searching[~ok]
        live = np.delete(live, searching)  # their objective no longer moves
        live = live[iterations[live] < MAX_NEWTON_ITERS]

    norm = row_norms(W)
    capped = np.flatnonzero(norm > WEIGHT_NORM_CAP)
    if capped.size:
        W[capped] *= (WEIGHT_NORM_CAP / norm[capped])[:, None]
        obj[capped] = _pair_terms(W[capped], batch.take(capped), lam)[0]
    # pair (i, j) is violated when its margin p_i - q_j is <= 0
    R1, R2, pos, neg = batch
    n_pos, n_neg = pos.sum(axis=1), neg.sum(axis=1)
    p, q = _products(R1, n_pos, W), _products(R2, n_neg, W)
    violated = np.sum(
        (q[:, None, :] >= p[:, :, None]) & pos[:, :, None] & neg[:, None, :], axis=(1, 2)
    )
    return [
        IntentWeights(
            w=w, objective=float(o), violation_rate=float(v) / int(n), pairs=int(n),
            iterations=int(i),
        )
        for w, o, v, n, i in zip(W, obj, violated, n_pos * n_neg, iterations)
    ]


def solve(
    training_sets: Iterable[RankTrainingSet], lam: float = DEFAULT_LAMBDA
) -> list[IntentWeights]:
    """The weights of every training set, in order. Sets are taken as they
    come and held, by rank, until BATCH_INTENTS of one rank are solved
    together. A set without negatives gets the degenerate model, the unit
    mean of its positives, and is counted in one warning."""
    out: list[IntentWeights | None] = []
    pending: dict[int, list[tuple[int, RankTrainingSet]]] = {}

    def flush(held: list[tuple[int, RankTrainingSet]]):
        for (at, _), iw in zip(held, _solve_batch([ts for _, ts in held], lam)):
            out[at] = iw
        held.clear()

    degenerate = 0
    for ts in training_sets:
        if len(ts.R1) == 0:
            raise ValueError(f"intent {ts.intent}: empty positive set")
        if len(ts.R2) == 0:
            w = ts.R1.mean(axis=0)
            n = np.linalg.norm(w)
            out.append(IntentWeights(w=w / n if n > 0 else w, degenerate=True))
            degenerate += 1
            continue
        dim = ts.R1.shape[1]
        held = pending.setdefault(dim, [])
        held.append((len(out), ts))
        out.append(None)
        # at rank 1 the Hessian's sums over rows are dot products, which
        # zero padding would regroup: those sets are solved one at a time
        if len(held) == (BATCH_INTENTS if dim > 1 else 1):
            flush(held)
    for held in pending.values():
        if held:
            flush(held)
    if degenerate:
        log.warning("%d intents have no negative sessions; degenerate models", degenerate)
    return out


def stacked_scores(W: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Normalized intent scores (4 + <w, f>) / 8, clamped to [0, 1], of every
    factor f (row of F, E x R) under every intent's weights w (row of W,
    T x R), as an E x T array. Each <w, f> is a one-row product, the dot
    product that `w @ f` takes; a plain `W @ f` would sum in another order.
    A NaN score stays NaN."""
    raw = (W[:, None, :] @ F[:, None, :, None])[..., 0, 0]
    return np.minimum(np.maximum((4.0 + raw) / 8.0, 0.0), 1.0)

