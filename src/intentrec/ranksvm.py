"""Pairwise rank learning of per-intent weight vectors over evolved latent
factors, plus the normalized intent score."""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

WEIGHT_NORM_CAP = 4.0
DEFAULT_LAMBDA = 1.0
MAX_NEWTON_ITERS = 50
MAX_BACKTRACKS = 40


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

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, s: str) -> "RankModel":
        return cls.from_json(json.loads(s))


def _unit_rows(factors) -> np.ndarray:
    rows = []
    for f in factors:
        f = np.asarray(f, dtype=float)
        n = np.linalg.norm(f)
        if n > 0:
            rows.append(f / n)
    return np.array(rows) if rows else np.empty((0, 0))


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
    out: dict[str, RankTrainingSet] = {}
    for intent in sorted(endings):
        pos = _unit_rows(endings[intent])
        neg = _unit_rows(
            [f for other in sorted(endings) if other != intent for f in endings[other]]
        )
        if len(pos) == 0:
            continue
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


def _pair_terms(w: np.ndarray, R1: np.ndarray, R2: np.ndarray, lam: float):
    """Objective ||w||^2 + lam * sum_ij max(0, 1 - w.(r1_i - r2_j))^2 over all
    pairs, with its gradient and generalized Hessian.

    Pair (i, j) is active when q_j > p_i - 1 (p = R1 w, q = R2 w). With the
    negatives sorted by q, each positive's active pairs are a suffix, so the
    pair sums come from suffix sums of 1, q, q^2, y, q*y and y y^T.
    """
    dim = len(w)
    p, q = R1 @ w, R2 @ w
    order = np.argsort(q, kind="stable")
    starts = np.searchsorted(q[order], p - 1.0, side="right")
    cols = np.column_stack(
        [np.ones_like(q), q, q * q, R2, q[:, None] * R2,
         (R2[:, :, None] * R2[:, None, :]).reshape(len(q), -1)]
    )[order]
    suffix = np.zeros((len(q) + 1, cols.shape[1]))
    suffix[:-1] = np.cumsum(cols[::-1], axis=0)[::-1]
    n, s_q, s_qq, s_y, s_qy, s_yy = np.split(
        suffix[starts], np.cumsum([1, 1, 1, dim, dim]), axis=1
    )
    a = 1.0 - p[:, None]  # the residual of pair (i, j) is a_i + q_j
    loss = np.sum(n * a * a + 2.0 * a * s_q + s_qq)
    # d/dw of the loss is 2 * sum_ij (a_i + q_j)(y_j - x_i) over active pairs
    pull = (a * s_y + s_qy - R1 * (n * a + s_q)).sum(axis=0)
    # sum_ij (x_i - y_j)(x_i - y_j)^T over active pairs
    cross = R1.T @ s_y
    pair_hess = (R1 * n).T @ R1 - cross - cross.T + s_yy.sum(axis=0).reshape(dim, dim)
    return (
        float(w @ w + lam * loss),
        2.0 * w + 2.0 * lam * pull,
        2.0 * np.eye(dim) + 2.0 * lam * pair_hess,
    )


def train(ts: RankTrainingSet, lam: float = DEFAULT_LAMBDA) -> IntentWeights:
    """Primal Newton solve of the squared-hinge pairwise SVM over every
    (positive, negative) pair (Chapelle & Keerthi 2010), with Armijo
    backtracking; the weight norm is capped at 4 after training so the affine
    score normalization stays in [0, 1].
    """
    if len(ts.R1) == 0:
        raise ValueError("empty positive set")
    if len(ts.R2) == 0:
        w = ts.R1.mean(axis=0)
        n = np.linalg.norm(w)
        w = w / n if n > 0 else w
        log.warning("intent %s has no negative sessions; degenerate model", ts.intent)
        return IntentWeights(w=w, degenerate=True)

    w = np.zeros(ts.R1.shape[1])
    obj, grad, hess = _pair_terms(w, ts.R1, ts.R2, lam)
    iterations = 0
    while iterations < MAX_NEWTON_ITERS:
        step = np.linalg.solve(hess, grad)
        decrease = float(grad @ step)
        if decrease <= np.finfo(float).eps * obj:
            break  # the predicted change is below the objective's resolution
        for t in 0.5 ** np.arange(MAX_BACKTRACKS):
            trial = w - t * step
            terms = _pair_terms(trial, ts.R1, ts.R2, lam)
            if terms[0] <= obj - 1e-4 * t * decrease:
                break
        else:
            break  # the objective no longer moves
        w, (obj, grad, hess) = trial, terms
        iterations += 1

    norm = np.linalg.norm(w)
    if norm > WEIGHT_NORM_CAP:
        w = w * (WEIGHT_NORM_CAP / norm)
        obj = _pair_terms(w, ts.R1, ts.R2, lam)[0]
    # pair (i, j) is violated when its margin p_i - q_j is <= 0
    p, q = ts.R1 @ w, np.sort(ts.R2 @ w)
    pairs = len(p) * len(q)
    rate = float(np.sum(len(q) - np.searchsorted(q, p, side="left"))) / pairs
    return IntentWeights(w=w, objective=obj, violation_rate=rate, pairs=pairs, iterations=iterations)


def train_all(training_sets: dict[str, RankTrainingSet], lam: float = DEFAULT_LAMBDA) -> RankModel:
    model = RankModel(trade_off=lam)
    for intent in sorted(training_sets):
        model.weights[intent] = train(training_sets[intent], lam=lam)
    return model


def intent_score(model: RankModel, intent: str, f: np.ndarray) -> float:
    """Normalized intent score (4 + <w, f>) / 8, clamped to [0, 1]."""
    if intent not in model.weights:
        raise KeyError(f"unknown intent: {intent!r}")
    raw = float(model.weights[intent].w @ np.asarray(f, dtype=float))
    return min(max((4.0 + raw) / 8.0, 0.0), 1.0)
