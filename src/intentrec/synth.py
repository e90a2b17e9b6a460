"""Synthetic hit-level data with planted intents, clusters and navigation
habits, for exercising the full pipeline at desk scale."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ingest import hit_to_doc
from .models import HitRecord, ReportKind

SERIES_LEN = 8
HIST_LEN = 4
SESSION_GAP = 3600  # seconds between a user's sessions, beyond any timeout
CLUSTER_ACTIVITY = (0.75, 1.0, 1.25, 1.5)


@dataclass
class SynthConfig:
    n_users: int = 40
    n_reports: int = 60
    n_clusters: int = 4
    sessions_per_user: int = 10
    intent_count: int = 3
    context_signal_strength: float = 0.8  # rho
    seed: int = 0

    def __post_init__(self):
        for name in ("n_users", "n_reports", "n_clusters", "sessions_per_user", "intent_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.context_signal_strength <= 1.0:
            raise ValueError("context_signal_strength must lie in [0, 1]")


def _report_id(idx: int) -> str:
    return f"r{idx:03d}"


def _report_kind(idx: int) -> ReportKind:
    return ReportKind.HISTOGRAM if idx % 7 == 3 else ReportKind.TIME_SERIES


def _values(
    report_idx: int, intent_rank: int, rho: float, rng: np.random.Generator
) -> tuple[float, ...]:
    """Report observations whose features encode the session intent with
    strength rho; rho=0 is pure noise, rho=1 is deterministic.

    The intent modulates the shape of the series (amplitude, trend, phase)
    rather than its overall level, so the signal survives the unit
    normalization applied to latent factors downstream.
    """
    kind = _report_kind(report_idx)
    length = HIST_LEN if kind is ReportKind.HISTOGRAM else SERIES_LEN
    amp = 2.0 + 2.5 * intent_rank
    trend = ((intent_rank % 5) - 2) * 1.5
    steps = np.arange(length)
    pattern = 30.0 + trend * steps + amp * np.sin(steps + intent_rank)
    noise = rng.normal(loc=30.0, scale=10.0, size=length)
    vals = rho * pattern + (1.0 - rho) * noise
    return tuple(round(float(v), 4) for v in vals)


def generate(config: SynthConfig) -> list[HitRecord]:
    """Deterministic synthetic hit log.

    Each user navigates hub -> intent-specific branch -> fillers -> intent;
    branch choice frequencies are balanced across the user's intents, so only
    report content (when rho > 0) disambiguates the next step at the hub.
    """
    rng = np.random.default_rng(config.seed)
    n_intents_global = max(config.intent_count + 1, config.n_reports // 6)
    intents_global = list(range(n_intents_global))
    other_reports = list(range(n_intents_global, config.n_reports))
    if len(other_reports) < 6:
        raise ValueError("n_reports too small for the planted navigation structure")

    hits: list[HitRecord] = []
    for user_idx in range(config.n_users):
        uid = f"u{user_idx:04d}"
        cluster = user_idx % config.n_clusters
        activity = CLUSTER_ACTIVITY[cluster % len(CLUSTER_ACTIVITY)]
        n_sessions = max(2, int(round(config.sessions_per_user * activity)))

        intents = sorted(
            rng.choice(intents_global, size=config.intent_count, replace=False).tolist()
        )
        # hub, one branch per intent, two fillers per intent
        needed = 1 + 3 * config.intent_count
        pool = rng.choice(other_reports, size=min(needed, len(other_reports)), replace=False)
        pool = [int(p) for p in pool]
        hub = pool[0]
        branches = {}
        fillers = {}
        for k, intent in enumerate(intents):
            branches[intent] = pool[(1 + 3 * k) % len(pool)]
            fillers[intent] = [
                pool[(2 + 3 * k) % len(pool)],
                pool[(3 + 3 * k) % len(pool)],
            ]

        for s in range(n_sessions):
            intent = intents[s % len(intents)]
            intent_rank = intents_global.index(intent)
            path = [hub, branches[intent]]
            order = [0, 1] if rng.random() < 0.5 else [1, 0]
            n_fill = int(rng.integers(0, 3))
            path.extend(fillers[intent][i] for i in order[:n_fill])
            path.append(intent)

            t = 1000 + s * (SESSION_GAP + 4000) + user_idx * 7
            hint = f"{uid}-s{s}"
            for report_idx in path:
                hits.append(
                    HitRecord(
                        user_id=uid,
                        timestamp=t,
                        report_id=_report_id(report_idx),
                        report_kind=_report_kind(report_idx),
                        metric="hits",
                        dimension_element="all",
                        values=_values(
                            report_idx, intent_rank, config.context_signal_strength, rng
                        ),
                        session_hint=hint,
                    )
                )
                t += int(rng.integers(30, 300))

    hits.sort(key=lambda h: (h.timestamp, h.user_id))
    return hits


def to_jsonl(hits: list[HitRecord]) -> str:
    return "\n".join(json.dumps(hit_to_doc(h), sort_keys=True) for h in hits) + "\n"
