"""Synthetic hit-level data with planted intents, clusters and navigation
habits, for exercising the full pipeline at desk scale."""
from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter

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
        # each user's pool holds a hub, a branch and two fillers per intent,
        # all distinct and none of them an intent report
        needed = 1 + 3 * self.intent_count
        if self.n_reports - self.n_intents < needed:
            raise ValueError(
                f"n_reports must be >= {self.n_intents + needed} for intent_count "
                f"{self.intent_count}: {self.n_intents} intent reports and {needed} "
                "distinct others per user"
            )

    @property
    def n_intents(self) -> int:
        """How many planted intents there are: reports r000 onward, from
        which each user's intents are drawn."""
        return max(self.intent_count + 1, self.n_reports // 6)


def _pattern(length: int, intent_rank: int) -> np.ndarray:
    """The noise-free observations of a report of this length viewed under
    this intent. The intent modulates the shape of the series (amplitude,
    trend, phase) rather than its overall level, so the signal survives the
    unit normalization applied to latent factors downstream."""
    amp = 2.0 + 2.5 * intent_rank
    trend = ((intent_rank % 5) - 2) * 1.5
    steps = np.arange(length)
    return 30.0 + trend * steps + amp * np.sin(steps + intent_rank)


def _shape_table(config: SynthConfig) -> list[list[tuple]]:
    """For each report and intent rank: the report's id, kind and length and
    rho times its pattern, the part of its values no draw changes."""
    rho = config.context_signal_strength
    bases = {
        length: [rho * _pattern(length, rank) for rank in range(config.n_intents)]
        for length in (HIST_LEN, SERIES_LEN)
    }
    table = []
    for idx in range(config.n_reports):
        kind = ReportKind.HISTOGRAM if idx % 7 == 3 else ReportKind.TIME_SERIES
        length = HIST_LEN if kind is ReportKind.HISTOGRAM else SERIES_LEN
        table.append([(f"r{idx:03d}", kind, length, base) for base in bases[length]])
    return table


def generate(config: SynthConfig) -> list[HitRecord]:
    """Deterministic synthetic hit log.

    Each user navigates hub -> intent-specific branch -> fillers -> intent;
    branch choice frequencies are balanced across the user's intents, so only
    report content (when rho > 0) disambiguates the next step at the hub.
    A view's values are rho * pattern + (1 - rho) * noise: rho=0 is pure
    noise, rho=1 is deterministic.
    """
    rng = np.random.default_rng(config.seed)
    intents_global = list(range(config.n_intents))
    other_reports = list(range(config.n_intents, config.n_reports))
    shapes = _shape_table(config)
    noise_weight = 1.0 - config.context_signal_strength

    hits: list[HitRecord] = []
    for user_idx in range(config.n_users):
        uid = f"u{user_idx:04d}"
        cluster = user_idx % config.n_clusters
        activity = CLUSTER_ACTIVITY[cluster % len(CLUSTER_ACTIVITY)]
        n_sessions = max(2, int(round(config.sessions_per_user * activity)))

        intents = sorted(
            rng.choice(intents_global, size=config.intent_count, replace=False).tolist()
        )
        # hub, then a branch and two fillers per intent
        pool = rng.choice(other_reports, size=1 + 3 * config.intent_count, replace=False)
        pool = [int(p) for p in pool]
        hub = pool[0]
        branches = {}
        fillers = {}
        for k, intent in enumerate(intents):
            branches[intent] = pool[1 + 3 * k]
            fillers[intent] = pool[2 + 3 * k : 4 + 3 * k]

        for s in range(n_sessions):
            intent = intents[s % len(intents)]
            path = [hub, branches[intent]]
            order = [0, 1] if rng.random() < 0.5 else [1, 0]
            n_fill = int(rng.integers(0, 3))
            path.extend(fillers[intent][i] for i in order[:n_fill])
            path.append(intent)

            t = 1000 + s * (SESSION_GAP + 4000) + user_idx * 7
            hint = f"{uid}-s{s}"
            for report_idx in path:
                # an intent's rank among the planted intents is its report index
                rid, kind, length, base = shapes[report_idx][intent]
                noise = rng.normal(loc=30.0, scale=10.0, size=length)
                values = tuple(round(v, 4) for v in (base + noise_weight * noise).tolist())
                hits.append(HitRecord(uid, t, rid, kind, "hits", "all", values, hint))
                t += int(rng.integers(30, 300))

    hits.sort(key=itemgetter(1, 0))  # (timestamp, user_id)
    return hits


def to_jsonl(hits: list[HitRecord]) -> str:
    encode = json.JSONEncoder(sort_keys=True).encode
    return "\n".join(encode(hit_to_doc(h)) for h in hits) + "\n"
