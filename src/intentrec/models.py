"""Core record types shared across the pipeline."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class ReportKind(str, Enum):
    TIME_SERIES = "timeseries"
    HISTOGRAM = "histogram"


@dataclass(frozen=True)
class HitRecord:
    """One timestamped report access by a user."""

    user_id: str
    timestamp: int
    report_id: str
    report_kind: ReportKind
    metric: str
    dimension_element: str
    values: tuple[float, ...]
    session_hint: str | None = None

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError("timestamp must be >= 0")
        if not self.values:
            raise ValueError("values must be non-empty")


@dataclass
class Session:
    """A time-ordered run of hits by one user."""

    user_id: str
    hits: list[HitRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.hits)

    @property
    def reports(self) -> list[str]:
        return [h.report_id for h in self.hits]


@dataclass
class Dataset:
    train: list[Session]
    test: list[Session]
    split_instant: int

    @property
    def train_hits(self) -> int:
        return sum(len(s) for s in self.train)

    @property
    def test_hits(self) -> int:
        return sum(len(s) for s in self.test)


def group_by_user(sessions: list[Session]) -> dict[str, list[Session]]:
    """Each user's sessions, in start-time order."""
    out: dict[str, list[Session]] = {}
    for s in sessions:
        out.setdefault(s.user_id, []).append(s)
    for user_sessions in out.values():
        user_sessions.sort(key=lambda s: s.hits[0].timestamp)
    return out
