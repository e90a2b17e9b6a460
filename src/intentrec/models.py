"""Core record types shared across the pipeline."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

# The context features of one (metric, dimension element) pair: a user's
# context width N_u is this times the pairs of its feature layout.
SLOTS_PER_PAIR = 6


class FormatError(ValueError):
    """A hit log whose rows are malformed beyond the tolerated share."""


class ReportKind(str, Enum):
    TIME_SERIES = "timeseries"
    HISTOGRAM = "histogram"


class _HitFields(NamedTuple):
    user_id: str
    timestamp: int
    report_id: str
    report_kind: ReportKind
    metric: str
    dimension_element: str
    values: tuple[float, ...]
    session_hint: str | None = None


class HitRecord(_HitFields):
    """One timestamped report access by a user.

    A tuple of its fields: immutable, compared and hashed by value, and about
    a third of a frozen dataclass's cost to build, which counts at the ~90k
    hits a fit builds. Like any tuple it also equals a plain tuple of the
    same fields.
    """

    __slots__ = ()

    def __new__(
        cls, user_id, timestamp, report_id, report_kind, metric, dimension_element, values,
        session_hint=None,
    ):
        if timestamp < 0:
            raise ValueError("timestamp must be >= 0")
        if not values:
            raise ValueError("values must be non-empty")
        return tuple.__new__(cls, (
            user_id, timestamp, report_id, report_kind, metric, dimension_element, values,
            session_hint,
        ))

    @classmethod
    def _make(cls, iterable) -> HitRecord:
        """A hit from its fields in order, checked as a new hit is; the
        tuple's `_replace` builds its copy through this."""
        return cls(*iterable)


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
