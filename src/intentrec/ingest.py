"""Hit-log parsing, sessionization and temporal train/test splitting."""
from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass

from .config import DEFAULT_SESSION_TIMEOUT
from .models import Dataset, FormatError, HitRecord, ReportKind, Session

log = logging.getLogger(__name__)

_REQUIRED = ("user_id", "ts", "report_id", "kind", "metric", "dim_element", "values")
_TEXT = frozenset((str, int, float))  # an id or label: JSON text or a number
_HINT = _TEXT | {type(None)}  # `session`, which may be absent
_KINDS = {kind.value: kind for kind in ReportKind}
_TS_END = 2**63  # a `ts` must fit the int64 column of sessions.npz


@dataclass
class ParseResult:
    records: list[HitRecord]
    skipped: int


def hit_from_doc(row: dict) -> HitRecord:
    """One hit from a parsed JSON-lines or CSV row; raises ValueError if
    malformed: a row that is not an object; a missing or empty field; a
    boolean, list or object in an id, label or `session` field; `values`
    that are neither a list nor `;`-separated text, or that hold a boolean,
    a NaN, an infinity or a number too large for a float; a `ts` that is not
    integer seconds below 2**63."""
    if type(row) is not dict:
        raise ValueError(f"a row is a {type(row).__name__}, not an object")
    user, ts, report, kind, metric, dim, values = map(row.get, _REQUIRED)
    session = row.get("session")
    labels = (user, report, kind, metric, dim)
    if not _TEXT.issuperset(map(type, labels)) or "" in labels or type(session) not in _HINT:
        raise ValueError("an id or label that is missing, empty, or not text or a number")
    if type(ts) is not int:
        if type(ts) is str or (type(ts) is float and ts.is_integer()):
            ts = int(ts)
        else:
            raise ValueError(f"ts is not integer seconds: {ts!r}")
    if ts >= _TS_END:
        raise ValueError(f"ts is 2**63 or more: {ts!r}")
    if type(values) is list:
        if bool in map(type, values):
            raise ValueError("a boolean among the values")
        try:
            values = tuple(map(float, values))
        except OverflowError:  # an integer beyond the float range
            raise ValueError("a value too large for a float") from None
    elif type(values) is str:
        values = tuple(map(float, filter(None, values.split(";"))))
    else:
        raise ValueError(f"values are a {type(values).__name__}, not a list or text")
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite values")
    return HitRecord(
        str(user), ts, str(report), _KINDS.get(kind) or ReportKind(str(kind).lower()),
        str(metric), str(dim), values, session or None,
    )


_decode = json.JSONDecoder().raw_decode


def _json_row(line: str):
    """The JSON value of a stripped line, as json.loads reads it, which
    would first scan the line's ends for whitespace; ValueError if the line
    holds anything else."""
    row, end = _decode(line)
    if end != len(line):
        raise ValueError(f"extra data after the row at column {end}")
    return row


def hit_to_doc(h: HitRecord) -> dict:
    """The JSON-lines row that hit_from_doc reads back as h."""
    return {
        "user_id": h.user_id,
        "ts": h.timestamp,
        "report_id": h.report_id,
        "kind": h.report_kind.value,
        "metric": h.metric,
        "dim_element": h.dimension_element,
        "values": list(h.values),
        "session": h.session_hint,
    }


def parse_hits(source, format: str = "jsonl") -> ParseResult:
    """Parse a byte or text stream of hit records.

    Malformed rows are skipped and counted; more than 50% malformed rows
    raises FormatError.
    """
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        source = io.StringIO(source)
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")

    if format == "jsonl":
        rows = filter(None, map(str.strip, source))  # a blank line is no row
    elif format == "csv":
        rows = csv.DictReader(source)
    else:
        raise ValueError(f"unknown format: {format!r}")

    records: list[HitRecord] = []
    skipped = 0
    total = 0
    for row in rows:
        total += 1
        try:
            records.append(hit_from_doc(_json_row(row) if format == "jsonl" else row))
        except (ValueError, TypeError, KeyError) as exc:
            skipped += 1
            log.debug("skipping malformed row: %s", exc)

    if total > 0 and skipped * 2 > total:
        raise FormatError(f"{skipped}/{total} rows malformed")
    if skipped:
        log.warning("skipped %d malformed rows of %d", skipped, total)
    return ParseResult(records=records, skipped=skipped)


def sessionize(hits: list[HitRecord], timeout: float = DEFAULT_SESSION_TIMEOUT) -> list[Session]:
    """Group hits per user and cut sessions on hint change or idle gap.

    When session hints are present for a user, a new session starts whenever
    the hint changes; otherwise an inter-hit gap > timeout starts one.
    """
    if timeout <= 0:
        raise ValueError("timeout must be > 0")
    per_user: dict[str, list[HitRecord]] = {}
    for h in hits:
        per_user.setdefault(h.user_id, []).append(h)

    sessions: list[Session] = []
    for user_id in per_user:
        ordered = sorted(per_user[user_id], key=lambda h: h.timestamp)  # stable on ties
        current: list[HitRecord] = []
        for h in ordered:
            if current:
                prev = current[-1]
                if prev.session_hint is not None and h.session_hint is not None:
                    cut = h.session_hint != prev.session_hint
                else:
                    cut = h.timestamp - prev.timestamp > timeout
                if cut:
                    sessions.append(Session(user_id=user_id, hits=current))
                    current = []
            current.append(h)
        if current:
            sessions.append(Session(user_id=user_id, hits=current))
    return sessions


def temporal_split(sessions: list[Session], train_fraction: float = 0.7) -> Dataset:
    """Split sessions in time so ~train_fraction of hits land in train.

    The cut is made at a session boundary; at least one session is always
    kept on each side. Sessions overlapping the cut instant stay in train.
    """
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    if not sessions:
        raise ValueError("need at least one session")
    if len(sessions) < 2:
        raise ValueError("cannot produce a non-empty test split from one session")

    ordered = sorted(sessions, key=lambda s: (s.hits[-1].timestamp, s.hits[0].timestamp))
    total = sum(len(s) for s in ordered)
    target = train_fraction * total

    cum = 0
    n_train = 0
    for s in ordered:
        cum += len(s)
        n_train += 1
        if cum >= target:
            break
    n_train = min(n_train, len(ordered) - 1)
    n_train = max(n_train, 1)

    train = ordered[:n_train]
    test = ordered[n_train:]
    split_instant = min(s.hits[0].timestamp for s in test)
    return Dataset(train=train, test=test, split_instant=split_instant)
