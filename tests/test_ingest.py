import csv
import io
import json
import math

import pytest

from intentrec import synth
from intentrec.ingest import (
    DEFAULT_SESSION_TIMEOUT,
    FormatError,
    hit_from_doc,
    hit_to_doc,
    parse_hits,
    sessionize,
    temporal_split,
)
from intentrec.models import HitRecord, ReportKind

from conftest import make_hit, make_session

# The input fields as the README lists them, in its order.
DOCUMENTED_FIELDS = (
    "user_id", "report_id", "ts", "session", "kind", "metric", "dim_element", "values",
)

# Malformed-row cases of the tests below, which the parser parity test reuses.
LIST_OR_OBJECT = [
    ("user_id", ["u", 1]), ("user_id", {"u": 1}), ("report_id", ["r1"]),
    ("report_id", {"r": 1}), ("kind", ["timeseries"]), ("metric", {"m": 1}),
    ("dim_element", ["us", "de"]), ("values", {"1": 0}), ("session", ["s"]),
    ("session", {"s": 1}),
]
BOOLEANS = [
    ("user_id", True), ("user_id", False), ("report_id", True), ("kind", False),
    ("metric", True), ("dim_element", False), ("session", True), ("session", False),
    ("values", True), ("values", [1.0, True]), ("values", [False]),
]
NOT_INTEGER_TS = [12.7, 0.5, True, False, float("inf"), float("nan")]
NOT_AN_OBJECT = ["[1, 2]", "5", '"x"', "null", "true", "[]"]


def _row(**overrides):
    row = {
        "user_id": "u1",
        "ts": 100,
        "report_id": "r1",
        "kind": "timeseries",
        "metric": "revenue",
        "dim_element": "us",
        "values": [1.0, 2.0, 3.0],
        "session": "s1",
    }
    row.update(overrides)
    return row


class TestParseHits:
    def test_jsonl_roundtrip(self):
        text = "\n".join(json.dumps(_row(ts=100 + i)) for i in range(3))
        result = parse_hits(text, format="jsonl")
        assert result.skipped == 0
        assert len(result.records) == 3
        rec = result.records[0]
        assert rec.user_id == "u1"
        assert rec.timestamp == 100
        assert rec.report_kind is ReportKind.TIME_SERIES
        assert rec.values == (1.0, 2.0, 3.0)
        assert rec.session_hint == "s1"

    def test_documented_fields_parse_and_roundtrip(self):
        row = _row()
        assert set(row) == set(DOCUMENTED_FIELDS)
        result = parse_hits(json.dumps(row))
        assert result.skipped == 0
        rec = result.records[0]
        assert hit_to_doc(rec) == row
        assert hit_from_doc(hit_to_doc(rec)) == rec

    def test_csv(self):
        header = "user_id,ts,report_id,kind,metric,dim_element,values,session"
        line = "u1,5,r2,histogram,orders,de,1;2;4,sess-a"
        result = parse_hits(f"{header}\n{line}\n", format="csv")
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.report_kind is ReportKind.HISTOGRAM
        assert rec.values == (1.0, 2.0, 4.0)

    def test_malformed_rows_skipped_and_counted(self):
        lines = [
            json.dumps(_row()),
            "{not json",
            json.dumps(_row(ts=2000)),
            json.dumps(_row(ts="oops")),
        ]
        result = parse_hits("\n".join(lines))
        assert len(result.records) == 2
        assert result.skipped == 2

    def test_non_finite_values_are_malformed(self):
        lines = [json.dumps(_row(values=[1.0, bad, 3.0])) for bad in ("NaN", "Infinity")]
        lines += [json.dumps(_row(values=[float("-inf")]))] + [json.dumps(_row())] * 3
        result = parse_hits("\n".join(lines))
        assert (len(result.records), result.skipped) == (3, 3)
        header = "user_id,ts,report_id,kind,metric,dim_element,values"
        csv_rows = [f"u1,5,r2,timeseries,m,d,{v}" for v in ("1;nan;2", "inf", "1;2", "3")]
        result = parse_hits("\n".join([header, *csv_rows]), format="csv")
        assert (len(result.records), result.skipped) == (2, 2)

    def test_value_too_large_for_a_float_is_malformed(self):
        # a JSON integer beyond the float range is a malformed row, as
        # "1e999" is: skipped and counted, not an OverflowError
        huge = _row(ts=101, values=[1.0, 10**400])
        with pytest.raises(ValueError):
            hit_from_doc(json.loads(json.dumps(huge)))
        lines = [json.dumps(_row(ts=100)), json.dumps(huge), json.dumps(_row(ts=102))]
        result = parse_hits("\n".join(lines))
        assert result.skipped == 1
        assert [h.timestamp for h in result.records] == [100, 102]
        assert [h.values for h in result.records] == [(1.0, 2.0, 3.0)] * 2

    @pytest.mark.parametrize("line", NOT_AN_OBJECT)
    def test_row_that_is_not_an_object_is_malformed(self, line):
        lines = [json.dumps(_row(ts=100 + i)) for i in range(75)]
        lines.insert(40, line)
        result = parse_hits("\n".join(lines))
        assert (len(result.records), result.skipped) == (75, 1)
        # the 50% rule counts such rows like any other malformed row
        with pytest.raises(FormatError):
            parse_hits("\n".join([json.dumps(_row()), line, line]))
        assert parse_hits("\n".join([json.dumps(_row()), line])).skipped == 1

    @pytest.mark.parametrize("field,value", LIST_OR_OBJECT)
    def test_list_or_object_in_a_field_is_malformed(self, field, value):
        # an id, label or session is text or a number, and values a list of
        # numbers or `;`-separated text: a JSON array or object in their
        # place is a malformed row, not its text or its keys
        lines = [json.dumps(_row(ts=100 + i)) for i in range(75)]
        lines.insert(40, json.dumps(_row(**{field: value})))
        result = parse_hits("\n".join(lines))
        assert (len(result.records), result.skipped) == (75, 1)
        with pytest.raises(ValueError):
            hit_from_doc(_row(**{field: value}))

    @pytest.mark.parametrize("field,value", BOOLEANS)
    def test_boolean_in_a_field_is_malformed(self, field, value):
        # a JSON boolean is neither text, nor a number, nor a session hint:
        # not the user "True", the hint True or the value 1.0
        lines = [json.dumps(_row(ts=100 + i)) for i in range(75)]
        lines.insert(40, json.dumps(_row(**{field: value})))
        result = parse_hits("\n".join(lines))
        assert (len(result.records), result.skipped) == (75, 1)
        with pytest.raises(ValueError):
            hit_from_doc(_row(**{field: value}))

    def test_numbers_in_id_fields_are_accepted(self):
        row = _row(user_id=7, report_id=12.5, metric=3, dim_element=0, session=4)
        result = parse_hits(json.dumps(row))
        assert result.skipped == 0
        (rec,) = result.records
        assert (rec.user_id, rec.report_id, rec.metric, rec.dimension_element) == (
            "7", "12.5", "3", "0"
        )
        assert rec.session_hint == 4
        hash(rec)

    @pytest.mark.parametrize(
        "ts", NOT_INTEGER_TS, ids=["fraction", "half", "true", "false", "inf", "nan"]
    )
    def test_ts_that_is_not_integer_seconds_is_malformed(self, ts):
        lines = [json.dumps(_row(ts=ts))] + [json.dumps(_row())] * 3
        result = parse_hits("\n".join(lines))
        assert (len(result.records), result.skipped) == (3, 1)

    def test_integral_ts_is_accepted(self):
        lines = [json.dumps(_row(ts=ts)) for ts in (12, "12", 12.0, 0, 0.0, "0")]
        result = parse_hits("\n".join(lines))
        assert result.skipped == 0
        assert [r.timestamp for r in result.records] == [12, 12, 12, 0, 0, 0]
        assert all(type(r.timestamp) is int for r in result.records)

    def test_ts_beyond_int64_is_malformed(self):
        # sessions.npz stores `ts` as int64: a ts of 2**63 or more is
        # skipped and counted, every ts below it is accepted
        big = [2**63, 2**70, 1e20, float(2**63), str(2**63)]
        lines = [json.dumps(_row(ts=ts)) for ts in big] + [json.dumps(_row())] * 6
        result = parse_hits("\n".join(lines))
        assert (len(result.records), result.skipped) == (6, 5)
        fits = [2**63 - 1, str(2**63 - 1), float(2**62)]
        result = parse_hits("\n".join(json.dumps(_row(ts=ts)) for ts in fits))
        assert [r.timestamp for r in result.records] == [2**63 - 1, 2**63 - 1, 2**62]

    def test_csv_ts_that_is_not_integer_seconds_is_malformed(self):
        header = "user_id,ts,report_id,kind,metric,dim_element,values"
        csv_rows = [f"u1,{ts},r2,timeseries,m,d,1;2" for ts in ("12.5", "true", "12", "7")]
        result = parse_hits("\n".join([header, *csv_rows]), format="csv")
        assert (result.skipped, [r.timestamp for r in result.records]) == (2, [12, 7])

    def test_majority_malformed_raises(self):
        lines = [json.dumps(_row()), "junk", "junk", "junk"]
        with pytest.raises(FormatError):
            parse_hits("\n".join(lines))

    def test_missing_field_is_malformed(self):
        row = _row()
        del row["report_id"]
        result = parse_hits(json.dumps(row) + "\n" + json.dumps(_row()))
        assert result.skipped == 1

    def test_bytes_input(self):
        result = parse_hits(json.dumps(_row()).encode("utf-8"))
        assert len(result.records) == 1

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_hits("", format="xml")


# ---------------------------------------------------------------- parity

_OLD_NOT_TEXT = (bool, list, dict)  # a JSON boolean, array or object
_OLD_REQUIRED = ("user_id", "ts", "report_id", "kind", "metric", "dim_element", "values")


def _seconds(ts) -> int:
    """ts as integer seconds: an integral number, or an integer as text.
    A boolean or a fractional (or non-finite) number is malformed."""
    if isinstance(ts, bool) or (isinstance(ts, float) and not ts.is_integer()):
        raise ValueError(f"ts is not integer seconds: {ts!r}")
    return int(ts)


def oracle_hit_from_doc(row: dict) -> HitRecord:
    """One hit from a parsed JSON-lines or CSV row; raises ValueError if
    malformed, which includes a row that is not an object, a NaN or
    infinite value, a `ts` that is not integer seconds, a boolean, list or
    object in an id, label or `session` field, and a boolean or object for
    `values` or a boolean among them."""
    if not isinstance(row, dict):
        raise ValueError(f"a row is a {type(row).__name__}, not an object")
    missing = [k for k in _OLD_REQUIRED if row.get(k) in (None, "")]
    if missing:
        raise ValueError(f"missing fields: {missing}")
    user, report, kind, metric, dim = (
        row["user_id"], row["report_id"], row["kind"], row["metric"], row["dim_element"]
    )
    values = row["values"]
    session = row.get("session")
    if (
        isinstance(user, _OLD_NOT_TEXT) or isinstance(report, _OLD_NOT_TEXT)
        or isinstance(kind, _OLD_NOT_TEXT) or isinstance(metric, _OLD_NOT_TEXT)
        or isinstance(dim, _OLD_NOT_TEXT) or isinstance(session, _OLD_NOT_TEXT)
        or isinstance(values, (bool, dict))
    ):
        raise ValueError("a boolean, list or object in a field that holds text or a number")
    kind = ReportKind(str(kind).lower())
    if isinstance(values, str):
        values = [float(v) for v in values.split(";") if v != ""]
    elif bool in map(type, values):
        raise ValueError("a boolean among the values")
    values = tuple(map(float, values))
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite values")
    return HitRecord(
        user_id=str(user),
        timestamp=_seconds(row["ts"]),
        report_id=str(report),
        report_kind=kind,
        metric=str(metric),
        dimension_element=str(dim),
        values=values,
        session_hint=session or None,
    )


_MISSING = object()  # the field is left out of the row
# Every JSON type, as text and as numbers where it parses as one, for every field.
_VALUES_OF_EVERY_TYPE = [
    "x", "timeseries", "HISTOGRAM", "Histogram ", "12", " 7", "1_000", "-3", "12.0", "1;2.5",
    "1;;2", ";", "1;nan", "1;inf", "é", 0, 7, -3, 2**62, 1.5, 0.0, -0.0, 12.0, 1e-300, True,
    False, None, [], [1, 2.5], ["1", " 2 "], [1e-300, -0.0], [True], [None], [[1]], [{}],
    [float("nan")], {}, {"a": 1}, "", _MISSING, float("nan"), float("inf"), float("-inf"),
]
_FIELDS = ("user_id", "ts", "report_id", "kind", "metric", "dim_element", "values", "session")


def _with(field, value) -> dict:
    row = _row()
    if value is _MISSING:
        del row[field]
    else:
        row[field] = value
    return row


def _outcome(parse, row):
    """What parse makes of row: None if it skips it, else the hit with the
    type of each field and the bits of each value (== equates 0.0 and -0.0)."""
    try:
        hit = parse(row)
    except (ValueError, TypeError, KeyError):
        return None
    return hit, [type(f) for f in hit], [(type(v), v.hex()) for v in hit.values]


def _assert_parity(row):
    # the oracle's decision and hit, except that a ts of 2**63 or more,
    # which sessions.npz cannot store, is now malformed
    expected = _outcome(oracle_hit_from_doc, row)
    if expected is not None and expected[0].timestamp >= 2**63:
        expected = None
    assert _outcome(hit_from_doc, row) == expected, row


class TestParserParity:
    """hit_from_doc against the parser it replaced, `oracle_hit_from_doc`."""

    def test_seed_1_log(self):
        config = synth.SynthConfig(
            n_users=200, n_reports=60, sessions_per_user=20, intent_count=3,
            context_signal_strength=0.8, seed=1,
        )
        lines = synth.to_jsonl(synth.generate(config)).splitlines()
        assert len(lines) == 18010
        for line in lines:
            _assert_parity(json.loads(line))

    def test_malformed_row_cases(self):
        rows = [_with(field, value) for field, value in LIST_OR_OBJECT + BOOLEANS]
        rows += [_with("ts", ts) for ts in NOT_INTEGER_TS + ["oops", 2**63, 1e20]]
        rows += [json.loads(line) for line in NOT_AN_OBJECT]
        rows += [_with("values", [1.0, bad, 3.0]) for bad in (float("nan"), float("inf"))]
        rows += [_with(field, _MISSING) for field in _FIELDS if field != "session"]
        for row in rows:
            assert _outcome(hit_from_doc, row) is None, row
            _assert_parity(row)

    @pytest.mark.parametrize("field", _FIELDS)
    def test_every_json_type_in_every_field(self, field):
        for value in _VALUES_OF_EVERY_TYPE:
            row = _with(field, value)
            _assert_parity(row)
            _assert_parity(json.loads(json.dumps(row)))  # as a JSON-lines row arrives

    def test_json_lines(self):
        # parse_hits reads a line as json.loads reads it
        good = json.dumps(_row())
        lines = [
            good, "{not json", good + " x", good + good, good + ",", "\ufeff" + good, "NaN",
            "[1, 2]", '{"user_id": "u1"', " " + good + "\t", '"x"', "1e400", good[:-1] + ', "a": 1}',
            json.dumps(_row(values=[float("nan")])), json.dumps(_row(ts=1))[:-1] + ', "ts": 2}',
        ]
        for line in lines:
            try:
                expected = [oracle_hit_from_doc(json.loads(line.strip()))]
            except (ValueError, TypeError, KeyError):
                expected = []
            result = parse_hits("\n".join([line, good, good, good]))
            assert result.records[: len(expected)] == expected, line
            assert (len(result.records), result.skipped) == (3 + len(expected), 1 - len(expected))

    def test_csv_rows(self):
        header = "user_id,ts,report_id,kind,metric,dim_element,values,session"
        lines = [
            "u1,5,r2,histogram,orders,de,1;2;4,sess-a", "u1,5,r2,TimeSeries,m,d,1;;2,",
            "u1, 5,r2,timeseries,m,d, 1 ;2,s", "u1,1_000,r2,timeseries,m,d,3,7",
            "u1,12.5,r2,timeseries,m,d,1,s", "u1,true,r2,timeseries,m,d,1,s",
            "u1,,r2,timeseries,m,d,1,s", ",5,r2,timeseries,m,d,1,s", "u1,5,r2,hist,m,d,1,s",
            "u1,5,r2,timeseries,m,d,,s", "u1,5,r2,timeseries,m,d,;,s",
            "u1,5,r2,timeseries,m,d,1;nan", "u1,5,r2,timeseries,m,d,1e400",
            "u1,5,r2,timeseries,m,d,x", "u1,5,r2,timeseries", "u1,5,r2,timeseries,m,d,1,s,extra",
            f"u1,{2**63},r2,timeseries,m,d,1,s", f"u1,{2**63 - 1},r2,timeseries,m,d,1,s",
            "u1,-5,r2,timeseries,m,d,1,s", "u1,5,r2,timeseries,m,d,1,0",
        ]
        rows = list(csv.DictReader(io.StringIO("\n".join([header, *lines]))))
        assert len(rows) == len(lines)
        for row in rows:
            _assert_parity(row)


class TestSessionize:
    def test_cut_on_hint_change(self):
        hits = [
            make_hit(ts=0, hint="a"),
            make_hit(ts=10, hint="a"),
            make_hit(ts=20, hint="b"),
        ]
        sessions = sessionize(hits)
        assert [len(s) for s in sessions] == [2, 1]

    def test_cut_on_timeout_without_hints(self):
        hits = [
            make_hit(ts=0),
            make_hit(ts=100),
            make_hit(ts=100 + DEFAULT_SESSION_TIMEOUT + 1),
        ]
        sessions = sessionize(hits)
        assert [len(s) for s in sessions] == [2, 1]

    def test_gap_equal_to_timeout_does_not_cut(self):
        hits = [make_hit(ts=0), make_hit(ts=DEFAULT_SESSION_TIMEOUT)]
        assert len(sessionize(hits)) == 1

    def test_users_kept_separate(self):
        hits = [make_hit(user="a", ts=0), make_hit(user="b", ts=1)]
        sessions = sessionize(hits)
        assert {s.user_id for s in sessions} == {"a", "b"}

    def test_hits_sorted_within_user(self):
        hits = [make_hit(ts=50), make_hit(ts=0)]
        (sess,) = sessionize(hits)
        assert [h.timestamp for h in sess.hits] == [0, 50]

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            sessionize([], timeout=0)


class TestTemporalSplit:
    def test_seven_of_ten_hits_in_train(self):
        # sessions of 3, 4 and 3 hits: the 7-hit prefix crosses the 70% target
        sessions = [
            make_session("u1", ["a", "b", "c"], start=0),
            make_session("u1", ["a", "b", "c", "d"], start=1000),
            make_session("u1", ["a", "b", "c"], start=2000),
        ]
        ds = temporal_split(sessions, train_fraction=0.7)
        assert sum(len(s) for s in ds.train) == 7
        assert len(ds.test) == 1
        assert ds.split_instant == 2000

    def test_always_leaves_a_test_session(self):
        sessions = [
            make_session("u1", ["a", "b"], start=0),
            make_session("u1", ["a", "b"], start=1000),
        ]
        ds = temporal_split(sessions, train_fraction=0.99)
        assert len(ds.train) == 1
        assert len(ds.test) == 1

    def test_train_sessions_end_before_test_sessions(self):
        sessions = [
            make_session("u1", ["a", "b", "c"], start=t) for t in range(0, 5000, 1000)
        ]
        ds = temporal_split(sessions)
        last_train_end = max(s.hits[-1].timestamp for s in ds.train)
        first_test_end = min(s.hits[-1].timestamp for s in ds.test)
        assert last_train_end <= first_test_end

    def test_too_few_sessions(self):
        with pytest.raises(ValueError):
            temporal_split([make_session("u1", ["a", "b"])])
        with pytest.raises(ValueError):
            temporal_split([])

    def test_invalid_fraction(self):
        sessions = [make_session("u1", ["a"]), make_session("u1", ["b"], start=10)]
        with pytest.raises(ValueError):
            temporal_split(sessions, train_fraction=1.0)
