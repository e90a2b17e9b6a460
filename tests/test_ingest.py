import json

import pytest

from intentrec.ingest import (
    DEFAULT_SESSION_TIMEOUT,
    FormatError,
    hit_from_doc,
    hit_to_doc,
    parse_hits,
    sessionize,
    temporal_split,
)
from intentrec.models import ReportKind

from conftest import make_hit, make_session

# The input fields as the README lists them, in its order.
DOCUMENTED_FIELDS = (
    "user_id", "report_id", "ts", "session", "kind", "metric", "dim_element", "values",
)

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

    @pytest.mark.parametrize("line", ["[1, 2]", "5", '"x"', "null", "true", "[]"])
    def test_row_that_is_not_an_object_is_malformed(self, line):
        lines = [json.dumps(_row(ts=100 + i)) for i in range(75)]
        lines.insert(40, line)
        result = parse_hits("\n".join(lines))
        assert (len(result.records), result.skipped) == (75, 1)
        # the 50% rule counts such rows like any other malformed row
        with pytest.raises(FormatError):
            parse_hits("\n".join([json.dumps(_row()), line, line]))
        assert parse_hits("\n".join([json.dumps(_row()), line])).skipped == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("user_id", ["u", 1]), ("user_id", {"u": 1}), ("report_id", ["r1"]),
            ("report_id", {"r": 1}), ("kind", ["timeseries"]), ("metric", {"m": 1}),
            ("dim_element", ["us", "de"]), ("values", {"1": 0}), ("session", ["s"]),
            ("session", {"s": 1}),
        ],
    )
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

    @pytest.mark.parametrize(
        "field,value",
        [
            ("user_id", True), ("user_id", False), ("report_id", True), ("kind", False),
            ("metric", True), ("dim_element", False), ("session", True), ("session", False),
            ("values", True), ("values", [1.0, True]), ("values", [False]),
        ],
    )
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

    @pytest.mark.parametrize("ts", [12.7, 0.5, True, False, float("inf"), float("nan")],
                             ids=["fraction", "half", "true", "false", "inf", "nan"])
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
