import pytest

from intentrec import pipeline
from intentrec.models import Dataset, HitRecord, ReportKind, Session

from conftest import make_hit


class TestHitRecord:
    def test_fields_cannot_be_assigned(self):
        hit = make_hit()
        for name, value in (("report_id", "r2"), ("timestamp", 5), ("values", (3.0,))):
            with pytest.raises(AttributeError):
                setattr(hit, name, value)
        assert hit == make_hit()

    def test_negative_timestamp_is_refused(self):
        with pytest.raises(ValueError, match="timestamp"):
            make_hit(ts=-1)
        assert make_hit(ts=0).timestamp == 0

    def test_empty_values_are_refused(self):
        with pytest.raises(ValueError, match="values"):
            make_hit(values=())

    def test_equal_hits_compare_and_hash_equal(self):
        a = make_hit(report="r1", values=(1.0, 2.0), hint="s1")
        b = make_hit(report="r1", values=(1.0, 2.0), hint="s1")
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != make_hit(report="r1", values=(1.0, 2.5), hint="s1")
        assert a != make_hit(report="r1", values=(1.0, 2.0), hint=None)

    def test_positional_and_keyword_construction_agree(self):
        positional = HitRecord("u1", 3, "r1", ReportKind.HISTOGRAM, "m", "d", (1.0,))
        keyword = HitRecord(
            user_id="u1", timestamp=3, report_id="r1", report_kind=ReportKind.HISTOGRAM,
            metric="m", dimension_element="d", values=(1.0,),
        )
        assert positional == keyword
        assert positional.session_hint is None

    def test_replace_checks_the_new_hit(self):
        hit = make_hit(metric="m")
        changed = hit._replace(metric="n")
        assert type(changed) is HitRecord and changed == make_hit(metric="n")
        with pytest.raises(ValueError, match="timestamp"):
            hit._replace(timestamp=-1)
        with pytest.raises(ValueError, match="values"):
            HitRecord._make([*hit[:6], ()])

    def test_sessions_file_round_trips_every_hit(self, tmp_path):
        train = [
            Session("u1", [
                make_hit("u1", 0, "r1", ReportKind.TIME_SERIES, values=(0.5, -1.0), hint="s1"),
                make_hit("u1", 40, "r2", ReportKind.HISTOGRAM, metric="x", values=(2.0,), hint="s1"),
            ]),
            Session("u2", [make_hit("u2", 10, "r3", dim="all", values=(1e-300,))]),
        ]
        test = [Session("u1", [make_hit("u1", 5000, "r2", values=(4.0, 5.0, 6.0))])]
        dataset = Dataset(train=train, test=test, split_instant=5000)
        path = tmp_path / "sessions.npz"
        with path.open("wb") as fh:
            pipeline.save_dataset(dataset, fh)
        loaded = pipeline.load_dataset(path)
        for want, got in zip(dataset.train + dataset.test, loaded.train + loaded.test, strict=True):
            assert got.user_id == want.user_id
            assert len(got.hits) == len(want.hits)
            for a, b in zip(want.hits, got.hits):
                assert type(b) is HitRecord
                assert b == a and hash(b) == hash(a)
                assert type(b.report_kind) is ReportKind
        assert loaded.split_instant == dataset.split_instant
