import math

import numpy as np
import pytest

from intentrec.context import (
    N_CLUSTERS,
    SLOTS_PER_PAIR,
    assemble_tensor,
    build_layout,
    build_matrix,
    cluster_users,
    context_vector,
    extract_features,
    usage_features,
)
from intentrec.models import ReportKind

from conftest import make_hit, make_session


class TestExtractFeatures:
    def test_time_series_hand_example(self):
        hit = make_hit(values=(2.0, 5.0, 3.0, 7.0))
        np.testing.assert_allclose(
            extract_features(hit), [17.0, 7.0, 2.0, 3.0, 1.0, 3.0]
        )

    def test_singleton_series(self):
        hit = make_hit(values=(4.0,))
        np.testing.assert_allclose(extract_features(hit), [4, 4, 4, 0, 0, 0])

    def test_histogram_only_aggregate(self):
        hit = make_hit(kind=ReportKind.HISTOGRAM, values=(1.0, 2.0, 4.0))
        np.testing.assert_allclose(extract_features(hit), [7, 0, 0, 0, 0, 0])

    def test_monotone_series_run_length(self):
        hit = make_hit(values=(1.0, 2.0, 3.0, 4.0))
        feats = extract_features(hit)
        assert feats[4] == 3  # strictly increasing throughout

    def test_run_slot_matches_the_diff_loop(self):
        # the run slot compares the Python floats of hit.values; it must equal
        # the loop over np.diff for every double, NaN, +-inf and subnormals too
        def diff_loop(values):
            longest = run = 0
            for d in np.diff(np.asarray(values, dtype=float)):
                run = run + 1 if d > 0 else 0
                longest = max(longest, run)
            return float(longest)

        rng = np.random.default_rng(5)
        specials = [np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-323, 2.2e-308, 0.0, -0.0, 1e308]
        for _ in range(2000):
            size = int(rng.integers(2, 31))
            scale = [1.0, 1e-310, 1e-320, 1e300][int(rng.integers(4))]
            values = rng.normal(size=size) * scale
            for i in rng.choice(size, size=int(rng.integers(0, size + 1))):
                if rng.random() < 0.5:
                    values[i] = specials[int(rng.integers(len(specials)))]
                elif i:
                    values[i] = values[i - 1]
            hit = make_hit(values=tuple(float(x) for x in values))
            with np.errstate(all="ignore"):
                assert extract_features(hit)[4] == diff_loop(hit.values), hit.values


def numpy_features(hit):
    """The NumPy feature extraction that extract_features replaced: the
    oracle it must match bit for bit."""
    v = np.asarray(hit.values, dtype=float)
    if hit.report_kind is ReportKind.HISTOGRAM:
        return np.array([v.sum(), 0.0, 0.0, 0.0, 0.0, 0.0])
    if v.size == 1:
        return np.array([v[0], v[0], v[0], 0.0, 0.0, 0.0])
    diffs = np.diff(v)
    longest = run = 0
    for a, b in zip(hit.values, hit.values[1:]):
        run = run + 1 if b > a else 0
        longest = max(longest, run)
    return np.array(
        [v.sum(), v.max(), v.min(), float(np.argmax(v)), float(longest), np.abs(diffs).mean()]
    )


def assert_matches_numpy(hit):
    features = extract_features(hit)
    assert len(features) == SLOTS_PER_PAIR
    assert all(type(f) is float for f in features), features
    got = np.array(features)
    with np.errstate(all="ignore"):
        want = numpy_features(hit)
    np.testing.assert_array_equal(got, want, err_msg=str(hit.values))
    if not all(map(math.isfinite, hit.values)):
        return
    same = got.view(np.uint64) == want.view(np.uint64)
    # NumPy's sign of a zero max (min) where 0.0 and -0.0 tie for it depends
    # on its SIMD lanes, so only the value of that slot is pinned
    zero_signs = {math.copysign(1.0, x) for x in hit.values if x == 0}
    if zero_signs == {1.0, -1.0}:
        same[1:3] |= want[1:3] == 0
    assert same.all(), (hit.values, got, want)


class TestFeatureOracle:
    def test_lengths_1_to_300_match_numpy(self):
        # magnitudes spread over 16 decades make the sums depend on their
        # order, so the pairwise order below 8, up to 128 and above is checked
        rng = np.random.default_rng(11)
        reordered = 0
        for size in range(1, 301):
            for kind in ReportKind:
                values = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 8, size=size)
                hit = make_hit(kind=kind, values=tuple(values.tolist()))
                assert_matches_numpy(hit)
                left_to_right = 0.0
                for x in hit.values:
                    left_to_right += x
                reordered += left_to_right != extract_features(hit)[0]
        assert reordered > 100

    def test_ties_match_numpy(self):
        # repeated maxima and minima, flat runs: argmax is the first maximum
        rng = np.random.default_rng(12)
        for _ in range(500):
            size = int(rng.integers(1, 40))
            values = rng.integers(-2, 3, size=size).astype(float)
            assert_matches_numpy(make_hit(values=tuple(values.tolist())))
        hit = make_hit(values=(1.0, 3.0, 2.0, 3.0, 3.0))
        assert extract_features(hit)[3] == 1.0

    def test_special_values_match_numpy(self):
        # the generator of test_run_slot_matches_the_diff_loop, for every slot
        rng = np.random.default_rng(5)
        specials = [np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-323, 2.2e-308, 0.0, -0.0, 1e308]
        for _ in range(2000):
            size = int(rng.integers(2, 31))
            scale = [1.0, 1e-310, 1e-320, 1e300][int(rng.integers(4))]
            values = rng.normal(size=size) * scale
            for i in rng.choice(size, size=int(rng.integers(0, size + 1))):
                if rng.random() < 0.5:
                    values[i] = specials[int(rng.integers(len(specials)))]
                elif i:
                    values[i] = values[i - 1]
            for kind in ReportKind:
                assert_matches_numpy(make_hit(kind=kind, values=tuple(float(x) for x in values)))


class TestLayoutAndMatrix:
    def test_layout_sorted_pairs(self):
        sessions = [
            make_session("u1", ["a"], metric="m2", dim="d1"),
            make_session("u1", ["b"], start=10_000, metric="m1", dim="d2"),
        ]
        layout = build_layout(sessions)
        assert layout.slots == [("m1", "d2"), ("m2", "d1")]
        assert layout.width == 2 * SLOTS_PER_PAIR

    def test_matrix_one_column_per_hit(self):
        sessions = [make_session("u1", ["a", "b", "a"])]
        cm = build_matrix(sessions)
        assert cm.X.shape == (SLOTS_PER_PAIR, 3)
        # every view of the same (metric, element) pair fills the same segment
        assert np.all(cm.X[:, 0] == cm.X[:, 1])

    def test_matrix_column_order_is_temporal(self):
        s1 = make_session("u1", ["a"], start=500, values=(1.0, 1.0))
        s2 = make_session("u1", ["b"], start=0, values=(9.0, 9.0))
        cm = build_matrix([s1, s2])
        assert cm.X[0, 0] == pytest.approx(18.0)  # earlier hit first

    def test_context_vector_unseen_pair_is_zero(self):
        layout = build_layout([make_session("u1", ["a"])])
        hit = make_hit(metric="other", dim="pair")
        assert not np.any(context_vector(layout, hit))

    def test_context_vector_matches_matrix_column(self):
        # two pairs viewed out of time order: column t is the context vector
        # of the t-th view, whose features fill only its pair's segment
        sessions = [
            make_session("u1", ["a", "b"], start=500, metric="m2", dim="d1", values=(1, 3, 2)),
            make_session("u1", ["c", "a"], start=0, metric="m1", dim="d2", values=(5, 4)),
        ]
        cm = build_matrix(sessions)
        hits = sorted((h for s in sessions for h in s.hits), key=lambda h: h.timestamp)
        assert cm.X.shape == (2 * SLOTS_PER_PAIR, len(hits))
        for t, hit in enumerate(hits):
            x = context_vector(cm.layout, hit)
            np.testing.assert_array_equal(cm.X[:, t], x)
            row = cm.layout.segment(hit.metric, hit.dimension_element)
            seg = slice(row, row + SLOTS_PER_PAIR)
            np.testing.assert_array_equal(x[seg], extract_features(hit))
            assert not np.any(np.delete(x, seg))


class TestClustering:
    def _features(self, n):
        rng = np.random.default_rng(0)
        out = {}
        for i in range(n):
            base = float(i % 4) * 100
            out[f"u{i:03d}"] = np.array(
                [base + rng.uniform(), base + rng.uniform(), base + rng.uniform()]
            )
        return out

    def test_deterministic(self):
        feats = self._features(16)
        a = cluster_users(feats, seed=42)
        b = cluster_users(feats, seed=42)
        assert a.assignments == b.assignments
        np.testing.assert_allclose(a.centroids, b.centroids)

    def test_labels_ordered_by_activity(self):
        feats = self._features(16)
        c = cluster_users(feats, seed=1)
        assert set(c.assignments.values()) == set(range(N_CLUSTERS))
        # centroid activity must increase with the label
        sums = c.centroids.sum(axis=1)
        assert np.all(np.diff(sums) >= 0)

    def test_too_few_users(self):
        c = cluster_users(self._features(3), seed=0)
        assert c.insufficient
        assert set(c.assignments.values()) == {0}

    def test_usage_features(self):
        sessions = [make_session("u1", ["a", "b", "c"], gap=10)]
        np.testing.assert_allclose(usage_features(sessions), [20.0, 2.0, 3.0])


class TestAssembleTensor:
    def test_cyclic_padding(self):
        sessions_a = [make_session("ua", ["a", "b", "c"])]
        sessions_b = [make_session("ub", ["a", "b"])]
        ma = build_matrix(sessions_a)
        mb = build_matrix(sessions_b)
        panels = assemble_tensor([ma, mb])
        assert [p.shape[1] for p in panels] == [3, 3]
        short = panels[1]
        np.testing.assert_allclose(short[:, 2], mb.X[:, 0])  # column 2 wraps to 0

    def test_empty_cluster_raises(self):
        with pytest.raises(ValueError):
            assemble_tensor([])
