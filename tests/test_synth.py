import json

import numpy as np
import pytest

from intentrec.ingest import hit_to_doc, parse_hits, sessionize, temporal_split
from intentrec.navgraph import build_graph, detect_targets
from intentrec.models import HitRecord, ReportKind, group_by_user
from intentrec.synth import (
    CLUSTER_ACTIVITY, HIST_LEN, SERIES_LEN, SESSION_GAP, SynthConfig, generate, to_jsonl,
)


# The per-hit generator that the shape table replaced, kept as the bitwise
# oracle of `generate` and `to_jsonl`: it rebuilds each view's pattern from
# scratch and encodes each row with its own `json.dumps`.

def _report_kind(idx: int) -> ReportKind:
    return ReportKind.HISTOGRAM if idx % 7 == 3 else ReportKind.TIME_SERIES


def _values(
    report_idx: int, intent_rank: int, rho: float, rng: np.random.Generator
) -> tuple[float, ...]:
    kind = _report_kind(report_idx)
    length = HIST_LEN if kind is ReportKind.HISTOGRAM else SERIES_LEN
    amp = 2.0 + 2.5 * intent_rank
    trend = ((intent_rank % 5) - 2) * 1.5
    steps = np.arange(length)
    pattern = 30.0 + trend * steps + amp * np.sin(steps + intent_rank)
    noise = rng.normal(loc=30.0, scale=10.0, size=length)
    vals = rho * pattern + (1.0 - rho) * noise
    return tuple(round(float(v), 4) for v in vals)


def _oracle_generate(config: SynthConfig) -> list[HitRecord]:
    rng = np.random.default_rng(config.seed)
    n_intents_global = max(config.intent_count + 1, config.n_reports // 6)
    intents_global = list(range(n_intents_global))
    other_reports = list(range(n_intents_global, config.n_reports))

    hits: list[HitRecord] = []
    for user_idx in range(config.n_users):
        uid = f"u{user_idx:04d}"
        cluster = user_idx % config.n_clusters
        activity = CLUSTER_ACTIVITY[cluster % len(CLUSTER_ACTIVITY)]
        n_sessions = max(2, int(round(config.sessions_per_user * activity)))

        intents = sorted(
            rng.choice(intents_global, size=config.intent_count, replace=False).tolist()
        )
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
                        report_id=f"r{report_idx:03d}",
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


def _oracle_jsonl(config: SynthConfig) -> str:
    rows = (json.dumps(hit_to_doc(h), sort_keys=True) for h in _oracle_generate(config))
    return "\n".join(rows) + "\n"


def _first_difference(config: SynthConfig) -> str | None:
    """The first line of `to_jsonl(generate(config))` that differs from the
    oracle's, None if none does: a short message where pytest would diff two
    multi-megabyte strings."""
    got, want = to_jsonl(generate(config)), _oracle_jsonl(config)
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return f"line {i}: {a} != {b}"
    return f"{len(got_lines)} lines != {len(want_lines)}"


def _small_config(**overrides):
    base = dict(
        n_users=8,
        n_reports=40,
        sessions_per_user=6,
        intent_count=3,
        context_signal_strength=0.8,
        seed=0,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfig:
    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            SynthConfig(context_signal_strength=1.5)
        with pytest.raises(ValueError):
            SynthConfig(context_signal_strength=-0.1)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            SynthConfig(n_users=0)

    @pytest.mark.parametrize("n_reports,intent_count", [(9, 3), (12, 3), (13, 3), (40, 10)])
    def test_refuses_a_pool_that_would_wrap(self, n_reports, intent_count):
        # each user needs 1 + 3 * intent_count distinct non-intent reports
        with pytest.raises(ValueError, match="n_reports"):
            SynthConfig(n_reports=n_reports, intent_count=intent_count)

    @pytest.mark.parametrize("n_reports,intent_count", [(14, 3), (42, 10), (6, 1)])
    def test_smallest_fitting_pool_visits_each_report_once(self, n_reports, intent_count):
        config = SynthConfig(
            n_users=6, n_reports=n_reports, intent_count=intent_count, seed=2,
        )
        for s in sessionize(generate(config)):
            ids = [h.report_id for h in s.hits]
            assert len(set(ids)) == len(ids), ids


class TestGenerate:
    def test_deterministic(self):
        a = generate(_small_config())
        b = generate(_small_config())
        assert a == b

    def test_seed_changes_output(self):
        a = generate(_small_config())
        b = generate(_small_config(seed=1))
        assert a != b

    def test_roundtrips_through_ingest(self):
        hits = generate(_small_config())
        parsed = parse_hits(to_jsonl(hits))
        assert parsed.skipped == 0
        assert len(parsed.records) == len(hits)
        assert parsed.records == sorted(
            hits, key=lambda h: (h.timestamp, h.user_id)
        )

    def test_sessions_match_hints(self):
        hits = generate(_small_config())
        sessions = sessionize(hits)
        for s in sessions:
            assert len({h.session_hint for h in s.hits}) == 1

    def test_every_session_ends_at_planted_intent(self):
        config = _small_config()
        hits = generate(config)
        sessions = sessionize(hits)
        per_user = group_by_user(sessions)
        for uid, user_sessions in per_user.items():
            finals = {s.hits[-1].report_id for s in user_sessions}
            assert len(finals) == config.intent_count

    def test_intents_usually_detected_as_targets(self):
        found = total = 0
        for seed in range(3):
            hits = generate(_small_config(sessions_per_user=12, seed=seed))
            per_user = group_by_user(sessionize(hits))
            for uid, sessions in per_user.items():
                g = build_graph(sessions)
                targets = detect_targets(g)
                finals = {s.hits[-1].report_id for s in sessions}
                found += len(finals & targets)
                total += len(finals)
        assert found / total >= 0.9

    def test_rho_zero_values_are_noise_only(self):
        a = generate(_small_config(context_signal_strength=0.0))
        # with rho=0, report values must not depend on the session intent:
        # identical rng stream => regenerate and compare against rho=0 again
        b = generate(_small_config(context_signal_strength=0.0))
        assert a == b

    def test_splits_cleanly(self):
        hits = generate(_small_config())
        ds = temporal_split(sessionize(hits))
        assert ds.train_hits > 0 and ds.test_hits > 0


class TestShapeTableParity:
    """`generate` draws from its shape table in the oracle's RNG order, so
    `hits.jsonl` keeps its bytes."""

    @pytest.mark.parametrize("intent_count", [1, 2, 3, 4])
    @pytest.mark.parametrize("rho", [0.0, 0.37, 0.8, 1.0])
    def test_grid_matches_the_per_hit_oracle(self, rho, intent_count):
        for n_reports in (30, 60, 90):
            for seed in range(4):
                config = SynthConfig(
                    n_users=7, n_reports=n_reports, sessions_per_user=4,
                    intent_count=intent_count, context_signal_strength=rho, seed=seed,
                )
                assert _first_difference(config) is None, config

    def test_acceptance_config_matches_the_per_hit_oracle(self):
        config = SynthConfig(
            n_users=200, n_reports=60, sessions_per_user=20, intent_count=3,
            context_signal_strength=0.8, seed=1,
        )
        assert len(generate(config)) == 18010
        assert _first_difference(config) is None
