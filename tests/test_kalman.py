import json
import logging

import numpy as np
import pytest

from intentrec import pipeline
from intentrec.kalman import (
    MISSING,
    SETTLED_TOLERANCE,
    KalmanState,
    estimate_measurement_noise,
    estimate_transition,
    evolve_sequence,
    initial_state,
    serve_step,
    step,
)

from conftest import cluster_arrays, two_width_workdir

log = logging.getLogger(__name__)


# The per-filter loop as it was before fitting advanced stacks in lockstep:
# one exact step, one serving step and one loop over a filter's views. It is
# the bitwise oracle of the stacked code.


def oracle_step(state: KalmanState, x) -> KalmanState:
    A = state.A
    f_prior = A @ state.f_post
    P = A @ state.P_post @ A.T + state.Q
    P_prior = (P + P.T) / 2
    if x is MISSING:
        state.f_post, state.P_post, state.gain = f_prior, P_prior, None
        return state
    Lam = state.Lam
    n = Lam.shape[0]
    x_obs = np.asarray(x, dtype=float)
    if x_obs.shape != (n,):
        raise ValueError(f"observation shape {x_obs.shape} != ({n},)")

    innov_cov = Lam @ P_prior @ Lam.T + state.Psi
    try:
        gain = np.linalg.solve(innov_cov.T, (P_prior @ Lam.T).T).T
    except np.linalg.LinAlgError:
        log.warning("singular innovation covariance; regularizing")
        innov_cov = innov_cov + 1e-10 * np.eye(n)
        gain = np.linalg.solve(innov_cov.T, (P_prior @ Lam.T).T).T

    state.gain = gain
    state.f_post = f_prior + gain @ (x_obs - Lam @ f_prior)
    P = (np.eye(len(f_prior)) - gain @ Lam) @ P_prior
    state.P_post = (P + P.T) / 2
    return state


def oracle_serve_step(state: KalmanState, x) -> KalmanState:
    if x is not MISSING and state.settled is not None:
        M, K = state.settled
        state.f_post = M @ state.f_post + K @ x
        return state
    P_before = state.P_post
    state = oracle_step(state, x)
    state.settled = None
    if x is not MISSING and np.linalg.norm(state.P_post - P_before) <= (
        SETTLED_TOLERANCE * np.linalg.norm(P_before)
    ):
        K = state.gain
        state.settled = ((np.eye(len(state.f_post)) - K @ state.Lam) @ state.A, K)
    return state


def oracle_evolve(Lam, A, Q, Psi, observations, f0):
    r = A.shape[0]
    if Lam.shape[1] != r or Q.shape != (r, r) or len(f0) != r:
        raise ValueError("inconsistent shapes")
    state = KalmanState(
        A=A, Q=Q, Psi=Psi, Lam=Lam, f_post=np.asarray(f0, dtype=float), P_post=np.eye(r)
    )
    out: list[np.ndarray] = []
    steady = 0
    for x in observations:
        steady += x is not MISSING and state.settled is not None
        state = oracle_serve_step(state, x)
        out.append(state.f_post.copy())
    state.settled = None
    return out, state, steady


def scalar_filter(a, q, lam, psi, f0, p0, observations):
    """Independent plain-float 1-D filter used as an oracle."""
    f, p = f0, p0
    out = []
    for x in observations:
        f_prior = a * f
        p_prior = a * p * a + q
        # a missing view takes the psi -> infinity limit of the gain: 0
        k = 0.0 if x is None else p_prior * lam / (lam * p_prior * lam + psi)
        f = f_prior if x is None else f_prior + k * (x - lam * f_prior)
        p = (1 - k * lam) * p_prior
        out.append((f, p, k))
    return out


def _mat(x):
    return np.array([[float(x)]])


def _columns(views, n):
    """An N x T panel of the views, an all-zero column for each MISSING one."""
    return np.column_stack([np.zeros(n) if x is MISSING else x for x in views])


def _dynamics(rng, r):
    A = rng.normal(size=(r, r))
    A *= rng.uniform(0.3, 1.2) / max(abs(np.linalg.eigvals(A)))
    return A, rng.uniform(0.05, 1.0) * np.eye(r)


def _members(rng, widths, T, r, missing=()):
    """Random members of one cluster: a loading matrix, measurement noise,
    an N x T panel with all-zero columns at `missing`, and a view count."""
    out = []
    for n in widths:
        X = rng.normal(scale=2.0, size=(n, T))
        X[:, list(missing)] = 0.0
        lam, psi = rng.normal(size=(n, r)), float(rng.uniform(0.1, 2.0))
        out.append((lam, psi, X, int(rng.integers(1, T + 1))))
    return out


def _check_against_oracle(A, Q, f0, members):
    """evolve_sequence on the members, one stack, equals the oracle run on
    each member alone, bit for bit; returns the oracle's steady counts."""
    lams, psis, panels, views = zip(*members)
    n = lams[0].shape[0]
    evolved, final, steady, missing = evolve_sequence(
        np.stack(lams), A, Q, np.array(psis)[:, None, None] * np.eye(n), np.stack(panels),
        views, f0,
    )
    assert final.settled is None
    per_member, want_missing = [], 0
    for b, (lam, psi, X, T) in enumerate(members):
        obs = [X[:, t] if X[:, t].any() else MISSING for t in range(T)]
        f_seq, state, count = oracle_evolve(lam, A, Q, psi * np.eye(n), obs, f0.copy())
        assert np.array_equal(evolved[b, :T], np.array(f_seq)), b
        assert np.array_equal(final.f_post[b, :, 0], state.f_post), b
        assert np.array_equal(final.P_post[b], state.P_post), b
        per_member.append(count)
        want_missing += sum(x is MISSING for x in obs)
    assert (steady, missing) == (sum(per_member), want_missing)
    return per_member


class TestScalarHandCase:
    def test_hand_computed_step(self):
        state = initial_state(_mat(1), _mat(1), _mat(1), _mat(2), np.zeros(1))
        state = step(state, np.array([4.0]))
        assert state.gain[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert state.f_post[0] == pytest.approx(2.0, abs=1e-12)
        assert state.P_post[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_random_scalar_problems_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.uniform(-1.5, 1.5)
            q = rng.uniform(0.01, 2.0)
            lam = rng.uniform(0.1, 3.0)
            psi = rng.uniform(0.01, 2.0)
            f0 = rng.normal()
            obs = [
                None if rng.random() < 0.2 else float(rng.normal(scale=3))
                for _ in range(8)
            ]
            expected = scalar_filter(a, q, lam, psi, f0, 1.0, obs)
            X = _columns([None if x is None else np.array([x]) for x in obs], 1)
            (evolved,), state, _, _ = evolve_sequence(
                _mat(lam)[None], _mat(a), _mat(q), _mat(psi)[None], X[None], [len(obs)],
                np.array([f0]),
            )
            for (f, p, _), got in zip(expected, evolved):
                assert got[0] == pytest.approx(f, abs=1e-12)
            assert state.P_post[0, 0, 0] == pytest.approx(expected[-1][1], abs=1e-12)

    def test_perfect_measurement_limit(self):
        # vanishing measurement noise pins the posterior to the observation
        state = initial_state(_mat(2), _mat(1), _mat(1), _mat(1e-14), np.zeros(1))
        state = step(state, np.array([6.0]))
        assert 2 * state.f_post[0] == pytest.approx(6.0, abs=1e-6)

    def test_missing_signal_keeps_prior(self):
        state = initial_state(_mat(1), _mat(0.9), _mat(0.1), _mat(1.0), np.array([3.0]))
        state.P_post = _mat(2.0)
        state = step(state, MISSING)
        assert state.f_post[0] == 0.9 * 3.0
        assert state.P_post[0, 0] == 0.9 * 2.0 * 0.9 + 0.1
        assert state.gain is None


class TestMultivariate:
    def test_covariances_stay_symmetric(self):
        rng = np.random.default_rng(1)
        r, n = 3, 5
        Lam = rng.normal(size=(n, r))
        A = 0.5 * rng.normal(size=(r, r))
        Q = 0.1 * np.eye(r)
        Psi = 0.5 * np.eye(n)
        X = rng.normal(size=(n, 6))
        _, state, _, _ = evolve_sequence(Lam[None], A, Q, Psi[None], X[None], [6], np.zeros(r))
        P = state.P_post[0]
        np.testing.assert_allclose(P, P.T)
        assert np.all(np.linalg.eigvalsh(P) > -1e-10)

    def test_observation_shape_checked(self):
        state = initial_state(_mat(1), _mat(1), _mat(1), _mat(1), np.zeros(1))
        with pytest.raises(ValueError):
            step(state, np.zeros(3))

    def test_missing_views_keep_the_prediction(self):
        # the exact update of a missing view is the prediction itself, with
        # no gain, alone or in a run of missing views
        rng = np.random.default_rng(4)
        n = 6
        missing = {3, 7, 8, 9}
        for r in range(1, 6):
            Lam = rng.normal(size=(n, r))
            A = rng.normal(size=(r, r))
            A *= rng.uniform(0.3, 1.2) / max(abs(np.linalg.eigvals(A)))
            B = rng.normal(size=(r, r))
            Q = B @ B.T + 0.1 * np.eye(r)
            C = rng.normal(size=(n, n))
            Psi = C @ C.T + 0.1 * np.eye(n)
            state = initial_state(Lam, A, Q, Psi, rng.normal(size=r))
            for t in range(12):
                if t not in missing:
                    state = step(state, rng.normal(scale=2.0, size=n))
                    assert state.gain is not None, (r, t)
                    continue
                f_pred = A @ state.f_post
                P = A @ state.P_post @ A.T + Q
                P_pred = (P + P.T) / 2
                state = step(state, MISSING)
                assert np.array_equal(state.f_post, f_pred), (r, t)
                assert np.array_equal(state.P_post, P_pred), (r, t)
                assert state.gain is None, (r, t)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evolve_sequence(
                np.eye(2)[None], np.eye(3), np.eye(3), np.eye(2)[None], np.zeros((1, 2, 4)),
                [4], np.zeros(3),
            )


class TestServeStep:
    def test_settled_gain_tracks_the_exact_filter(self):
        # from P = I the covariance settles within the first 60 views; one
        # missing view at 60 and three at 90-92 leave the steady state
        rng = np.random.default_rng(3)
        n, T = 6, 150
        missing = {60, 90, 91, 92}
        for r in range(1, 6):
            for _ in range(4):
                Lam = rng.normal(size=(n, r))
                A = rng.normal(size=(r, r))
                A *= rng.uniform(0.3, 1.2) / max(abs(np.linalg.eigvals(A)))
                Q = rng.uniform(0.05, 1.0) * np.eye(r)
                Psi = rng.uniform(0.1, 2.0) * np.eye(n)
                f0 = rng.normal(size=r)
                # views are panel columns, read with the panel's stride in
                # serving as in fitting
                X = rng.normal(scale=2.0, size=(n, T))
                X[:, sorted(missing)] = 0.0
                exact = initial_state(Lam, A, Q, Psi, f0.copy())
                served = initial_state(Lam, A, Q, Psi, f0.copy())
                settled_at = None
                exact_f = []
                for t in range(T):
                    x = MISSING if t in missing else X[:, t]
                    P_before = exact.P_post
                    exact = step(exact, x)
                    exact_f.append(exact.f_post)
                    served = serve_step(served, x)
                    scale = max(np.linalg.norm(exact.f_post), 1.0)
                    assert np.linalg.norm(served.f_post - exact.f_post) <= 1e-9 * scale, (r, t)
                    if x is MISSING:
                        assert served.settled is None, (r, t)
                        continue
                    if settled_at is None and served.settled is not None:
                        settled_at = t
                        # cached on the first step that leaves P (relatively) in place
                        moved = np.linalg.norm(exact.P_post - P_before) / np.linalg.norm(P_before)
                        assert moved <= SETTLED_TOLERANCE, (r, t)
                        M, K = served.settled
                        np.testing.assert_allclose(K, exact.gain, rtol=1e-9, atol=1e-12)
                        np.testing.assert_allclose(
                            M, (np.eye(r) - exact.gain @ Lam) @ A, rtol=1e-9, atol=1e-12
                        )
                assert settled_at is not None and 0 < settled_at < min(missing), r
                assert served.settled is not None, r
                # fitting advances the filter as serving does
                (evolved,), final, steady, _ = evolve_sequence(
                    Lam[None], A, Q, Psi[None], X[None], [T], f0.copy()
                )
                for t, (got, want) in enumerate(zip(evolved, exact_f)):
                    scale = max(np.linalg.norm(want), 1.0)
                    assert np.linalg.norm(got - want) <= 1e-9 * scale, (r, t)
                np.testing.assert_array_equal(final.f_post[0, :, 0], served.f_post)
                assert final.settled is None, r
                assert 0 < steady < T - len(missing), r

    def test_one_filter_serves_as_the_oracle_does(self):
        # serving advances one filter, a stack of one without the member
        # axis, through the same calls as before, bit for bit
        rng = np.random.default_rng(11)
        n, r, T = 6, 3, 120
        A, Q = _dynamics(rng, r)
        Lam = rng.normal(size=(n, r))
        Psi = rng.uniform(0.1, 2.0) * np.eye(n)
        f0 = rng.normal(size=r)
        served = initial_state(Lam, A, Q, Psi, f0.copy())
        oracle = initial_state(Lam, A, Q, Psi, f0.copy())
        cached = 0
        for t in range(T):
            x = MISSING if t in (50, 80, 81) else rng.normal(scale=2.0, size=n)
            served = serve_step(served, x)
            oracle = oracle_serve_step(oracle, x)
            assert np.array_equal(served.f_post, oracle.f_post), t
            assert np.array_equal(served.P_post, oracle.P_post), t
            assert (served.settled is None) == (oracle.settled is None), t
            if oracle.settled is not None:
                cached += 1
                for got, want in zip(served.settled, oracle.settled):
                    assert np.array_equal(got, want), t
        assert 0 < cached < T


class TestLockstep:
    """evolve_sequence on a stack against the per-filter oracle, bit for bit."""

    def test_random_stacks_with_ragged_view_counts(self):
        rng = np.random.default_rng(5)
        for r in range(1, 6):
            for _ in range(3):
                A, Q = _dynamics(rng, r)
                T = int(rng.integers(40, 90))
                members = _members(rng, [6] * int(rng.integers(2, 9)), T, r)
                steady = _check_against_oracle(A, Q, rng.normal(size=r), members)
                assert sum(steady) > 0, r

    def test_missing_views_leave_and_reenter_the_settled_state(self):
        # members miss different views mid-sequence: each drops its settled
        # gain there, takes exact steps until P settles again and is then
        # settled beside members that never left
        rng = np.random.default_rng(6)
        n, r, T = 6, 3, 150
        A, Q = _dynamics(rng, r)
        f0 = rng.normal(size=r)
        gaps = [(), (60,), (90, 91, 92), (60, 100)]
        members = [
            (lam, psi, X, T)
            for g in gaps
            for lam, psi, X, _ in _members(rng, [n], T, r, missing=g)
        ]
        steady = _check_against_oracle(A, Q, f0, members)
        for (lam, psi, X, _), g, count in zip(members, gaps, steady):
            obs = [X[:, t] if X[:, t].any() else MISSING for t in range(T)]
            cut = min(g, default=T)
            _, _, before = oracle_evolve(lam, A, Q, psi * np.eye(n), obs[:cut], f0.copy())
            assert 0 < before, g
            if g:
                # settled again after the last missing view
                assert before < count < T - len(g), g

    def test_two_widths_of_one_cluster(self):
        # a cluster's members of each width are one stack over the same A, Q
        # and initial factor
        rng = np.random.default_rng(7)
        r, T = 3, 70
        A, Q = _dynamics(rng, r)
        f0 = rng.normal(size=r)
        for widths in ([6, 6, 6], [12, 12]):
            steady = _check_against_oracle(A, Q, f0, _members(rng, widths, T, r))
            assert sum(steady) > 0, widths

    def test_a_member_that_never_settles(self):
        # every other view missing: P never stays put, so the member always
        # takes the exact step while the others settle beside it
        rng = np.random.default_rng(8)
        r, T = 3, 80
        A, Q = _dynamics(rng, r)
        members = _members(rng, [6, 6, 6], T, r)
        lam, psi, X, _ = members[1]
        X[:, 1::2] = 0.0
        members[1] = (lam, psi, X, T)
        members[0] = members[0][:3] + (T,)
        steady = _check_against_oracle(A, Q, rng.normal(size=r), members)
        assert steady[1] == 0 and steady[0] > 0

    def test_a_stack_of_one(self):
        rng = np.random.default_rng(9)
        for r in range(1, 6):
            A, Q = _dynamics(rng, r)
            members = _members(rng, [6], 100, r, missing=(30,))
            _check_against_oracle(A, Q, rng.normal(size=r), members)


def test_stage_kalman_writes_the_oracle_filters(tmp_path):
    # two users also view a second (metric, dimension) pair, so their
    # cluster holds members of two widths; every array stage_kalman writes
    # equals the per-filter oracle's, built per member from the G, H, S and
    # V in factors.npz, and so do the manifest counts
    cfg, wide = two_width_workdir(tmp_path)
    pipeline.stage_kalman(tmp_path, cfg)

    doc = json.loads((tmp_path / "clustering.json").read_text())
    (home,) = [c for c, members in doc["clusters"].items() if wide[0] in members]
    assert {len(doc["slots"][u]) for u in doc["clusters"][home]} == {1, 2}
    views = steady = missing = 0
    for cluster, members in doc["clusters"].items():
        widths = [6 * len(doc["slots"][u]) for u in members]
        with np.load(tmp_path / "tensors.npz") as z:
            stacks = {w: iter(z[f"{cluster}/X_{w}"]) for w in set(widths)}
        with np.load(tmp_path / "factors.npz") as z:
            fit = cluster_arrays(z, cluster)
        with np.load(tmp_path / "kalman.npz") as z:
            got = cluster_arrays(z, cluster)
        G = {w: iter(fit[f"G_{w}"]) for w in set(widths)}
        f_initial = fit["V"].T.copy(order="F")
        A = estimate_transition(f_initial, ridge=pipeline.TRANSITION_RIDGE)
        Q = cfg.process_noise * np.eye(fit["H"].shape[0])
        want = {"A": A, "Q": Q}
        lams, psis, finals, evolved = [], [], [], []
        T = max(doc["views"][uid] for uid in members)
        for uid, w, s in zip(members, widths, fit["S"], strict=True):
            lam = next(G[w]) @ fit["H"] @ np.diag(s)
            X = next(stacks[w])
            resid = X - lam @ f_initial
            psi = max(float((resid**2).mean()), 1e-8)
            obs = [X[:, t] if X[:, t].any() else MISSING for t in range(doc["views"][uid])]
            f_seq, final, count = oracle_evolve(
                lam, A, Q, psi * np.eye(lam.shape[0]), obs, f_initial[:, 0].copy()
            )
            padded = np.zeros((T, len(s)))
            padded[: len(obs)] = f_seq
            evolved.append(padded)
            lams.append(lam)
            psis.append(psi)
            finals.append(final)
            views += len(obs)
            steady += count
            missing += sum(x is MISSING for x in obs)
        want.update(
            psi=np.array(psis), Lam=np.vstack(lams),
            f_post=np.array([s.f_post for s in finals]),
            P_post=np.array([s.P_post for s in finals]),
            evolved=np.array(evolved),
        )
        assert got.keys() == want.keys(), cluster
        for name, array in want.items():
            assert np.array_equal(got[name], array), (cluster, name)
    entry = json.loads((tmp_path / "manifest.json").read_text())["kalman"]
    assert (entry["views"], entry["steady_views"], entry["missing_views"]) == (
        views, steady, missing
    )
    assert 0 < steady < views


class TestEstimators:
    def test_transition_recovers_exact_dynamics(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3)) * 0.5
        F = np.zeros((3, 10))
        F[:, 0] = rng.normal(size=3)
        for t in range(1, 10):
            F[:, t] = A @ F[:, t - 1]
        np.testing.assert_allclose(estimate_transition(F), A, atol=1e-8)

    def test_transition_needs_two_steps(self):
        with pytest.raises(ValueError):
            estimate_transition(np.ones((2, 1)))

    def test_measurement_noise_residual_variance(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Lam = np.zeros((2, 1))
        F = np.zeros((1, 2))
        assert estimate_measurement_noise(X, Lam, F) == pytest.approx(
            (X**2).mean()
        )
        assert estimate_measurement_noise(X, X[:, :1], np.array([[1.0, 0.0]])) >= 1e-8
