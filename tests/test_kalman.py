import numpy as np
import pytest

from intentrec.kalman import (
    MISSING,
    SETTLED_TOLERANCE,
    estimate_measurement_noise,
    estimate_transition,
    evolve_sequence,
    initial_state,
    serve_step,
    step,
)


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
            evolved, state, _ = evolve_sequence(
                _mat(lam), _mat(a), _mat(q), _mat(psi),
                [None if x is None else np.array([x]) for x in obs],
                np.array([f0]),
            )
            for (f, p, _), got in zip(expected, evolved):
                assert got[0] == pytest.approx(f, abs=1e-12)
            assert state.P_post[0, 0] == pytest.approx(expected[-1][1], abs=1e-12)

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
        obs = [rng.normal(size=n) for _ in range(6)]
        _, state, _ = evolve_sequence(Lam, A, Q, Psi, obs, np.zeros(r))
        np.testing.assert_allclose(state.P_post, state.P_post.T)
        assert np.all(np.linalg.eigvalsh(state.P_post) > -1e-10)

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
            evolve_sequence(np.eye(2), np.eye(3), np.eye(3), np.eye(2), [], np.zeros(3))


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
                exact = initial_state(Lam, A, Q, Psi, f0.copy())
                served = initial_state(Lam, A, Q, Psi, f0.copy())
                settled_at = None
                views, exact_f = [], []
                for t in range(T):
                    x = MISSING if t in missing else rng.normal(scale=2.0, size=n)
                    views.append(x)
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
                # fitting advances the filter through the same serving step
                evolved, final, steady = evolve_sequence(Lam, A, Q, Psi, views, f0.copy())
                for t, (got, want) in enumerate(zip(evolved, exact_f)):
                    scale = max(np.linalg.norm(want), 1.0)
                    assert np.linalg.norm(got - want) <= 1e-9 * scale, (r, t)
                np.testing.assert_array_equal(final.f_post, served.f_post)
                assert final.settled is None, r
                assert 0 < steady < T - len(missing), r


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
