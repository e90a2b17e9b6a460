import copy

import numpy as np

from intentrec import kalman
from intentrec.artifacts import UserServing, serving_factor
from intentrec.context import FeatureLayout, context_vector
from intentrec.models import ReportKind

from conftest import make_hit

PAIRS = [("m", "d"), ("m2", "d2")]


def random_serving(rng, rank=3, settled=False):
    """A served user over two (metric, dimension) pairs, with a random
    filter state, optionally carrying a settled gain."""
    layout = FeatureLayout(list(PAIRS))
    n = layout.width
    lam = rng.normal(size=(n, rank))
    root = rng.normal(size=(rank, rank))
    state = kalman.KalmanState(
        A=rng.normal(scale=0.5, size=(rank, rank)), Q=0.1 * np.eye(rank),
        Psi=rng.uniform(0.5, 2.0) * np.eye(n), Lam=lam,
        f_post=rng.normal(size=rank), P_post=root @ root.T + np.eye(rank),
        gain=rng.normal(size=(rank, n)),
    )
    if settled:
        state.settled = (rng.normal(size=(rank, rank)), rng.normal(size=(rank, n)))
    return UserServing(layout, Lam_pinv=np.linalg.pinv(lam), final_state=state)


class TestServingFactor:
    def test_unknown_pair_and_all_zero_view_are_missing(self):
        rng = np.random.default_rng(3)
        views = [
            make_hit(metric="other", dim="pair", values=(1.0, 5.0, 2.0)),
            make_hit(metric="m2", dim="d2", kind=ReportKind.HISTOGRAM, values=(0.0, -0.0, 0.0)),
        ]
        for hit in views:
            serving = random_serving(rng, settled=True)
            expected = kalman.step(copy.deepcopy(serving.final_state), kalman.MISSING)
            f_kal, f_pf2, state = serving_factor(serving, serving.final_state, hit)
            assert state.settled is None and state.gain is None
            np.testing.assert_array_equal(f_kal, expected.f_post)
            np.testing.assert_array_equal(state.P_post, expected.P_post)
            np.testing.assert_array_equal(f_pf2, np.zeros(len(f_pf2)))

    def test_observed_view_matches_the_context_vector_path(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            serving = random_serving(rng, settled=bool(trial % 2))
            metric, dim = PAIRS[int(rng.integers(len(PAIRS)))]
            kind = list(ReportKind)[int(rng.integers(2))]
            values = rng.normal(scale=10.0, size=int(rng.integers(1, 12)))
            hit = make_hit(metric=metric, dim=dim, kind=kind, values=tuple(values.tolist()))
            x = context_vector(serving.layout, hit)
            # an all-zero context vector is a missing view
            view = x if x.any() else kalman.MISSING
            expected = kalman.serve_step(copy.deepcopy(serving.final_state), view)
            f_kal, f_pf2, state = serving_factor(serving, serving.final_state, hit)
            np.testing.assert_array_equal(f_kal, expected.f_post)
            np.testing.assert_array_equal(f_pf2, serving.Lam_pinv @ x)
            np.testing.assert_array_equal(state.P_post, expected.P_post)
            assert (state.settled is None) == (expected.settled is None)
