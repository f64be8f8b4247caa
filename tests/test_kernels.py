import numpy as np
import pytest

from nfactor import kernels

from oracles import _loglik_loops, _score_loops


def _args(frame):
    return frame.start, frame.stop, frame.event, frame.covariates


@pytest.mark.parametrize("w", [1, 4])
def test_loglik_matches_loop_oracle(heart_frame, w):
    rng = np.random.default_rng(3)
    for _ in range(5):
        beta = 0.1 * rng.standard_normal(4)
        a = _loglik_loops(*_args(heart_frame), beta, float(w))
        b = kernels.loglik(*_args(heart_frame), beta, float(w))
        assert b == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize("w", [1, 4])
def test_score_matches_loop_oracle(heart_frame, w):
    rng = np.random.default_rng(4)
    for _ in range(5):
        beta = 0.1 * rng.standard_normal(4)
        ll_o, g_o, h_o = _score_loops(*_args(heart_frame), beta, float(w))
        ll, g, h = kernels.score(*_args(heart_frame), beta, float(w))
        assert ll == pytest.approx(ll_o, rel=1e-12)
        np.testing.assert_allclose(g, g_o, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(h, h_o, rtol=1e-10, atol=1e-12)


def test_large_coefficients_do_not_overflow(heart_frame):
    # year ~ 68, so eta ~ 2700; the risk-set max shift must absorb it
    beta = np.array([0.0, 0.0, 0.0, 40.0])
    assert np.isfinite(kernels.loglik(*_args(heart_frame), beta, 1.0))
