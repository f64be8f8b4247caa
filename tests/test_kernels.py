import numpy as np
import pytest

from nfactor import kernels, replicate_frame

from oracles import _loglik_loops, _score_loops


def kernel_args(frame):
    """The leading arguments of ``kernels.loglik`` and ``kernels.score`` for a frame."""
    return frame.start, frame.stop, frame.event, frame.covariates


# The unweighted kernel on the frame replicated w times (tied events) against
# the weighted loop oracle on the frame itself.
@pytest.mark.parametrize("w", [1, 4])
def test_loglik_matches_loop_oracle(heart_frame, w):
    replicated = replicate_frame(heart_frame, w)
    rng = np.random.default_rng(3)
    for _ in range(5):
        beta = 0.1 * rng.standard_normal(4)
        a = _loglik_loops(*kernel_args(heart_frame), beta, float(w))
        b = kernels.loglik(*kernel_args(replicated), beta)
        assert b == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize("w", [1, 4])
def test_score_matches_loop_oracle(heart_frame, w):
    replicated = replicate_frame(heart_frame, w)
    rng = np.random.default_rng(4)
    for _ in range(5):
        beta = 0.1 * rng.standard_normal(4)
        ll_o, g_o, h_o = _score_loops(*kernel_args(heart_frame), beta, float(w))
        ll, g, h = kernels.score(*kernel_args(replicated), beta)
        assert ll == pytest.approx(ll_o, rel=1e-12)
        np.testing.assert_allclose(g, g_o, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(h, h_o, rtol=1e-10, atol=1e-12)


def test_large_coefficients_do_not_overflow(heart_frame):
    # year ~ 68, so eta ~ 2700; the risk-set max shift must absorb it
    beta = np.array([0.0, 0.0, 0.0, 40.0])
    assert np.isfinite(kernels.loglik(*kernel_args(heart_frame), beta))
