import numpy as np
import pytest

from nfactor import SurvivalFrame, cox, fit_cox, kernels, replicate_frame

from oracles import _loglik_loops, _score_loops, breslow_lr_decimal, score_per_event_time


def records(frame):
    """start, stop, event and x of a frame, the arguments of the loop oracles."""
    return frame.start, frame.stop, frame.event, frame.covariates


def kernel_args(frame):
    """The leading arguments of ``kernels.score`` for a frame: its layout and x."""
    return kernels.risk_set_layout(frame.start, frame.stop, frame.event), frame.covariates


def score_records(start, stop, event, x, beta):
    """``kernels.score`` on records, through a layout built for this one call."""
    return kernels.score(kernels.risk_set_layout(start, stop, event), x, beta)


# The unweighted kernel on the frame replicated w times (tied events) against
# the weighted loop oracle on the frame itself.
@pytest.mark.parametrize("w", [1, 4])
def test_loglik_matches_loop_oracle(heart_frame, w):
    replicated = replicate_frame(heart_frame, w)
    rng = np.random.default_rng(3)
    for _ in range(5):
        beta = 0.1 * rng.standard_normal(4)
        a = _loglik_loops(*records(heart_frame), beta, float(w))
        b = kernels.score(*kernel_args(replicated), beta)[0]
        assert b == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize("w", [1, 4])
def test_score_matches_loop_oracle(heart_frame, w):
    replicated = replicate_frame(heart_frame, w)
    rng = np.random.default_rng(4)
    for _ in range(5):
        beta = 0.1 * rng.standard_normal(4)
        ll_o, g_o, h_o = _score_loops(*records(heart_frame), beta, float(w))
        ll, g, h, _ = kernels.score(*kernel_args(replicated), beta)
        assert ll == pytest.approx(ll_o, rel=1e-12)
        np.testing.assert_allclose(g, g_o, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(h, h_o, rtol=1e-10, atol=1e-12)


def test_large_coefficients_do_not_overflow(heart_frame):
    # year ~ 68, so eta ~ 2700; the risk-set max shift must absorb it
    beta = np.array([0.0, 0.0, 0.0, 40.0])
    assert np.isfinite(kernels.score(*kernel_args(heart_frame), beta)[0])


def seeded_records(seed, n, p, scales=None, tied=True, event_share=0.5):
    """start, stop, event and x of n seeded records; about half start late.

    Tied stops are integer days from 1 to 11; otherwise they are continuous.
    Column j of x is standard normal times ``scales[j]`` (1 by default).
    """
    rng = np.random.default_rng(seed)
    stop = rng.integers(1, 12, n).astype(float) if tied else rng.uniform(1.0, 100.0, n)
    start = np.where(rng.random(n) < 0.5, np.floor(stop * rng.random(n)), 0.0)
    event = rng.random(n) < event_share
    x = rng.standard_normal((n, p)) * (np.ones(p) if scales is None else np.asarray(scales))
    return start, stop, event, x


SCALES = [1e-3, 1e-1, 1e1, 1e3]


def edge_records():
    """(name, start, stop, event) of hand frames that hit each branch of the layout.

    Each case asserts the property it is named for, so a change to the data
    cannot quietly lose it.
    """
    # the record on (2, 4] enters at the first event time, so it is not at risk there
    start, stop = np.array([0.0, 0.0, 2.0, 0.0]), np.array([2.0, 3.0, 4.0, 5.0])
    event = np.array([True, True, True, False])
    assert np.isin(start, stop[event]).any()
    yield "starts at an event time", start, stop, event
    # after t = 2 no record starts at or after an event time, so only the
    # first risk set is masked
    start, stop = np.array([0.0, 0.0, 2.5, 0.0, 0.5]), np.array([2.0, 3.0, 4.0, 6.0, 7.0])
    event = np.array([True, False, True, True, True])
    assert kernels.risk_set_layout(start, stop, event).n_late == 1
    yield "no late entrant after t = 2", start, stop, event
    # at t = 3 every record that stops after t enters at or after it: the
    # mask keeps only the record that fails there
    start, stop = np.array([0.0, 3.0, 3.0, 4.0]), np.array([3.0, 5.0, 6.0, 8.0])
    event = np.array([True, True, False, True])
    assert (start[stop > 3.0] >= 3.0).all()
    yield "every later record masked", start, stop, event
    # events and censored records tie at t = 2 and at t = 4
    start = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0])
    stop = np.array([2.0, 2.0, 2.0, 4.0, 4.0, 5.0, 4.0])
    event = np.array([True, False, True, True, False, False, True])
    for t in (2.0, 4.0):
        assert len(set(event[stop == t])) == 2
    yield "tied stops, events and censored", start, stop, event


def kernel_cases(heart_frame):
    """(name, start, stop, event, x, beta) for the comparison with the oracle."""
    rng = np.random.default_rng(11)
    heart = records(heart_frame)
    yield "heart", *heart, 0.1 * rng.standard_normal(4)
    yield "heart, year = 40", *heart, np.array([0.0, 0.0, 0.0, 40.0])
    replicated = replicate_frame(heart_frame, 12)
    _, tied = np.unique(replicated.stop[replicated.event], return_counts=True)
    # a large tied group: one reduceat sum and one d-weighted term per time
    assert tied.max() > 8
    yield "heart x12", *records(replicated), 0.1 * rng.standard_normal(4)
    for seed in range(20):
        yield f"tied, truncated {seed}", *seeded_records(seed, 60, 3), rng.standard_normal(3)
        yield f"continuous, truncated {seed}", *seeded_records(seed, 60, 2, tied=False), \
            rng.standard_normal(2)
        yield f"scales 1e-3..1e3 {seed}", *seeded_records(seed, 80, 4, scales=SCALES), \
            rng.standard_normal(4) / np.array(SCALES)
    yield "p = 0", *seeded_records(1, 40, 0), np.zeros(0)
    yield "no events", *seeded_records(2, 30, 3, event_share=0.0), rng.standard_normal(3)
    for name, start, stop, event in edge_records():
        yield name, start, stop, event, rng.standard_normal((len(stop), 2)), \
            rng.standard_normal(2)


# The kernel adds a risk set's terms in stop order and the oracle in file
# order, so the two agree to round-off, not bit for bit.
def test_score_matches_per_event_time_oracle(heart_frame):
    for name, start, stop, event, x, beta in kernel_cases(heart_frame):
        ll_o, g_o, h_o = score_per_event_time(start, stop, event, x, beta)
        ll, g, h, _ = score_records(start, stop, event, x, beta)
        assert ll == pytest.approx(ll_o, rel=1e-12), name
        np.testing.assert_allclose(g, g_o, rtol=1e-10, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(h, h_o, rtol=1e-10, atol=1e-12, err_msg=name)


def test_no_event_records_score_zero():
    start, stop, event, x = seeded_records(3, 25, 2, event_share=0.0)
    assert not event.any()
    ll, g, h, gain = score_records(start, stop, event, x, np.array([0.5, -0.2]))
    assert ll == gain == 0.0 and type(ll) is type(gain) is float
    assert np.array_equal(g, np.zeros(2)) and np.array_equal(h, np.zeros((2, 2)))


def test_gain_is_the_rise_over_beta_zero(heart_frame):
    for name, start, stop, event, x, beta in kernel_cases(heart_frame):
        layout = kernels.risk_set_layout(start, stop, event)
        ll, _, _, gain = kernels.score(layout, x, beta)
        ll_zero, _, _, gain_zero = kernels.score(layout, x, np.zeros_like(beta))
        assert gain_zero == 0.0, name
        assert gain == pytest.approx(ll - ll_zero, rel=1e-9, abs=1e-12 * abs(ll_zero)), name


# ---- hostile frames ---------------------------------------------------------


def hazard_records(seed, n, b, late_share):
    """start, stop, event and x of n records whose hazard is exp(x @ b).

    x holds a U(-1, 1) and a standard normal column; censoring is U(0, 40),
    and every time is shifted by 1. A share ``late_share`` of the records
    enter at a U(0.5, 0.95) fraction of their stop time (left truncation),
    the rest at 0.
    """
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.uniform(-1.0, 1.0, n), rng.standard_normal(n)])
    failure = rng.exponential(10.0 / np.exp(x @ b))
    censor = rng.uniform(0.0, 40.0, n)
    stop = np.minimum(failure, censor) + 1.0
    event = failure <= censor
    late = rng.random(n) < late_share
    start = np.where(late, stop * rng.uniform(0.5, 0.95, n), 0.0)
    return start, stop, event, x


def hostile_frame(name):
    """A frame that strains the kernel's sums.

    ``truncated``: 90% of the records enter late, so most records enter
    after the first event time and a risk set holds a small share of them.
    ``truncated, tied``: the same records on whole time units (starts
    floored, stops ceiled), so events tie. ``wide span``: a strong effect
    whose fitted linear predictor spans nearly ``cox.MAX_ETA_SPAN``.
    """
    if name == "wide span":
        start, stop, event, x = hazard_records(7, 120, np.array([13.0, 0.3]), 0.0)
    else:
        start, stop, event, x = hazard_records(0, 150, np.array([0.8, -0.5]), 0.9)
        if name == "truncated, tied":
            start, stop = np.floor(start), np.ceil(stop)
    return SurvivalFrame(subject_ids=np.arange(len(stop), dtype=float), start=start,
                         stop=stop, event=event, covariates=x, covariate_names=("u", "z"))


@pytest.mark.parametrize("name", ["truncated", "truncated, tied", "wide span"])
def test_hostile_frame_matches_the_oracles(name):
    frame = hostile_frame(name)
    args = records(frame)
    layout = kernels.risk_set_layout(frame.start, frame.stop, frame.event)
    fit = fit_cox(frame)
    assert fit.omitted == ()
    if name == "wide span":
        span = np.ptp(frame.covariates @ fit.beta)
        assert 0.9 * cox.MAX_ETA_SPAN < span <= cox.MAX_ETA_SPAN
    else:
        assert np.mean(frame.start >= frame.stop[frame.event].min()) > 0.5
        assert (layout.d.max() > 1) == (name == "truncated, tied")
    for beta in (fit.beta, 0.5 * fit.beta):
        ll_o, g_o, h_o = _score_loops(*args, beta, 1.0)
        ll, g, h, _ = kernels.score(layout, frame.covariates, beta)
        assert ll == pytest.approx(ll_o, rel=1e-12)
        np.testing.assert_allclose(g, g_o, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(h, h_o, rtol=1e-10, atol=1e-12)
    assert fit.lr_stat == pytest.approx(breslow_lr_decimal(*args, fit.beta), rel=1e-9, abs=0)
