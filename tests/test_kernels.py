import numpy as np
import pytest

from nfactor import SurvivalFrame, cox, fit_cox, kernels, replicate_frame

from oracles import (_score_loops, breslow_loglik_decimal, breslow_lr_decimal,
                     score_per_event_time)


def records(frame):
    """start, stop, event and x of a frame, the arguments of the loop oracles."""
    return frame.start, frame.stop, frame.event, frame.covariates


def kernel_args(frame):
    """The leading arguments of ``kernels.score`` for a frame: its layout and x in stop order."""
    return kernels.risk_set_layout(frame.start, frame.stop, frame.event, frame.covariates)


def score_records(start, stop, event, x, beta):
    """``kernels.score`` on records, through a layout built for this one call."""
    return kernels.score(*kernels.risk_set_layout(start, stop, event, x), beta)


# The unweighted kernel on the frame replicated w times (tied events) against
# the weighted loop oracle on the frame itself.
@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("w", [1, 4])
def test_score_matches_loop_oracle(heart_frame, w, seed):
    replicated = replicate_frame(heart_frame, w)
    rng = np.random.default_rng(seed)
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
    """(name, start, stop, event) of hand frames at the edges of the risk-set rule.

    Each case asserts the property it is named for, so a change to the data
    cannot quietly lose it.
    """
    # the record on (2, 4] enters at the first event time, so it is not at risk there
    start, stop = np.array([0.0, 0.0, 2.0, 0.0]), np.array([2.0, 3.0, 4.0, 5.0])
    event = np.array([True, True, True, False])
    assert np.isin(start, stop[event]).any()
    yield "starts at an event time", start, stop, event
    # after t = 2 no record starts at or after an event time, so only the
    # first risk set leaves a record out
    start, stop = np.array([0.0, 0.0, 2.5, 0.0, 0.5]), np.array([2.0, 3.0, 4.0, 6.0, 7.0])
    event = np.array([True, False, True, True, True])
    assert (np.unique(stop[event]) <= start.max()).sum() == 1
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
        args = kernels.risk_set_layout(start, stop, event, x)
        ll, _, _, gain = kernels.score(*args, beta)
        ll_zero, _, _, gain_zero = kernels.score(*args, np.zeros_like(beta))
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
    layout, x = kernel_args(frame)
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
        ll, g, h, _ = kernels.score(layout, x, beta)
        assert ll == pytest.approx(ll_o, rel=1e-12)
        np.testing.assert_allclose(g, g_o, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(h, h_o, rtol=1e-10, atol=1e-12)
    assert fit.lr_stat == pytest.approx(breslow_lr_decimal(*args, fit.beta), rel=1e-9, abs=0)


def assert_score_matches_the_oracles(start, stop, event, x, beta):
    """``score`` against both loop oracles, and its gain against two 50-digit likelihoods."""
    ll, g, h, gain = score_records(start, stop, event, x, beta)
    for ll_o, g_o, h_o in (score_per_event_time(start, stop, event, x, beta),
                           _score_loops(start, stop, event, x, beta, 1.0)):
        assert ll == pytest.approx(ll_o, rel=1e-12)
        np.testing.assert_allclose(g, g_o, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(h, h_o, rtol=1e-10, atol=1e-12)
    rise = (breslow_loglik_decimal(start, stop, event, x, beta)
            - breslow_loglik_decimal(start, stop, event, x, np.zeros_like(beta)))
    assert gain == pytest.approx(float(rise), rel=1e-12, abs=0)


def risk_set_masks(start, stop, event):
    """The risk set at each distinct event time, as a mask over the records."""
    return [(start < t) & (t <= stop) for t in np.unique(stop[event])]


def test_risk_sets_are_the_records_at_risk():
    # the records' own indices, laid out in stop order, whose run holds k
    # (entry <= k < leave) must be exactly the records with start < t_k <= stop
    start = np.array([-1.0, -0.0, 0.0, 2.0, 1.0, 0.0, 4.0, 7.0, -0.0, 3.0, 0.5, 2.0, -2.0, -0.5])
    stop = np.array([0.0, 2.0, 3.0, 4.0, 4.0, 4.0, 7.0, 9.0, 7.0, 8.0, 1.5, 5.0, 3.0, -0.0])
    event = np.array([True, True, False, True, True, False, True, False, True, False, False,
                      True, False, True])
    times = np.unique(stop[event])
    zero_starts = np.signbit(start[start == 0.0])
    assert times[0] == 0.0 and zero_starts.any() and not zero_starts.all()  # -0.0, 0.0 at t = 0
    zero_stops = np.signbit(stop[event & (stop == 0.0)])
    assert zero_stops.any() and not zero_stops.all()  # events stop at -0.0 and at 0.0
    assert np.isin(start, times[1:]).sum() >= 3  # starts at later event times
    assert ((start < times[0]) & (stop > times[0])).any()  # at risk from the first time
    assert (start == times[-1]).any()  # enters at the last event time
    assert np.unique(stop[event], return_counts=True)[1].max() > 1  # tied events
    n = len(stop)
    layout, index = kernels.risk_set_layout(start, stop, event, np.arange(n)[:, None])
    assert layout.first.dtype == layout.d.dtype == np.intp
    assert layout.d[0] == 2  # the events at -0.0 and 0.0 are one time
    got = [np.sort(index[(layout.entry <= k) & (k < layout.leave), 0])
           for k in range(len(layout.d))]
    want = [np.flatnonzero(mask) for mask in risk_set_masks(start, stop, event)]
    assert len(got) == len(want) == len(times)
    for k, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"t = {times[k]}"


def truncated_records(rng, n):
    """start, stop and event of n records stopping in (1, 100), 30% left-truncated."""
    stop = rng.uniform(1.0, 100.0, n)
    start = np.where(rng.random(n) < 0.3, stop * rng.uniform(0.2, 0.9, n), 0.0)
    return start, stop, rng.random(n) < 0.6


def test_far_spread_risk_sets_match_the_oracles():
    # the records that stop before t = 50 have x_0 = 8 and the rest x_0
    # within 0.1 of 0, so at beta_0 = 200 every risk set after t = 50 lies
    # far below the early records: one shift of every exp by the largest eta
    # over all records would round its sums to 0
    rng = np.random.default_rng(0)
    n = 240
    start, stop, event = truncated_records(rng, n)
    x = np.column_stack([np.where(stop < 50.0, 8.0, rng.uniform(-0.1, 0.1, n)),
                         rng.standard_normal(n)])
    beta = np.array([200.0, 0.7])
    eta = x @ beta
    assert np.ptp(eta) > 1500
    assert min(eta[risk].max() for risk in risk_set_masks(start, stop, event)) < eta.max() - 745
    assert_score_matches_the_oracles(start, stop, event, x, beta)


def test_a_covariate_that_tracks_the_stop_times_matches_the_oracles():
    # x_0 = -stop plus noise, so at beta_0 = 20 each risk set's weight sits
    # on its few earliest stops, whose x_0 nearly agree and lie far from 0:
    # an uncentred S2/S0 - (S1/S0)^2 puts the Hessian some 6e-10 off there
    rng = np.random.default_rng(0)
    n = 240
    start, stop, event = truncated_records(rng, n)
    x = np.column_stack([-stop + 3.0 * rng.standard_normal(n), rng.standard_normal(n)])
    assert_score_matches_the_oracles(start, stop, event, x, np.array([20.0, 0.7]))


def test_late_entrants_that_outweigh_the_risk_set_match_the_oracles():
    # 60 records from 0 with u near 0 stop before 80; 240 enter between 80
    # and 90 with u near 1 (80% left-truncated). At beta_u = 20 the records
    # not yet entered outweigh the few still at risk by far, so "stop >= t"
    # less "start >= t" would cancel every digit of the risk set's sums
    rng = np.random.default_rng(0)
    n_early, n_late = 60, 240
    entry = rng.uniform(80.0, 90.0, n_late)
    start = np.concatenate([np.zeros(n_early), entry])
    stop = np.concatenate([rng.uniform(1.0, 80.0, n_early),
                           entry + 0.01 + rng.exponential(5.0, n_late)])
    event = rng.random(n_early + n_late) < 0.7
    u = np.repeat([0.0, 1.0], [n_early, n_late]) + 0.2 * rng.standard_normal(n_early + n_late)
    x = np.column_stack([u, rng.standard_normal(n_early + n_late)])
    beta = np.array([20.0, -0.5])
    weight = np.exp(x @ beta - (x @ beta).max())
    waiting_over_at_risk = [weight[start >= t].sum() / weight[risk].sum()
                            for t, risk in zip(np.unique(stop[event]),
                                               risk_set_masks(start, stop, event))]
    assert max(waiting_over_at_risk) >= 1e6
    assert_score_matches_the_oracles(start, stop, event, x, beta)


def test_records_that_have_left_and_outweigh_the_risk_set_match_the_oracles():
    # the mirror of the late entrants: 240 records from 0 with u near 1 stop
    # before 20; 60 from 0 with u near 0 run to 30-100. At beta_u = 20 the
    # records that have left outweigh the few still at risk by far. The two
    # hazards differ: a forward sum over the records entered, less those that
    # have left, cancels here; a suffix sum over "stop >= t", less the records
    # waiting to enter, cancels on the late entrants
    rng = np.random.default_rng(0)
    n_heavy, n_light = 240, 60
    start = np.zeros(n_heavy + n_light)
    stop = np.concatenate([rng.uniform(1.0, 20.0, n_heavy), rng.uniform(30.0, 100.0, n_light)])
    event = rng.random(n_heavy + n_light) < 0.7
    u = np.repeat([1.0, 0.0], [n_heavy, n_light]) + 0.2 * rng.standard_normal(n_heavy + n_light)
    x = np.column_stack([u, rng.standard_normal(n_heavy + n_light)])
    beta = np.array([20.0, -0.5])
    weight = np.exp(x @ beta - (x @ beta).max())
    left_over_at_risk = [weight[stop < t].sum() / weight[risk].sum()
                         for t, risk in zip(np.unique(stop[event]),
                                            risk_set_masks(start, stop, event))]
    assert max(left_over_at_risk) >= 1e13
    assert_score_matches_the_oracles(start, stop, event, x, beta)


# ---- invariances at 2,000 records -------------------------------------------


def split_at_event_times(start, stop, event, x):
    """Cut each record (s, e] at the last event time c with s < c < e, if any.

    The pieces are (s, c] without an event and (c, e] with the record's flag;
    both hold the record's covariates (and would hold its id, which the
    kernel does not read). Every risk set, and so the score, is unchanged.
    """
    times = np.unique(stop[event])
    last = np.searchsorted(times, stop, side="left") - 1
    cut = times[np.maximum(last, 0)]
    inside = (last >= 0) & (cut > start)
    return (np.concatenate([start, cut[inside]]),
            np.concatenate([np.where(inside, cut, stop), stop[inside]]),
            np.concatenate([event & ~inside, event[inside]]),
            np.concatenate([x, x[inside]]))


def late_record(start, stop, event, x):
    """The records and one more, (t, t + 1] without an event, t the last event time."""
    t = stop[event].max()
    return (np.append(start, t), np.append(stop, t + 1.0), np.append(event, False),
            np.vstack([x, [[0.3, -1.2]]]))


# Changes of the records that leave every risk set as it is, checked in O(n)
# each at 2,000 records with continuous times and 40% left truncation: the
# episode split, a record that enters at the last event time, and a
# permutation. The work is bounded by the number of score calls.
def test_score_is_invariant_to_record_changes(monkeypatch):
    calls = []
    score = kernels.score

    def counted(*args):
        calls.append(args)
        return score(*args)

    monkeypatch.setattr(kernels, "score", counted)
    b = np.array([0.8, -0.5])
    original = hazard_records(3, 2000, b, 0.4)
    rng = np.random.default_rng(5)
    betas = (b, 0.5 * b, rng.standard_normal(2))
    split = split_at_event_times(*original)
    assert len(split[0]) == 2000 + 1997
    order = rng.permutation(2000)
    changed = {
        "split": split,
        "late record": late_record(*original),
        "permutation": [column[order] for column in original],
    }
    want = [score_records(*original, beta) for beta in betas]
    for name, args in changed.items():
        for beta, (ll_w, g_w, h_w, gain_w) in zip(betas, want):
            ll, g, h, gain = score_records(*args, beta)
            where = f"{name} at beta {beta}"
            assert ll == pytest.approx(ll_w, rel=1e-12, abs=0), where
            np.testing.assert_allclose(g, g_w, rtol=1e-10, atol=1e-12, err_msg=where)
            np.testing.assert_allclose(h, h_w, rtol=1e-10, atol=1e-12, err_msg=where)
            assert gain == pytest.approx(gain_w, rel=1e-10, abs=0), where
    assert len(calls) == 12
