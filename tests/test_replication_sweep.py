"""Replication equivalence on seeded frames at raw scale.

Every answer rests on the closed form ``p_at(w)``: the p-value that a fit
of every row repeated w times would give. Here it is checked against that
brute-force fit on synthetic frames like the bundled ones, where the
covariates are far from centred and the times are whole days that tie.
"""

import numpy as np
import pytest

from nfactor import Dataset, fit_cox, fit_wls, replicate, replicate_frame, stset_reconstruct

from conftest import COVARIATES

WEIGHTS = (2, 3, 7, 16)


def synthetic_stan(rng, n_subjects=60):
    """A last-observation Dataset in the layout of the bundled stan30 extract.

    Covariates are at raw scale (age in years, two-digit calendar year) and
    fixed per subject; times are whole days, so event times tie. About 40%
    of subjects carry two records. True effects are drawn near zero, so the
    weight-1 test ranges from significant to needing many copies.
    """
    age = rng.integers(18, 71, n_subjects).astype(float)
    year = rng.integers(67, 75, n_subjects).astype(float)
    surgery = (rng.random(n_subjects) < 0.2).astype(float)
    posttran = (rng.random(n_subjects) < 0.5).astype(float)
    x = np.column_stack([age, posttran, surgery, year])
    beta = rng.normal(0.0, 0.02, 4) / x.std(axis=0).clip(min=1e-9)
    event_time = np.ceil(rng.exponential(300.0, n_subjects) * np.exp(-(x - x.mean(axis=0)) @ beta))
    censor_time = rng.integers(30, 1500, n_subjects).astype(float)
    died = (event_time <= censor_time).astype(float)
    t_last = np.maximum(np.where(died == 1.0, event_time, censor_time), 2.0)
    t_first = np.floor(rng.random(n_subjects) * (t_last - 1.0)) + 1.0

    # a two-record subject's first row is censored at t_first
    records = np.repeat(np.arange(n_subjects), np.where(rng.random(n_subjects) < 0.4, 2, 1))
    last = np.append(records[1:] != records[:-1], True)
    columns = {"id": records + 1.0, "t1": np.where(last, t_last[records], t_first[records]),
               "died": np.where(last, died[records], 0.0)}
    columns |= {name: x[records, j] for j, name in enumerate(COVARIATES)}
    return Dataset(columns)


@pytest.mark.parametrize("seed", range(12))
def test_cox_p_at_is_the_replicated_fit(seed):
    frame = stset_reconstruct(synthetic_stan(np.random.default_rng(seed)),
                              "t1", "died", "id", COVARIATES)
    # fit_cox raises NotConverged or MonotoneLikelihood on a fit that does not converge
    base = fit_cox(frame)
    for w in WEIGHTS:
        replicated = fit_cox(replicate_frame(frame, w))
        assert replicated.p_lr == pytest.approx(base.p_at(w), rel=1e-8, abs=0), w


def synthetic_linear(rng, n_rows=60):
    """A regression Dataset whose covariates sit far from zero.

    ``income`` spreads by 1e4 around 5e4; age and year are whole numbers at
    raw scale, as in the Cox frames. The response carries a small effect of
    each standardised covariate over unit noise.
    """
    income = rng.normal(5e4, 1e4, n_rows)
    age = rng.integers(18, 71, n_rows).astype(float)
    year = rng.integers(67, 75, n_rows).astype(float)
    x = np.column_stack([income, age, year])
    y = 2.0 + (x - x.mean(axis=0)) / x.std(axis=0) @ rng.normal(0.0, 0.1, 3) \
        + rng.standard_normal(n_rows)
    return Dataset({"y": y, "income": income, "age": age, "year": year})


@pytest.mark.parametrize("seed", range(6))
def test_linear_p_at_is_the_replicated_fit(seed):
    d = synthetic_linear(np.random.default_rng(seed))
    covariates = ("income", "age", "year")
    terms = fit_wls(d, "y", covariates).term_names
    assert len(terms) == 4
    profiles = [fit_wls(d, "y", covariates, term) for term in terms]
    for w in WEIGHTS:
        replicated = fit_wls(replicate(d, w), "y", covariates)
        np.testing.assert_allclose(
            replicated.p_values, [fit.p_at(w) for fit in profiles], rtol=1e-8, atol=0,
            err_msg=f"w={w}",
        )
