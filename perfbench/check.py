"""Answer checks that do not share code with the program under test.

Every check recomputes what a report claims from the input CSV with numpy and
scipy: a plain Breslow log partial likelihood for Cox, ``numpy.linalg.lstsq``
for least squares, and scipy's chi-square and t tails for p-values. Each
function returns a list of problems; an empty list means the report is right.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np
from scipy import stats

# Round-off budgets. Cox p-values come from independently converged fits at
# each weight, so they get a relative budget well above Newton's tolerance.
# w_int must match the interpolation of the oracle's p-values to the four
# decimals that the report and the paper print. n_int is closed-form in the
# reported w_int.
P_RTOL = 1e-6
P_ATOL = 1e-12
W_INT_ATOL = 0.5e-4
LL_RTOL = 1e-9
EXACT_RTOL = 1e-12
# Newton decrement g'H^-1g at the reported beta: twice the log-likelihood a
# further Newton step could still gain.
DECREMENT_TOL = 1e-6
TEXT_ATOL = 0.5e-4  # text reports round to 4 decimals

# The paper's reference numbers on the bundled data.
STAN30_FULL_GOLDEN = {"w0": 4, "w1": 5, "w_int": 4.7512, "n_int": 142.5353}
LINEAR30_NF = 17


def _close(a, b, rtol, atol=0.0) -> bool:
    return a is not None and b is not None and abs(a - b) <= atol + rtol * abs(b)


@lru_cache(maxsize=8)
def read_csv(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path) as fh:
        header = tuple(h.strip() for h in fh.readline().split(","))
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, table


def _column(path: str, name: str) -> np.ndarray:
    header, table = read_csv(path)
    return table[:, header.index(name)]


# ---- Cox ------------------------------------------------------------------


@lru_cache(maxsize=8)
def _intervals(path: str, time_col: str, event_col: str, id_col: str):
    stop = _column(path, time_col)
    ids = _column(path, id_col)
    start = np.zeros_like(stop)
    last: dict[float, float] = {}
    for i, sid in enumerate(ids):
        start[i] = last.get(sid, 0.0)
        last[sid] = stop[i]
    return start, stop, _column(path, event_col) == 1.0


def breslow(start, stop, event, x, beta):
    """Log partial likelihood, score and information at weight 1 (Breslow ties)."""
    eta = x @ beta
    t = stop[event]
    at_risk = (start[None, :] < t[:, None]) & (t[:, None] <= stop[None, :])
    shift = np.where(at_risk, eta[None, :], -np.inf).max(axis=1)
    r = np.where(at_risk, np.exp(eta[None, :] - shift[:, None]), 0.0)
    s0 = r.sum(axis=1)
    xbar = (r @ x) / s0[:, None]
    ll = float((eta[event] - shift - np.log(s0)).sum())
    grad = (x[event] - xbar).sum(axis=0)
    s2 = np.einsum("ej,ja,jb->ab", r / s0[:, None], x, x)
    info = s2 - xbar.T @ xbar
    return ll, grad, info


def cox_p(w, lr_stat, lr_df) -> float:
    return 1.0 if lr_df == 0 else float(stats.chi2.sf(w * lr_stat, lr_df))


def check_cox(doc: dict, path: str, time_col: str, event_col: str, id_col: str,
              covariates, alpha: float, deviations: list | None = None) -> list[str]:
    problems = []
    fit = doc["fit"]
    names = [c["name"] for c in fit["coefficients"]]
    if sorted(names + fit["omitted"]) != sorted(covariates):
        problems.append(f"kept {names} + omitted {fit['omitted']} != {list(covariates)}")
        return problems
    start, stop, event = _intervals(path, time_col, event_col, id_col)
    x = np.column_stack([_column(path, n) for n in names]) if names \
        else np.empty((len(stop), 0))
    beta = np.array([c["beta"] for c in fit["coefficients"]])
    ll0, _, _ = breslow(start, stop, event, x, np.zeros(len(names)))
    ll1, grad, info = breslow(start, stop, event, x, beta)
    if not _close(fit["loglik_null"], ll0, LL_RTOL, LL_RTOL):
        problems.append(f"loglik_null {fit['loglik_null']} != Breslow {ll0}")
    if not _close(fit["loglik_full"], ll1, LL_RTOL, LL_RTOL):
        problems.append(f"loglik_full {fit['loglik_full']} != Breslow {ll1}")
    if names and float(grad @ np.linalg.solve(info, grad)) > DECREMENT_TOL:
        problems.append("reported beta is not a maximum of the partial likelihood")
    lr_stat, lr_df = 2.0 * (ll1 - ll0), len(names)
    if fit["lr_df"] != lr_df or not _close(fit["lr_stat"], lr_stat, 1e-6, 1e-9):
        problems.append(f"LR {fit['lr_stat']} on {fit['lr_df']} df != {lr_stat} on {lr_df}")
    problems += check_nf(doc, len(stop), alpha, lambda w: cox_p(w, lr_stat, lr_df),
                         deviations)
    return problems


# ---- weighted least squares ----------------------------------------------


@lru_cache(maxsize=8)
def _ols(path: str, response: str, covariates: tuple[str, ...]):
    y = _column(path, response)
    x = np.column_stack([np.ones(len(y))] + [_column(path, c) for c in covariates])
    coef, rss, _, _ = np.linalg.lstsq(x, y, rcond=None)
    return coef, float(rss[0]), np.diag(np.linalg.inv(x.T @ x)), len(y)


def linear_p(path, response, covariates, index, w) -> float:
    coef, rss, diag, n = _ols(path, response, tuple(covariates))
    df = w * n - len(coef)
    t = coef[index] / math.sqrt(rss * diag[index] / df)
    return float(2.0 * stats.t.sf(abs(t), df))


def check_linear(doc: dict, path: str, response: str, covariates, coefficient: str,
                 alpha: float, deviations: list | None = None) -> list[str]:
    terms = ["intercept", *covariates]
    index = terms.index(coefficient)
    coef, _, _, n = _ols(path, response, tuple(covariates))
    reported = {c["name"]: c["coef"] for c in doc["fit"]["coefficients"]}
    problems = []
    if not _close(reported.get(coefficient), float(coef[index]), 1e-8, 1e-12):
        problems.append(f"{coefficient} = {reported.get(coefficient)} != lstsq {coef[index]}")
    problems += check_nf(doc, n, alpha,
                         lambda w: linear_p(path, response, covariates, index, w),
                         deviations)
    return problems


# ---- the NF bracket --------------------------------------------------------


def interpolate(w0: int, p0: float, w1: int, p1: float, alpha: float) -> float:
    """The weight at which the line through (w0, p0) and (w1, p1) meets alpha."""
    return (w0 * (alpha - p1) + w1 * (p0 - alpha)) / (p0 - p1)


def check_nf(doc: dict, n_rows: int, alpha: float, p_of_weight,
             deviations: list | None = None) -> list[str]:
    """The reported NF against the oracle ``p_of_weight``.

    Checks bracket sanity, every traced p-value plus ``p0``/``p1``, and
    ``w_int`` against the interpolation of the oracle's p-values. When a
    list is given, appends ``("p", relative deviation, weight)`` for each
    p-value and ``("w_int", absolute deviation, weight)`` to ``deviations``.
    """
    problems = []
    oracle = {}

    def p_ok(w, p, what) -> None:
        oracle.setdefault(w, p_of_weight(w))
        if deviations is not None and oracle[w] > 0:
            deviations.append(("p", abs(p - oracle[w]) / oracle[w], w))
        if not _close(p, oracle[w], P_RTOL, P_ATOL):
            problems.append(f"{what} = {p} != oracle {oracle[w]}")

    for w, p in doc["trace"]:
        p_ok(w, p, f"p({w})")
    if doc["w1"] is None:  # exit 2: nothing up to the cap is significant
        weights = [w for w, _ in doc["trace"]]
        if max(weights, default=0) != doc["max_weight"] or doc["best_p"] <= alpha:
            problems.append("unreachable report without a non-significant cap")
        if p_of_weight(doc["max_weight"]) <= alpha:
            problems.append(f"oracle reaches alpha by weight {doc['max_weight']}")
        return problems
    w0, w1, p0, p1 = doc["w0"], doc["w1"], doc["p0"], doc["p1"]
    w_int, n_int = doc["w_int"], doc["n_int"]
    p_ok(w1, p1, "p1")
    if w0 is None:
        if not (w1 == 1 and p1 <= alpha and w_int == 1.0):
            problems.append("already-significant report is inconsistent")
    else:
        p_ok(w0, p0, "p0")
        if not (w1 == w0 + 1 and p0 > alpha >= p1 and w0 <= w_int <= w1):
            problems.append(f"bad bracket W0={w0} p0={p0} W1={w1} p1={p1} w_int={w_int}")
        if oracle[w0] <= alpha:
            problems.append(f"oracle is already significant at W0={w0}")
        else:
            expected = interpolate(w0, oracle[w0], w1, oracle[w1], alpha)
            if deviations is not None:
                deviations.append(("w_int", abs(w_int - expected), w0))
            if not abs(w_int - expected) <= W_INT_ATOL:
                problems.append(f"w_int {w_int} != oracle interpolation {expected}")
    if oracle[w1] > alpha:
        problems.append(f"oracle is not significant at W1={w1}")
    if doc["nf_integer"] != w1 or not _close(n_int, n_rows * w_int, EXACT_RTOL):
        problems.append(f"nf_integer {doc['nf_integer']} / n_int {n_int} disagree with "
                        f"W1={w1}, {n_rows} rows x w_int={w_int}")
    return problems


_TEXT_BRACKET = re.compile(
    r"bracket: w0 = (\d+) \(p = ([\d.]+)\)\s+w1 = (\d+) \(p = ([\d.]+)\)")
_TEXT_NF = re.compile(r"nf_integer = (\d+)\s+w_int = ([\d.]+)\s+n_int = ([\d.]+)")


def parse_text_report(text: str) -> dict | None:
    bracket, nf = _TEXT_BRACKET.search(text), _TEXT_NF.search(text)
    if not (bracket and nf):
        return None
    return {
        "w0": int(bracket[1]), "p0": float(bracket[2]),
        "w1": int(bracket[3]), "p1": float(bracket[4]),
        "nf_integer": int(nf[1]), "w_int": float(nf[2]), "n_int": float(nf[3]),
    }


def check_linear_text(text: str, path: str, response: str, covariates,
                      coefficient: str, alpha: float) -> list[str]:
    doc = parse_text_report(text)
    if doc is None:
        return ["text report has no bracket / nf line"]
    index = ["intercept", *covariates].index(coefficient)
    n = _ols(path, response, tuple(covariates))[3]
    problems, oracle = [], {}
    for key, w in (("p0", doc["w0"]), ("p1", doc["w1"])):
        oracle[key] = linear_p(path, response, covariates, index, w)
        if abs(doc[key] - oracle[key]) > TEXT_ATOL:
            problems.append(f"text {key} {doc[key]} != oracle {oracle[key]:.4f}")
    expected = interpolate(doc["w0"], oracle["p0"], doc["w1"], oracle["p1"], alpha)
    if abs(doc["w_int"] - expected) > W_INT_ATOL + TEXT_ATOL:
        problems.append(f"text w_int {doc['w_int']} != oracle interpolation {expected:.4f}")
    if not (doc["w1"] == doc["w0"] + 1 == doc["nf_integer"]
            and doc["p0"] >= alpha >= doc["p1"]):
        problems.append(f"text bracket inconsistent: {doc}")
    if abs(doc["n_int"] - n * doc["w_int"]) > TEXT_ATOL * (1 + n):
        problems.append(f"text n_int {doc['n_int']} != {n} x {doc['w_int']}")
    return problems


def check_goldens(doc: dict, label: str) -> list[str]:
    """The paper's numbers, for the bundled inputs that have them."""
    if label == "stan30:age,posttran,surgery,year":
        got = {k: doc[k] for k in STAN30_FULL_GOLDEN}
        got["w_int"], got["n_int"] = round(got["w_int"], 4), round(got["n_int"], 4)
        if got != STAN30_FULL_GOLDEN:
            return [f"stan30 full model {got} != paper {STAN30_FULL_GOLDEN}"]
    if label.startswith("linear30") and doc["nf_integer"] != LINEAR30_NF:
        return [f"linear30 NF {doc['nf_integer']} != paper {LINEAR30_NF}"]
    return []
