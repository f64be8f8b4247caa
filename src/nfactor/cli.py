"""Command-line front end.

A request runs to one report document, the dict that ``--format json``
prints; the text format is rendered from the same document. Its
``warnings`` are the labels the fit returned (``"ties"``, ``"degenerate"``);
any other warning raised on the way goes to the process's own filters.

Exit codes, all decided in ``run``: 0 on success, 1 on input or model
errors (one diagnostic line on stderr, naming the stage that failed once the
command line has parsed), 2 when no weight up to the cap reaches the target
significance (the report is still written, with the best p-value found).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .cox import CoxFit, fit_cox
from .data import MAX_WEIGHT, load_csv, stset_reconstruct, survival_frame_from_intervals
from .errors import NfactorError
from .linear import INTERCEPT, LinearFit, fit_wls
from .search import DEFAULT_MAX_WEIGHT, compute_nf

COX_LR = "cox-lr"
LINEAR_WALD = "linear-wald"


class CliError(NfactorError):
    """Invalid command line or option combination."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built on the first request and reused: parse_args returns a fresh
    # Namespace each time, and _parse changes only that namespace.
    parser = _Parser(
        prog="nfactor",
        description=(
            "Compute the non-significance factor: the smallest frequency "
            "weight under which the chosen test becomes significant."
        ),
    )
    parser.add_argument("--model", required=True, choices=[COX_LR, LINEAR_WALD])
    parser.add_argument("--data", required=True, help="input CSV with a header row")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="target significance level (default 0.05)")
    parser.add_argument("--max-weight", type=int, default=DEFAULT_MAX_WEIGHT,
                        help="largest weight tried before giving up (at most 2**53)")
    intervals = parser.add_mutually_exclusive_group()
    intervals.add_argument("--time", help="last-observation time column (cox-lr)")
    parser.add_argument("--event", help="event flag column (cox-lr)")
    parser.add_argument("--id", dest="id_col", help="subject id column (cox-lr)")
    parser.add_argument("--covariates", default="",
                        help="comma-separated covariate columns")
    intervals.add_argument("--explicit-intervals", metavar="START,STOP",
                           help="use explicit start/stop columns instead of "
                                "reconstructing intervals from --time")
    parser.add_argument("--response", help="response column (linear-wald)")
    parser.add_argument("--wald-coefficient",
                        help=f"coefficient to test (default: {INTERCEPT})")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse a command line and check that its options fit together.

    Each model refuses the other model's options. ``covariates`` becomes a
    list of names, and ``intervals`` the interval columns under the names
    the report's spec uses: ``{"time": ...}``, ``{"start": ..., "stop": ...}``
    from ``--explicit-intervals``, or None when neither option is given. A
    linear-wald request without ``--wald-coefficient`` tests the intercept.
    ``columns`` is the spec's columns block, in report order.
    """
    args = _build_parser().parse_args(argv)
    foreign = {
        COX_LR: (("--response", args.response), ("--wald-coefficient", args.wald_coefficient)),
        LINEAR_WALD: (("--time", args.time), ("--explicit-intervals", args.explicit_intervals),
                      ("--event", args.event), ("--id", args.id_col)),
    }[args.model]
    given = [flag for flag, value in foreign if value is not None]
    if given:
        raise CliError(f"model {args.model} does not take {', '.join(given)}")
    args.intervals = None if args.time is None else {"time": args.time}
    if args.explicit_intervals is not None:
        parts = [s.strip() for s in args.explicit_intervals.split(",")]
        if len(parts) != 2 or not all(parts):
            raise CliError("--explicit-intervals expects two column names: START,STOP")
        args.intervals = dict(zip(("start", "stop"), parts))
    args.covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    if not 0.0 < args.alpha < 1.0:
        raise CliError("target significance must lie in (0,1)")
    if not 1 <= args.max_weight <= MAX_WEIGHT:
        raise CliError("--max-weight must be an integer from 1 to 2**53")
    if args.model == COX_LR:
        missing = [flag for flag, value in (("--time", args.intervals), ("--event", args.event),
                                            ("--id", args.id_col)) if value is None]
        if missing:
            raise CliError(f"model {COX_LR} requires {', '.join(missing)}")
        if not args.covariates:
            raise CliError(f"model {COX_LR} requires --covariates")
        args.columns = {**args.intervals, "event": args.event, "id": args.id_col,
                        "covariates": args.covariates}
    else:
        if args.response is None:
            raise CliError(f"model {LINEAR_WALD} requires --response")
        if args.wald_coefficient is None:
            args.wald_coefficient = INTERCEPT
        args.columns = {"response": args.response, "covariates": args.covariates,
                        "wald_coefficient": args.wald_coefficient}
    return args


# NfResult fields a report carries, in report order.
_NF_KEYS = ("p_at_1", "w0", "p0", "w1", "p1", "w_int", "n_int", "nf_integer", "exact_hit")


# ---- report emission --------------------------------------------------------


def _fit_json(fit: CoxFit | LinearFit) -> dict:
    if isinstance(fit, CoxFit):
        block = {
            "n_subjects": fit.n_subjects,
            "n_failures": fit.n_failures,
            "iterations": fit.iterations,
            "loglik_null": fit.loglik_null,
            "loglik_full": fit.loglik_full,
            "lr_stat": fit.lr_stat,
            "lr_df": fit.lr_df,
            "p_lr": fit.p_lr,
        }
        names = fit.covariate_names
        per_term = {"beta": fit.beta, "hazard_ratio": fit.hazard_ratios, "se_beta": fit.se_beta,
                    "z": fit.z_stats, "p": fit.p_wald}
    else:
        block = {
            "weighted_n": fit.weighted_n,
            "df_residual": fit.df_residual,
            "residual_ss": fit.residual_ss,
            "root_mse": fit.root_mse,
        }
        names = fit.term_names
        per_term = {"coef": fit.coefficients, "se": fit.standard_errors, "t": fit.t_stats,
                    "p": fit.p_values}
    block["coefficients"] = [
        {"name": name, **{key: float(values[i]) for key, values in per_term.items()}}
        for i, name in enumerate(names)
    ]
    block["omitted"] = list(fit.omitted)
    return block


def _fmt(value, decimals=4) -> str:
    # fixed-point formatting spells non-finite values inf, -inf and nan
    return f"{value:.{decimals}f}"


def _p(value) -> str:
    return f"{value:.3e}" if 0 < value < 5e-5 else _fmt(value)


# A table's estimate and std. err. print in fixed point while that fits
# their 10-character columns; from 1e5 up, and when not finite, they print
# as 1.463e+272 or inf. A small-unit covariate can have a hazard ratio of
# hundreds of digits.
_FIXED_POINT_BELOW = 1e5


def _cell(value) -> str:
    return _fmt(value) if abs(value) < _FIXED_POINT_BELOW else f"{value:.3e}"


def _text_lines(doc: dict) -> list[str]:
    spec, fit = doc["spec"], doc["fit"]
    lines = [
        "non-significance factor report",
        f"model: {spec['model']}   data: {spec['data']}   "
        f"target alpha: {_p(doc['target_alpha'])}",
        "",
    ]
    if spec["model"] == COX_LR:
        lines.append(
            f"cox fit at weight 1: {_fmt(fit['n_subjects'], 0)} subjects, "
            f"{_fmt(fit['n_failures'], 0)} failures"
        )
        header = ("covariate", "haz. ratio", "z", "P>|z|")
        # the std. err. of the hazard ratio; a beta that maps back to -inf has
        # a hazard ratio of 0 and an infinite se, whose product would be nan
        rows = [(c["name"], c["hazard_ratio"],
                 math.inf if math.isinf(c["se_beta"]) else c["hazard_ratio"] * c["se_beta"],
                 c["z"], c["p"]) for c in fit["coefficients"]]
        footer = (
            f"  log likelihood {_fmt(fit['loglik_full'])} (null {_fmt(fit['loglik_null'])})   "
            f"LR chi2({fit['lr_df']}) = {_fmt(fit['lr_stat'])}   p = {_p(fit['p_lr'])}"
        )
    else:
        lines.append(
            f"regression fit at weight 1: weighted n = {_fmt(fit['weighted_n'], 0)}, "
            f"df = {_fmt(fit['df_residual'], 0)}, root mse = {_fmt(fit['root_mse'])}"
        )
        header = ("term", "coef.", "t", "P>|t|")
        rows = [(c["name"], c["coef"], c["se"], c["t"], c["p"]) for c in fit["coefficients"]]
        footer = f"  tested coefficient: {spec['columns']['wald_coefficient']}"
    term, estimate, stat, p = header
    lines.append(f"  {term:<12} {estimate:>10} {'std. err.':>10} {stat:>7} {p:>7}")
    for term, estimate, se, stat, p in rows:
        lines.append(
            f"  {term:<12} {_cell(estimate):>10} {_cell(se):>10} "
            f"{_fmt(stat, 2):>7} {_fmt(p, 3):>7}"
        )
    lines += [f"  {term:<12} {'(omitted)':>10}" for term in fit["omitted"]]
    lines += [footer, ""]

    if "best_p" in doc:
        lines.append(
            f"target not reached up to weight {doc['max_weight']}: "
            f"best p = {_p(doc['best_p'])}"
        )
    else:
        if doc["w0"] is None:
            lines.append(
                f"already significant at weight 1: p = {_p(doc['p_at_1'])} "
                f"<= {_p(doc['target_alpha'])}"
            )
        else:
            lines.append(
                f"bracket: w0 = {doc['w0']} (p = {_p(doc['p0'])})   "
                f"w1 = {doc['w1']} (p = {_p(doc['p1'])})"
            )
        lines.append(
            f"nf_integer = {doc['nf_integer']}   w_int = {_fmt(doc['w_int'])}   "
            f"n_int = {_fmt(doc['n_int'])}"
        )
    trace = "; ".join(f"w={w} p={_p(p)}" for w, p in doc["trace"])
    lines.append(f"trace: {trace}")
    if doc["warnings"]:
        lines.append("warnings: " + ", ".join(doc["warnings"]))
    lines.append("")
    return lines


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(value) for value in obj]
    return obj


def emit_report(document: dict, format: str = "text") -> str:
    """Render a report document as display text or as single-line JSON.

    The document is what ``--format json`` prints: ``spec`` (the request),
    ``fit`` (the weight-1 fit), ``target_alpha``, the NF outcome (``p_at_1``,
    ``w0``, ``p0``, ``w1``, ``p1``, ``w_int``, ``n_int``, ``nf_integer``,
    ``exact_hit``), ``trace`` and ``warnings``, plus ``best_p`` and
    ``max_weight`` when the target is unreachable. JSON spells each float in
    its shortest round-trip form, non-finite ones as null; text rounds, prints
    ``inf`` or ``nan``, and uses exponent form for a table's estimates and
    standard errors from 1e5 up and for other p-values in (0, 5e-5).
    """
    if format == "json":
        return json.dumps(_finite_or_null(document), ensure_ascii=False, allow_nan=False) + "\n"
    if format == "text":
        return "\n".join(_text_lines(document))
    raise ValueError(f"unknown report format {format!r}")


def run(argv) -> int:
    """Execute a command line; returns the process exit code.

    ``stage`` names the step under way (load, frame, fit, search, report);
    this is the one place that decides a request's error line and exit code.
    The argument parser is built on the first call and reused after it.
    """
    stage = ""
    try:
        args = _parse(argv)
        stage = "load"
        if args.model == COX_LR:
            intervals = list(args.intervals.values())
            data = load_csv(args.data, [args.event, args.id_col, *args.covariates, *intervals])
            stage = "frame"
            build = survival_frame_from_intervals if "stop" in args.intervals else stset_reconstruct
            frame = build(data, *intervals, args.event, args.id_col, args.covariates)
            stage = "fit"
            fit = fit_cox(frame)
        else:
            data = load_csv(args.data, [args.response, *args.covariates])
            stage = "fit"
            fit = fit_wls(data, args.response, args.covariates, args.wald_coefficient)

        stage = "search"
        nf = compute_nf(fit.p_at, data.n_rows, args.alpha, args.max_weight)

        stage = "report"
        document = {
            "spec": {
                "model": args.model,
                "data": args.data,
                "target_alpha": args.alpha,
                "max_weight": args.max_weight,
                "columns": args.columns,
            },
            "fit": _fit_json(fit),
            "target_alpha": args.alpha,
            **{key: getattr(nf, key) for key in _NF_KEYS},
            "trace": [[w, p] for w, p in nf.trace],
            "warnings": list(fit.warnings),
        }
        if nf.w1 is None:
            document |= {"best_p": nf.best_p, "max_weight": args.max_weight}
        report = emit_report(document, args.format)
    except NfactorError as exc:
        where = f"{stage}: " if stage else ""
        print(f"nfactor: error: {where}{exc}", file=sys.stderr)
        return 1
    sys.stdout.write(report)
    return 2 if nf.w1 is None else 0


def main():  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
