"""Command-line front end.

Exit codes: 0 on success, 1 on input or model errors (diagnostic on stderr),
2 when no weight up to the cap reaches the target significance (the report
is still written, with the best p-value found).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass

from .cox import CoxFit, fit_cox
from .data import MAX_WEIGHT, load_csv, stset_reconstruct, survival_frame_from_intervals
from .errors import DegenerateTestWarning, NfactorError, TiesWarning, UnreachableSignificance
from .linear import INTERCEPT, LinearFit, fit_wls
from .search import DEFAULT_MAX_WEIGHT, NfResult, compute_nf

COX_LR = "cox-lr"
LINEAR_WALD = "linear-wald"


class CliError(NfactorError):
    """Invalid command line or option combination."""


@dataclass(frozen=True)
class Report:
    """Everything a run produces: the parsed command line, the w=1 fit, the NF outcome."""

    args: argparse.Namespace
    fit: CoxFit | LinearFit
    nf: NfResult | None
    warnings: tuple[str, ...]
    # populated only when the target was unreachable under the weight cap
    best_p: float | None = None
    trace: tuple[tuple[int, float], ...] = ()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
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
    parser.add_argument("--time", help="last-observation time column (cox-lr)")
    parser.add_argument("--event", help="event flag column (cox-lr)")
    parser.add_argument("--id", dest="id_col", help="subject id column (cox-lr)")
    parser.add_argument("--covariates", default="",
                        help="comma-separated covariate columns")
    parser.add_argument("--explicit-intervals", metavar="START,STOP",
                        help="use explicit start/stop columns instead of "
                             "reconstructing intervals from --time")
    parser.add_argument("--response", help="response column (linear-wald)")
    parser.add_argument("--wald-coefficient", default=INTERCEPT,
                        help=f"coefficient to test (default: {INTERCEPT})")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse a command line and check that its options fit together.

    ``covariates`` becomes a list of names and ``explicit_intervals`` a
    ``(start, stop)`` pair or None.
    """
    args = _build_parser().parse_args(argv)
    if args.explicit_intervals is not None:
        parts = [s.strip() for s in args.explicit_intervals.split(",")]
        if len(parts) != 2 or not all(parts):
            raise CliError("--explicit-intervals expects two column names: START,STOP")
        args.explicit_intervals = tuple(parts)
    args.covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    if not 0.0 < args.alpha < 1.0:
        raise CliError("target significance must lie in (0,1)")
    if not 1 <= args.max_weight <= MAX_WEIGHT:
        raise CliError("--max-weight must be an integer from 1 to 2**53")
    if args.model == COX_LR:
        missing = [flag for flag, value in (("--event", args.event), ("--id", args.id_col))
                   if value is None]
        if args.explicit_intervals is None and args.time is None:
            missing.insert(0, "--time")
        if missing:
            raise CliError(f"model {COX_LR} requires {', '.join(missing)}")
        if not args.covariates:
            raise CliError(f"model {COX_LR} requires --covariates")
    elif args.response is None:
        raise CliError(f"model {LINEAR_WALD} requires --response")
    return args


def _run_spec(args: argparse.Namespace) -> Report:
    caught: list[warnings.WarningMessage]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.model == COX_LR:
            intervals = args.explicit_intervals or (args.time,)
            data = load_csv(args.data, [args.event, args.id_col, *args.covariates, *intervals])
            if args.explicit_intervals:
                frame = survival_frame_from_intervals(
                    data, *intervals, args.event, args.id_col, args.covariates,
                )
            else:
                frame = stset_reconstruct(
                    data, args.time, args.event, args.id_col, args.covariates,
                )
            fit = fit_cox(frame)
            p_of_weight = fit.p_lr_at
        else:
            data = load_csv(args.data, [args.response, *args.covariates])
            fit = fit_wls(data, args.response, args.covariates)
            if args.wald_coefficient in fit.omitted:
                raise CliError(
                    f"coefficient {args.wald_coefficient!r} was omitted as collinear"
                )
            if args.wald_coefficient not in fit.term_names:
                raise CliError(f"no coefficient named {args.wald_coefficient!r}")

            def p_of_weight(w: int) -> float:
                return fit.p_value_at(args.wald_coefficient, w)

        nf = None
        best_p = None
        trace: tuple[tuple[int, float], ...] = ()
        try:
            nf = compute_nf(p_of_weight, data.n_rows, args.alpha, args.max_weight)
            trace = nf.trace
        except UnreachableSignificance as exc:
            best_p = exc.best_p
            trace = exc.trace

    labels = set()
    for item in caught:
        if issubclass(item.category, TiesWarning):
            labels.add("ties")
        elif issubclass(item.category, DegenerateTestWarning):
            labels.add("degenerate")
    return Report(args=args, fit=fit, nf=nf, warnings=tuple(sorted(labels)),
                  best_p=best_p, trace=trace)


# ---- report emission --------------------------------------------------------


def _json_float(value) -> str:
    # 17 significant digits round-trips any double exactly.
    if value is None or not math.isfinite(value):
        return "null"
    text = format(float(value), ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


# JSON strings may not hold raw control characters; all other text stays raw.
_JSON_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {ord("\\"): "\\\\", ord('"'): '\\"'}


def _to_json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return f'"{obj.translate(_JSON_ESCAPES)}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{_to_json(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _spec_json(args: argparse.Namespace) -> dict:
    columns = {}
    if args.model == COX_LR:
        if args.explicit_intervals:
            columns["start"], columns["stop"] = args.explicit_intervals
        else:
            columns["time"] = args.time
        columns["event"] = args.event
        columns["id"] = args.id_col
        columns["covariates"] = args.covariates
    else:
        columns["response"] = args.response
        columns["covariates"] = args.covariates
        columns["wald_coefficient"] = args.wald_coefficient
    return {
        "model": args.model,
        "data": args.data,
        "target_alpha": args.alpha,
        "max_weight": args.max_weight,
        "columns": columns,
    }


def _fit_json(fit) -> dict:
    if isinstance(fit, CoxFit):
        return {
            "n_subjects": fit.n_subjects,
            "n_failures": fit.n_failures,
            "iterations": fit.iterations,
            "loglik_null": fit.loglik_null,
            "loglik_full": fit.loglik_full,
            "lr_stat": fit.lr_stat,
            "lr_df": fit.lr_df,
            "p_lr": fit.p_lr,
            "coefficients": [
                {
                    "name": name,
                    "beta": float(fit.beta[i]),
                    "hazard_ratio": float(fit.hazard_ratios[i]),
                    "se_beta": float(fit.se_beta[i]),
                    "z": float(fit.z_stats[i]),
                    "p": float(fit.p_wald[i]),
                }
                for i, name in enumerate(fit.covariate_names)
            ],
            "omitted": list(fit.omitted),
        }
    return {
        "weighted_n": fit.weighted_n,
        "df_residual": fit.df_residual,
        "residual_ss": fit.residual_ss,
        "root_mse": fit.root_mse,
        "coefficients": [
            {
                "name": name,
                "coef": float(fit.coefficients[i]),
                "se": float(fit.standard_errors[i]),
                "t": float(fit.t_stats[i]),
                "p": float(fit.p_values[i]),
            }
            for i, name in enumerate(fit.term_names)
        ],
        "omitted": list(fit.omitted),
    }


def report_json_obj(report: Report) -> dict:
    nf = report.nf
    doc = {
        "spec": _spec_json(report.args),
        "fit": _fit_json(report.fit),
        "target_alpha": report.args.alpha,
        "p_at_1": nf.p_at_1 if nf else (report.trace[0][1] if report.trace else None),
        "w0": nf.w0 if nf else None,
        "p0": nf.p0 if nf else None,
        "w1": nf.w1 if nf else None,
        "p1": nf.p1 if nf else None,
        "w_int": nf.w_int if nf else None,
        "n_int": nf.n_int if nf else None,
        "nf_integer": nf.nf_integer if nf else None,
        "exact_hit": nf.exact_hit if nf else None,
        "trace": [[w, p] for w, p in report.trace],
        "warnings": list(report.warnings),
    }
    if nf is None:
        doc["best_p"] = report.best_p
        doc["max_weight"] = report.args.max_weight
    return doc


def _fmt(value, decimals=4) -> str:
    if value is None:
        return "."
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return f"{value:.{decimals}f}"


def _text_lines(report: Report) -> list[str]:
    args, fit, nf = report.args, report.fit, report.nf
    lines = [
        "non-significance factor report",
        f"model: {args.model}   data: {args.data}   "
        f"target alpha: {_fmt(args.alpha)}",
        "",
    ]
    if isinstance(fit, CoxFit):
        lines.append(
            f"cox fit at weight 1: {_fmt(fit.n_subjects, 0)} subjects, "
            f"{_fmt(fit.n_failures, 0)} failures"
        )
        lines.append(f"  {'covariate':<12} {'haz. ratio':>10} {'std. err.':>10} "
                     f"{'z':>7} {'P>|z|':>7}")
        for i, name in enumerate(fit.covariate_names):
            hr = fit.hazard_ratios[i]
            lines.append(
                f"  {name:<12} {_fmt(hr):>10} {_fmt(hr * fit.se_beta[i]):>10} "
                f"{_fmt(fit.z_stats[i], 2):>7} {_fmt(fit.p_wald[i], 3):>7}"
            )
        for name in fit.omitted:
            lines.append(f"  {name:<12} {'(omitted)':>10}")
        lines.append(
            f"  log likelihood {_fmt(fit.loglik_full)} (null {_fmt(fit.loglik_null)})   "
            f"LR chi2({fit.lr_df}) = {_fmt(fit.lr_stat)}   p = {_fmt(fit.p_lr)}"
        )
    else:
        lines.append(
            f"regression fit at weight 1: weighted n = {_fmt(fit.weighted_n, 0)}, "
            f"df = {_fmt(fit.df_residual, 0)}, root mse = {_fmt(fit.root_mse)}"
        )
        lines.append(f"  {'term':<12} {'coef.':>10} {'std. err.':>10} "
                     f"{'t':>7} {'P>|t|':>7}")
        for i, name in enumerate(fit.term_names):
            lines.append(
                f"  {name:<12} {_fmt(fit.coefficients[i]):>10} "
                f"{_fmt(fit.standard_errors[i]):>10} "
                f"{_fmt(fit.t_stats[i], 2):>7} {_fmt(fit.p_values[i], 3):>7}"
            )
        for name in fit.omitted:
            lines.append(f"  {name:<12} {'(omitted)':>10}")
        lines.append(f"  tested coefficient: {args.wald_coefficient}")
    lines.append("")

    if nf is not None:
        if nf.w0 is None:
            lines.append(
                f"already significant at weight 1: p = {_fmt(nf.p_at_1)} "
                f"<= {_fmt(nf.target_alpha)}"
            )
        else:
            lines.append(
                f"bracket: w0 = {nf.w0} (p = {_fmt(nf.p0)})   "
                f"w1 = {nf.w1} (p = {_fmt(nf.p1)})"
            )
        lines.append(
            f"nf_integer = {nf.nf_integer}   w_int = {_fmt(nf.w_int)}   "
            f"n_int = {_fmt(nf.n_int)}"
        )
    else:
        lines.append(
            f"target not reached up to weight {args.max_weight}: "
            f"best p = {_fmt(report.best_p)}"
        )
    trace = "; ".join(f"w={w} p={_fmt(p)}" for w, p in report.trace)
    lines.append(f"trace: {trace}")
    if report.warnings:
        lines.append("warnings: " + ", ".join(report.warnings))
    lines.append("")
    return lines


def emit_report(report: Report, format: str = "text") -> str:
    """Render a report as display text or as deterministic single-line JSON."""
    if format == "json":
        return _to_json(report_json_obj(report)) + "\n"
    if format == "text":
        return "\n".join(_text_lines(report))
    raise ValueError(f"unknown report format {format!r}")


def run(argv) -> int:
    """Execute a command line; returns the process exit code."""
    try:
        args = _parse(argv)
        report = _run_spec(args)
    except NfactorError as exc:
        print(f"nfactor: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit_report(report, args.format))
    return 0 if report.nf is not None else 2


def main():  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
