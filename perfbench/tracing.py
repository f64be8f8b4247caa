"""Spans and counts around the public functions each nfactor layer exposes.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each function at the module attribute its caller looks it up by, and
``uninstall`` puts the originals back. A span records name, start, end, the
index of its parent span and a per-request id; spans stay in memory until the
run ends. A wrapped name that no longer exists is listed in ``absent`` and its
metrics read zero, so a refactor that removes a function does not crash the
run.
"""

from __future__ import annotations

import os
import time
from collections import Counter

# (module, attribute) -> span name. A layer's name is the first two parts.
WRAPPED = (
    ("nfactor.cli", "run", "cli.run"),
    ("nfactor.cli", "emit_report", "cli.emit_report"),
    ("nfactor.cli", "load_csv", "data.load_csv"),
    ("nfactor.cli", "stset_reconstruct", "data.frame"),
    ("nfactor.cli", "survival_frame_from_intervals", "data.frame"),
    ("nfactor.cli", "compute_nf", "search.compute_nf"),
    ("nfactor.cli", "fit_cox", "cox.fit_cox"),
    ("nfactor.cli", "fit_wls", "linear.fit_wls"),
    ("nfactor.kernels", "score", "kernels.score"),
    ("nfactor.kernels", "loglik", "kernels.loglik"),
    ("nfactor.cox", "chi2_sf", "numerics.pvalue"),
    ("nfactor.cox", "normal_two_sided", "numerics.pvalue"),
    ("nfactor.linear", "student_t_two_sided", "numerics.pvalue"),
    ("nfactor.cox", "solve_spd", "numerics.solve"),
    ("nfactor.cox", "inverse_spd", "numerics.solve"),
    ("nfactor.cox", "pivoted_rank_factor", "numerics.solve"),
    ("nfactor.linear", "solve_spd", "numerics.solve"),
    ("nfactor.linear", "inverse_spd", "numerics.solve"),
    ("nfactor.linear", "pivoted_rank_factor", "numerics.solve"),
)


def _count_result(counts: Counter, name: str, args, result) -> None:
    if name == "data.load_csv":
        counts["data.load_csv.bytes"] += os.path.getsize(args[0])
    elif name == "cox.fit_cox":
        counts["cox.newton_iterations"] += result.iterations
    elif name == "search.compute_nf":
        counts["search.evaluations"] += len(result.trace)
    elif name == "cli.emit_report":
        counts["cli.report_bytes"] += len(result.encode())


def _count_error(counts: Counter, name: str, exc: BaseException) -> None:
    if name == "cox.fit_cox" and type(exc).__name__ == "NotConverged":
        counts["cox.not_converged"] += 1
        counts["cox.newton_iterations"] += exc.iterations
    elif name == "search.compute_nf" and hasattr(exc, "trace"):
        counts["search.evaluations"] += len(exc.trace)


class Tracer:
    """Collects spans and counts from wrapped nfactor functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, module, attr: str, name: str):
        original = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                    self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                _count_error(counts, name, exc)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            _count_result(counts, name, args, result)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def install(self) -> None:
        import importlib

        self.absent = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            if callable(getattr(module, attr, None)):
                self._wrap(module, attr, name)
            else:
                self.absent.append(f"{module_name}.{attr}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "absent": self.absent}


def summarize(spans, counts: dict, requests: int) -> dict:
    """Per-request layer metrics from spans and counts.

    Times are seconds per request; ``.s`` is inclusive, ``.self_s`` excludes
    the time covered by child spans. ``requests`` is the number of traced
    requests the spans came from.
    """
    inclusive, own, calls = Counter(), Counter(), Counter()
    for name, start, end, parent, _ in spans:
        duration = end - start
        inclusive[name] += duration
        own[name] += duration
        calls[name] += 1
        if parent >= 0:
            own[spans[parent][0]] -= duration
    n = max(requests, 1)
    fits = calls["cox.fit_cox"] + calls["linear.fit_wls"]
    metrics = {
        "data.load_csv.s": inclusive["data.load_csv"] / n,
        "data.load_csv.calls": calls["data.load_csv"] / n,
        "data.load_csv.bytes": counts.get("data.load_csv.bytes", 0) / n,
        "data.frame.s": inclusive["data.frame"] / n,
        "kernels.score.s": inclusive["kernels.score"] / n,
        "kernels.score.calls": calls["kernels.score"] / n,
        "kernels.loglik.s": inclusive["kernels.loglik"] / n,
        "kernels.loglik.calls": calls["kernels.loglik"] / n,
        "cox.fit_cox.calls": calls["cox.fit_cox"] / n,
        "cox.fit_cox.self_s": own["cox.fit_cox"] / n,
        "cox.newton_iterations": counts.get("cox.newton_iterations", 0) / n,
        "cox.step_accept_ratio": (counts.get("cox.newton_iterations", 0)
                                  / calls["kernels.loglik"]
                                  if calls["kernels.loglik"] else 0.0),
        "cox.not_converged": counts.get("cox.not_converged", 0) / n,
        "search.compute_nf.self_s": own["search.compute_nf"] / n,
        "search.evaluations": counts.get("search.evaluations", 0) / n,
        "search.fits_per_nf": fits / n,
        "linear.fit_wls.s": inclusive["linear.fit_wls"] / n,
        "linear.fit_wls.calls": calls["linear.fit_wls"] / n,
        "numerics.pvalue.s": inclusive["numerics.pvalue"] / n,
        "numerics.pvalue.calls": calls["numerics.pvalue"] / n,
        "numerics.solve.s": inclusive["numerics.solve"] / n,
        "cli.emit_report.s": inclusive["cli.emit_report"] / n,
        "cli.report_bytes": counts.get("cli.report_bytes", 0) / n,
        "cli.run.self_s": own["cli.run"] / n,
    }
    return metrics
