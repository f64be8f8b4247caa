"""End-to-end and per-layer benchmark of the nfactor CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
One client drives the program in a closed loop: the next NF request goes out
only after the previous one returned. Inputs are generated from the seed
before any timing and every answer is checked afterwards by ``check``, which
shares no code with the program.

Workloads (README.md says why each exists):

* ``cli-bundled``    fresh ``python -m nfactor.cli`` processes over every
                     covariate subset of tests/data/stan30.csv and over
                     tests/data/linear30.csv in text and json;
* ``bundled-inproc`` the same requests through ``cli.run`` in this process;
* ``linear-large``   in-process ``cli.run --model linear-wald`` over seeded
                     200k-row CSVs. Not listed in BENCHMARK.json: its answers
                     fail the w_int check (nfactor's t tail is off at large df);
* ``cox-synth``      in-process ``cli.run --model cox-lr`` over seeded synthetic
                     last-observation CSVs of 100-800 subjects. Not listed in
                     BENCHMARK.json while the Newton stall makes it unsteady.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each request
untraced and then traced with the wrappers from ``tracing``, and prints
per-layer metrics plus the tracing overhead. Human-readable lines come first;
the last line of stdout is one JSON object. Exit code 0 means every answer
checked out and every failed request was a known Newton stall; 1 means a wrong
answer or an unexpected failure; 2 means the program or its bundled data could
not be found.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import io
import itertools
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STAN30 = ROOT / "tests" / "data" / "stan30.csv"
LINEAR30 = ROOT / "tests" / "data" / "linear30.csv"
WORK = ROOT / ".bench_build" / "perfbench"

ALPHA = 0.05
SETUP_REPEATS = 12  # fresh-interpreter imports per run; the first is discarded
STAN30_COVARIATES = ("age", "posttran", "surgery", "year")
# Covariate subsets of stan30 on which fit_cox stalls (NotConverged at W=2-4).
STAN30_STALLS = {("age",), ("age", "posttran"), ("age", "surgery"),
                 ("age", "posttran", "surgery")}


@dataclass(frozen=True)
class Request:
    """One NF request: the CLI arguments plus what the checker needs to know."""

    label: str
    model: str
    data: str
    covariates: tuple[str, ...]
    fmt: str = "json"
    coefficient: str = "intercept"
    may_stall: bool = False  # exit 1 with NotConverged is a known failure here

    @property
    def argv(self) -> list[str]:
        args = ["--model", self.model, "--data", self.data, "--alpha", str(ALPHA),
                "--format", self.fmt]
        if self.model == "cox-lr":
            args += ["--time", "t1", "--event", "died", "--id", "id"]
        else:
            args += ["--response", "y", "--wald-coefficient", self.coefficient]
        if self.covariates:
            args += ["--covariates", ",".join(self.covariates)]
        return args


# workload -> whether the program runs inside this process (else as children)
IN_PROCESS = {"cox-synth": True, "linear-large": True, "cli-bundled": False,
              "bundled-inproc": True}


@dataclass
class Result:
    index: int  # into the request list
    code: int  # exit code
    seconds: float
    stdout: str
    stderr: str
    rss_kb: int
    end: float  # seconds from the start of the loop to completion


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so nfactor's handlers let it through."""


def _on_alarm(signum, frame):
    raise Deadline


# ---- inputs -----------------------------------------------------------------


def build_requests(workload: str, seed: int, work: Path) -> list[Request]:
    if workload in ("cli-bundled", "bundled-inproc"):
        subsets = [c for k in range(1, 5) for c in itertools.combinations(STAN30_COVARIATES, k)]
        requests = [Request("stan30:" + ",".join(c), "cox-lr", str(STAN30), c,
                            may_stall=c in STAN30_STALLS) for c in subsets]
        requests += [Request(f"linear30:{fmt}", "linear-wald", str(LINEAR30), (), fmt)
                     for fmt in ("text", "json")]
        random.Random(seed).shuffle(requests)
        return requests
    out = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(work)],
        check=True, capture_output=True, text=True, cwd=ROOT,
    ).stdout
    paths = json.loads(out.splitlines()[-1])
    if workload == "cox-synth":
        return [Request(Path(p).name, "cox-lr", p, STAN30_COVARIATES, may_stall=True)
                for p in paths]
    return [Request(Path(p).name, "linear-wald", p, ("x1", "x2", "x3", "x4"),
                    coefficient="x1") for p in paths]


# ---- one request --------------------------------------------------------------


def call_in_process(argv, budget: float):
    from nfactor import cli

    out, err = io.StringIO(), io.StringIO()
    code = None
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        pass
    except Exception:  # a crash inside the program is a failed request
        code = 1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), 0


class ChildRunner:
    """Runs one command per request as a child process of this one."""

    def __init__(self, prefix: list[str]):
        self.prefix = prefix
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._out = tempfile.TemporaryFile("w+", dir=WORK)
        self._err = tempfile.TemporaryFile("w+", dir=WORK)

    def close(self):
        self._out.close()
        self._err.close()

    def __call__(self, argv, budget: float):
        for fh in (self._out, self._err):
            fh.seek(0)
            fh.truncate()
        proc = subprocess.Popen(self.prefix + list(argv), stdout=self._out,
                                stderr=self._err, env=self.env, cwd=ROOT)
        waited = None
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                waited = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            pass
        if waited is None:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                proc.kill()
                os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            return None, "", "", 0
        _, status, usage = waited
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self._out.seek(0)
        self._err.seek(0)
        return code, self._out.read(), self._err.read(), usage.ru_maxrss


def closed_loop(calls, requests, seconds: float):
    """Send requests one after another, cycling, until ``seconds`` have passed.

    Each request goes to every call in ``calls`` in turn, the first call
    rotating so that none always runs first; a traced run pairs an untraced
    and a traced call this way. Returns one result list per call. A request
    still running when the window closes is abandoned and not counted.

    Successive requests are pinned to the allowed CPUs in turn (a child
    inherits the pin). On a shared host each vCPU slows down by up to 1.8x
    for tens of seconds, independently of the others; a client left on one
    vCPU reports that vCPU's phase, while taking turns averages over all of
    them and cuts the run-to-run spread.
    """
    results: list[list[Result]] = [[] for _ in calls]
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    end = start + seconds
    try:
        for i in itertools.count():
            index = i % len(requests)
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            for k in range(len(calls)):
                which = (i + k) % len(calls)
                remaining = end - time.perf_counter()
                if remaining <= 0:
                    return results
                t0 = time.perf_counter()
                code, out, err, rss = calls[which](requests[index].argv, remaining)
                if code is None:
                    return results
                last = time.perf_counter()
                results[which].append(Result(index, code, last - t0, out, err, rss,
                                             last - start))
    finally:
        os.sched_setaffinity(0, cpus)


class TracedInProcess:
    """``call_in_process`` with the tracing wrappers installed for the call."""

    def __init__(self, import_s: float):
        from tracing import Tracer

        self.tracer = Tracer()
        self.imports = [import_s]
        self.completed = 0

    def __call__(self, argv, budget: float):
        tracer = self.tracer
        first_span, counts = len(tracer.spans), dict(tracer.counts)
        tracer.request = self.completed
        tracer.install()
        try:
            code, out, err, rss = call_in_process(argv, budget)
        finally:
            tracer.uninstall()
        if code is None:  # cut off by the window: keep nothing of it
            del tracer.spans[first_span:]
            tracer.counts.clear()
            tracer.counts.update(counts)
        else:
            self.completed += 1
        return code, out, err, rss

    def summary(self) -> tuple:
        return self.tracer.spans, self.tracer.counts, self.tracer.absent, self.imports


class TracedChild:
    """A fresh ``child.py`` process per request; each writes its spans to a file."""

    def __init__(self):
        self.dump_path = WORK / "spans.json"
        self.child = ChildRunner([sys.executable, str(HERE / "child.py"),
                                  str(self.dump_path), "--"])
        self.spans, self.counts, self.absent, self.imports = [], {}, [], []
        self.completed = 0

    def __call__(self, argv, budget: float):
        self.dump_path.unlink(missing_ok=True)
        code, out, err, rss = self.child(argv, budget)
        if code is None:
            return code, out, err, rss
        if self.dump_path.exists():
            dump = json.loads(self.dump_path.read_text())
            base = len(self.spans)
            self.spans += [[n, s, e, p + base if p >= 0 else -1, self.completed]
                           for n, s, e, p, _ in dump["spans"]]
            for k, v in dump["counts"].items():
                self.counts[k] = self.counts.get(k, 0) + v
            self.absent = dump["absent"]
            self.imports.append(dump["import_s"])
        self.completed += 1
        return code, out, err, rss

    def summary(self) -> tuple:
        return self.spans, self.counts, self.absent, self.imports

    def close(self):
        self.child.close()


# ---- outcomes -----------------------------------------------------------------


def error_class(result: Result) -> str:
    """The kind of a failed request; a crash is named by its exit code."""
    message = result.stderr.strip().splitlines()[-1] if result.stderr.strip() else ""
    if result.code != 1 or not message.startswith("nfactor: error:"):
        return f"exit {result.code}: {message[:80]}"
    weight = re.search(r"at weight (\d+)", message)
    where = f"@w={weight[1]}" if weight else ""
    for needle, name in (("did not converge", "NotConverged"),
                         ("is diverging", "MonotoneLikelihood")):
        if needle in message:
            return name + where
    return "NfactorError" + where


def is_answer(result: Result) -> bool:
    return result.code in (0, 2)


def is_known_failure(request: Request, result: Result) -> bool:
    """A Newton stall on an input where the seed program is known to stall."""
    return request.may_stall and error_class(result).startswith("NotConverged")


def check_answers(requests, results) -> list[str]:
    """Check each distinct outcome once; return the problems found.

    A failed request is a problem unless it is a known Newton stall. Also
    prints the largest deviations of reported p-values (relative) and w_int
    (absolute) from the oracle, so that losses inside the tolerance show.
    """
    import check

    problems, seen = [], set()
    worst = {"p": (0.0, "none"), "w_int": (0.0, "none")}
    for r in results:
        if (r.index, r.code, r.stdout, r.stderr) in seen:
            continue
        seen.add((r.index, r.code, r.stdout, r.stderr))
        req = requests[r.index]
        if not is_answer(r):
            if not is_known_failure(req, r):
                problems.append(f"{req.label}: unexpected failure ({error_class(r)})")
            continue
        deviations = []
        try:
            found = _check_one(check, req, r, deviations)
        except (KeyError, ValueError, TypeError) as exc:
            found = [f"unreadable report: {exc!r}"]
        problems += [f"{req.label}: {p}" for p in found]
        for kind, d, w in deviations:
            worst[kind] = max(worst[kind], (d, f"{req.label} w={w}"))
    print(f"max deviation from oracle over {len(seen)} distinct outcomes: "
          f"p-value {worst['p'][0]:.3g} relative ({worst['p'][1]}), "
          f"w_int {worst['w_int'][0]:.3g} absolute ({worst['w_int'][1]})")
    return problems


def _check_one(check, req: Request, r: Result, deviations: list) -> list[str]:
    if req.fmt == "text":
        found = check.check_linear_text(r.stdout, req.data, "y", req.covariates,
                                        req.coefficient, ALPHA)
        doc = check.parse_text_report(r.stdout)
        return found or check.check_goldens(doc, req.label)
    doc = json.loads(r.stdout)
    if (doc["w1"] is None) != (r.code == 2):
        return [f"exit {r.code} does not match the report"]
    if req.model == "cox-lr":
        found = check.check_cox(doc, req.data, "t1", "died", "id", req.covariates, ALPHA,
                                deviations)
    else:
        found = check.check_linear(doc, req.data, "y", req.covariates, req.coefficient,
                                   ALPHA, deviations)
    return found or (check.check_goldens(doc, req.label) if doc["w1"] else [])


# ---- metrics ------------------------------------------------------------------


def tail_percentile(values):
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    q = int(100 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh interpreters that import nfactor.cli, first one dropped."""
    runner = ChildRunner([sys.executable, "-c", "import nfactor.cli"])
    times = []
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            code, _, err, _ = runner([], 60.0)
            times.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"importing nfactor.cli failed: {err.strip()}")
    finally:
        runner.close()
    return times[1:]


def environment(seed: int) -> dict:
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in blas},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def whole_passes(results, n_requests: int):
    """The results of the complete passes through the request list.

    Every pass holds the same mix of requests, so rates over whole passes do
    not depend on where in the seeded order the window happened to close.
    Before the first pass completes, all results count.
    """
    full = len(results) // n_requests * n_requests
    return results[:full] if full else results


def report_outcomes(requests, results) -> dict:
    """Print the end-to-end outcomes of the whole passes through the requests.

    The requests of the last, partial pass are checked but not counted, so
    that every run reports the same mix and the same share of failures.
    """
    timed = whole_passes(results, len(requests))
    latencies = [r.seconds for r in timed]
    answers = sum(map(is_answer, timed))
    wall = timed[-1].end
    failed = [r for r in timed if not is_answer(r)]
    q, tail = tail_percentile(latencies)
    print(f"window: {len(results)} requests completed, the first {len(timed)} "
          f"({len(timed) // len(requests)} whole passes of {len(requests)}) timed")
    print(f"latency_p50_s: {statistics.median(latencies):.6f} s (n={len(latencies)})")
    if q is not None:
        print(f"latency_p{q}_s: {tail:.6f} s (n={len(latencies)})")
    else:
        print(f"tail percentile: fewer than 11 samples (n={len(latencies)})")
    print(f"nf_per_s: {answers / wall:.6f} 1/s ({answers} answers in {wall:.3f} s)")
    print(f"failed_share: {len(failed)}/{len(timed)} "
          f"({len(failed) / len(timed):.4f}) count/requests")
    by_input: dict[str, dict[str, int]] = {}
    for r in failed:
        classes = by_input.setdefault(requests[r.index].label, {})
        classes[error_class(r)] = classes.get(error_class(r), 0) + 1
    if by_input:
        print("failures by input: " + json.dumps(by_input, sort_keys=True))
    return {
        "latency_p50_s": statistics.median(latencies),
        "nf_per_s": answers / wall,
        "failed": len(failed),
        "attempted": len(timed),
    }


# ---- runs ---------------------------------------------------------------------


def _warm_up():
    from nfactor import cli

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (Request("", "cox-lr", str(STAN30), STAN30_COVARIATES).argv,
                     Request("", "linear-wald", str(LINEAR30), ()).argv):
            cli.run(argv)


def run_untraced(workload: str, requests, seconds: float) -> dict:
    setup = measure_setup()
    if IN_PROCESS[workload]:
        _warm_up()
        call = call_in_process
    else:
        call = ChildRunner([sys.executable, "-m", "nfactor.cli"])
    try:
        (results,) = closed_loop([call], requests, seconds)
    finally:
        if hasattr(call, "close"):
            call.close()
    if not results:
        raise RuntimeError("no request completed inside the window")
    if IN_PROCESS[workload]:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(r.rss_kb for r in results)
    outcome = report_outcomes(requests, results)
    print(f"setup_s: {statistics.median(setup):.6f} s (median of {len(setup)})")
    print(f"peak_rss_mb: {peak_kb / 1024:.3f} MB")
    metrics = {
        "latency_p50_s": outcome.pop("latency_p50_s"),
        "nf_per_s": outcome.pop("nf_per_s"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    return {"results": results, "metrics": metrics, **outcome}


def run_traced(workload: str, requests, seconds: float) -> dict:
    """Per-layer metrics: each request runs untraced and traced, in turn."""
    from tracing import summarize

    if IN_PROCESS[workload]:
        import_start = time.perf_counter()
        from nfactor import cli  # noqa: F401  (timed: the program's import cost)

        calls = [call_in_process, TracedInProcess(time.perf_counter() - import_start)]
        _warm_up()
    else:
        calls = [ChildRunner([sys.executable, str(HERE / "child.py"), "-", "--"]),
                 TracedChild()]
    try:
        untraced, traced = closed_loop(calls, requests, seconds)
    finally:
        for call in calls:
            if hasattr(call, "close"):
                call.close()
    if not traced:
        raise RuntimeError("no traced request completed inside the window")

    spans, counts, absent, imports = calls[1].summary()
    metrics = summarize(spans, counts, len(traced))
    metrics["setup.import_s"] = statistics.median(imports)
    pairs = [(a.seconds, b.seconds) for a, b in zip(untraced, traced) if a.code == b.code]
    metrics["trace.overhead_share"] = (sum(b for _, b in pairs) / sum(a for a, _ in pairs)
                                       - 1.0 if pairs else 0.0)
    print(f"traced requests: {len(traced)}; untraced/traced pairs for the overhead: "
          f"{len(pairs)}")
    if absent:
        print("absent layers (wrapped names not found): " + ", ".join(absent))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g}")
    counted = (whole_passes(untraced, len(requests))
               + whole_passes(traced, len(requests)))
    return {"results": untraced + traced, "metrics": metrics, "spans": spans,
            "failed": sum(not is_answer(r) for r in counted), "attempted": len(counted)}


def metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nfactor end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(IN_PROCESS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (SRC / "nfactor" / "cli.py", STAN30, LINEAR30, ROOT / "BENCHMARK.json")
    missing = [p for p in needed if not p.is_file()]
    if missing:
        print("perfbench: not a source checkout, missing: "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        requests = build_requests(args.workload, args.seed, work)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} requests={len(requests)}")
        print("env: " + json.dumps(environment(args.seed)))
        run = run_traced if args.trace else run_untraced
        outcome = run(args.workload, requests, args.seconds)
        problems = check_answers(requests, outcome["results"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "spans" in outcome:
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(outcome["spans"]))
        print(f"spans [name, start, end, parent, request]: {spans_path.relative_to(ROOT)}")
    for p in problems[:20]:
        print("WRONG " + p)
    print(f"checks: {'all answers correct' if not problems else f'{len(problems)} wrong'}")
    units = metric_units(args.trace)
    if set(outcome["metrics"]) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(outcome['metrics']) ^ set(units))}")
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in outcome["metrics"].items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
