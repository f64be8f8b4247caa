"""A seeded fuzz of mutated bundled requests holds the command line to its contract.

Each request is stan30.csv or linear30.csv with a few mutations: cells set to
0, -0, +-1e300, 5e-324 or 1e15; rows deleted or duplicated; whole columns
made constant or scaled by 1e+-150; the file cut to 1-6 rows. It draws its
covariates, ``--alpha``, ``--max-weight`` and format at random too. A second
set of such requests has one cell hit by a fault that the csv module meets
before ``float()`` does: a cell past its field limit, a NUL byte or an
unterminated quote. Whatever the input, ``cli.run`` must answer in one of
three ways:

- exit 0 or 2 with a report: text with no ``nan``, or JSON in which every
  value that is not finite is ``null``;
- exit 1 with exactly one ``nfactor: error: <stage>: ...`` line and no report;
- and when that line is a ``MonotoneLikelihood`` refusal, a linear program
  (scipy, independent of the package's check) must find a direction v along
  which every event's ``x @ v`` is at least every ``x @ v`` in its risk set,
  with some strictly less: Bryson & Johnson's definition of a monotone
  partial likelihood.

An answered Cox fit must sit at its maximum: at the reported betas, the
gradient and information of ``tests/oracles.py::score_per_event_time`` give
a Newton decrement of at most ``MAX_DECREMENT_PER_EVENT`` per event, and the
linear program must find no direction of monotone likelihood in its frame.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from nfactor import load_csv, stset_reconstruct

from conftest import COVARIATES, HEART_CSV, LINEAR_CSV
from oracles import score_per_event_time
from test_golden_reports import run_request

N_REQUESTS = 200
CELLS = ("0", "-0", "1e300", "-1e300", "5e-324", "1e15")
ERROR_LINE = re.compile(r"nfactor: error: (load|frame|fit|search|report): [^\n]+\n")
MAX_DECREMENT_PER_EVENT = 1e-12


def mutate(rng, header, rows):
    """The rows after one to three random mutations (a list of lists of cell text).

    A mutated cell or column is a covariate's seven times in ten, so that
    most requests reach the fit.
    """
    rows = [list(row) for row in rows]
    covariates = [j for j, name in enumerate(header) if name in COVARIATES] or [0]
    for _ in range(rng.integers(1, 4)):
        if not rows:
            break
        kind, i = rng.integers(6), rng.integers(len(rows))
        j = rng.choice(covariates) if rng.random() < 0.7 else rng.integers(len(header))
        if kind == 0:
            rows[i][j] = CELLS[rng.integers(len(CELLS))]
        elif kind == 1:
            del rows[i]
        elif kind == 2:
            rows.insert(i, list(rows[i]))
        elif kind == 3:
            value = rows[i][j] if rng.random() < 0.5 else CELLS[rng.integers(len(CELLS))]
            for row in rows:
                row[j] = value
        elif kind == 4:
            factor = 1e150 if rng.random() < 0.5 else 1e-150
            for row in rows:
                row[j] = repr(float(row[j]) * factor)
        else:
            rows = rows[:rng.integers(1, 7)]
    return rows


def fuzz_request(rng, tmp_path, index):
    """argv of one mutated request, with its CSV written under ``tmp_path``."""
    cox = rng.random() < 0.75
    lines = (HEART_CSV if cox else LINEAR_CSV).read_text().splitlines()
    header = lines[0].split(",")
    rows = mutate(rng, header, [line.split(",") for line in lines[1:]])
    path = tmp_path / f"request{index}.csv"
    path.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    if cox:
        chosen = [c for c in COVARIATES if rng.random() < 0.5] or [COVARIATES[rng.integers(4)]]
        argv = ["--model", "cox-lr", "--time", "t1", "--event", "died", "--id", "id",
                "--covariates", ",".join(chosen)]
    else:
        argv = ["--model", "linear-wald", "--response", "y"]
    alpha = float(10.0 ** rng.uniform(-8, np.log10(0.5)))
    max_weight = int(rng.choice([1, 2, 10, 1000, 10**6, 2**53]))
    return [*argv, "--data", str(path), "--alpha", repr(alpha), "--max-weight",
            str(max_weight), "--format", str(rng.choice(["text", "json"]))]


def refuse_non_finite(token):
    raise AssertionError(f"JSON report holds {token}")


def finite_float(text):
    value = float(text)
    assert np.isfinite(value), f"JSON report holds {text}"
    return value


def request_frame(argv, covariates):
    """The survival frame of a Cox request's data over ``covariates``."""
    data = load_csv(argv[argv.index("--data") + 1], ["id", "t1", "died", *covariates])
    return stset_reconstruct(data, "t1", "died", "id", covariates)


def lp_finds_separation(argv) -> bool:
    """Whether a linear program finds a direction of monotone likelihood in the request's frame.

    Each column is divided by its largest |value|, if not 0. Then v in [-1, 1]^p must
    keep ``(x_j - x_i) @ v <= 0`` for every event record i and every record
    j at risk at its time, and maximise the sum of ``(x_i - x_j) @ v``;
    the frame separates when that sum is positive.
    """
    frame = request_frame(argv, argv[argv.index("--covariates") + 1].split(","))
    largest = np.abs(frame.covariates).max(axis=0)
    x = frame.covariates / np.where(largest > 0, largest, 1.0)
    ahead = np.vstack([x[(frame.start < frame.stop[i]) & (frame.stop[i] <= frame.stop)] - x[i]
                       for i in np.flatnonzero(frame.event)])
    result = linprog(ahead.sum(axis=0), A_ub=ahead, b_ub=np.zeros(len(ahead)),
                     bounds=[(-1.0, 1.0)] * x.shape[1], method="highs")
    assert result.status == 0, result.message
    return -result.fun > 1e-9


def decrement_per_event(argv, coefficients) -> float:
    """Newton decrement ``g' H^-1 g`` per event at a Cox report's betas, by the loop oracle.

    Each kept column is divided by a power of two near its largest |value|,
    if not 0, and its beta multiplied by it, both exactly, so the decrement
    does not see the column's units.
    """
    frame = request_frame(argv, [c["name"] for c in coefficients])
    exponent = np.frexp(np.abs(frame.covariates).max(axis=0))[1]
    beta = np.ldexp([c["beta"] for c in coefficients], exponent)
    _, grad, information = score_per_event_time(
        frame.start, frame.stop, frame.event, np.ldexp(frame.covariates, -exponent), beta)
    return float(grad @ np.linalg.solve(information, grad)) / frame.event.sum()


def answer_or_refusal(got, where):
    """The JSON report of an answer (None for text or a refusal), once it keeps the contract."""
    if got["exit"] == 1:
        assert got["stdout"] == "" and ERROR_LINE.fullmatch(got["stderr"]), where
        return None
    assert got["exit"] in (0, 2) and got["stderr"] == "", where
    if got["argv"][-1] == "json":
        return json.loads(got["stdout"], parse_constant=refuse_non_finite,
                          parse_float=finite_float)
    assert "nan" not in got["stdout"].lower(), where
    return None


def test_mutated_requests_answer_or_refuse_in_one_line(tmp_path):
    rng = np.random.default_rng(20261020)
    exits, refusals, decrements = [], 0, []
    for index in range(N_REQUESTS):
        argv = fuzz_request(rng, tmp_path, index)
        got = run_request(argv)
        where = f"request {index}: {argv}\n{got['stdout']}{got['stderr']}"
        exits.append(got["exit"])
        report = answer_or_refusal(got, where)
        if "is diverging" in got["stderr"]:
            refusals += 1
            assert lp_finds_separation(argv), where
        coefficients = report["fit"]["coefficients"] if report and "cox-lr" in argv else []
        if coefficients and all(c["beta"] is not None for c in coefficients):
            decrements.append(decrement_per_event(argv, coefficients))
            assert decrements[-1] <= MAX_DECREMENT_PER_EVENT, (decrements[-1], where)
            assert not lp_finds_separation(argv), where
    # the mix reaches every outcome, a monotone likelihood among the refusals,
    # and enough answered Cox fits for the decrement check to mean something
    assert {0, 1, 2} <= set(exits) and refusals >= 5, (sorted(set(exits)), refusals)
    assert len(decrements) >= 20, len(decrements)


# faults the csv module meets before float() does, each put into one cell
CSV_FAULTS = {
    "oversized cell": lambda cell: "1" * 200_000,  # past the module's field limit
    "NUL byte": lambda cell: cell[:1] + "\0" + cell[1:],
    "unterminated quote": lambda cell: '"' + cell,
}
N_CSV_FAULT_REQUESTS = 20


@pytest.mark.parametrize("fault", CSV_FAULTS)
def test_csv_faults_answer_or_refuse_in_one_line(tmp_path, fault):
    rng = np.random.default_rng([20261020, list(CSV_FAULTS).index(fault)])
    for index in range(N_CSV_FAULT_REQUESTS):
        argv = fuzz_request(rng, tmp_path, index)
        path = Path(argv[argv.index("--data") + 1])
        lines = path.read_text().splitlines()
        i = rng.integers(len(lines))
        cells = lines[i].split(",")
        j = rng.integers(len(cells))
        cells[j] = CSV_FAULTS[fault](cells[j])
        lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        got = run_request(argv)
        where = f"request {index}, line {i + 1}: {argv}\n{got['stderr']}"
        answer_or_refusal(got, where)
        # every line is split into cells, or the open quote runs to the end of
        # the file, so none passes the load
        if fault in ("oversized cell", "unterminated quote"):
            assert got["stderr"].startswith("nfactor: error: load: cannot read "), where
