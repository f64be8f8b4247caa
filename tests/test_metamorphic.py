"""Requests that must get the same answer: recoded, reordered and hostile inputs.

The NF is a property of the data and the test, so it must not move when a
covariate changes units or origin, when the covariates, rows or subject ids
are rearranged, or when time is rescaled exactly. Each case rewrites
stan30.csv and runs the request through ``cli.run``; the answer (exit code,
``nf_integer``, the printed ``w_int`` and the omitted terms) must be the
untransformed request's. The command line leaves warnings to the process's
filters, and this suite's turn every warning into an error, so a request
that overflows on the way fails here.
"""

import csv
import itertools
import json

import numpy as np
import pytest

from conftest import HEART_CSV
from test_golden_reports import run_request

COVARIATES = ("age", "posttran", "surgery", "year")
SUBSETS = [s for k in range(1, 5) for s in itertools.combinations(COVARIATES, k)]
with HEART_CSV.open() as _f:
    ROWS = list(csv.DictReader(_f))

RECODED = ("age", "year", "posttran")
SCALES = (1e-4, 1e-2, 1.0, 1e2, 1e4, -1e-3, -1e3)
OFFSETS = (0.0, 1990.0, 1e6)
# Units whose squares leave the doubles, at the origin only: 1990 + 1e-300 * v is 1990.
FAR_SCALES = (1e-300, 1e-150, 1e150, 1e300, -1e300)


def write_rows(path, rows):
    with path.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(ROWS[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


def recoded(rows, column, fn):
    return [{**row, column: repr(fn(float(row[column])))} for row in rows]


def answer(path, covariates):
    """What a request answers: exit code, NF, printed w_int, omitted terms and best p.

    A request that fails answers its exit code and its stderr line.
    """
    got = run_request(["--model", "cox-lr", "--data", str(path), "--time", "t1",
                       "--event", "died", "--id", "id", "--covariates", ",".join(covariates),
                       "--format", "json"])
    if got["exit"] == 1:
        return 1, got["stderr"]
    doc = json.loads(got["stdout"])
    w_int = None if doc["w_int"] is None else f"{doc['w_int']:.4f}"
    return got["exit"], doc["nf_integer"], w_int, doc["fit"]["omitted"], doc.get("best_p")


@pytest.fixture(scope="module")
def expected():
    return {subset: answer(HEART_CSV, subset) for subset in SUBSETS}


@pytest.mark.parametrize("column, scale, offset",
                         [*itertools.product(RECODED, SCALES, OFFSETS),
                          *itertools.product(RECODED, FAR_SCALES, (0.0,))])
def test_a_covariate_in_other_units_and_origin_gives_the_same_answer(
        expected, tmp_path, column, scale, offset):
    path = write_rows(tmp_path / "recoded.csv",
                      recoded(ROWS, column, lambda v: scale * v + offset))
    for subset in SUBSETS:
        if column in subset:
            assert answer(path, subset) == expected[subset], subset


def test_covariate_order_does_not_matter(expected):
    for subset in SUBSETS:
        want = expected[subset]
        for order in itertools.permutations(subset):
            got = answer(HEART_CSV, order)
            assert got[:3] == want[:3], order
            assert sorted(got[3]) == sorted(want[3]), order


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_order_does_not_matter(expected, tmp_path, seed):
    # rows are shuffled, then each subject's rows are put back in time order
    # into the places that subject now holds
    shuffled = [ROWS[i] for i in np.random.default_rng(seed).permutation(len(ROWS))]
    by_subject = {}
    for row in sorted(ROWS, key=lambda r: float(r["t1"])):
        by_subject.setdefault(row["id"], []).append(row)
    rows = [by_subject[row["id"]].pop(0) for row in shuffled]
    assert rows != ROWS
    path = write_rows(tmp_path / "shuffled.csv", rows)
    for subset in SUBSETS:
        assert answer(path, subset) == expected[subset], subset


def test_subject_ids_are_only_labels(expected, tmp_path):
    path = write_rows(tmp_path / "relabelled.csv",
                      recoded(ROWS, "id", lambda v: 10**6 - 37 * v))
    for subset in SUBSETS:
        assert answer(path, subset) == expected[subset], subset


@pytest.mark.parametrize("k", [-10, 3, 30])
def test_times_scaled_by_a_power_of_two(expected, tmp_path, k):
    path = write_rows(tmp_path / "times.csv", recoded(ROWS, "t1", lambda v: v * 2.0**k))
    for subset in SUBSETS:
        assert answer(path, subset) == expected[subset], subset


@pytest.mark.parametrize("code", [0.0, 1.0, 7.0])
def test_a_constant_column_is_omitted_under_any_coding(expected, tmp_path, code):
    path = write_rows(tmp_path / "constant.csv", recoded(ROWS, "surgery", lambda v: code))
    assert answer(path, ["surgery"]) == (2, None, None, ["surgery"], 1.0)
    for subset in SUBSETS:
        assert answer(path, subset) == expected[subset], subset


def test_no_event_records_is_a_fit_error(tmp_path):
    path = write_rows(tmp_path / "no_events.csv", recoded(ROWS, "died", lambda v: 0.0))
    assert answer(path, ["age"]) == (
        1, "nfactor: error: fit: survival frame has no event records\n")
