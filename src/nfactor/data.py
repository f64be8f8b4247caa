"""Tabular input data and counting-process survival records.

Survival input uses the last-observation-time convention: each row carries
the time its interval ends, and a subject's consecutive rows are turned into
half-open intervals ``(previous time, time]`` with the first interval opening
at 0. Explicit start/stop columns are supported as an alternative. Every
SurvivalFrame, however it is built, holds finite numbers and 0/1 event flags.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateColumn,
    DuplicateTerm,
    EmptyFile,
    InvalidEventFlag,
    InvalidWeight,
    LongRow,
    MissingColumn,
    NonIncreasingTime,
    NonNumericCell,
    UnreadableFile,
)


# Largest frequency weight: every integer up to 2**53 converts to a double
# exactly, and w * statistic and w * n - k stay finite.
MAX_WEIGHT = 2**53


def check_weight(weight) -> float:
    """A frequency weight as a float; raises InvalidWeight unless an integer 1..MAX_WEIGHT.

    A bool is not a weight, although Python counts ``True`` as the int 1.
    """
    if (isinstance(weight, bool) or not isinstance(weight, (int, np.integer))
            or not 1 <= weight <= MAX_WEIGHT):
        raise InvalidWeight(weight)
    return float(weight)


def check_distinct(names, error) -> None:
    """Raise ``error(name)`` (DuplicateColumn or DuplicateTerm) at the first name given twice."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise error(name)


def _finite_array(values, names) -> np.ndarray:
    """``values`` as a read-only, C-ordered float64 copy of finite numbers.

    ``names`` is one name for the whole array, or a sequence naming each
    column of a 2-d one. NonNumericCell names the first column, in order,
    with a value that is not finite, and the data row of its first such value.
    """
    a = np.array(values, dtype=np.float64, order="C")
    finite = np.isfinite(a)
    if not finite.all():
        column, row = np.argwhere(~np.atleast_2d(finite.T))[0]
        raise NonNumericCell(int(row) + 1, names if isinstance(names, str) else names[column])
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Column-oriented table of finite float64 values.

    ``columns`` preserves insertion order; every column has ``n_rows``
    entries and the arrays are marked read-only, so a Dataset can be shared
    freely across threads.
    """

    columns: dict[str, np.ndarray]
    n_rows: int = field(init=False)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        cols = {name: _finite_array(v, name) for name, v in self.columns.items()}
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "n_rows", lengths.pop() if lengths else 0)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise MissingColumn(name) from None


@dataclass(frozen=True)
class SurvivalFrame:
    """Counting-process survival records.

    One record per row: subject id, half-open at-risk interval
    ``(start, stop]``, event flag for that interval, and a covariate vector.
    Arrays are read-only after construction. A value that is not finite
    raises NonNumericCell (naming a covariate by its name), a flag not 0 or
    1 InvalidEventFlag, a covariate named twice DuplicateTerm, and intervals
    that do not chain per subject NonIncreasingTime, in that order.
    ``n_subjects`` counts the records that open their subject, from the
    grouping the chain check builds, so ids that compare equal (-0.0 and
    0.0) are one subject.
    """

    subject_ids: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    event: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...]
    n_subjects: int = field(init=False)

    def __post_init__(self):
        names = tuple(self.covariate_names)
        ids, start, stop, flags = (
            _finite_array(getattr(self, attr), attr)
            for attr in ("subject_ids", "start", "stop", "event")
        )
        n = len(stop)
        x_shape = np.shape(self.covariates)
        if not (len(ids) == len(start) == len(flags) == n and x_shape[:1] == (n,)):
            raise ValueError("record arrays have mismatched lengths")
        if x_shape[1:] != (len(names),):
            raise ValueError("covariate matrix does not match covariate_names")
        x = _finite_array(self.covariates, names)
        bad = np.flatnonzero((flags != 0.0) & (flags != 1.0))
        if bad.size:
            raise InvalidEventFlag(int(bad[0]) + 1, flags[bad[0]])
        event = flags == 1.0
        event.flags.writeable = False
        for attr, value in dict(subject_ids=ids, start=start, stop=stop, event=event,
                                covariates=x, covariate_names=names).items():
            object.__setattr__(self, attr, value)
        check_distinct(names, DuplicateTerm)
        # start < stop on every record; per subject the intervals chain.
        # Each check names the subject of its first offending record.
        bad = np.flatnonzero(start >= stop)
        if bad.size == 0:
            previous_stop, chained = _previous_in_subject(ids, stop)
            bad = np.flatnonzero(chained & (start != previous_stop))
        if bad.size:
            raise NonIncreasingTime(float(ids[bad[0]]))
        object.__setattr__(self, "n_subjects", n - int(chained.sum()))

    @property
    def n_records(self) -> int:
        return len(self.stop)


def _previous_in_subject(ids: np.ndarray, values: np.ndarray):
    """``values`` at each record's previous record of the same subject.

    Returns ``(previous, chained)``: ``chained`` is False where a record is
    its subject's first in file order, and ``previous`` is 0 there. Records
    belong to one subject when their ids compare equal (so -0.0 joins 0.0);
    a stable sort by id keeps each subject's records in file order.
    """
    order = np.argsort(ids, kind="stable")
    grouped = ids[order]
    linked = grouped[1:] == grouped[:-1]
    chained = np.zeros(len(ids), dtype=bool)
    chained[order[1:]] = linked
    previous = np.zeros(len(ids))
    previous[order[1:][linked]] = values[order[:-1][linked]]
    return previous, chained


def load_csv(path, required_columns=()) -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    Every cell is parsed as a float; blank or non-numeric cells (including
    nan/inf spellings) and repeated header names are rejected. A short row
    raises NonNumericCell at its first missing column, a long one LongRow.
    Blank or whitespace-only lines are skipped, but still count in the data
    row numbers that errors name; the header is the first line that is not
    blank. A leading UTF-8 byte-order mark is ignored. Row order is
    preserved. Quoting is strict. A file that cannot be opened, read as UTF-8
    or split into cells by the csv module (a cell past its 131,072-character
    field limit, text after a closing quote, a file that ends inside a quote)
    raises UnreadableFile; a split that fails names its file line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, strict=True)
            return _read_rows(path, reader, required_columns)
    except csv.Error as exc:
        raise UnreadableFile(path, f"line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise UnreadableFile(path, exc.strerror or exc) from exc
    except UnicodeDecodeError as exc:
        raise UnreadableFile(path, f"not UTF-8 text ({exc})") from exc


def _read_rows(path, reader, required_columns) -> Dataset:
    header = next((row for row in reader if not _blank(row)), None)
    if header is None:
        raise EmptyFile(f"{path}: no header row")
    header = [h.strip() for h in header]
    check_distinct(header, DuplicateColumn)
    for name in required_columns:
        if name not in header:
            raise MissingColumn(name)
    raw = [array("d") for _ in header]
    for rownum, row in enumerate(reader, start=1):
        if _blank(row):
            continue
        if len(row) > len(header):
            raise LongRow(rownum, len(row), len(header))
        if len(row) < len(header):
            raise NonNumericCell(rownum, header[len(row)])
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(rownum, header[j], cell) from None
            if not math.isfinite(value):
                raise NonNumericCell(rownum, header[j], cell)
            raw[j].append(value)
    return Dataset(dict(zip(header, raw)))


def _blank(row: list[str]) -> bool:
    """A line with no cells or one cell of only whitespace; ``,`` holds two empty cells."""
    return not row or (len(row) == 1 and not row[0].strip())


def _frame(
    d: Dataset,
    start: np.ndarray,
    stop_col: str,
    event_col: str,
    id_col: str,
    covariate_cols: list[str],
) -> SurvivalFrame:
    """The SurvivalFrame of ``d``'s rows, with interval starts ``start``."""
    x = np.column_stack([d.column(c) for c in covariate_cols]) if covariate_cols \
        else np.empty((d.n_rows, 0))
    return SurvivalFrame(
        subject_ids=d.column(id_col),
        start=start,
        stop=d.column(stop_col),
        event=d.column(event_col),
        covariates=x,
        covariate_names=tuple(covariate_cols),
    )


def stset_reconstruct(
    d: Dataset,
    time_col: str,
    event_col: str,
    id_col: str,
    covariate_cols: list[str],
) -> SurvivalFrame:
    """Rebuild ``(start, stop]`` intervals from last-observation times.

    Within each subject (grouped by id value, rows kept in file order) the
    k-th row becomes the interval from the previous row's time (0 for the
    first row) to its own time, with that row's event flag. Times must be
    strictly increasing within a subject; SurvivalFrame names the subject of
    the first row where they are not.
    """
    start, _ = _previous_in_subject(d.column(id_col), d.column(time_col))
    return _frame(d, start, time_col, event_col, id_col, covariate_cols)


def survival_frame_from_intervals(
    d: Dataset,
    start_col: str,
    stop_col: str,
    event_col: str,
    id_col: str,
    covariate_cols: list[str],
) -> SurvivalFrame:
    """Build a SurvivalFrame from explicit start/stop columns (no reconstruction)."""
    return _frame(d, d.column(start_col), stop_col, event_col, id_col, covariate_cols)


def replicate(d: Dataset, w: int) -> Dataset:
    """Repeat every row ``w`` times consecutively.

    The brute-force counterpart of a frequency weight: fitting the replicated
    data unweighted must match fitting the original with weight ``w``.
    """
    check_weight(w)
    return Dataset({name: np.repeat(col, w) for name, col in d.columns.items()})


def replicate_frame(frame: SurvivalFrame, w: int) -> SurvivalFrame:
    """Repeat every survival record ``w`` times under fresh subject ids.

    Each copy of a subject gets its own id so that per-subject interval
    chaining still holds; risk sets are unaffected by the relabeling.
    """
    check_weight(w)
    _, inverse = np.unique(frame.subject_ids, return_inverse=True)
    copies = np.tile(np.arange(w), frame.n_records)
    return SurvivalFrame(
        subject_ids=np.repeat(inverse * w, w) + copies,
        start=np.repeat(frame.start, w),
        stop=np.repeat(frame.stop, w),
        event=np.repeat(frame.event, w),
        covariates=np.repeat(frame.covariates, w, axis=0),
        covariate_names=frame.covariate_names,
    )
