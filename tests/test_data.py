import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nfactor import (
    Dataset,
    SurvivalFrame,
    fit_wls,
    load_csv,
    replicate,
    replicate_frame,
    stset_reconstruct,
    survival_frame_from_intervals,
)
from nfactor.data import MAX_WEIGHT, check_weight
from nfactor.errors import (
    DuplicateColumn,
    DuplicateTerm,
    EmptyFile,
    InvalidEventFlag,
    InvalidWeight,
    LongRow,
    MissingColumn,
    NfactorError,
    NonIncreasingTime,
    NonNumericCell,
    UnreadableFile,
)

from conftest import COVARIATES, LINEAR_CSV
from oracles import check_intervals_loop, stset_starts_loop


# ---- load_csv ---------------------------------------------------------------


def test_load_heart_csv(heart_dataset):
    assert heart_dataset.n_rows == 30
    assert tuple(heart_dataset.columns) == ("id", "year", "age", "died", "surgery", "posttran", "t1")
    assert heart_dataset.column("t1")[0] == 50.0


def test_linear30_has_the_reference_moments(wald_dataset):
    # An intercept-only fit depends on y only through n, the mean and the
    # centered sum of squares; these pin the reference regression tables.
    y = wald_dataset.column("y")
    assert wald_dataset.n_rows == 30
    assert y.mean() == pytest.approx(0.0929164, rel=1e-12, abs=0)
    assert ((y - y.mean()) ** 2).sum() == pytest.approx(34.1462048, rel=1e-12, abs=0)


@pytest.mark.parametrize("line", ["\n", "   \n", "\t\n"], ids=["empty", "spaces", "tab"])
@pytest.mark.parametrize("where", ["leading", "trailing", "interior"])
def test_blank_lines_are_skipped(tmp_path, wald_dataset, where, line):
    text = LINEAR_CSV.read_text()
    lines = text.splitlines(keepends=True)
    if where == "leading":
        text = line + line + text
    elif where == "trailing":
        text += line
    else:
        text = "".join(lines[:11] + [line] + lines[11:])
    path = tmp_path / "blank.csv"
    path.write_text(text)
    np.testing.assert_array_equal(load_csv(path, ["y"]).column("y"), wald_dataset.column("y"))


# A line of commas holds empty cells, so it is a row, not a blank line. The
# loader names the first bad cell in row-major order.
@pytest.mark.parametrize("text, row, column", [
    ("a,b\n1,2\n\n3,x\n", 3, "b"),
    ("a,b\n1,2\n \t\n3,x\n", 3, "b"),
    ("a,b\n1,2\n,\n", 2, "a"),
    ("a,b\n1,2\n\n3,inf\n", 3, "b"),
    ("a,b\n1,nan\ninf,2\n", 1, "b"),
], ids=["blank", "whitespace", "commas", "blank then inf", "row-major"])
def test_row_numbers_count_blank_lines(tmp_path, text, row, column):
    path = tmp_path / "blank.csv"
    path.write_text(text)
    with pytest.raises(NonNumericCell) as err:
        load_csv(path, ["a", "b"])
    assert (err.value.row, err.value.column) == (row, column)


def test_header_only_file_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n")
    d = load_csv(path, ["a", "b"])
    assert d.n_rows == 0


def test_loaded_values_are_float_of_each_cell_bit_for_bit(tmp_path):
    cells = ["-0", "5e-324", "1_000", " 2.5 ", "1e308", "-1e-300"]
    rows = [cells, cells[::-1]]
    path = tmp_path / "spellings.csv"
    path.write_text("a,b,c,d,e,f\n" + "".join(",".join(row) + "\n" for row in rows))
    d = load_csv(path)
    for j, name in enumerate("abcdef"):
        column = d.column(name)
        want = np.array([float(row[j]) for row in rows])
        assert column.tobytes() == want.tobytes()  # -0.0 keeps its sign
        assert column.dtype == np.float64 and column.flags.c_contiguous
        assert not column.flags.writeable
    assert np.signbit(d.column("a")[0]) and d.column("b")[0] == 5e-324 > 0.0


# n rows by c columns of doubles that a load's traced peak may reach: the
# packed columns as read, the Dataset's copy of them, and array growth
LOAD_PEAK_COLUMN_SETS = 2.5


def test_a_load_holds_its_columns_as_packed_doubles(tmp_path):
    # a float object in a list costs about four doubles, so a loader that
    # collects cells as Python floats peaks near five column sets
    n, c = 2 * 10**4, 4
    values = np.random.default_rng(0).standard_normal((n, c))
    path = tmp_path / "wide.csv"
    path.write_text("a,b,c,d\n" + "".join(",".join(map(repr, row)) + "\n"
                                          for row in values.tolist()))
    tracemalloc.start()
    try:
        d = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.column_stack([d.column(k) for k in "abcd"]), values)
    assert peak / (n * c * 8) <= LOAD_PEAK_COLUMN_SETS


def test_missing_required_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,died\n1,0\n")
    with pytest.raises(MissingColumn) as err:
        load_csv(path, ["id", "t1"])
    assert err.value.name == "t1"


def test_duplicate_header_name(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("y,x, x\n1,2,3\n")
    with pytest.raises(DuplicateColumn) as err:
        load_csv(path, ["y", "x"])
    assert err.value.name == "x"
    assert "'x'" in str(err.value)


def test_empty_file(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("")
    with pytest.raises(EmptyFile):
        load_csv(path)


def test_only_blank_lines_is_empty_file(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\n\r\n\n")
    with pytest.raises(EmptyFile):
        load_csv(path)


def test_unreadable_file(unreadable_csv):
    path, reason = unreadable_csv
    with pytest.raises(UnreadableFile) as err:
        load_csv(path, ["y"])
    assert err.value.path == path
    assert str(err.value).startswith(f"cannot read {path}: {reason}")


def test_a_cell_past_the_csv_field_limit_names_its_file_line(tmp_path):
    # the csv module refuses a cell longer than its field limit before
    # float() sees it; the limit is process-wide, so the loader leaves it be
    path = tmp_path / "wide.csv"
    path.write_text("y,x\n1,2\n\n" + "1" * 200_000 + ",3\n")
    with pytest.raises(UnreadableFile) as err:
        load_csv(path, ["y"])
    assert str(err.value) == (
        f"cannot read {path}: line 4: field larger than field limit (131072)")


@pytest.mark.parametrize("text, reason", [
    # a truncated file must not be answered: quoting is strict, so an open
    # quote is an error rather than a cell that closes at end of file
    ('y,x\n1,2\n2,3\n3,5\n4,4\n2,"7', "line 6: unexpected end of data"),
    ('y,x\n1,2\n3,"4"x\n', "line 3: ',' expected after '\"'"),
])
def test_a_quoting_fault_names_its_file_line(tmp_path, text, reason):
    path = tmp_path / "quoted.csv"
    path.write_text(text)
    with pytest.raises(UnreadableFile) as err:
        load_csv(path, ["y", "x"])
    assert str(err.value) == f"cannot read {path}: {reason}"


@pytest.mark.parametrize("cell", ["abc", "", "nan", "inf", "-inf"])
def test_non_numeric_cell(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"a,b\n1,2\n3,{cell}\n")
    with pytest.raises(NonNumericCell) as err:
        load_csv(path, ["a", "b"])
    assert err.value.row == 2
    assert err.value.column == "b"
    assert str(err.value).endswith(f": {cell!r}")


def test_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(NonNumericCell):
        load_csv(path)


def test_a_long_row_is_named_with_its_cell_count(tmp_path):
    # a trailing comma adds an empty cell past the last column; no column
    # holds a bad cell, so none is named
    path = tmp_path / "long.csv"
    path.write_text("y,x\n1,2,\n")
    with pytest.raises(LongRow) as err:
        load_csv(path)
    assert str(err.value) == "data row 1 has 3 cells, but the header names 2 columns"
    assert err.value.row == 1


def test_dataset_rejects_nan():
    with pytest.raises(NonNumericCell):
        Dataset({"a": [1.0, float("nan")]})


def test_dataset_rejects_ragged_columns():
    with pytest.raises(ValueError):
        Dataset({"a": [1.0], "b": [1.0, 2.0]})


def test_a_column_the_dataset_lacks_is_named(wald_dataset):
    with pytest.raises(MissingColumn) as err:
        fit_wls(wald_dataset, "absent")
    assert err.value.name == "absent"
    assert str(err.value) == "required column 'absent' not found"


def test_dataset_columns_are_read_only(heart_dataset):
    with pytest.raises(ValueError):
        heart_dataset.column("t1")[0] = 99.0


# ---- stset_reconstruct ------------------------------------------------------


def test_reconstruct_two_row_subject(heart_frame):
    rows = np.flatnonzero(heart_frame.subject_ids == 3.0)
    assert heart_frame.start[rows].tolist() == [0.0, 1.0]
    assert heart_frame.stop[rows].tolist() == [1.0, 16.0]
    assert heart_frame.event[rows].tolist() == [False, True]


def test_reconstruct_single_row_subject(heart_frame):
    row = np.flatnonzero(heart_frame.subject_ids == 1.0)
    assert heart_frame.start[row].tolist() == [0.0]
    assert heart_frame.stop[row].tolist() == [50.0]
    assert heart_frame.event[row].tolist() == [True]


def test_reconstruct_totals(heart_frame):
    assert (heart_frame.stop - heart_frame.start).sum() == 3071.0
    assert heart_frame.n_subjects == 20
    assert heart_frame.event.sum() == 20
    # no two events tie
    assert len(np.unique(heart_frame.stop[heart_frame.event])) == 20


def test_reconstruct_rejects_repeated_time():
    d = Dataset({"id": [7.0, 7.0], "t": [10.0, 10.0], "e": [0.0, 1.0]})
    with pytest.raises(NonIncreasingTime) as err:
        stset_reconstruct(d, "t", "e", "id", [])
    assert err.value.subject_id == 7.0


def test_reconstruct_rejects_bad_event_flag():
    d = Dataset({"id": [1.0], "t": [5.0], "e": [2.0]})
    with pytest.raises(InvalidEventFlag):
        stset_reconstruct(d, "t", "e", "id", [])


def test_explicit_intervals_match_reconstruction(heart_dataset, heart_frame):
    cols = dict(heart_dataset.columns)
    cols["start"] = heart_frame.start
    cols["stop"] = heart_frame.stop
    explicit = survival_frame_from_intervals(
        Dataset(cols), "start", "stop", "died", "id", COVARIATES
    )
    np.testing.assert_array_equal(explicit.start, heart_frame.start)
    np.testing.assert_array_equal(explicit.stop, heart_frame.stop)
    np.testing.assert_array_equal(explicit.covariates, heart_frame.covariates)


@pytest.mark.parametrize("field, value, message", [
    ("event", [True], "record arrays have mismatched lengths"),
    ("covariates", np.zeros((3, 0)), "record arrays have mismatched lengths"),
    ("covariate_names", ("x",), "covariate matrix does not match covariate_names"),
], ids=["short event", "long covariates", "unnamed column"])
def test_frame_rejects_arrays_that_do_not_fit_together(field, value, message):
    records = dict(subject_ids=[1.0, 2.0], start=[0.0, 0.0], stop=[3.0, 4.0],
                   event=[True, False], covariates=np.zeros((2, 0)), covariate_names=())
    with pytest.raises(ValueError, match=message):
        SurvivalFrame(**{**records, field: value})


def test_frame_rejects_empty_interval():
    with pytest.raises(NonIncreasingTime):
        SurvivalFrame(
            subject_ids=[1.0], start=[5.0], stop=[5.0], event=[True],
            covariates=np.zeros((1, 0)), covariate_names=(),
        )


def test_frame_rejects_gap_between_intervals():
    with pytest.raises(NonIncreasingTime):
        SurvivalFrame(
            subject_ids=[1.0, 1.0], start=[0.0, 4.0], stop=[3.0, 9.0],
            event=[False, True], covariates=np.zeros((2, 0)), covariate_names=(),
        )


def test_first_offending_subject_in_file_order_is_named():
    # both subjects go wrong; subject 5 first in file order, subject 3 first by id
    d = Dataset({"id": [5.0, 3.0, 5.0, 3.0], "t": [10.0, 4.0, 8.0, 2.0], "e": [0.0] * 4})
    with pytest.raises(NonIncreasingTime) as err:
        stset_reconstruct(d, "t", "e", "id", [])
    assert err.value.subject_id == 5.0
    with pytest.raises(NonIncreasingTime) as err:
        SurvivalFrame(
            subject_ids=[5.0, 3.0, 5.0, 3.0], start=[0.0, 0.0, 11.0, 5.0],
            stop=[10.0, 4.0, 12.0, 6.0], event=[False] * 4,
            covariates=np.zeros((4, 0)), covariate_names=(),
        )
    assert err.value.subject_id == 5.0


def test_explicit_intervals_reject_bad_event_flag_by_row():
    d = Dataset({"id": [1.0, 2.0, 3.0, 4.0], "start": [0.0] * 4, "stop": [1.0] * 4,
                 "e": [1.0, 0.0, 2.0, 0.5]})
    with pytest.raises(InvalidEventFlag) as err:
        survival_frame_from_intervals(d, "start", "stop", "e", "id", [])
    assert err.value.row == 3
    assert str(err.value) == "event flag at data row 3 must be 0 or 1, got 2.0"


# A valid frame: subject 2 carries two chained records; covariates age, dose.
RECORDS = dict(
    subject_ids=[1.0, 2.0, 2.0, 3.0], start=[0.0, 0.0, 4.0, 0.0], stop=[5.0, 4.0, 9.0, 7.0],
    event=[1.0, 0.0, 1.0, 0.0], covariates=[[61.0, 1.0], [48.0, 0.0], [48.0, 2.0], [55.0, 1.0]],
    covariate_names=("age", "dose"),
)


def with_cell(field, row, value, column=None):
    """RECORDS with ``field``'s value at data row ``row`` (a covariate: ``column``) replaced."""
    values = np.array(RECORDS[field], dtype=float)
    values[(row - 1,) if column is None else (row - 1, column)] = value
    return {**RECORDS, field: values}


def test_frame_stores_c_ordered_read_only_arrays():
    # fit_cox relies on C order: the kernel's products round differently on Fortran order
    frame = SurvivalFrame(**{**RECORDS, "covariates": np.asfortranarray(RECORDS["covariates"])})
    assert frame.event.tolist() == [True, False, True, False]
    assert frame.covariates.flags.c_contiguous and not frame.covariates.flags.writeable


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field, column, name", [
    ("subject_ids", None, "subject_ids"),
    ("start", None, "start"),
    ("stop", None, "stop"),
    ("event", None, "event"),
    ("covariates", 1, "dose"),
])
def test_frame_rejects_a_value_that_is_not_finite(field, column, name, value):
    with pytest.raises(NonNumericCell) as err:
        SurvivalFrame(**with_cell(field, 3, value, column))
    assert (err.value.row, err.value.column) == (3, name)
    assert str(err.value) == f"cell at data row 3, column {name!r} is not a finite number"


@pytest.mark.parametrize("flag", [2.0, 0.5, -1.0])
def test_frame_rejects_an_event_flag_other_than_0_or_1(flag):
    with pytest.raises(InvalidEventFlag) as err:
        SurvivalFrame(**with_cell("event", 3, flag))
    assert err.value.row == 3
    assert str(err.value) == f"event flag at data row 3 must be 0 or 1, got {flag}"


def test_the_first_covariate_in_order_is_named():
    # age goes bad at row 4, dose earlier at row 2: age is named
    records = with_cell("covariates", 4, np.nan, 0)
    records["covariates"][1, 1] = np.inf
    with pytest.raises(NonNumericCell) as err:
        SurvivalFrame(**records)
    assert (err.value.row, err.value.column) == (4, "age")


def test_flags_are_checked_before_intervals():
    records = {**with_cell("event", 2, 2.0), "start": [0.0, 0.0, 3.0, 0.0]}
    with pytest.raises(InvalidEventFlag) as err:
        SurvivalFrame(**records)
    assert err.value.row == 2


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_dataset_and_frame_name_the_same_cell(value):
    bad = with_cell("covariates", 3, value, 1)
    columns = {"id": RECORDS["subject_ids"], "start": RECORDS["start"],
               "stop": RECORDS["stop"], "event": RECORDS["event"],
               "age": bad["covariates"][:, 0], "dose": bad["covariates"][:, 1]}
    with pytest.raises(NonNumericCell) as from_dataset:
        Dataset(columns)
    with pytest.raises(NonNumericCell) as from_frame:
        SurvivalFrame(**bad)
    assert (from_dataset.value.row, from_dataset.value.column) == (3, "dose")
    assert str(from_frame.value) == str(from_dataset.value)


@pytest.mark.parametrize("path", ["reconstruct", "empty interval", "gap"])
def test_non_increasing_time_names_a_float_subject(path):
    d = Dataset({"id": [1.0, 2.0, 2.0], "t": [4.0, 3.0, 3.0], "e": [0.0, 0.0, 1.0]})
    with pytest.raises(NonIncreasingTime) as err:
        if path == "reconstruct":
            stset_reconstruct(d, "t", "e", "id", [])
        else:
            start = [0.0, 0.0, 3.0] if path == "empty interval" else [0.0, 0.0, 2.0]
            SurvivalFrame(
                subject_ids=d.column("id"), start=start, stop=[4.0, 3.0, 3.0 + (path == "gap")],
                event=[False, False, True], covariates=np.zeros((3, 0)), covariate_names=(),
            )
    assert type(err.value.subject_id) is float and err.value.subject_id == 2.0


def random_records(rng):
    """Columns of a small frame for the constructor oracle test.

    Subjects interleave (ids -0.0 and 0.0 name one subject); times mostly
    rise per subject but can repeat or fall, and repeat across subjects;
    explicit starts mostly chain but can gap; a few event flags are invalid.
    """
    n = int(rng.integers(0, 10))
    ids = rng.choice([-0.0, 0.0, 1.0, 2.0, 7.0], n)
    events = rng.choice([0.0, 1.0, -0.0, 2.0, 0.5], n, p=[0.5, 0.46, 0.02, 0.01, 0.01])
    start, stop = np.empty(n), np.empty(n)
    last = {}
    for i in range(n):
        previous = last.get(float(ids[i]), 0.0)
        stop[i] = previous + rng.choice([1.0, 2.0, 0.5, 0.0, -1.0], p=[0.5, 0.3, 0.14, 0.03, 0.03])
        start[i] = previous + rng.choice([0.0, 0.5, -0.5], p=[0.96, 0.02, 0.02])
        last[float(ids[i])] = stop[i]
    return ids, start, stop, events


def outcome(build):
    try:
        return build()
    except NfactorError as exc:
        return exc


def assert_same_outcome(frame, expected):
    if isinstance(expected, Exception):
        assert type(frame) is type(expected) and str(frame) == str(expected)
        if isinstance(expected, NonIncreasingTime):
            assert type(frame.subject_id) is float
            assert repr(frame.subject_id) == repr(expected.subject_id)
        else:
            assert frame.row == expected.row
        return type(expected).__name__
    assert isinstance(frame, SurvivalFrame), frame
    np.testing.assert_array_equal(frame.start, expected)
    # a set of floats holds -0.0 and 0.0 as one subject, as the frame does
    assert frame.n_subjects == len(set(frame.subject_ids.tolist()))
    return "frame"


def test_frame_constructors_match_loop_oracle():
    rng = np.random.default_rng(8)
    seen = Counter()
    for _ in range(400):
        ids, start, stop, events = random_records(rng)
        d = Dataset({"id": ids, "start": start, "t": stop, "e": events})
        seen["stset " + assert_same_outcome(
            outcome(lambda: stset_reconstruct(d, "t", "e", "id", [])),
            outcome(lambda: stset_starts_loop(ids, stop, events)),
        )] += 1
        seen["explicit " + assert_same_outcome(
            outcome(lambda: survival_frame_from_intervals(d, "start", "t", "e", "id", [])),
            outcome(lambda: check_intervals_loop(ids, start, stop, events) or start),
        )] += 1
    # every outcome is exercised on both paths
    for path in ("stset", "explicit"):
        for kind in ("frame", "NonIncreasingTime", "InvalidEventFlag"):
            assert seen[f"{path} {kind}"] >= 20, seen


# ---- replicate --------------------------------------------------------------


def test_replicate_multiplies_rows(heart_dataset):
    assert replicate(heart_dataset, 4).n_rows == 120


def test_covariate_named_twice_is_rejected(heart_dataset):
    with pytest.raises(DuplicateTerm) as err:
        stset_reconstruct(heart_dataset, "t1", "died", "id", ["age", "posttran", "age"])
    assert err.value.name == "age"


def test_replicate_identity(heart_dataset):
    again = replicate(heart_dataset, 1)
    for name in heart_dataset.columns:
        np.testing.assert_array_equal(again.column(name), heart_dataset.column(name))


def test_replicate_rows_are_consecutive():
    d = Dataset({"a": [1.0, 2.0]})
    assert replicate(d, 3).column("a").tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]


@pytest.mark.parametrize("w", [0, -1, 2.5])
def test_replicate_rejects_bad_weight(heart_dataset, w):
    with pytest.raises(InvalidWeight):
        replicate(heart_dataset, w)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_a_bool_is_not_a_weight(heart_dataset, flag):
    with pytest.raises(InvalidWeight):
        check_weight(flag)
    with pytest.raises(InvalidWeight):
        replicate(heart_dataset, flag)


def test_weight_is_bounded_where_doubles_are_exact():
    # every integer up to 2**53 is an exact double; past it float(w) rounds,
    # and past about 2**1024 it overflows
    assert check_weight(MAX_WEIGHT) == 2.0**53 and MAX_WEIGHT == 2**53
    assert check_weight(np.int64(MAX_WEIGHT)) == 2.0**53
    for w in (MAX_WEIGHT + 1, 10**400):
        with pytest.raises(InvalidWeight):
            check_weight(w)
        with pytest.raises(InvalidWeight):
            replicate_frame(SurvivalFrame(
                subject_ids=np.zeros(1), start=np.zeros(1), stop=np.ones(1),
                event=np.ones(1, bool), covariates=np.zeros((1, 0)), covariate_names=(),
            ), w)


def test_replicate_is_associative_up_to_order(wald_dataset):
    once = replicate(wald_dataset, 6).column("y")
    twice = replicate(replicate(wald_dataset, 2), 3).column("y")
    np.testing.assert_array_equal(np.sort(once), np.sort(twice))


def test_replicate_frame_counts(heart_frame):
    rep = replicate_frame(heart_frame, 4)
    assert rep.n_records == 120
    assert rep.n_subjects == 80
    assert rep.event.sum() == 80
    assert (rep.stop - rep.start).sum() == 4 * 3071.0
    assert len(np.unique(rep.stop[rep.event])) < 80


def test_replicate_frame_preserves_covariate_rows(heart_frame):
    rep = replicate_frame(heart_frame, 2)
    np.testing.assert_array_equal(rep.covariates[0], rep.covariates[1])
    np.testing.assert_array_equal(rep.covariates[0], heart_frame.covariates[0])
