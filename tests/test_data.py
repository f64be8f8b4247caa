import numpy as np
import pytest

from nfactor import (
    Dataset,
    SurvivalFrame,
    load_csv,
    replicate,
    replicate_frame,
    stset_reconstruct,
    survival_frame_from_intervals,
)
from nfactor.datasets import heart_transplant_30, wald_example
from nfactor.errors import (
    DuplicateColumn,
    EmptyFile,
    InvalidEventFlag,
    InvalidWeight,
    MissingColumn,
    NonIncreasingTime,
    NonNumericCell,
)

from conftest import COVARIATES, HEART_CSV, LINEAR_CSV


# ---- load_csv ---------------------------------------------------------------


def test_load_heart_csv(heart_dataset):
    assert heart_dataset.n_rows == 30
    assert heart_dataset.column_names == ("id", "year", "age", "died", "surgery", "posttran", "t1")
    assert heart_dataset.column("t1")[0] == 50.0


def test_shipped_csvs_match_builtin_datasets(heart_dataset, wald_dataset):
    builtin = heart_transplant_30()
    for name in heart_dataset.column_names:
        np.testing.assert_array_equal(heart_dataset.column(name), builtin.column(name))
    np.testing.assert_array_equal(wald_dataset.column("y"), wald_example().column("y"))


def test_header_only_file_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n")
    d = load_csv(path, ["a", "b"])
    assert d.n_rows == 0


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


@pytest.mark.parametrize("cell", ["abc", "", "nan", "inf", "-inf"])
def test_non_numeric_cell(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"a,b\n1,2\n3,{cell}\n")
    with pytest.raises(NonNumericCell) as err:
        load_csv(path, ["a", "b"])
    assert err.value.row == 2
    assert err.value.column == "b"


def test_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(NonNumericCell):
        load_csv(path)


def test_dataset_rejects_nan():
    with pytest.raises(NonNumericCell):
        Dataset({"a": [1.0, float("nan")]})


def test_dataset_rejects_ragged_columns():
    with pytest.raises(ValueError):
        Dataset({"a": [1.0], "b": [1.0, 2.0]})


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
    assert heart_frame.total_time_at_risk == 3071.0
    assert heart_frame.n_subjects == 20
    assert heart_frame.n_events == 20
    assert not heart_frame.has_tied_event_times


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


# ---- replicate --------------------------------------------------------------


def test_replicate_multiplies_rows(heart_dataset):
    assert replicate(heart_dataset, 4).n_rows == 120


def test_replicate_identity(heart_dataset):
    again = replicate(heart_dataset, 1)
    for name in heart_dataset.column_names:
        np.testing.assert_array_equal(again.column(name), heart_dataset.column(name))


def test_replicate_rows_are_consecutive():
    d = Dataset({"a": [1.0, 2.0]})
    assert replicate(d, 3).column("a").tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]


@pytest.mark.parametrize("w", [0, -1, 2.5])
def test_replicate_rejects_bad_weight(heart_dataset, w):
    with pytest.raises(InvalidWeight):
        replicate(heart_dataset, w)


def test_replicate_is_associative_up_to_order(wald_dataset):
    once = replicate(wald_dataset, 6).column("y")
    twice = replicate(replicate(wald_dataset, 2), 3).column("y")
    np.testing.assert_array_equal(np.sort(once), np.sort(twice))


def test_replicate_frame_counts(heart_frame):
    rep = replicate_frame(heart_frame, 4)
    assert rep.n_records == 120
    assert rep.n_subjects == 80
    assert rep.n_events == 80
    assert rep.total_time_at_risk == 4 * 3071.0
    assert rep.has_tied_event_times


def test_replicate_frame_preserves_covariate_rows(heart_frame):
    rep = replicate_frame(heart_frame, 2)
    np.testing.assert_array_equal(rep.covariates[0], rep.covariates[1])
    np.testing.assert_array_equal(rep.covariates[0], heart_frame.covariates[0])
