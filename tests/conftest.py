from pathlib import Path

import pytest

from nfactor import fit_cox, load_csv, replicate_frame, stset_reconstruct

DATA_DIR = Path(__file__).parent / "data"
HEART_CSV = DATA_DIR / "stan30.csv"
LINEAR_CSV = DATA_DIR / "linear30.csv"

# Covariate order used throughout: the all-zero surgery column sits third.
COVARIATES = ["age", "posttran", "surgery", "year"]


@pytest.fixture(scope="session")
def heart_dataset():
    return load_csv(HEART_CSV, ["id", "t1", "died", *COVARIATES])


@pytest.fixture(scope="session")
def heart_frame(heart_dataset):
    return stset_reconstruct(heart_dataset, "t1", "died", "id", COVARIATES)


@pytest.fixture(scope="session")
def heart_fit(heart_frame):
    return fit_cox(heart_frame)


@pytest.fixture(scope="session")
def replicated_heart_fit(heart_frame):
    """w -> fit of the fixture with every record repeated w times (the paper's weighting)."""
    fits = {}

    def fit_at(w):
        if w not in fits:
            fits[w] = fit_cox(replicate_frame(heart_frame, w))
        return fits[w]

    return fit_at


@pytest.fixture(scope="session")
def wald_dataset():
    return load_csv(LINEAR_CSV, ["y"])


@pytest.fixture(params=["missing", "directory", "latin-1 byte"])
def unreadable_csv(request, tmp_path):
    """(path, reason) for a --data path that cannot be read as UTF-8 text."""
    if request.param == "missing":
        return tmp_path / "missing.csv", "No such file or directory"
    if request.param == "directory":
        return tmp_path, "Is a directory"
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y\n1.5\ncaf\xe9\n")
    return path, "not UTF-8 text"
