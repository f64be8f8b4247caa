"""Built-in example datasets used by the documentation and the test suite."""

from __future__ import annotations

import numpy as np

from .data import Dataset

# First 30 rows of the Stanford heart transplant data in last-observation
# format: id, year of acceptance, age, death flag, prior-surgery flag,
# post-transplant flag, last observation time.
HEART_COLUMNS = ("id", "year", "age", "died", "surgery", "posttran", "t1")
HEART_ROWS = (
    (1, 67, 30, 1, 0, 0, 50),
    (2, 68, 51, 1, 0, 0, 6),
    (3, 68, 54, 0, 0, 0, 1),
    (3, 68, 54, 1, 0, 1, 16),
    (4, 68, 40, 0, 0, 0, 36),
    (4, 68, 40, 1, 0, 1, 39),
    (5, 68, 20, 1, 0, 0, 18),
    (6, 68, 54, 1, 0, 0, 3),
    (7, 68, 50, 0, 0, 0, 51),
    (7, 68, 50, 1, 0, 1, 675),
    (8, 68, 45, 1, 0, 0, 40),
    (9, 68, 47, 1, 0, 0, 85),
    (10, 68, 42, 0, 0, 0, 12),
    (10, 68, 42, 1, 0, 1, 58),
    (11, 68, 47, 0, 0, 0, 26),
    (11, 68, 47, 1, 0, 1, 153),
    (12, 68, 53, 1, 0, 0, 8),
    (13, 68, 54, 0, 0, 0, 17),
    (13, 68, 54, 1, 0, 1, 81),
    (14, 68, 53, 0, 0, 0, 37),
    (14, 68, 53, 1, 0, 1, 1386),
    (15, 68, 53, 1, 0, 0, 1),
    (18, 68, 56, 0, 0, 0, 20),
    (18, 68, 56, 1, 0, 1, 43),
    (17, 68, 20, 1, 0, 0, 36),
    (16, 68, 49, 0, 0, 0, 28),
    (16, 68, 49, 1, 0, 1, 308),
    (19, 68, 59, 1, 0, 0, 37),
    (20, 69, 55, 0, 0, 0, 1),
    (20, 69, 55, 1, 0, 1, 28),
)

# Fixed base draw behind the Wald-test example. The regression outcome of an
# intercept-only fit depends on the data only through n, the mean, and the
# centered sum of squares, so any base vector pinned to the right moments
# reproduces the reference tables exactly.
WALD_BASE = (
    -0.176561, -1.08714, 0.715006, -1.457062, 0.729514, 0.025228,
    -1.022173, -0.466097, -1.389741, 1.188843, 0.311526, 0.787225,
    0.689737, -1.123328, 1.141644, 0.027386, 0.082581, -1.471854,
    0.44172, -0.55361, 0.608516, -1.325352, 0.638176, 0.306229,
    -0.466269, 0.611058, -0.741671, 0.532816, -2.531436, -0.423996,
)

WALD_MEAN = 0.0929164
WALD_CENTERED_SS = 34.1462048


def _rescale_to_moments(values, mean: float, centered_ss: float) -> np.ndarray:
    """Shift and scale ``values`` to the exact sample mean and centered sum of squares."""
    v = np.asarray(values, dtype=np.float64)
    centered = v - v.mean()
    centered *= np.sqrt(centered_ss / (centered @ centered))
    return mean + centered


def heart_transplant_30() -> Dataset:
    """The 30-row heart transplant extract (20 subjects, 20 failures)."""
    table = np.array(HEART_ROWS, dtype=np.float64)
    return Dataset({name: table[:, j] for j, name in enumerate(HEART_COLUMNS)})


def wald_example() -> Dataset:
    """30 observations whose intercept-only regression matches the reference tables."""
    return Dataset({"y": _rescale_to_moments(WALD_BASE, WALD_MEAN, WALD_CENTERED_SS)})
