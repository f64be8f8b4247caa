"""Non-significance factor: how many times each observation would have to be
repeated for the same test on the same data to reach a required significance.

The package pairs two test engines (Cox likelihood-ratio, linear Wald), each
fitted once and answering its p-value at any frequency weight in closed
form, with a bracketing search over integer weights and a linear
interpolation refinement between the bracketing p-values.
"""

from .cox import CoxFit, fit_cox
from .data import (
    Dataset,
    SurvivalFrame,
    load_csv,
    replicate,
    replicate_frame,
    stset_reconstruct,
    survival_frame_from_intervals,
)
from .linear import INTERCEPT, LinearFit, fit_wls
from .numerics import chi2_sf, student_t_two_sided
from .search import DEFAULT_MAX_WEIGHT, NfResult, compute_nf

__version__ = "0.1.0"

__all__ = [
    "CoxFit",
    "Dataset",
    "DEFAULT_MAX_WEIGHT",
    "INTERCEPT",
    "LinearFit",
    "NfResult",
    "SurvivalFrame",
    "chi2_sf",
    "compute_nf",
    "fit_cox",
    "fit_wls",
    "load_csv",
    "replicate",
    "replicate_frame",
    "stset_reconstruct",
    "student_t_two_sided",
    "survival_frame_from_intervals",
    "__version__",
]
