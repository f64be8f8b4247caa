"""Exception and warning types shared across the package."""


class NfactorError(Exception):
    """Base class for every error this package raises deliberately."""


# ---- data loading / reconstruction ----------------------------------------


class EmptyFile(NfactorError):
    """The input file has no header row."""


class MissingColumn(NfactorError):
    def __init__(self, name):
        super().__init__(f"required column {name!r} not found")
        self.name = name


class DuplicateColumn(NfactorError):
    def __init__(self, name):
        super().__init__(f"column {name!r} appears more than once in the header")
        self.name = name


class NonNumericCell(NfactorError):
    def __init__(self, row, column, value=None):
        super().__init__(
            f"cell at data row {row}, column {column!r} is not a finite number"
            + (f": {value!r}" if value is not None else "")
        )
        self.row = row
        self.column = column


class NonIncreasingTime(NfactorError):
    def __init__(self, subject_id):
        super().__init__(
            f"observation times for subject {subject_id} are not strictly increasing"
        )
        self.subject_id = subject_id


class InvalidEventFlag(NfactorError):
    def __init__(self, row, value):
        super().__init__(f"event flag at data row {row} must be 0 or 1, got {value}")
        self.row = row


class InvalidWeight(NfactorError):
    def __init__(self, w):
        super().__init__(f"frequency weight must be an integer from 1 to 2**53, got {w!r}")
        self.weight = w


# ---- numerics --------------------------------------------------------------


class NotPositiveDefinite(NfactorError):
    def __init__(self, pivot_index, pivot):
        super().__init__(
            f"matrix is not positive definite (pivot {pivot:.3e} at index {pivot_index})"
        )
        self.pivot_index = pivot_index
        self.pivot = pivot


class DomainError(NfactorError):
    """Argument outside the mathematical domain of a distribution function."""


# ---- model fitting ---------------------------------------------------------


class NoEvents(NfactorError):
    """Survival frame contains no event records; nothing to fit."""


class NotConverged(NfactorError):
    def __init__(self, iterations, decrement):
        super().__init__(
            f"Newton-Raphson did not converge after {iterations} iterations "
            f"(last Newton decrement {decrement:.3e})"
        )
        self.iterations = iterations
        self.decrement = decrement


class MonotoneLikelihood(NfactorError):
    def __init__(self, name, value):
        super().__init__(
            f"coefficient for {name!r} is diverging (|{value:.3g}| > 50); "
            "the partial likelihood appears monotone in this direction"
        )
        self.name = name
        self.value = value


class InsufficientObservations(NfactorError):
    def __init__(self, n, k):
        super().__init__(
            f"sample size {n} does not exceed the {k} coefficient(s) to estimate"
        )


# ---- NF search -------------------------------------------------------------


class DegenerateBracket(NfactorError):
    """Both bracket p-values are equal; the p-curve is flat at the bracket."""


class UnreachableSignificance(NfactorError):
    def __init__(self, max_weight, best_p, trace=()):
        super().__init__(
            f"no weight up to {max_weight} reaches the target significance "
            f"(best p-value found: {best_p})"
        )
        self.max_weight = max_weight
        self.best_p = best_p
        self.trace = tuple(trace)


class EvaluationFailed(NfactorError):
    def __init__(self, weight, cause):
        super().__init__(f"p-value evaluation failed at weight {weight}: {cause}")
        self.weight = weight
        self.cause = cause


# ---- warnings --------------------------------------------------------------


class TiesWarning(UserWarning):
    """Tied event times present; the unmodified risk-set sum is used for each."""


class DegenerateTestWarning(UserWarning):
    """The requested test is degenerate (nothing to test, or zero variance)."""
