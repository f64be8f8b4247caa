"""Exception types shared across the package."""


class NfactorError(Exception):
    """Base class for every error this package raises deliberately; ``cli.run`` names its stage."""


# ---- data loading / reconstruction ----------------------------------------


class UnreadableFile(NfactorError):
    """The input file cannot be opened, is not UTF-8 text or cannot be split into cells."""

    def __init__(self, path, reason):
        super().__init__(f"cannot read {path}: {reason}")
        self.path = path
        self.reason = reason


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


class DuplicateTerm(NfactorError):
    def __init__(self, name):
        super().__init__(f"model term {name!r} appears more than once")
        self.name = name


class NonNumericCell(NfactorError):
    def __init__(self, row, column, value=None):
        super().__init__(
            f"cell at data row {row}, column {column!r} is not a finite number"
            + (f": {value!r}" if value is not None else "")
        )
        self.row = row
        self.column = column


class LongRow(NfactorError):
    def __init__(self, row, cells, columns):
        super().__init__(
            f"data row {row} has {cells} cells, but the header names {columns} columns")
        self.row = row


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
    """The partial likelihood has no finite maximum; ``name`` drives the divergence.

    Raised only once the linear predictor's ``span`` has passed ``bound`` and
    a direction is found along which every event leads its risk set.
    """

    def __init__(self, name, span, bound):
        super().__init__(
            f"coefficient for {name!r} is diverging (linear predictor spans "
            f"{span:.3g} > {bound:g}); the partial likelihood appears monotone "
            "in this direction"
        )
        self.name = name
        self.span = span


class InsufficientObservations(NfactorError):
    def __init__(self, n, k):
        super().__init__(
            f"sample size {n} does not exceed the {k} coefficient(s) to estimate"
        )


class UntestableCoefficient(NfactorError):
    """The tested coefficient is not a model term, or was omitted as collinear."""

    def __init__(self, name, omitted):
        super().__init__(
            f"coefficient {name!r} was omitted as collinear"
            if omitted
            else f"no coefficient named {name!r}"
        )
        self.name = name


# ---- NF search -------------------------------------------------------------


class EvaluationFailed(NfactorError):
    def __init__(self, weight, cause):
        super().__init__(f"p-value evaluation failed at weight {weight}: {cause}")
        self.weight = weight
        self.cause = cause

