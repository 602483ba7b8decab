"""Exception types shared across the package."""


class DimuqError(Exception):
    """Base class for all package errors."""


class SchemaError(DimuqError):
    """Schema definition or schema/data mismatch (e.g. missing column)."""


class ParseError(DimuqError):
    """Unparseable cell, located by row and column."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        location = []
        if row is not None:
            location.append(f"row {row}")
        if column is not None:
            location.append(f"column {column!r}")
        if location:
            message = f"{message} ({', '.join(location)})"
        super().__init__(message)
        self.row = row
        self.column = column


class LevelError(DimuqError):
    """Categorical value outside the declared level set."""


class LayoutMismatchError(DimuqError):
    """Scaler applied to a matrix with a different column layout."""


class ConfigError(DimuqError):
    """Invalid model or protocol configuration."""


class NumericError(DimuqError):
    """Numerical failure: training diverged or a matrix was ill-conditioned."""


class TrainingError(NumericError):
    """Training diverged or otherwise failed; carries the iteration index."""

    def __init__(self, message: str, iteration: int | None = None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


class ConditioningError(NumericError):
    """Numerical conditioning failure (e.g. Cholesky after jitter escalation)."""


class SearchError(DimuqError):
    """Hyperparameter search could not produce any usable candidate."""


class ProtocolError(DimuqError):
    """Invalid evaluation-protocol configuration."""


def numeric_cause(exc: BaseException | None) -> NumericError | None:
    """The first numerical failure along ``exc`` and its chain of explicit
    causes (``raise ... from``), or None.

    A search or protocol error raised because every attempt failed is chained
    to the first failure, so it can still be told apart as numerical.
    """
    while exc is not None:
        if isinstance(exc, NumericError):
            return exc
        exc = exc.__cause__
    return None
