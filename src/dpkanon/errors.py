"""Exception hierarchy shared across the package.

Usage errors (bad arguments, unknown options) and data errors (bad input
files, infeasible parameters) are kept distinct so the CLI can map them to
different exit codes.
"""


class DpkError(Exception):
    """Base class for all package errors."""


class SchemaError(DpkError):
    """A declared column is missing or the schema is inconsistent."""


class ParseError(DpkError):
    """A cell could not be parsed as a number; message cites row/column."""


class EmptyInputError(DpkError):
    """The input contains no data rows."""


class DomainError(DpkError, ValueError):
    """An argument is outside its mathematical domain."""


class ShapeError(DpkError, ValueError):
    """Mismatched array dimensions."""


class InfeasibleError(DpkError):
    """The anonymity parameter k cannot be satisfied (k > n)."""


class ConvergenceError(DpkError):
    """An iterative fit failed, e.g. perfect separation in logistic weights."""


class DegenerateError(DpkError):
    """A problem instance is degenerate, e.g. all-zero regression weights."""
