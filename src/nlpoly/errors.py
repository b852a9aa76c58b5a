"""Exception types shared across the library."""


class DimensionError(ValueError):
    """Operands have incompatible shapes, sizes or index ranges."""


class InvalidBasisError(ValueError):
    """A supplied column set is not a basis of the matroid.

    Carries the offending ``columns`` and the ``reason`` separately, so a
    caller that numbers columns differently can restate the error.
    """

    def __init__(self, columns, reason):
        self.columns = list(columns)
        self.reason = reason
        super().__init__(f"basis {self.columns} {reason}")


class NotARealizationError(ValueError):
    """A matrix expected to realize an oriented matroid is rank-deficient."""


class InvalidPosetError(ValueError):
    """A poset argument lacks the structure an operation relies on."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured cap or budget."""


class ContractViolation(RuntimeError):
    """An argument violates a documented precondition of a construction."""


class ParseError(ValueError):
    """Malformed input file.  Carries a 1-based line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        elif line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
