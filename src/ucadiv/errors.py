"""Exception hierarchy with coarse categories used for CLI exit codes."""


class UcadivError(Exception):
    """Base class; every error is a DataError, ModelError or NumericError."""


class DataError(UcadivError):
    """Malformed or inconsistent input data (exit code 3)."""


class ParseError(DataError):
    """File parse failure; carries the offending line number when known."""

    def __init__(self, message, path=None, lineno=None):
        self.path = path
        self.lineno = lineno
        prefix = ""
        if path is not None:
            prefix += str(path)
        if lineno is not None:
            prefix += f":{lineno}"
        if prefix:
            message = f"{prefix}: {message}"
        super().__init__(message)


class ModelError(UcadivError):
    """Input violates a modeling assumption (exit code 4)."""


class NumericError(UcadivError):
    """Numerical failure during evaluation (exit code 5)."""

