"""Exception hierarchy with coarse categories used for CLI exit codes."""


class UcadivError(Exception):
    """Base class; every error is a DataError, ModelError or NumericError."""


class DataError(UcadivError):
    """Malformed or inconsistent input data (exit code 3)."""


class ParseError(DataError):
    """File parse failure: ``path: message`` or ``path:lineno: message``."""

    def __init__(self, message, path, lineno=None):
        self.lineno = lineno
        line = "" if lineno is None else f":{lineno}"
        super().__init__(f"{path}{line}: {message}")


class ModelError(UcadivError):
    """Input violates a modeling assumption (exit code 4)."""


class NumericError(UcadivError):
    """Numerical failure during evaluation (exit code 5)."""

