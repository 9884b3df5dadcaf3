"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for every domain error raised by this package."""


class DimensionMismatchError(AlgebraError):
    """Operands live over polynomial rings with different variable counts."""


class ZeroModuleError(AlgebraError):
    """The requested invariant is undefined for the zero module."""


class NotBorelTypeError(AlgebraError):
    """The operation needs a module of Borel type and the input is not one."""


class NotArtinianError(AlgebraError):
    """The module is not Artinian, or its top degree passes the ceiling."""


class GuardExceededError(AlgebraError):
    """An enumeration box grew past its configured size guard."""


class NotSequentiallyCMError(AlgebraError):
    """A chain step's trailing variables are not a regular sequence on its
    quotient: the module is not sequentially Cohen-Macaulay, so it has no
    pretty clean filtration and the chain does not give its regularity."""


class InternalInconsistencyError(AlgebraError):
    """Two provably equal computations disagreed; an implementation defect."""


class ParseError(AlgebraError):
    """Malformed input text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
