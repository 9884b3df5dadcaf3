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
    """A degree scan hit its ceiling without the module vanishing."""


class GuardExceededError(AlgebraError):
    """An enumeration box grew past its configured size guard."""


class WitnessExhaustionError(AlgebraError):
    """No monomial of a chain step's target outside the current ideal has
    the step prime as its colon."""


class InternalInconsistencyError(AlgebraError):
    """Two provably equal computations disagreed; an implementation defect."""


class ParseError(AlgebraError):
    """Malformed input text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
