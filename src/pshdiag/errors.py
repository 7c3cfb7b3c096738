"""Exception hierarchy shared by all modules."""


class PshDiagError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PshDiagError):
    pass


class EmptyInput(PshDiagError):
    pass


class NegativeCoordinate(PshDiagError):
    pass


class PositiveDirection(PshDiagError):
    """Support function queried in a direction with a positive component."""


class NonpositiveWeight(PshDiagError):
    pass


class NonpositiveScale(PshDiagError):
    pass


class ZeroPolynomial(PshDiagError):
    pass


class PolynomialSyntaxError(PshDiagError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(PolynomialSyntaxError):
    pass


class NegativeExponent(PolynomialSyntaxError):
    pass


class SingularMatrix(PshDiagError):
    pass


class InfeasibleAssignment(PshDiagError):
    pass


class UnsupportedDimension(PshDiagError):
    """A well-formed input the exact methods do not cover or that exceeds a budget."""


class Unbounded(PshDiagError):
    pass


class VerificationFailure(PshDiagError):
    """A produced certificate failed its own soundness check; always a bug."""
