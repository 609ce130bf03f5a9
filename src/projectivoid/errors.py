"""Exception types shared across the package."""


class DomainError(Exception):
    """Base class for mathematically meaningful failures (CLI exit code 1)."""


class PrimeMismatch(DomainError):
    pass


class NegativeValuation(DomainError):
    pass


class DivisionByZero(DomainError):
    pass


class ZeroSeries(DomainError):
    pass


class SubringViolation(DomainError):
    pass


class NotAUnit(DomainError):
    pass


class NonpositivePrecision(DomainError):
    pass


class NormExceedsOne(DomainError):
    pass


class DimensionMismatch(DomainError):
    pass


class NotATransitionMatrix(DomainError):
    pass


class InvalidAutomorphism(DomainError):
    def __init__(self, side, message=""):
        super().__init__(message or f"matrix is not a valid {side} automorphism")
        self.side = side


class NotInvertibleOverRing(DomainError):
    pass


class ParseError(Exception):
    """Rejected input text (CLI exit code 2); carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class WrongPrimeDenominator(ParseError):
    pass


class RaggedMatrix(ParseError):
    pass
