"""Exception taxonomy.

Domain failures (no object exists) are distinct from caller mistakes
(bad input) and from internal invariant violations (bugs).
"""


class QuatextError(Exception):
    """Base class for all package-specific errors."""


class InvalidDiscriminant(QuatextError, ValueError):
    """Input is not a discriminant of the kind the operation needs."""


class NotFundamental(InvalidDiscriminant):
    """Integer is not a fundamental discriminant."""


class SymbolDomain(QuatextError, ValueError):
    """Residue symbol evaluated outside its domain of definition."""


class InvalidParameter(QuatextError, ValueError):
    """A user-forced choice (roles, parameter) fails its requirements."""


class FactorizationRejected(QuatextError):
    """A candidate splitting fails one of the symbol conditions.

    Carries enough context to report which condition failed.
    """

    def __init__(self, message: str, *, prime: int | None = None,
                 numerator: int | None = None, value: int | None = None):
        super().__init__(message)
        self.prime = prime
        self.numerator = numerator
        self.value = value


class LocalObstruction(QuatextError):
    """The conic has no rational point; `place` names a failing completion."""

    def __init__(self, message: str, *, place: int | str):
        super().__init__(message)
        self.place = place


class SearchExhausted(QuatextError, RuntimeError):
    """A bounded search ended without a hit where one was expected."""


class NonNormal(QuatextError):
    """The quartic extension failed the normality test for some action."""

    def __init__(self, message: str, *, action: str):
        super().__init__(message)
        self.action = action


class BaseMismatch(QuatextError, TypeError):
    """Arithmetic between elements of different biquadratic fields."""


class NonIntegral(QuatextError):
    """Element expected to be an algebraic integer is not."""


class InternalInvariant(QuatextError, RuntimeError):
    """A condition the mathematics guarantees was violated: a bug."""
