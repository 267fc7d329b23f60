"""Exception types shared across the package."""


class InvalidRankError(ValueError):
    """Rank outside the supported range (rank >= 2)."""


class DimensionMismatchError(ValueError):
    """Weights or root data of incompatible rank were mixed."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ConfigurationError(ValueError):
    """An (ell, rank) combination that the construction does not admit."""


class SingularParameterError(ArithmeticError):
    """Evaluation at a parameter where a denominator vanishes."""


class CertificationError(RuntimeError):
    """A finite certification search exhausted its cap without success."""


class NotABijectionError(AssertionError):
    """A map the construction needs to be one-to-one and onto is not."""


class WeightParseError(ValueError):
    """Malformed textual weight."""
