"""Exception and warning types shared across the package."""


class LinpotError(Exception):
    """Base class for all package errors."""


class CoverageError(LinpotError):
    """A state (or its evolved/shifted image) does not fit inside the grid."""


class NormalizationError(LinpotError):
    """An operation that requires a normalized state received one that is not."""


class StabilityError(LinpotError):
    """The solver lost norm without an absorber, or produced non-finite values."""


class NoTurningPointsError(LinpotError):
    """Requested energy lies above the barrier peak: no classically forbidden region."""


class DegenerateEnergyError(LinpotError):
    """Requested energy lies at or below the potential base line."""


class StationarityTimeout(LinpotError):
    """A tunneling run hit its step budget before T and R became stationary.

    Carries the partial result in ``partial_result``.
    """

    def __init__(self, message, partial_result=None):
        super().__init__(message)
        self.partial_result = partial_result


class GeometryError(LinpotError):
    """A device geometry failed an internal consistency assertion."""


class BranchMismatchError(LinpotError):
    """The two splitter stages of a circuit are not inverses of each other."""


class PreconditionError(LinpotError):
    """A physical-validity precondition was violated (may be overridable)."""


class InfeasibleError(LinpotError):
    """A parameter inversion has no positive real solution."""


class ConfigError(LinpotError):
    """An experiment configuration failed validation. Message names the field."""


class BoundaryContaminationWarning(UserWarning):
    """A state carries non-negligible probability near a non-absorbing grid edge."""
