"""Exception and warning types shared across the package, and the one
place that raises a warning."""

import sys
import warnings


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
    """Requested energy is not finite, or lies at or below the potential base
    line."""


class StationarityTimeout(LinpotError):
    """A tunneling run hit its step budget before its bound on the
    transmission still to come fell below ``tunneling.STOP_BUDGET``.

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


def _warn(message: str, category: type[Warning] = UserWarning) -> None:
    """``warnings.warn(message, category)``, attributed to the first frame
    outside linpot's library modules: the caller's line that led to it,
    however deep in the package it is raised.  ``linpot.cli`` counts as a
    caller, so a command's warning names the command's line."""
    frame, level = sys._getframe(1), 2
    while frame is not None and _in_library(frame.f_globals.get("__name__", "")):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _in_library(module: str) -> bool:
    return module.split(".")[0] == __package__ and module != f"{__package__}.cli"
