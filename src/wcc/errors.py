"""Exception hierarchy shared by all wcc modules."""


class WccError(Exception):
    """Base class for all library errors."""


class PreconditionError(WccError):
    """An operation was called on input violating a documented precondition."""


class ParameterError(WccError):
    """A user-supplied parameter is outside its admissible range."""


class RegularityError(WccError):
    """Cartan projection too close to a chamber wall for angular points.

    Carries the measured wall distance so callers can report how far the
    input was from being usable.
    """

    def __init__(self, message, wall_distance=None):
        super().__init__(message)
        self.wall_distance = wall_distance


class TransversalityError(WccError):
    """A flag pair required to be transverse is not (or is below tolerance)."""


class LoxodromyError(WccError):
    """An operation requiring a loxodromic element got a singular one."""


class FeasibilityError(WccError):
    """An enumeration request exceeds the configured feasibility cap."""

    def __init__(self, message, estimated_candidates=None):
        super().__init__(message)
        self.estimated_candidates = estimated_candidates


class NumericError(WccError):
    """A numerical routine failed to converge or failed a redundancy check."""
