"""Exception types shared across the package."""


class LabError(Exception):
    """Base class for tflab-specific failures."""


class GridMismatchError(LabError):
    """Two grid functions live on different grids."""


class ResolutionError(LabError):
    """The sampling grid cannot resolve a requested scale or frequency."""


class CountingConditionError(LabError):
    """A collection of top data overlaps more than the admitted bound."""


class DegeneracyError(LabError):
    """A direction vector is too close to the degenerate hyperplanes."""


class ThresholdDoublingError(LabError):
    """Doubling the exceptional-set threshold never preserved a major subset."""
