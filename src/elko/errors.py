"""Exception types shared across the package, ``check_label``, the one
check of a label argument (family, kind, index, basis, side, sign, ...), and
``check_finite``, the one check that an angle or a mass is finite."""

import numpy as np


class ElkoError(Exception):
    """Base class for all package errors."""


class DimensionError(ElkoError, ValueError):
    """Matrix/vector shapes are incompatible with the requested operation."""


class DomainError(ElkoError, ValueError):
    """An argument lies outside the physical domain (e.g. mass <= 0)."""


def check_label(name: str, value, allowed):
    """Raise ``DomainError`` unless ``value`` is one of ``allowed`` (a tuple,
    or a dict keyed by the allowed values); the message names the argument
    and lists the allowed values."""
    if value not in allowed:
        raise DomainError(f"{name} must be one of {tuple(allowed)}, got {value!r}")


def check_finite(**values):
    """Raise ``DomainError`` unless every value, a float or an array, is
    finite throughout; the message names the first argument that is not."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise DomainError(f"{name} must be finite")


class DirectionUndefinedError(DomainError):
    """The momentum direction is needed but |p| = 0."""


class CoordinateSingularityError(DomainError):
    """Momentum points along the -z axis where the helicity rotation is singular."""


class AmbiguousIntertwinerError(ElkoError):
    """The intertwiner solution space has dimension > 1; the caller must constrain."""

    def __init__(self, dimension, message=None):
        self.dimension = dimension
        super().__init__(message or f"intertwiner solution space has dimension {dimension}")


class UsageError(ElkoError, ValueError):
    """Invalid way of calling a top-level entry point (CLI / suite)."""
