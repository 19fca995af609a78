"""Exception hierarchy shared across the package.

Everything inherits from :class:`MinkLabError` so callers can catch the
package's failures in one clause; the subclasses separate malformed
arguments, violated mathematical hypotheses and failed constructions.
"""

from __future__ import annotations


class MinkLabError(Exception):
    """Base class for all package-specific failures."""


class ArgumentError(MinkLabError, ValueError):
    """A caller passed a malformed argument (empty interval, bad order...)."""


class CapabilityError(MinkLabError):
    """The request exceeds what the object can do (order > max_order)."""


class ValidationError(MinkLabError):
    """An input fails a mathematical precondition (e.g. not convex)."""


class HypothesisError(ValidationError):
    """A lemma/schedule hypothesis fails for the supplied parameters."""


class RootBracketError(MinkLabError):
    """A root search found no sign change in its bracket."""


class DegenerateHessianError(MinkLabError):
    """Matched second derivatives sum to zero; curvature transfer undefined."""


class RotationTooLargeError(ValidationError):
    """The rotated graph ceases to be a graph (R' <= 0 somewhere)."""


class ConstructionError(MinkLabError):
    """A multi-step construction failed to meet its own certificates."""
