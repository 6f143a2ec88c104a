"""Exception hierarchy, finiteness check and validating-record base shared across the package."""

import numpy as np


class RingmotError(Exception):
    """Base class for all package errors."""


class DomainError(RingmotError):
    """An argument lies outside the documented domain."""


class DegenerateQuantileError(RingmotError):
    """The CDF has a flat plateau at the requested mass level.

    Raised instead of silently picking a point inside the plateau.
    """


class ConstructionError(RingmotError):
    """A cost model or density could not be built from the given pieces."""


class ConcentrationError(RingmotError):
    """kappa(rho; r) >= 1/n, so the off-diagonal support argument fails."""


class ThresholdNotFoundError(RingmotError):
    """No truncation threshold on the scan grid satisfies the support conditions."""


class SizeGuardError(RingmotError):
    """A problem size exceeds the guard documented for the operation."""


class RegimeError(RingmotError):
    """The mollification width is too large for the plan's support separation."""


class StateError(RingmotError):
    """An operation was called on an object in the wrong state."""


def require_finite(what: str, x: np.ndarray, error: type[RingmotError]) -> None:
    """Raise `error` naming the first non-finite entry of the array x and its index."""
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        at = tuple(int(i) for i in bad[0])
        raise error(f"{what} must be finite: index {at[0] if len(at) == 1 else at} holds {x[at]}")


class Checked:
    """Base of the validating NamedTuples: `_make`, and `_replace` through it, run `__new__`'s checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
