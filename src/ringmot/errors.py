"""Exception hierarchy, finiteness and JSON-spec checks, and the validating-record base."""

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


def _entry(spec, key: str, what: str, of=object):
    """spec[key]; ConstructionError names the key when spec is no JSON object, lacks it, or
    holds a value there that is not an `of`."""
    if not isinstance(spec, dict):
        raise ConstructionError(f"{what} must be a JSON object, got a {type(spec).__name__}")
    if key not in spec:
        raise ConstructionError(f"{what} needs the key {key!r}")
    if not isinstance(spec[key], of):
        raise ConstructionError(f"{what} {key!r} must be a {of.__name__}, got {spec[key]!r}")
    return spec[key]


def _numbers(what: str, value):
    """value if it is a JSON number or a list of them; else ConstructionError naming what."""
    for v in value if isinstance(value, (list, tuple)) else [value]:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConstructionError(f"{what} must be numeric, got {v!r}")
    return value


class Checked:
    """Base of the validating NamedTuples: `_make`, and `_replace` through it, run `__new__`'s checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
