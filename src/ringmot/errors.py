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


def require_table(what_x: str, what_y: str, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays of a piecewise-linear table; ConstructionError unless they are 1d of equal
    length >= 2 and finite, with strictly increasing xs, naming the first bad index."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ConstructionError(f"{what_x} and {what_y} must be 1d of equal length >= 2, "
                                f"got shapes {x.shape} and {y.shape}")
    require_finite(what_x, x, ConstructionError)
    require_finite(what_y, y, ConstructionError)
    k = np.flatnonzero(np.diff(x) <= 0)
    if k.size:
        raise ConstructionError(f"{what_x} must be strictly increasing: index {k[0] + 1} "
                                f"holds {float(x[k[0] + 1])!r} after {float(x[k[0]])!r}")
    return x, y


def require_within(what: str, x, lo: float, hi: float, error: type[RingmotError],
                   slack: float = 0.0) -> None:
    """Raise `error` naming [lo, hi] and the first entry of x outside [lo - slack, hi + slack],
    NaN included."""
    inside = (x >= lo - slack) & (x <= hi + slack)
    if not np.all(inside):
        bad = np.asarray(x, dtype=float).flat[np.argmin(inside)]
        raise error(f"{what} is defined on [{float(lo)!r}, {float(hi)!r}] only, not at {float(bad)!r}")


def require_size(what: str, size, limit: int) -> None:
    """Raise SizeGuardError "<what> = <size> exceeds the <limit> guard" unless size <= limit.

    size is an int, or a pair (factors, value): the size written by its factors,
    and its value, or None where the caller has shown it past the limit without
    building it (`power_size`). The message names the factors, then the value if any.
    """
    if isinstance(size, tuple):
        factors, value = size
        if value is not None and value <= limit:
            return
        size = factors if value is None else f"{factors} = {value}"
    elif size <= limit:
        return
    raise SizeGuardError(f"{what} = {size} exceeds the {limit} guard")


def power_size(base: int, exponent: int, limit: int) -> tuple[str, int | None]:
    """base^exponent, for base >= 0, as a `require_size` pair built only where it can be within limit.

    For exponent >= 1 it is past limit without being built when base > limit, or
    when base >= 2 and exponent > limit.bit_length(), as 2^bit_length > limit.
    """
    past = exponent >= 1 and (base > limit or base >= 2 and exponent > limit.bit_length())
    return f"{base}^{exponent}", None if past else base ** exponent


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
