"""Non-atomic probability densities on [0, 2*pi].

Densities are piecewise linear between nodes, so segment masses are exact
quadratics and the CDF inverts in closed form. Queries take arguments in
[0, 2*pi] (`quantile` in [0, 1]), give or take rounding, and raise DomainError
naming the first other one, NaN included. All operations are pure and
the types are immutable after construction. Only `GridDensity.from_values`
rescales values to unit mass; the JSON loader and named constructors call it.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .config import TOL, TWO_PI
from .errors import (ConstructionError, DegenerateQuantileError, DomainError, _entry, _numbers,
                     require_table, require_within)


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


class GridDensity(NamedTuple("_Density", [
        ("nodes", np.ndarray), ("values", np.ndarray),
        ("cum", np.ndarray), ("slopes", np.ndarray), ("plateaus", np.ndarray)])):
    """Piecewise-linear density with unit mass on [0, 2*pi].

    nodes  -- strictly increasing abscissae, first 0, last 2*pi
    values -- non-negative ordinates (mass per unit length)

    Derived at construction: `cum`, the CDF at the nodes; `slopes`, the slope
    of each linear piece; `plateaus`, the CDF levels of the zero-mass pieces.
    """

    __slots__ = ()

    def __new__(cls, nodes, values):
        nodes, values = require_table("density nodes", "density values", nodes, values)
        if abs(nodes[0]) > 0 or abs(nodes[-1] - TWO_PI) > 1e-12:
            raise ConstructionError(f"density nodes span {nodes[[0, -1]].tolist()}, not [0, 2*pi]")
        if np.any(values < 0):
            raise ConstructionError("density values must be non-negative")
        h = np.diff(nodes)
        seg_mass = 0.5 * (values[:-1] + values[1:]) * h
        cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
        if not abs(cum[-1] - 1.0) <= TOL.mass_tol:
            raise ConstructionError(
                f"total mass {cum[-1]!r} differs from 1 by more than {TOL.mass_tol}"
            )
        cum[-1] = 1.0
        slopes = (values[1:] - values[:-1]) / h
        return super().__new__(cls, nodes, values, cum, slopes, cum[:-1][seg_mass == 0.0])

    def __getnewargs__(self):
        """Copies and pickles rebuild from the two given fields."""
        return self.nodes, self.values

    @classmethod
    def _make(cls, iterable):
        """Checked rebuild from nodes and values; cum, slopes and plateaus are re-derived."""
        return cls(*tuple(iterable)[:2])

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_values(cls, nodes, values):
        """The density of values * (1 / M), M their trapezoid mass, which must be positive;
        values within TOL.mass_tol of unit mass are kept as given, so `to_spec` loads back bit for bit."""
        nodes, values = require_table("density nodes", "density values", nodes, values)
        total = float(np.sum(0.5 * (values[:-1] + values[1:]) * np.diff(nodes)))
        if not total > 0:
            raise ConstructionError(f"density values must have positive mass, got {total!r}")
        return cls(nodes, values if abs(total - 1.0) <= TOL.mass_tol else values * (1.0 / total))

    @classmethod
    def uniform(cls):
        return cls.from_values([0.0, TWO_PI], [1.0, 1.0])

    @classmethod
    def cosine(cls, num_nodes: int = 641, amplitude: float = 1.0):
        """Normalized tabulation of (1 + amplitude * cos x) on a symmetric grid.

        amplitude = 1 touches zero at x = pi; pass amplitude < 1 where strict
        positivity is required (e.g. mollified trial states).
        """
        nodes = np.linspace(0.0, TWO_PI, num_nodes)
        return cls.from_values(nodes, 1.0 + amplitude * np.cos(nodes))

    @classmethod
    def random_positive(cls, seed):
        """Seeded strictly positive periodic density on 65 nodes, values drawn in [0.25, 1.75]."""
        values = np.random.default_rng(seed).uniform(0.25, 1.75, 65)
        values[-1] = values[0]
        return cls.from_values(np.linspace(0.0, TWO_PI, 65), values)

    # -- queries --------------------------------------------------------

    def density(self, x):
        """Pointwise density by linear interpolation."""
        x_arr, scalar = _as_array(x)
        require_within("density argument", x_arr, 0.0, TWO_PI, DomainError, slack=1e-12)
        out = np.interp(x_arr, self.nodes, self.values)
        return float(out) if scalar else out

    def _piece(self, x_arr, what: str):
        """x clipped to [0, 2*pi] and the index k of its linear piece [nodes[k], nodes[k + 1]]."""
        require_within(f"{what} argument", x_arr, 0.0, TWO_PI, DomainError, slack=1e-12)
        x_arr = np.clip(x_arr, 0.0, TWO_PI)
        k = np.clip(np.searchsorted(self.nodes, x_arr, side="right") - 1, 0, self.nodes.size - 2)
        return x_arr, k

    def slope(self, x):
        """Derivative of the density: the slope of the linear piece holding x."""
        x_arr, scalar = _as_array(x)
        out = self.slopes[self._piece(x_arr, "slope")[1]]
        return float(out) if scalar else out

    def cdf(self, x):
        """Exact integral of the density over [0, x]."""
        x_arr, scalar = _as_array(x)
        x_arr, k = self._piece(x_arr, "cdf")
        t = x_arr - self.nodes[k]
        out = self.cum[k] + self.values[k] * t + 0.5 * self.slopes[k] * t * t
        out = np.clip(out, 0.0, 1.0)
        return float(out) if scalar else out

    def quantile(self, q):
        """Unique x with cdf(x) = q; raises on flat-CDF plateaus at level q."""
        q_arr, scalar = _as_array(q)
        require_within("quantile argument", q_arr, 0.0, 1.0, DomainError, slack=1e-15)
        q_arr = np.clip(q_arr, 0.0, 1.0)
        if self.plateaus.size and np.any(np.isin(q_arr, self.plateaus)):
            raise DegenerateQuantileError("flat CDF plateau at the requested mass level")
        k = np.clip(np.searchsorted(self.cum, q_arr, side="right") - 1, 0, self.nodes.size - 2)
        dq = q_arr - self.cum[k]
        v = self.values[k]
        s = self.slopes[k]
        h = np.diff(self.nodes)[k]
        # positive root of v t + s t^2 / 2 = dq in the form without cancellation; at s = 0
        # it is dq / v bit for bit, since sqrt(fl(v * v)) = v under round-to-nearest
        root = v + np.sqrt(np.maximum(v * v + 2.0 * s * dq, 0.0))
        t = np.clip(2.0 * dq / np.where(root > 0, root, np.inf), 0.0, h)
        # one Newton polish keeps |cdf(x) - q| at the 1e-12 contract
        f = v * t + 0.5 * s * t * t - dq
        fp = v + s * t
        t = np.clip(np.where(fp > 0, t - f / np.where(fp > 0, fp, 1.0), t), 0.0, h)
        x = self.nodes[k] + t
        x = np.where(q_arr >= 1.0, TWO_PI, np.where(q_arr <= 0.0, 0.0, x))
        return float(x) if scalar else x

    def segments(self, n: int) -> tuple:
        """Boundaries 0 = d_0 < d_1 < ... < d_n = 2*pi at d_i = quantile(i/n): mass 1/n each."""
        if n < 2:
            raise DomainError("need at least two segments")
        inner = self.quantile(np.arange(1, n) / n)
        return (0.0, *map(float, np.atleast_1d(inner)), TWO_PI)

    def mass_between(self, a, b):
        """Mass of the torus arc from a to b (counter-clockwise), endpoints in [0, 2*pi]."""
        a_arr, scalar = _as_array(a)
        b_arr, _ = _as_array(b)
        ca, cb = self.cdf(a_arr), self.cdf(b_arr)
        out = np.where(a_arr <= b_arr, cb - ca, 1.0 - (ca - cb))
        return float(out) if scalar else out

    def concentration(self, r: float) -> float:
        """Largest mass in any torus ball of radius r.

        The ball mass M(c) = cdf(c + r) - cdf(c - r) is quadratic in c between
        the breakpoints c = node -+ r, where c + r or c - r crosses a node. Its
        maximum is at a breakpoint or at a piece's stationary point, where
        rho(c + r) = rho(c - r); M is evaluated at all of them.
        """
        if not 0.0 < r <= np.pi + 1e-15:
            raise DomainError("concentration radius must lie in (0, pi]")
        if 2.0 * r >= TWO_PI:
            return 1.0
        lo = np.sort(np.mod(np.concatenate((self.nodes - r, self.nodes + r)), TWO_PI))
        hi = np.append(lo[1:], lo[0] + TWO_PI)
        mid = 0.5 * (lo + hi)
        up, down = np.mod(mid + r, TWO_PI), np.mod(mid - r, TWO_PI)
        # M'(c) = rho(c + r) - rho(c - r) is linear on each piece, with slope ds
        ds = self.slope(up) - self.slope(down)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(ds != 0.0, (self.density(up) - self.density(down)) / ds, 0.0)
        centers = np.concatenate((lo, np.clip(mid - step, lo, hi)))
        return float(np.max(self.mass_between(np.mod(centers - r, TWO_PI), np.mod(centers + r, TWO_PI))))

    def to_spec(self) -> dict:
        return {
            "schema": 1,
            "nodes": self.nodes.tolist(),
            "values": self.values.tolist(),
        }


def density_from_spec(spec: dict) -> GridDensity:
    """`GridDensity.from_values` of a spec's `nodes` and `values`, lists of JSON numbers; an
    optional boolean `periodic` declares equal end values, checked on the rescaled values.
    ConstructionError names a bad key or entry."""
    nodes = _numbers("density nodes", _entry(spec, "nodes", "density spec", list))
    values = _numbers("density values", _entry(spec, "values", "density spec", list))
    periodic = "periodic" in spec and _entry(spec, "periodic", "density spec", bool)
    rho = GridDensity.from_values(nodes, values)
    if periodic and abs(rho.values[0] - rho.values[-1]) > 1e-12:
        raise ConstructionError("periodic density needs equal endpoint values")
    return rho


def load_density(path) -> GridDensity:
    with open(path, "r", encoding="utf-8") as fh:
        return density_from_spec(json.load(fh))
