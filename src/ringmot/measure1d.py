"""Non-atomic probability densities on [0, 2*pi].

Densities are piecewise linear between nodes, so segment masses are exact
quadratics and the CDF inverts in closed form. All operations are pure and
the types are immutable after construction.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .config import TOL, TWO_PI
from .errors import ConstructionError, DegenerateQuantileError, DomainError, require_finite


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
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 2:
            raise ConstructionError("nodes and values must be 1d arrays of equal length >= 2")
        require_finite("density nodes", nodes, ConstructionError)
        require_finite("density values", values, ConstructionError)
        if abs(nodes[0]) > 0 or abs(nodes[-1] - TWO_PI) > 1e-12:
            raise ConstructionError("nodes must start at 0 and end at 2*pi")
        if not np.all(np.diff(nodes) > 0):
            raise ConstructionError("nodes must be strictly increasing")
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
    def from_values(cls, nodes, values, normalize=False):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if normalize:
            h = np.diff(nodes)
            total = float(np.sum(0.5 * (values[:-1] + values[1:]) * h))
            if total <= 0:
                raise ConstructionError("cannot normalize a zero-mass density")
            values = values / total
        return cls(nodes, values)

    @classmethod
    def uniform(cls):
        return cls(np.array([0.0, TWO_PI]), np.array([1.0, 1.0]) / TWO_PI)

    @classmethod
    def cosine(cls, num_nodes: int = 641, amplitude: float = 1.0):
        """Normalized tabulation of (1 + amplitude * cos x) on a symmetric grid.

        amplitude = 1 touches zero at x = pi; pass amplitude < 1 where strict
        positivity is required (e.g. mollified trial states).
        """
        nodes = np.linspace(0.0, TWO_PI, num_nodes)
        return cls.from_values(nodes, 1.0 + amplitude * np.cos(nodes), normalize=True)

    @classmethod
    def random_positive(cls, seed: int, num_nodes: int = 65, lo: float = 0.25, hi: float = 1.75):
        """Seeded strictly positive density for randomized tests."""
        rng = np.random.default_rng(seed)
        values = rng.uniform(lo, hi, num_nodes)
        values[-1] = values[0]
        nodes = np.linspace(0.0, TWO_PI, num_nodes)
        return cls.from_values(nodes, values, normalize=True)

    # -- queries --------------------------------------------------------

    def density(self, x):
        """Pointwise density by linear interpolation."""
        x_arr, scalar = _as_array(x)
        out = np.interp(x_arr, self.nodes, self.values)
        return float(out) if scalar else out

    def _piece(self, x_arr, what: str):
        """x clipped to [0, 2*pi] and the index k of its linear piece [nodes[k], nodes[k + 1]]."""
        if np.any(x_arr < -1e-12) or np.any(x_arr > TWO_PI + 1e-12):
            raise DomainError(f"{what} argument outside [0, 2*pi]")
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
        if np.any(q_arr < -1e-15) or np.any(q_arr > 1 + 1e-15):
            raise DomainError("quantile argument outside [0, 1]")
        q_arr = np.clip(q_arr, 0.0, 1.0)
        if self.plateaus.size and np.any(np.isin(q_arr, self.plateaus)):
            raise DegenerateQuantileError("flat CDF plateau at the requested mass level")
        k = np.clip(np.searchsorted(self.cum, q_arr, side="right") - 1, 0, self.nodes.size - 2)
        dq = q_arr - self.cum[k]
        v = self.values[k]
        s = self.slopes[k]
        h = np.diff(self.nodes)[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            # positive root of v t + s t^2 / 2 = dq, stable for small s
            disc = np.sqrt(np.maximum(v * v + 2.0 * s * dq, 0.0))
            t_quad = np.where(np.abs(s) > 1e-300, 2.0 * dq / np.maximum(disc + v, 1e-300), 0.0)
            t_lin = np.where(v > 0, dq / np.where(v > 0, v, 1.0), 0.0)
        t = np.where(np.abs(s) * h > 1e-14 * np.maximum(v, 1e-300), t_quad, t_lin)
        t = np.clip(t, 0.0, h)
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
    """Build a density from its JSON spec, its values rescaled to unit mass.

    A spec that sets `periodic` declares equal first and last values; the
    declaration is checked on the rescaled values.
    """
    try:
        nodes = np.asarray(spec["nodes"], dtype=float)
        values = np.asarray(spec["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstructionError(f"malformed density spec: {exc}") from exc
    require_finite("density nodes", nodes, ConstructionError)
    require_finite("density values", values, ConstructionError)
    h = np.diff(nodes)
    if nodes.ndim != 1 or nodes.size < 2 or np.any(h <= 0):
        raise ConstructionError("density spec needs strictly increasing nodes")
    total = float(np.sum(0.5 * (values[:-1] + values[1:]) * h))
    if not total > 0:
        raise ConstructionError("density spec has non-positive total mass")
    rho = GridDensity(nodes, values * (1.0 / total))
    if spec.get("periodic", False) and abs(rho.values[0] - rho.values[-1]) > 1e-12:
        raise ConstructionError("periodic density needs equal endpoint values")
    return rho


def load_density(path) -> GridDensity:
    with open(path, "r", encoding="utf-8") as fh:
        return density_from_spec(json.load(fh))
