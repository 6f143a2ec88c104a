"""Pairwise interaction models and their structural certificates.

A cost model wraps a vectorized evaluator w(x, y) with extended-real values
(+inf allowed) plus the structural metadata the transport machinery needs:
symmetry, translation invariance, periodicity, and the infinity locus.

Cost models are exactly symmetric; that is checked once at construction, so
evaluation calls the raw evaluator once. A `translation_invariant` flag is
checked there too, bit for bit, because `grid_matrix` trusts it to read a
uniform grid's pair matrix off one cost row.

The four-point exchange inequality is certified on pair matrices: the G x G
matrix of a uniform grid plus the 4 x 4 matrices of random 4-point sets. One
exact O(G^3) scan per matrix gives the minimum margin over all sorted index
quadruples (the inequality's Monge structure), so the grid evidence needs no
quadruple enumeration. The inequality quantifies over a continuum, so grid
certification with a small slack is the testable surrogate. Reports carry
the grid resolution so failures are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import TOL, TWO_PI
from .errors import (
    ConcentrationError,
    ConstructionError,
    DomainError,
    ThresholdNotFoundError,
)
from .measure1d import GridDensity


def torus_distance(x, y):
    """Geodesic distance on the torus R / (2*pi Z), in [0, pi]."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    d = np.mod(d, TWO_PI)
    return np.minimum(d, TWO_PI - d)


# -- radial / even profiles ---------------------------------------------


@dataclass(frozen=True)
class InverseProfile:
    """g(d) = scale / d, +inf at d = 0."""

    scale: float = 1.0

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(d > 0, self.scale / np.where(d > 0, d, 1.0), np.inf)

    def spec(self):
        return {"kind": "inverse", "params": {"scale": self.scale}}


@dataclass(frozen=True)
class ExpProfile:
    """g(d) = scale * exp(-rate * d)."""

    rate: float = 1.0
    scale: float = 1.0

    def __call__(self, d):
        return self.scale * np.exp(-self.rate * np.asarray(d, dtype=float))

    def spec(self):
        return {"kind": "exp", "params": {"rate": self.rate, "scale": self.scale}}


@dataclass(frozen=True)
class LinearProfile:
    """g(d) = intercept - slope * d."""

    intercept: float
    slope: float = 1.0

    def __call__(self, d):
        return self.intercept - self.slope * np.asarray(d, dtype=float)

    def spec(self):
        return {"kind": "linear", "params": {"intercept": self.intercept, "slope": self.slope}}


@dataclass(frozen=True)
class PowerProfile:
    """g(d) = scale * d**exponent; negative exponents blow up at d = 0."""

    exponent: float
    scale: float = 1.0

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        if self.exponent >= 0:
            return self.scale * d**self.exponent
        with np.errstate(divide="ignore"):
            return np.where(d > 0, self.scale * np.where(d > 0, d, 1.0) ** self.exponent, np.inf)

    def spec(self):
        return {"kind": "power", "params": {"exponent": self.exponent, "scale": self.scale}}


@dataclass(frozen=True)
class TableProfile:
    """Piecewise-linear profile through (xs, ys); queries must stay in range."""

    xs: tuple
    ys: tuple

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        xs = np.asarray(self.xs)
        if np.any(d < xs[0] - 1e-12) or np.any(d > xs[-1] + 1e-12):
            raise ConstructionError("table profile queried outside its tabulated range")
        return np.interp(d, xs, np.asarray(self.ys))

    def spec(self):
        return {"kind": "table", "params": {"xs": list(self.xs), "ys": list(self.ys)}}


PROFILE_KINDS = {
    "inverse": lambda p: InverseProfile(**p),
    "exp": lambda p: ExpProfile(**p),
    "linear": lambda p: LinearProfile(**p),
    "power": lambda p: PowerProfile(**p),
    "table": lambda p: TableProfile(tuple(p["xs"]), tuple(p["ys"])),
}


def profile_from_spec(spec: dict):
    kind = spec.get("kind")
    if kind not in PROFILE_KINDS:
        raise ConstructionError(f"unknown profile kind {kind!r}")
    return PROFILE_KINDS[kind](spec.get("params", {}))


def _profile_warnings(g, lo, hi, label, samples=257):
    """Flag (not fatal) convexity / monotonicity defects of a profile on [lo, hi]."""
    t = np.linspace(lo, hi, samples)
    try:
        if not np.isfinite(np.asarray(g(lo), dtype=float)):
            t = t[1:]
        y = np.asarray(g(t), dtype=float)
    except Exception as exc:
        return (f"{label}: profile not evaluable on [{lo}, {hi}]: {exc}",)
    warnings = []
    if np.any(np.diff(y) > 1e-9):
        warnings.append(f"{label}: profile not non-increasing on [{lo}, {hi}]")
    finite = np.isfinite(y)
    yf = y[finite]
    if yf.size >= 3 and np.any(yf[:-2] + yf[2:] - 2 * yf[1:-1] < -1e-9):
        warnings.append(f"{label}: profile not convex on [{lo}, {hi}]")
    return tuple(warnings)


# -- cost models ---------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Symmetric pairwise interaction with extended-real values."""

    kind: str
    raw: object = field(repr=False)
    domain: tuple = (0.0, TWO_PI)
    translation_invariant: bool = False
    periodic: bool = False
    infinity_locus: str = "none"
    bound: float | None = None
    profile_warnings: tuple = ()
    spec: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # exact symmetry is checked once here instead of symmetrising every call
        xs = np.linspace(*self.domain, 13)
        w = np.asarray(self.raw(xs[:, None], xs[None, :]), dtype=float)
        bad = np.argwhere(w != w.T)
        if bad.size:
            i, j = bad[0]
            raise ConstructionError(
                f"{self.kind} cost is not exactly symmetric: w({xs[i]!r}, {xs[j]!r}) = "
                f"{w[i, j]!r} but w({xs[j]!r}, {xs[i]!r}) = {w[j, i]!r}"
            )
        if self.translation_invariant:
            self._check_translation_invariant()

    def _check_translation_invariant(self):
        """w(x_i, x_j) must depend on i - j alone, bit for bit, on a dyadic grid.

        The grid's nodes are small multiples of one power of two inside the
        domain, so every difference x_i - x_j is exact and a cost of x - y
        alone gives each diagonal one value.
        """
        lo, hi = self.domain
        step = 2.0 ** np.floor(np.log2((hi - lo) / 16))
        xs = step * np.arange(np.ceil(lo / step), np.floor(hi / step) + 1)
        w = np.asarray(self.raw(xs[:, None], xs[None, :]), dtype=float)
        offset = np.abs(np.arange(xs.size)[:, None] - np.arange(xs.size)[None, :])
        bad = np.argwhere(w != w[0][offset])
        if bad.size:
            i, j = bad[0]
            k = offset[i, j]
            raise ConstructionError(
                f"{self.kind} cost is flagged translation invariant but "
                f"w({float(xs[i])!r}, {float(xs[j])!r}) = {float(w[i, j])!r} while "
                f"w({float(xs[0])!r}, {float(xs[k])!r}) = {float(w[0, k])!r}"
            )

    def __call__(self, x, y):
        w = self.raw(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.asarray(w, dtype=float)[()]  # 0-d results come back as numpy scalars

    def pair_matrix(self, xs, ys=None):
        xs = np.asarray(xs, dtype=float)
        ys = xs if ys is None else np.asarray(ys, dtype=float)
        return self(xs[:, None], ys[None, :])

    def grid_matrix(self, xs):
        """The pair matrix on a uniform grid xs, from one cost row when it can.

        A translation-invariant cost is evaluated once, on the row
        w(xs[0], xs), and M[i, j] = row[|i - j|]: g evaluations instead of
        g^2, and an exactly symmetric Toeplitz matrix. Each entry is the cost
        at the grid's own offset xs[|i - j|] - xs[0] rather than at the
        rounded fl(xs[i] - xs[j]) of `pair_matrix`, so finite entries can
        differ from it in the last places; +inf entries sit at the same
        pairs. Other costs take `pair_matrix`. Raises DomainError naming the
        worst step when the steps of xs differ by more than rounding.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1:
            raise DomainError("grid_matrix needs a 1d grid")
        if xs.size > 2:
            steps = np.diff(xs)
            mean = (xs[-1] - xs[0]) / (xs.size - 1)
            worst = int(np.argmax(np.abs(steps - mean)))
            # linspace and midpoint nodes sit within an ulp or two of the exact ones
            if not abs(steps[worst] - mean) <= 16 * np.finfo(float).eps * np.abs(xs).max():
                raise DomainError(
                    f"grid_matrix needs a uniform grid: step {worst} "
                    f"(xs[{worst}] = {float(xs[worst])!r} to xs[{worst + 1}] = "
                    f"{float(xs[worst + 1])!r}) is {float(steps[worst])!r}, "
                    f"the mean step is {float(mean)!r}"
                )
        if not self.translation_invariant:
            return self.pair_matrix(xs)
        row = self(xs[0], xs)
        wrapped = np.concatenate((row[:0:-1], row))   # wrapped[g - 1 + k] = row[|k|]
        return np.lib.stride_tricks.sliding_window_view(wrapped, xs.size)[::-1].copy()


def make_ring_cost(g) -> CostModel:
    """Chordal interaction w(t, p) = g(2 sin(|t - p| / 2)) for particles on S^1."""
    warnings = _profile_warnings(g, 0.0, 2.0, "ring")
    try:
        g(np.array([0.5, 1.0, 2.0]))
    except Exception as exc:
        raise ConstructionError(f"ring profile not evaluable on [0, 2]: {exc}") from exc

    def raw(x, y):
        return g(2.0 * np.sin(0.5 * torus_distance(x, y)))

    at_zero = float(np.asarray(g(0.0)).item()) if _finite_at(g, 0.0) else np.inf
    return CostModel(
        kind="ring",
        raw=raw,
        domain=(0.0, TWO_PI),
        translation_invariant=True,
        periodic=True,
        infinity_locus="none" if np.isfinite(at_zero) else "periodic-diagonal",
        profile_warnings=warnings,
        spec={"kind": "ring", "profile": getattr(g, "spec", dict)()},
    )


def make_torus_cost(g) -> CostModel:
    """w(x, y) = g(|x - y|_T) with g defined on [0, pi]."""
    warnings = _profile_warnings(g, 0.0, np.pi, "torus")

    def raw(x, y):
        return g(torus_distance(x, y))

    at_zero = float(np.asarray(g(0.0)).item()) if _finite_at(g, 0.0) else np.inf
    return CostModel(
        kind="torus",
        raw=raw,
        domain=(0.0, TWO_PI),
        translation_invariant=True,
        periodic=True,
        infinity_locus="none" if np.isfinite(at_zero) else "periodic-diagonal",
        profile_warnings=warnings,
        spec={"kind": "torus", "profile": getattr(g, "spec", dict)()},
    )


def _finite_at(g, d):
    try:
        return bool(np.isfinite(np.asarray(g(d), dtype=float)))
    except Exception:
        return False


def make_graph_cost(f, g, window=(0.0, TWO_PI)) -> CostModel:
    """Interaction for particles confined to the graph of f.

    w(x, y) = g(sqrt((x - y)^2 + (f(x) - f(y))^2)), restricted to a finite
    window of the half line. f and g should be convex and non-increasing for
    the exchange inequality to hold; defects are flagged, not fatal — the
    certification below is the authority.
    """
    lo, hi = window
    span = hi - lo
    try:
        fv = np.asarray(f(np.linspace(lo, hi, 17)), dtype=float)
        diag = float(np.hypot(span, fv.max() - fv.min()))
        g(np.linspace(0.0, max(diag, 1e-9), 17))
    except Exception as exc:
        raise ConstructionError(f"graph profiles not evaluable on the window: {exc}") from exc
    warnings = _profile_warnings(g, 0.0, max(diag, 1e-9), "graph g")

    def raw(x, y):
        return g(np.hypot(x - y, f(x) - f(y)))

    return CostModel(
        kind="graph",
        raw=raw,
        domain=(float(lo), float(hi)),
        translation_invariant=False,
        periodic=False,
        infinity_locus="none",
        profile_warnings=warnings,
        spec={
            "kind": "graph",
            "window": [float(lo), float(hi)],
            "f": getattr(f, "spec", dict)(),
            "g": getattr(g, "spec", dict)(),
        },
    )


def cone_combine(models, weights) -> CostModel:
    """Pointwise weighted sum of cost models; +inf absorbs."""
    models = list(models)
    weights = [float(wt) for wt in weights]
    if not models:
        raise ConstructionError("cone_combine needs at least one model")
    if len(models) != len(weights) or any(wt <= 0 for wt in weights):
        raise ConstructionError("cone_combine needs one positive weight per model")
    lo = max(m.domain[0] for m in models)
    hi = min(m.domain[1] for m in models)
    if hi <= lo:
        raise ConstructionError("cone_combine models have incompatible domains")

    def raw(x, y):
        total = weights[0] * models[0].raw(x, y)
        for m, wt in zip(models[1:], weights[1:]):
            total = total + wt * m.raw(x, y)
        return total

    return CostModel(
        kind="sum",
        raw=raw,
        domain=(lo, hi),
        translation_invariant=all(m.translation_invariant for m in models),
        periodic=all(m.periodic for m in models),
        infinity_locus=(
            "periodic-diagonal"
            if any(m.infinity_locus == "periodic-diagonal" for m in models)
            else "none"
        ),
        profile_warnings=tuple(w for m in models for w in m.profile_warnings),
        spec={
            "kind": "sum",
            "weights": weights,
            "terms": [m.spec for m in models],
        },
    )


def truncate(model: CostModel, h: float) -> CostModel:
    """Pointwise min(w, h); the result is bounded by h everywhere."""
    if not h > 0:
        raise DomainError("truncation level must be positive")

    def raw(x, y):
        return np.minimum(model.raw(x, y), h)

    return CostModel(
        kind=f"truncated-{model.kind}",
        raw=raw,
        domain=model.domain,
        translation_invariant=model.translation_invariant,
        periodic=model.periodic,
        infinity_locus="none",
        bound=float(h),
        profile_warnings=model.profile_warnings,
        spec={"kind": "truncated", "h": float(h), "base": model.spec},
    )


def cost_from_spec(spec: dict) -> CostModel:
    kind = spec.get("kind")
    if kind == "ring":
        return make_ring_cost(profile_from_spec(spec["profile"]))
    if kind == "torus":
        return make_torus_cost(profile_from_spec(spec["profile"]))
    if kind == "graph":
        window = tuple(spec.get("window", (0.0, TWO_PI)))
        return make_graph_cost(
            profile_from_spec(spec["f"]), profile_from_spec(spec["g"]), window
        )
    if kind == "sum":
        terms = [cost_from_spec(t) for t in spec["terms"]]
        return cone_combine(terms, spec["weights"])
    if kind == "truncated":
        return truncate(cost_from_spec(spec["base"]), float(spec["h"]))
    raise ConstructionError(f"unknown cost kind {kind!r}")


def load_cost(path) -> CostModel:
    with open(path, "r", encoding="utf-8") as fh:
        return cost_from_spec(json.load(fh))


# -- well-ordering certification -----------------------------------------


@dataclass(frozen=True)
class WellOrderReport:
    """Outcome of grid certification of the four-point exchange inequality."""

    verdict: str  # well_ordering | violated | strictly_well_ordering
    margin: float
    counterexample: dict | None
    grid_size: int
    n_random: int
    seed: int

    def __post_init__(self):
        if (self.verdict == "violated") != (self.counterexample is not None):
            raise ConstructionError("counterexample present iff verdict is violated")

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "verdict": self.verdict,
            "margin": self.margin,
            "counterexample": self.counterexample,
            "grid_size": self.grid_size,
            "n_random": self.n_random,
            "seed": self.seed,
        }


def _exchange_gaps(C: np.ndarray) -> np.ndarray:
    """Exact minimum exchange gaps of pair matrices C (B, G, G), in O(B G^3).

    For sorted i <= j <= k <= l and each j, near - nested = (C[i,j] - C[i,k])
    + (C[k,l] - C[j,l]) is a minimum over i plus one over l per k, and
    far - nested = (C[j,k] - C[i,k]) + (C[i,l] - C[j,l]) a prefix minimum over
    k <= l per i. Terms holding a +inf nested cell are +inf. Returns (B, G, 4):
    per j the near and far minima, then the strict ones (no j = k; no i = j or k = l).
    """
    B, G, _ = C.shape
    gaps = np.full((B, G, 4), np.inf)
    upper = np.triu(np.ones((G, G), dtype=bool))
    for j in range(G):
        head = C[:, : j + 1, j:]  # C[i, m] for i <= j <= m
        row = C[:, j, None, j:]  # C[j, m]
        with np.errstate(invalid="ignore"):
            diff = head - row
            a = np.where(np.isinf(head), np.inf, C[:, : j + 1, j, None] - head).min(axis=1)
            b = np.where(upper[j:, j:] & ~np.isinf(row), C[:, j:, j:] - row, np.inf).min(axis=2)
            p = np.minimum.accumulate(np.where(np.isinf(head), np.inf, -diff), axis=2)
            q = np.where(np.isinf(row), np.inf, diff)
        near = a + b
        gaps[:, j, 0] = near.min(axis=1)
        gaps[:, j, 1] = (p + q).min(axis=(1, 2))
        gaps[:, j, 2] = near[:, 1:].min(axis=1, initial=np.inf)
        gaps[:, j, 3] = (p[:, :j, :-1] + q[:, :j, 1:]).min(axis=(1, 2), initial=np.inf)
    return gaps


def _counterexample(points: np.ndarray, C: np.ndarray, j: int) -> dict:
    """The worst sorted quadruple with second index j, by brute force on that slice."""
    i, k, l = np.ix_(np.arange(j + 1), np.arange(j, len(points)), np.arange(j, len(points)))
    nested, near, far = C[i, k] + C[j, l], C[i, j] + C[k, l], C[i, l] + C[j, k]
    with np.errstate(invalid="ignore"):
        gap = np.where((k <= l) & np.isfinite(nested), np.minimum(near, far) - nested, np.inf)
    at = np.unravel_index(np.argmin(gap), gap.shape)
    return {
        "points": [float(points[t]) for t in (at[0], j, j + at[1], j + at[2])],
        "nested": float(nested[at]),
        "near": float(near[at]),
        "far": float(far[at]),
    }


def check_well_ordering(
    model: CostModel,
    grid_size: int = 64,
    strict: bool = False,
    n_random: int | None = None,
    seed: int = 0,
) -> WellOrderReport:
    """Certify the exchange inequality on a grid plus random 4-point sets.

    For x1 <= x2 <= x3 <= x4 the nested sum w(x1,x3) + w(x2,x4) must not exceed
    either other pairing sum; a +inf nested sum is accepted. The grid's pair matrix
    and those of n_random sorted uniform 4-point sets are checked exactly on all
    sorted index quadruples. Strict mode excuses equality only for coinciding pairs.
    """
    if grid_size < 4:
        raise DomainError("need grid_size >= 4")
    n_random = 10 * grid_size if n_random is None else n_random
    lo, hi = model.domain
    batches = [np.linspace(lo, hi, grid_size)[None, :]]
    if n_random > 0:
        rng = np.random.default_rng(seed)
        batches.append(np.sort(rng.uniform(lo, hi, size=(n_random, 4)), axis=1))
    margin, strict_margin, worst = np.inf, np.inf, None
    for points in batches:
        C = model(points[:, :, None], points[:, None, :])
        gaps = _exchange_gaps(C)
        low = gaps[:, :, :2].min(axis=2)
        b, j = np.unravel_index(np.argmin(low), low.shape)
        if low[b, j] < margin:
            margin, worst = float(low[b, j]), (points[b], C[b], j)
        strict_margin = min(strict_margin, float(gaps[:, :, 2:].min()))
    if margin < -TOL.well_order_slack:
        counterexample = _counterexample(*worst)
        return WellOrderReport("violated", margin, counterexample, grid_size, n_random, seed)
    strictly = strict and strict_margin > TOL.well_order_slack
    verdict = "strictly_well_ordering" if strictly else "well_ordering"
    return WellOrderReport(verdict, max(margin, 0.0), None, grid_size, n_random, seed)


def check_translation_invariant_criterion(
    g,
    interval=(0.0, TWO_PI),
    grid_size: int = 64,
    strict: bool = False,
) -> WellOrderReport:
    """Criterion for even profiles: convexity plus the shifted-sum condition.

    For w(x, y) = g(|x - y|) on [a, b], the exchange inequality is equivalent
    to (i) convexity of g on [0, b - a] and (ii)
    g(d0 + delta) + g(d1 + delta) <= g(d0) + g(d1) whenever
    d0 + d1 + delta <= b - a with positive d0, d1, delta. Violations are
    reported as honest four-point counterexamples.
    """
    lo, hi = interval
    span = hi - lo
    slack = TOL.well_order_slack
    t = np.linspace(0.0, span, grid_size)
    y = np.asarray(g(t), dtype=float)

    finite = np.isfinite(y)
    second = y[:-2] + y[2:] - 2.0 * y[1:-1]
    conv_ok = ~finite[:-2] | ~finite[1:-1] | ~finite[2:] | (second >= -slack)
    if not np.all(conv_ok):
        i = int(np.argmin(np.where(conv_ok, np.inf, second)))
        s, tt = t[i], t[i + 2]
        counterexample = {
            "points": [0.0, float((tt - s) / 2), float((tt + s) / 2), float(tt)],
            "nested": float(2 * y[i + 1]),
            "near": float(2 * np.asarray(g((tt - s) / 2)).item()),
            "far": float(y[i] + y[i + 2]),
            "reason": "convexity",
        }
        return WellOrderReport("violated", float(second[i]), counterexample, grid_size, 0, 0)

    # condition (ii) over gridded positive (d0, d1, delta)
    pos = t[1:]
    d0, d1, dl = np.meshgrid(pos, pos, pos, indexing="ij", sparse=True)
    mask = d0 + d1 + dl <= span + 1e-12
    lhs = np.asarray(g(d0 + dl), dtype=float) + np.asarray(g(d1 + dl), dtype=float)
    rhs = np.asarray(g(d0), dtype=float) + np.asarray(g(d1), dtype=float)
    with np.errstate(invalid="ignore"):
        gap = np.where(mask, rhs - lhs, np.inf)
    gap = np.where(np.isinf(lhs), np.inf, gap)
    margin = float(np.min(gap))
    min_second = float(np.min(np.where(finite[:-2] & finite[1:-1] & finite[2:], second, np.inf)))
    if margin < -slack:
        i0, i1, i2 = np.unravel_index(int(np.argmin(gap)), gap.shape)
        a, b, c = float(pos[i0]), float(pos[i1]), float(pos[i2])
        counterexample = {
            "points": [0.0, a, a + c, a + c + b],
            "nested": float(np.asarray(g(a + c)).item() + np.asarray(g(b + c)).item()),
            "near": float(np.asarray(g(a)).item() + np.asarray(g(b)).item()),
            "far": None,
            "reason": "shifted-sum",
        }
        return WellOrderReport("violated", margin, counterexample, grid_size, 0, 0)

    verdict = "well_ordering"
    if strict and margin > slack and min_second > slack:
        verdict = "strictly_well_ordering"
    return WellOrderReport(verdict, max(min(margin, min_second), 0.0), None, grid_size, 0, 0)


# -- envelopes and thresholds ---------------------------------------------


@dataclass(frozen=True)
class Envelopes:
    """Monotone envelopes of w by torus distance.

    m(t) = inf of w over pairs at distance <= t, M(t) = sup over distance
    >= t, both non-increasing. Evaluation snaps to the sampled step
    functions on the safe side so the sandwich
    m(|x-y|_T) <= w(x, y) <= M(|x-y|_T) holds exactly on the sample set.
    """

    t_grid: np.ndarray
    m_values: np.ndarray
    M_values: np.ndarray
    _d_sorted: np.ndarray = field(repr=False)
    _prefix_min: np.ndarray = field(repr=False)
    _suffix_max: np.ndarray = field(repr=False)

    def m_at(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._d_sorted, t, side="right") - 1
        if np.any(idx < 0):
            raise DomainError("no sampled pair at or below the requested distance")
        return self._prefix_min[idx]

    def M_at(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._d_sorted, t, side="left")
        if np.any(idx >= self._d_sorted.size):
            raise DomainError("no sampled pair at or above the requested distance")
        return self._suffix_max[idx]


def envelopes(model: CostModel, t_grid: int = 256, sample: int = 256) -> Envelopes:
    """Tabulate the envelopes from a 2D sample grid on the torus."""
    if not model.periodic:
        raise DomainError("envelopes require a periodic cost on [0, 2*pi]")
    xs = np.arange(sample) * (TWO_PI / sample)
    d = torus_distance(xs[:, None], xs[None, :]).ravel()
    w = np.asarray(model(xs[:, None], xs[None, :]), dtype=float).ravel()
    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    w_sorted = w[order]
    prefix_min = np.minimum.accumulate(w_sorted)
    suffix_max = np.maximum.accumulate(w_sorted[::-1])[::-1]

    ts = np.linspace(np.pi / t_grid, np.pi, t_grid)
    env = Envelopes(ts, np.empty(0), np.empty(0), d_sorted, prefix_min, suffix_max)
    m_vals = env.m_at(ts)
    M_vals = env.M_at(np.minimum(ts, d_sorted[-1]))
    # monotone post-pass: raw grid inf/sup can wobble at resolution limits
    m_vals = np.minimum.accumulate(m_vals)
    M_vals = np.minimum.accumulate(M_vals)
    return Envelopes(ts, m_vals, M_vals, d_sorted, prefix_min, suffix_max)


@dataclass(frozen=True)
class SupportThresholds:
    beta: float
    h: float
    kappa: float
    cost_bound: float  # crude bound n(n-1) M(r) on the optimal cost


def support_thresholds(
    rho: GridDensity,
    model: CostModel,
    r: float,
    n: int,
    env: Envelopes | None = None,
    t_grid: int = 256,
) -> SupportThresholds:
    """Smallest grid beta with m(beta) above the crude-cost bound, plus the
    matching truncation level h = 2 (n-1) M(beta / 2), inflated slightly so
    the strict inequality survives roundoff.

    Requires kappa(rho; r) < 1/n; with these thresholds the truncated and
    original transport problems share optima.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    kappa = rho.concentration(r)
    if kappa >= 1.0 / n:
        raise ConcentrationError(
            f"kappa(rho; r) = {kappa:.6f} is not below 1/n = {1.0 / n:.6f}"
        )
    if env is None:
        env = envelopes(model, t_grid=t_grid)
    cost_bound = float(n * (n - 1) * env.M_at(min(r, float(env._d_sorted[-1]))))
    rhs = cost_bound / (1.0 - n * kappa)
    for beta in env.t_grid:
        if beta / 2.0 > r:
            break
        if env.m_at(beta) > rhs:
            h = 2.0 * (n - 1) * float(env.M_at(beta / 2.0)) * (1.0 + TOL.threshold_inflation)
            if np.isfinite(h):
                return SupportThresholds(float(beta), h, float(kappa), cost_bound)
    raise ThresholdNotFoundError("no grid beta satisfies the support conditions")
