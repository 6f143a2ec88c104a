"""Pairwise interaction models and their structural certificates.

A cost model evaluates w(x, y) in (-inf, +inf]: NaN and -inf are refused where it is built.
Ring and torus costs, and their sums and truncations, are distance costs: a
profile of the torus distance, so translation invariant and exactly
symmetric by construction, and `grid_matrix` reads a uniform grid's pair
matrix off one cost row. Other costs give a raw evaluator whose exact
symmetry is checked once at construction.

The four-point exchange inequality is certified on pair matrices: the G x G
matrix of a uniform grid, from `grid_matrix`, plus the 4 x 4 matrices of
random 4-point sets. One exact O(G^3) scan per matrix gives the minimum margin
over all sorted index quadruples (the inequality's Monge structure), so the
grid evidence needs no quadruple enumeration. The inequality quantifies over a
continuum, so grid certification with a small slack is the testable surrogate.
Reports carry the grid resolution so failures are reproducible.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import TOL, TWO_PI
from .errors import (
    Checked,
    ConcentrationError,
    ConstructionError,
    DomainError,
    ThresholdNotFoundError,
    _entry,
    _numbers,
    power_size,
    require_size,
    require_table,
    require_within,
)

if TYPE_CHECKING:
    from .measure1d import GridDensity


def torus_distance(x, y):
    """Geodesic distance on the torus R / (2*pi Z), in [0, pi]."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    d = np.mod(d, TWO_PI)
    return np.minimum(d, TWO_PI - d)


# -- radial / even profiles ---------------------------------------------


class InverseProfile(NamedTuple):
    """g(d) = scale / d, +inf at d = 0."""

    scale: float = 1.0

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(d > 0, self.scale / np.where(d > 0, d, 1.0), np.inf)


class ExpProfile(NamedTuple):
    """g(d) = scale * exp(-rate * d)."""

    rate: float = 1.0
    scale: float = 1.0

    def __call__(self, d):
        return self.scale * np.exp(-self.rate * np.asarray(d, dtype=float))


class LinearProfile(NamedTuple):
    """g(d) = intercept - slope * d."""

    intercept: float
    slope: float = 1.0

    def __call__(self, d):
        return self.intercept - self.slope * np.asarray(d, dtype=float)


class PowerProfile(NamedTuple):
    """g(d) = scale * d**exponent; negative exponents blow up at d = 0."""

    exponent: float
    scale: float = 1.0

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        if self.exponent >= 0:
            return self.scale * d**self.exponent
        with np.errstate(divide="ignore"):
            return np.where(d > 0, self.scale * np.where(d > 0, d, 1.0) ** self.exponent, np.inf)


class TableProfile(Checked, NamedTuple("_Table", [("xs", tuple), ("ys", tuple)])):
    """Piecewise-linear profile through (xs, ys); queries must stay in range.

    xs must be finite and strictly increasing and ys finite, at least two of
    each and as many ys as xs (`require_table`); a query outside [xs[0], xs[-1]]
    raises ConstructionError naming it and the range.
    """

    __slots__ = ()

    def __new__(cls, xs, ys):
        require_table("table xs", "table ys", xs, ys)
        return super().__new__(cls, tuple(xs), tuple(ys))

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        require_within("table profile", d, self.xs[0], self.xs[-1], ConstructionError, slack=1e-12)
        return np.interp(d, np.asarray(self.xs), np.asarray(self.ys))


PROFILE_KINDS = {"inverse": InverseProfile, "exp": ExpProfile, "linear": LinearProfile,
                 "power": PowerProfile, "table": TableProfile}


def profile_from_spec(spec: dict):
    """The profile of a JSON spec; ConstructionError names a missing key or a bad parameter."""
    kind = _entry(spec, "kind", "profile spec")
    if not isinstance(kind, str) or kind not in PROFILE_KINDS:
        raise ConstructionError(f"unknown profile kind {kind!r}")
    cls, params = PROFILE_KINDS[kind], spec.get("params", {})
    if not isinstance(params, dict):
        raise ConstructionError(
            f"{kind} profile params must be a JSON object, got a {type(params).__name__}")
    for key in cls._fields:
        if key in params or key not in cls._field_defaults:
            value = _entry(params, key, f"{kind} profile params")
            _numbers(f"{kind} profile parameter {key!r}", value)
    unknown = sorted(set(params) - set(cls._fields))
    if unknown:
        raise ConstructionError(f"{kind} profile has no parameter {unknown[0]!r}")
    return cls(**params)


# -- cost models ---------------------------------------------------------


def _require_values(rule: str, name: str, xs, values, ok) -> None:
    """ConstructionError naming the rule and the first value of `name` on the nodes xs not ok."""
    bad = np.argwhere(~ok)
    if bad.size:
        at = tuple(float(xs[i]) for i in bad[0])
        raise ConstructionError(f"{rule}: {name} at {at} is {float(values[tuple(bad[0])])!r}")


class CostModel(Checked, NamedTuple("_Cost", [("kind", str), ("raw", object), ("domain", tuple),
                                     ("profile", object)])):
    """Symmetric pairwise interaction with values in (-inf, +inf].

    A distance cost is a profile of the torus distance, w(x, y) =
    profile(|x - y|_T) on [0, 2*pi]: ring and torus costs and their sums and
    truncations. It is translation invariant and exactly symmetric by
    construction; its profile is probed here on 13 distances in [0, pi]. Any
    other cost gives its evaluator w(x, y) as `raw`, probed here on 13 nodes of
    its domain for exact symmetry, and is evaluated on its domain only. A NaN
    or -inf probe value raises ConstructionError naming it; calls are unchecked.
    """

    __slots__ = ()

    def __new__(cls, kind, raw=None, domain=(0.0, TWO_PI), profile=None):
        if (raw is None) == (profile is None):
            raise ConstructionError(f"{kind} cost needs exactly one of raw and profile")
        if profile is not None and tuple(domain) != (0.0, TWO_PI):
            raise ConstructionError(f"{kind} distance cost must live on [0, 2*pi]")
        xs = np.linspace(*(domain if profile is None else (0.0, np.pi)), 13)
        try:
            with np.errstate(all="ignore"):  # the probe's values are judged, not numpy's warnings
                w = np.asarray(profile(xs) if raw is None else raw(xs[:, None], xs[None, :]), dtype=float)
        except Exception as exc:
            raise ConstructionError(f"{kind} cost not evaluable on [{xs[0]}, {xs[-1]}]: {exc}") from exc
        _require_values(f"{kind} cost must not be NaN or -inf", "w", xs, w, w > -np.inf)
        bad = np.argwhere(w != w.T)  # a profile's 1d values are their own transpose
        if bad.size:
            i, j = bad[0]
            x, y = float(xs[i]), float(xs[j])
            raise ConstructionError(
                f"{kind} cost is not exactly symmetric: w({x!r}, {y!r}) = "
                f"{float(w[i, j])!r} but w({y!r}, {x!r}) = {float(w[j, i])!r}"
            )
        return super().__new__(cls, kind, raw, domain, profile)

    @property
    def translation_invariant(self) -> bool:
        return self.profile is not None

    def __call__(self, x, y):
        """w(x, y); a raw cost raises DomainError naming the first x or y outside its domain."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if self.profile is None:
            for p in (x, y):
                require_within(f"{self.kind} cost", p, *self.domain, DomainError)
            w = self.raw(x, y)
        else:
            w = self.profile(torus_distance(x, y))
        return np.asarray(w, dtype=float)[()]  # 0-d results come back as numpy scalars

    def pair_matrix(self, xs):
        xs = np.asarray(xs, dtype=float)
        return self(xs[:, None], xs[None, :])

    def grid_matrix(self, xs):
        """The pair matrix on a uniform grid xs, from one cost row when it can.

        A distance cost is evaluated once, on the row w(xs[0], xs), and
        M[i, j] = row[|i - j|]: g evaluations instead of g^2, and an exactly
        symmetric Toeplitz matrix. Each entry is the cost at the grid's own
        offset xs[|i - j|] - xs[0] rather than at the rounded fl(xs[i] - xs[j])
        of `pair_matrix`, so finite entries can differ from it in the last
        places; +inf entries sit at the same pairs. Other costs take
        `pair_matrix`. Raises DomainError naming the worst step when the
        steps of xs differ by more than rounding.
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


def cells_cost(atoms: np.ndarray, weights: np.ndarray, w: CostModel) -> float:
    """Energy of point tuples: per cell, a row of the (c, n) atoms, the cost summed over ordered
    pairs i != j, weighted by positive weights; +inf exactly when a cell touches the +inf locus."""
    i_idx, j_idx = np.triu_indices(atoms.shape[1], k=1)
    return float(np.dot(weights, 2.0 * np.sum(w(atoms[:, i_idx], atoms[:, j_idx]), axis=1)))


def make_ring_cost(g) -> CostModel:
    """Chordal interaction w(t, p) = g(2 sin(|t - p| / 2)) for particles on S^1."""
    return CostModel(kind="ring", profile=lambda d: g(2.0 * np.sin(0.5 * d)))


def make_torus_cost(g) -> CostModel:
    """w(x, y) = g(|x - y|_T) with g defined on [0, pi]."""
    return CostModel(kind="torus", profile=g)


def make_graph_cost(f, g, window=(0.0, TWO_PI)) -> CostModel:
    """Interaction for particles confined to the graph of f.

    w(x, y) = g(sqrt((x - y)^2 + (f(x) - f(y))^2)), restricted to a finite
    window of the half line. f and g should be convex and non-increasing for
    the exchange inequality to hold; nothing checks that here, and
    `check_well_ordering` is the authority on whether it holds. g must be
    evaluable on [0, diag], diag the window's diagonal under f's range, and
    neither NaN nor -inf at 17 points there; f must be finite at 17 points of
    the window plus, for a table f, its breakpoints inside it, where a
    piecewise-linear f reaches its extremes.
    """
    lo, hi = map(float, window)
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ConstructionError(f"graph window [{lo}, {hi}] needs finite ends with lo < hi")
    probe = np.linspace(lo, hi, 17)
    if isinstance(f, TableProfile):
        breaks = np.asarray(f.xs, dtype=float)
        probe = np.concatenate((probe, breaks[(breaks > lo) & (breaks < hi)]))
    try:
        with np.errstate(all="ignore"):  # the probe's values are judged, not numpy's warnings
            fv = np.asarray(f(probe), dtype=float)
            _require_values("f must be finite", "f", probe, fv, np.isfinite(fv))
            ds = np.linspace(0.0, max(float(np.hypot(hi - lo, fv.max() - fv.min())), 1e-9), 17)
            gv = np.asarray(g(ds), dtype=float)
    except Exception as exc:
        raise ConstructionError(f"graph profiles not evaluable on the window: {exc}") from exc
    _require_values("graph cost must not be NaN or -inf", "g", ds, gv, gv > -np.inf)

    def raw(x, y):
        return g(np.hypot(x - y, f(x) - f(y)))

    return CostModel(kind="graph", raw=raw, domain=(lo, hi))


def _pointwise(kind, models, combine) -> CostModel:
    """Combine the models' values pointwise by combine(list of values).

    Distance costs combine to a distance cost, evaluated on one torus
    distance; any other term makes the result a raw cost on the common domain.
    """
    lo = max(m.domain[0] for m in models)
    hi = min(m.domain[1] for m in models)
    if hi <= lo:
        raise ConstructionError(f"{kind} models have incompatible domains")
    if all(m.translation_invariant for m in models):
        profiles = [m.profile for m in models]
        return CostModel(kind, profile=lambda d: combine([p(d) for p in profiles]))
    return CostModel(kind, raw=lambda x, y: combine([m(x, y) for m in models]), domain=(lo, hi))


def cone_combine(models, weights) -> CostModel:
    """Pointwise weighted sum of cost models; +inf absorbs."""
    models = list(models)
    weights = [float(wt) for wt in weights]
    if not models:
        raise ConstructionError("cone_combine needs at least one model")
    if len(models) != len(weights):
        raise ConstructionError(f"cone_combine needs one weight per model: got {len(weights)} "
                                f"weights for {len(models)} models")
    for i, wt in enumerate(weights):
        if not 0 < wt < np.inf:
            raise ConstructionError(f"cone_combine weights must be finite and positive: "
                                    f"weight {i} is {wt!r}")

    def weighted_sum(values):
        total = weights[0] * values[0]
        for wt, value in zip(weights[1:], values[1:]):
            total = total + wt * value
        return total

    return _pointwise("sum", models, weighted_sum)


def truncate(model: CostModel, h: float) -> CostModel:
    """Pointwise min(w, h); the result is bounded by h everywhere."""
    if not h > 0:
        raise DomainError("truncation level must be positive")
    return _pointwise(f"truncated-{model.kind}", [model], lambda values: np.minimum(values[0], h))


def cost_from_spec(spec: dict) -> CostModel:
    """The cost of a JSON spec; ConstructionError names a missing key or a non-numeric value."""
    kind = _entry(spec, "kind", "cost spec")
    what = f"{kind} cost spec"
    if kind == "ring":
        return make_ring_cost(profile_from_spec(_entry(spec, "profile", what)))
    if kind == "torus":
        return make_torus_cost(profile_from_spec(_entry(spec, "profile", what)))
    if kind == "graph":
        window = _numbers("graph cost window", spec.get("window", [0.0, TWO_PI]))
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ConstructionError(f"graph cost window must be [lo, hi], got {window!r}")
        f, g = (profile_from_spec(_entry(spec, key, what)) for key in ("f", "g"))
        return make_graph_cost(f, g, tuple(window))
    if kind == "sum":
        terms = [cost_from_spec(t) for t in _entry(spec, "terms", what, list)]
        return cone_combine(terms, _numbers("sum cost weights", _entry(spec, "weights", what, list)))
    if kind == "truncated":
        h = _numbers("truncated cost h", _entry(spec, "h", what))
        return truncate(cost_from_spec(_entry(spec, "base", what)), float(h))
    raise ConstructionError(f"unknown cost kind {kind!r}")


def load_cost(path) -> CostModel:
    with open(path, "r", encoding="utf-8") as fh:
        return cost_from_spec(json.load(fh))


# -- well-ordering certification -----------------------------------------


class WellOrderReport(Checked, NamedTuple("_WellOrder", [
        ("verdict", str), ("margin", float), ("counterexample", dict),
        ("grid_size", int), ("n_random", int), ("seed", int)])):
    """Outcome of grid certification of the four-point exchange inequality.

    verdict is well_ordering, violated or strictly_well_ordering.
    """

    __slots__ = ()

    def __new__(cls, verdict, margin, counterexample, grid_size, n_random, seed):
        if (verdict == "violated") != (counterexample is not None):
            raise ConstructionError("counterexample present iff verdict is violated")
        return super().__new__(cls, verdict, margin, counterexample, grid_size, n_random, seed)

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
    """The worst sorted quadruple with second index j, the first in (i, k, l) order, by brute
    force over the (k, l) slice of each first index i: O(G^2) memory, as the scan."""
    k, l = np.ix_(np.arange(j, len(points)), np.arange(j, len(points)))
    best, worst = np.inf, None
    for i in range(j + 1):
        nested, near, far = C[i, k] + C[j, l], C[i, j] + C[k, l], C[i, l] + C[j, k]
        with np.errstate(invalid="ignore"):
            gap = np.where((k <= l) & np.isfinite(nested), np.minimum(near, far) - nested, np.inf)
        at = np.unravel_index(np.argmin(gap), gap.shape)
        if worst is None or gap[at] < best:
            best, worst = gap[at], {
                "points": [float(points[t]) for t in (i, j, j + at[0], j + at[1])],
                "nested": float(nested[at]),
                "near": float(near[at]),
                "far": float(far[at]),
            }
    return worst


# The scan is O(G^3) on a G^2 matrix: on a 2-core Xeon with numpy 2.4,
# G = 1024 takes 5.3 s and G = 2048 58 s at 164 MB peak RSS.
WELL_ORDER_GRID_GUARD = 2048


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
    (`grid_matrix`) and those of n_random sorted uniform 4-point sets are checked
    exactly on all sorted index quadruples. Strict mode excuses equality only for
    coinciding pairs.
    A grid_size above WELL_ORDER_GRID_GUARD raises SizeGuardError before any allocation.
    """
    if grid_size < 4:
        raise DomainError("need grid_size >= 4")
    require_size("grid_size", grid_size, WELL_ORDER_GRID_GUARD)
    n_random = 10 * grid_size if n_random is None else n_random
    lo, hi = model.domain
    grid = np.linspace(lo, hi, grid_size)
    batches = [(grid[None, :], model.grid_matrix(grid)[None])]
    if n_random > 0:
        rng = np.random.default_rng(seed)
        points = np.sort(rng.uniform(lo, hi, size=(n_random, 4)), axis=1)
        batches.append((points, model(points[:, :, None], points[:, None, :])))
    margin, strict_margin, worst = np.inf, np.inf, None
    for points, C in batches:
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


# cells of each (grid_size - 1)^3 array of the shifted-sum condition: 32 MB of floats
TRANSLATION_CRITERION_GUARD = 1 << 22


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
    reported as honest four-point counterexamples. More than
    TRANSLATION_CRITERION_GUARD cells (grid_size - 1)^3 raise SizeGuardError
    before g is evaluated.
    """
    require_size("(grid_size - 1)^3", power_size(grid_size - 1, 3, TRANSLATION_CRITERION_GUARD),
                 TRANSLATION_CRITERION_GUARD)
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


class Envelopes(NamedTuple):
    """Envelopes of w by torus distance over a sample of pairs.

    Along the ascending sampled `distances`, `prefix_min` gives m(t) = min of
    w at distance <= t and `suffix_max` gives M(t) = max at distance >= t.
    Both are non-increasing; m(|x-y|_T) <= w <= M(|x-y|_T) holds on the sampled pairs only.
    """

    distances: np.ndarray
    prefix_min: np.ndarray
    suffix_max: np.ndarray

    def m_at(self, t):
        t = np.asarray(t, dtype=float)
        require_within("m(t)", t, self.distances[0], np.inf, DomainError)
        return self.prefix_min[np.searchsorted(self.distances, t, side="right") - 1]

    def M_at(self, t):
        t = np.asarray(t, dtype=float)
        require_within("M(t)", t, -np.inf, self.distances[-1], DomainError)
        return self.suffix_max[np.searchsorted(self.distances, t, side="left")]


def envelopes(model: CostModel) -> Envelopes:
    """The envelopes of a distance cost over all pairs of 256 equispaced nodes."""
    if not model.translation_invariant:
        raise DomainError("envelopes require a distance cost on [0, 2*pi]")
    xs = np.arange(256) * (TWO_PI / 256)
    d = np.sort(torus_distance(xs[:, None], xs[None, :]), axis=None)
    d = d[np.concatenate(([True], d[1:] != d[:-1]))]  # np.unique(d) would import numpy.ma
    w = model(0.0, d)  # once per distinct distance: torus_distance(0, d) is d on [0, pi]
    return Envelopes(d, np.minimum.accumulate(w), np.maximum.accumulate(w[::-1])[::-1])


class SupportThresholds(NamedTuple):
    beta: float
    h: float
    kappa: float
    cost_bound: float  # crude bound n(n-1) M(r) on the optimal cost


def support_thresholds(
    rho: GridDensity,
    model: CostModel,
    r: float,
    n: int,
) -> SupportThresholds:
    """Smallest candidate beta with m(beta) above the crude-cost bound, plus the
    matching truncation level h = 2 (n-1) M(beta / 2), inflated slightly so
    the strict inequality survives roundoff.

    The candidates are the 256 betas in [pi/256, pi] with beta / 2 <= r; m, M
    are the sampled `envelopes`. Requires kappa(rho; r) < 1/n; with these
    thresholds the truncated and original transport problems share optima.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    kappa = rho.concentration(r)
    if kappa >= 1.0 / n:
        raise ConcentrationError(
            f"kappa(rho; r) = {kappa:.6f} is not below 1/n = {1.0 / n:.6f}"
        )
    env = envelopes(model)
    cost_bound = float(n * (n - 1) * env.M_at(r))
    rhs = cost_bound / (1.0 - n * kappa)
    betas = np.linspace(np.pi / 256, np.pi, 256)
    betas = betas[betas / 2.0 <= r]
    m = env.m_at(betas)
    h = 2.0 * (n - 1) * env.M_at(betas / 2.0) * (1.0 + TOL.threshold_inflation)
    found = np.flatnonzero((m > rhs) & np.isfinite(h))
    if found.size:
        k = found[0]
        return SupportThresholds(float(betas[k]), float(h[k]), float(kappa), cost_bound)
    raise ThresholdNotFoundError(
        f"no grid beta satisfies the support conditions at n = {n}, r = {r:.6g}, kappa = "
        f"{kappa:.6g}: m(beta) must exceed n(n-1) M(r) / (1 - n kappa) = {rhs:.6g} with finite "
        f"h; of the {betas.size} betas with beta / 2 <= r, the largest m(beta) is "
        f"{m.max(initial=-np.inf):.6g}"
    )
