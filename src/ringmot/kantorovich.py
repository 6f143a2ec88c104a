"""Grid potentials for the transport dual: c-transforms and certificates.

All potential work happens on truncated (bounded) costs and lifts to the
unbounded problem afterwards: the full cost dominates the truncated one
pointwise, so feasibility margins only improve, and the two problems share
optimal values once the truncation level clears the support threshold.

Potentials are reported with n <rho, v> equal to the transport value, which
pins the additive constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL, TWO_PI, gap_tolerance
from .costs import CostModel
from .errors import DomainError, SizeGuardError, StateError
from .measure1d import GridDensity


def uniform_grid(size: int) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, size)


@dataclass(frozen=True)
class Potential:
    """Grid function on [0, 2*pi] with a normalization tag."""

    grid: np.ndarray
    values: np.ndarray
    normalization: str = "raw"

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.shape != values.shape or grid.ndim != 1:
            raise DomainError("grid and values must be 1d arrays of equal length")
        if not np.all(np.isfinite(values)):
            raise DomainError("potential values must be finite")

    @property
    def size(self) -> int:
        return self.grid.size

    def oscillation(self) -> float:
        return float(self.values.max() - self.values.min())


def quad_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoid weights on the inclusive uniform grid."""
    h = grid[1] - grid[0]
    w = np.full(grid.size, h)
    w[0] = w[-1] = h / 2.0
    return w


def density_pairing(rho: GridDensity, v: Potential) -> float:
    """<rho, v> by trapezoid quadrature on the potential grid."""
    return float(np.dot(quad_weights(v.grid), rho.density(v.grid) * v.values))


def _doubled_pair_matrix(v: Potential, w: CostModel, n: int) -> np.ndarray:
    """2 w on the grid, after the grid^(n-1) guard (checked before any work)."""
    if n < 2:
        raise DomainError("need n >= 2 marginals")
    if v.size ** (n - 1) > TOL.ctransform_guard:
        raise SizeGuardError(
            f"grid^(n-1) = {v.size}^{n - 1} = {v.size ** (n - 1)} exceeds the "
            f"c-transform guard {TOL.ctransform_guard}"
        )
    return 2.0 * np.asarray(w.pair_matrix(v.grid), dtype=float)


def _bounded_pair_matrix(v: Potential, w: CostModel, n: int) -> np.ndarray:
    pair2 = _doubled_pair_matrix(v, w, n)
    if not np.all(np.isfinite(pair2)):
        raise DomainError("cost is unbounded on the grid; truncate first")
    return pair2


def _min_plus(pair2: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    """min over y_1..y_k of sum_j pair2[x, y_j] + sum_{j<l} pair2[y_j, y_l] - sum_j u[y_j].

    Returned for every grid x. Fixing y_1 = y leaves the same problem in k-1
    points anchored at y with u - pair2[x], so the cost is grid^(k+1) with one
    grid x grid temporary live per level. +inf cells of an unbounded cost
    only produce +inf sums or -inf shifted potentials, never inf - inf.
    """
    if k == 1:
        return (pair2 - u[None, :]).min(axis=1)
    out = np.empty(u.size)
    for x in range(u.size):
        out[x] = np.min(pair2[x] - u + _min_plus(pair2, u - pair2[x], k - 1))
    return out


def c_transform(v: Potential, w: CostModel, n: int) -> Potential:
    """u_c(x) = min over the grid of c_n(x, y_1..y_{n-1}) - sum u(y_j).

    Grid argmin ties break at the lowest index. Requires a bounded cost;
    the transform of a bounded function is continuous with the modulus of
    c_n in its first argument.
    """
    return Potential(v.grid, _min_plus(_bounded_pair_matrix(v, w, n), v.values, n - 1))


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    iterations: int
    residual: float
    history: tuple
    repaired: bool  # final min(v, v_c) half-step was applied


def averaged_iteration(
    v0: Potential,
    w: CostModel,
    n: int,
    max_iters: int = 500,
    tol: float = 1e-6,
) -> tuple[Potential, ConvergenceReport]:
    """Iterate v <- ((n-1) v + v_c) / n until sup|v - v_c| <= tol.

    From a grid-feasible start the iterates increase monotonically and stay
    feasible, so the loop converges to a fixed point with v = v_c. The
    returned potential is feasibility-repaired: if the final iterate dips
    below its transform anywhere beyond tol, one extra half-step
    v <- min(v, v_c) restores c_n - (+)v >= -tol exactly.
    """
    pair2 = _bounded_pair_matrix(v0, w, n)
    v = v0.values
    vc = _min_plus(pair2, v, n - 1)
    history = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        residual = float(np.max(np.abs(v - vc)))
        history.append(residual)
        if residual <= tol:
            converged = True
            break
        v = ((n - 1) * v + vc) / n
        vc = _min_plus(pair2, v, n - 1)
    repaired = bool(np.any(v - vc > tol))
    if repaired:
        v = np.minimum(v, vc)
    report = ConvergenceReport(
        converged, iterations, history[-1] if history else 0.0, tuple(history), repaired
    )
    return Potential(v0.grid, v), report


def feasibility_margin(v: Potential, w: CostModel, n: int) -> float:
    """Exact min over all grid n-tuples of c_n(x) - sum v(x_j), i.e. min(v_c - v).

    +inf cells of an unbounded cost never attain the minimum.
    """
    return float(np.min(_min_plus(_doubled_pair_matrix(v, w, n), v.values, n - 1) - v.values))


def duality_gap(
    rho: GridDensity,
    v: Potential,
    transport_value: float,
    n: int,
    w: CostModel | None = None,
    tol: float = 1e-6,
) -> float:
    """gap = transport_value - n <rho, v>; non-negative for feasible v.

    When the cost is supplied, grid feasibility is checked first and an
    infeasible potential is rejected.
    """
    if w is not None:
        margin = feasibility_margin(v, w, n)
        if margin < -tol:
            raise DomainError(f"potential infeasible: margin {margin:.3e} < {-tol:.1e}")
    return float(transport_value - n * density_pairing(rho, v))


@dataclass(frozen=True)
class OscillationReport:
    oscillation: float
    cost_bound: float
    passed: bool
    box_passed: bool | None
    box_low: float | None
    box_high: float | None


def oscillation_bound_check(
    v: Potential,
    h: float,
    n: int | None = None,
    rho: GridDensity | None = None,
    transport_value: float | None = None,
    tol: float = 1e-9,
) -> OscillationReport:
    """Check max v - min v <= h for a potential of a cost bounded by h.

    With the density and transport value supplied, also checks the sharper
    normalized box -h (n-1)/n <= v - ref <= h/n, where ref recenters v to
    the normalization n <rho, v> = transport value.
    """
    osc = v.oscillation()
    passed = osc <= h + tol
    box_passed = box_low = box_high = None
    if n is not None and rho is not None and transport_value is not None:
        ref = density_pairing(rho, v) - transport_value / n
        shifted = v.values - ref
        box_low = float(shifted.min())
        box_high = float(shifted.max())
        box_passed = bool(
            box_low >= -h * (n - 1) / n - tol and box_high <= h / n + tol
        )
    return OscillationReport(osc, h, bool(passed), box_passed, box_low, box_high)


@dataclass(frozen=True)
class UntruncateReport:
    passed: bool
    margin_truncated: float
    margin_full: float
    value_difference: float
    gap_full: float


def untruncate_certificate(
    v: Potential,
    w_full: CostModel,
    w_trunc: CostModel,
    rho: GridDensity,
    n: int,
    value_truncated: float,
    value_full: float,
    gap_tol: float,
    tol: float = 1e-6,
) -> UntruncateReport:
    """Lift a certificate for the truncated problem to the full one.

    The full cost dominates the truncated cost, so the feasibility margin
    can only improve; the optimal values agree once the truncation level
    clears the support threshold, so the same duality gap certifies v for
    the untruncated problem.
    """
    margin_trunc = feasibility_margin(v, w_trunc, n)
    if margin_trunc < -tol:
        raise DomainError("potential is not certified for the truncated cost")
    margin_full = feasibility_margin(v, w_full, n)
    value_diff = abs(value_full - value_truncated)
    gap_full = duality_gap(rho, v, value_full, n)
    passed = (
        margin_full >= margin_trunc - 1e-12
        and margin_full >= -tol
        and value_diff <= 1e-7
        and gap_full <= gap_tol
    )
    return UntruncateReport(bool(passed), margin_trunc, margin_full, value_diff, gap_full)


@dataclass(frozen=True)
class PotentialCertificate:
    potential: Potential
    margin: float
    gap: float
    oscillation: float
    iterations: int
    residual: float
    converged: bool
    gap_tol: float
    truncation_level: float
    cost_bound: float
    oscillation_report: OscillationReport
    untruncate: UntruncateReport
    lp_value_truncated: float
    lp_value_full: float

    def passed(self) -> bool:
        return bool(
            self.converged
            and self.margin >= -1e-6
            and -1e-6 <= self.gap <= self.gap_tol
            and self.oscillation_report.passed
            and self.untruncate.passed
        )

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "margin": self.margin,
            "gap": self.gap,
            "gap_tol": self.gap_tol,
            "oscillation": self.oscillation,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "truncation_level": self.truncation_level,
            "cost_bound": self.cost_bound,
            "box_passed": self.oscillation_report.box_passed,
            "untruncate_passed": self.untruncate.passed,
            "lp_value_truncated": self.lp_value_truncated,
            "lp_value_full": self.lp_value_full,
            "passed": self.passed(),
        }


def certify_potential(
    rho: GridDensity,
    w: CostModel,
    n: int,
    grid_size: int = 128,
    m: int = 8,
    r: float | None = None,
    max_iters: int = 2000,
    tol: float = 1e-6,
) -> PotentialCertificate:
    """Full pipeline: thresholds, truncation, LP duals, fixed point, lift.

    The LP duals on the m-point quantization seed the averaged iteration on
    the grid; the converged fixed point is certified for the truncated cost
    and the certificate is lifted to the full cost.
    """
    from .costs import support_thresholds, truncate
    from .mmot import quantize, solve_mmot, symmetrized_duals

    if r is None:
        r = _auto_radius(rho, n)
    thresholds = support_thresholds(rho, w, r, n)
    w_h = truncate(w, thresholds.h)
    marginal = quantize(rho, m)
    sol_h = solve_mmot(marginal, n, w_h)
    sol_full = solve_mmot(marginal, n, w)
    if sol_h.status != "optimal" or sol_full.status != "optimal":
        raise StateError("LP oracle failed on the quantized marginal")

    grid = uniform_grid(grid_size)
    v0 = Potential(grid, np.interp(grid, marginal.atoms, symmetrized_duals(sol_h)))
    v, report = averaged_iteration(v0, w_h, n, max_iters=max_iters, tol=tol)

    gap_tol = gap_tolerance(grid_size, m)
    gap = duality_gap(rho, v, sol_h.value, n)
    if abs(gap) <= gap_tol:
        # normalization holds within the gap budget; an exact shift would
        # push the potential up by the gap and break grid feasibility
        v = Potential(v.grid, v.values, "normalized")
    cost_bound = n * (n - 1) * thresholds.h
    osc_report = oscillation_bound_check(v, cost_bound, n, rho, sol_h.value)
    unt = untruncate_certificate(
        v, w, w_h, rho, n, sol_h.value, sol_full.value, gap_tol, tol
    )
    return PotentialCertificate(
        potential=v,
        margin=unt.margin_truncated,
        gap=gap,
        oscillation=v.oscillation(),
        iterations=report.iterations,
        residual=report.residual,
        converged=report.converged,
        gap_tol=gap_tol,
        truncation_level=thresholds.h,
        cost_bound=cost_bound,
        oscillation_report=osc_report,
        untruncate=unt,
        lp_value_truncated=sol_h.value,
        lp_value_full=sol_full.value,
    )


def _auto_radius(rho: GridDensity, n: int) -> float:
    """Largest dyadic radius with concentration safely below 1/n."""
    r = np.pi / 2
    while r > 1e-3:
        if rho.concentration(r) < 1.0 / n - 1e-9:
            return r
        r /= 2
    raise DomainError("no radius with concentration below 1/n")
