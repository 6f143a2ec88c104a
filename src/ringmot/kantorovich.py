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
    """Grid function on [0, 2*pi]."""

    grid: np.ndarray
    values: np.ndarray

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


# side of the square blocks in which the three-body min-plus is bounded and scanned
TILE = 8


@dataclass(frozen=True)
class _PairMatrix:
    """2 w on the grid; for n >= 3 also its TILE x TILE blocks and their minima.

    For the blocks the matrix is padded with +inf to nb * TILE rows and
    columns; `blocks[I * nb + J]` holds rows I*TILE.. and columns J*TILE..
    of the padded matrix, and `minima[I, J]` is that block's minimum.
    """

    full: np.ndarray
    blocks: np.ndarray | None = None
    minima: np.ndarray | None = None


def _doubled_pair_matrix(v: Potential, w: CostModel, n: int) -> _PairMatrix:
    """2 w on the grid, after the grid^(n-1) guard (checked before any work).

    The grid must be uniform: a translation-invariant cost is read off one
    cost row (`CostModel.grid_matrix`), other costs are evaluated on every pair.
    """
    if n < 2:
        raise DomainError("need n >= 2 marginals")
    if v.size ** (n - 1) > TOL.ctransform_guard:
        raise SizeGuardError(
            f"grid^(n-1) = {v.size}^{n - 1} = {v.size ** (n - 1)} exceeds the "
            f"c-transform guard {TOL.ctransform_guard}"
        )
    pair2 = 2.0 * w.grid_matrix(v.grid)
    if n == 2:
        return _PairMatrix(pair2)
    nb = -(-v.size // TILE)
    padded = np.full((nb * TILE, nb * TILE), np.inf)
    padded[: v.size, : v.size] = pair2
    blocks = padded.reshape(nb, TILE, nb, TILE).swapaxes(1, 2).reshape(nb * nb, TILE, TILE)
    return _PairMatrix(pair2, blocks, blocks.min(axis=(1, 2)).reshape(nb, nb))


def _bounded_pair_matrix(v: Potential, w: CostModel, n: int) -> _PairMatrix:
    pair = _doubled_pair_matrix(v, w, n)
    if not np.all(np.isfinite(pair.full)):
        raise DomainError("cost is unbounded on the grid; truncate first")
    return pair


def _min_plus(pair: _PairMatrix, u: np.ndarray, k: int) -> tuple[np.ndarray, int, int]:
    """min over y_1..y_k of sum_j pair2[x, y_j] + sum_{j<l} pair2[y_j, y_l] - sum_j u[y_j].

    Returned for every grid x, with the blocks scanned and the blocks there
    were, summed over the k=2 calls (0, 0 for k=1). Fixing y_1 = y leaves
    the same problem in k-1 points anchored at y with u - pair2[x], down to
    k=2, reached grid^(k-2) times. There `_tiled_min_plus` bounds every
    TILE x TILE block of (y1, y2) from below by its minima (a valid bound
    because rounding is monotone) and scans only the blocks whose bound does
    not exceed one exact term: bit for bit the per-x loop's minimum, in
    O(g * nb^2) plus the scanned blocks' terms and O(g^2) memory. +inf cells
    of an unbounded cost only produce +inf sums or -inf shifted potentials,
    never inf - inf.
    """
    pair2 = pair.full
    if k == 1:
        return (pair2 - u[None, :]).min(axis=1), 0, 0
    if k == 2:
        return _tiled_min_plus(pair, u)
    out = np.empty(u.size)
    scanned = total = 0
    for x in range(u.size):
        inner, s, t = _min_plus(pair, u - pair2[x], k - 1)
        out[x] = np.min(pair2[x] - u + inner)
        scanned += s
        total += t
    return out, scanned, total


def _tiled_min_plus(pair: _PairMatrix, u: np.ndarray) -> tuple[np.ndarray, int, int]:
    """min over y1, y2 of fl(A[x, y1] + fl(P[y1, y2] + A[x, y2])), exactly.

    P = pair2 and A = P - u (row x), padded with +inf, so padded terms are
    +inf and, as u < +inf, no term is NaN. These are the terms of the per-x
    recursion, which adds A[x, y1] to min over y2 of fl(P - (u - P[x])):
    round-to-nearest is sign-symmetric, so u - P[x] rounds to exactly -A
    (up to the sign of a zero, which cannot show while P has no -0 entry),
    and rounding is monotone, so fl(a + min b) = min fl(a + b).

    Monotone rounding also makes LB[x, I, J] = fl(min_I A[x] +
    fl(minima[I, J] + min_J A[x])) a lower bound on every term of block
    (I, J). U[x], the exact minimum over the block of least LB, is a term
    itself, so the minimum lies in a block with LB <= U. Only those blocks
    are scanned, and the result is the recursion's bit for bit.

    Cost: g * nb^2 bounds plus TILE^2 terms per scanned block (about 4% of
    the blocks at g=256 on a fixed point's potentials). Memory: A (g rows of
    nb * TILE) besides the pair matrix and its blocks, plus, per x-tile of
    TILE rows, one (TILE, nb^2) bound and the terms of its scanned blocks.
    """
    g, nb = u.size, pair.minima.shape[0]
    a = np.full((g, nb * TILE), np.inf)
    np.subtract(pair.full, u, out=a[:, :g])
    a = a.reshape(g * nb, TILE)
    a_min = a[:, 0].copy()
    for col in range(1, TILE):  # a strided minimum per column beats min(axis=1) over 8
        np.minimum(a_min, a[:, col], out=a_min)
    a_min = a_min.reshape(g, nb)

    def block_terms(x, ij):
        # the TILE^2 terms of block ij = I * nb + J in row x, one row per (x, ij)
        terms = np.take(pair.blocks, ij, axis=0)
        terms += np.take(a, x * nb + ij % nb, axis=0)[:, None, :]
        terms += np.take(a, x * nb + ij // nb, axis=0)[:, :, None]
        return terms.reshape(x.size, TILE * TILE)

    out = np.empty(g)
    scanned = 0
    bound = np.empty((TILE, nb, nb))
    for x0 in range(0, g, TILE):
        rows = np.arange(x0, min(x0 + TILE, g))
        lb = bound[: rows.size]
        np.add(pair.minima, a_min[rows, None, :], out=lb)
        lb += a_min[rows, :, None]
        lb = lb.reshape(rows.size, nb * nb)
        upper = block_terms(rows, lb.argmin(axis=1)).min(axis=1)
        hits = np.flatnonzero(lb <= upper[:, None])
        x, ij = np.divmod(hits, nb * nb)
        starts = np.searchsorted(hits, np.arange(rows.size) * (nb * nb))
        out[rows] = np.minimum.reduceat(block_terms(x + x0, ij).ravel(), starts * TILE * TILE)
        scanned += hits.size
    return out, scanned, g * nb * nb


def c_transform(v: Potential, w: CostModel, n: int) -> Potential:
    """u_c(x) = min over the grid of c_n(x, y_1..y_{n-1}) - sum u(y_j).

    Requires a bounded cost; the transform of a bounded function is
    continuous with the modulus of c_n in its first argument.
    """
    values, _, _ = _min_plus(_bounded_pair_matrix(v, w, n), v.values, n - 1)
    return Potential(v.grid, values)


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    iterations: int
    residual: float
    history: tuple
    repaired: bool  # final min(v, v_c) half-step was applied
    margin: float  # min(v_c - v) of the returned potential
    tiles_scanned: int  # over the k=2 min-plus calls of every transform
    tiles_total: int


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
    v <- min(v, v_c) restores c_n - (+)v >= -tol exactly. The report's
    margin is min(v_c - v) of the returned v, i.e. its `feasibility_margin`;
    only a repaired v costs one more transform.
    """
    pair = _bounded_pair_matrix(v0, w, n)
    scanned = total = 0

    def transform(values):
        nonlocal scanned, total
        vc, s, t = _min_plus(pair, values, n - 1)
        scanned += s
        total += t
        return vc

    v = v0.values
    vc = transform(v)
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
        vc = transform(v)
    repaired = bool(np.any(v - vc > tol))
    if repaired:
        v = np.minimum(v, vc)
        vc = transform(v)
    report = ConvergenceReport(
        converged, iterations, history[-1] if history else 0.0, tuple(history), repaired,
        float(np.min(vc - v)), scanned, total,
    )
    return Potential(v0.grid, v), report


def feasibility_margin(v: Potential, w: CostModel, n: int) -> float:
    """Exact min over all grid n-tuples of c_n(x) - sum v(x_j), i.e. min(v_c - v).

    +inf cells of an unbounded cost never attain the minimum.
    """
    vc, _, _ = _min_plus(_doubled_pair_matrix(v, w, n), v.values, n - 1)
    return float(np.min(vc - v.values))


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
    margin_trunc: float,
    rho: GridDensity,
    n: int,
    value_truncated: float,
    value_full: float,
    gap_tol: float,
    tol: float = 1e-6,
) -> UntruncateReport:
    """Lift a certificate for the truncated problem to the full one.

    `margin_trunc` is v's feasibility margin for the truncated cost, as
    `averaged_iteration` reports it. The full cost dominates the truncated
    cost, so the feasibility margin can only improve; the optimal values
    agree once the truncation level clears the support threshold, so the
    same duality gap certifies v for the untruncated problem.
    """
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
    fixed_point: ConvergenceReport
    lp_truncated: dict  # mmot.SIMPLEX_COUNTERS of the two LPs
    lp_full: dict

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

    def stage(self) -> dict:
        """Deterministic telemetry of the fixed point and LPs, for the manifest's `stages`."""
        fp = self.fixed_point
        return {
            "iterations": fp.iterations,
            "residual_history": list(fp.history),
            "repaired": fp.repaired,
            "margin_truncated": self.untruncate.margin_truncated,
            "margin_full": self.untruncate.margin_full,
            "lp_truncated": self.lp_truncated,
            "lp_full": self.lp_full,
            "tile": TILE,
            "tiles_scanned": fp.tiles_scanned,
            "tiles_total": fp.tiles_total,
        }


def certify_potential(
    rho: GridDensity,
    w: CostModel,
    n: int,
    grid_size: int = 128,
    m: int = 8,
    max_iters: int = 2000,
    tol: float = 1e-6,
) -> PotentialCertificate:
    """Full pipeline: thresholds, truncation, LP duals, fixed point, lift.

    The truncation level is `support_thresholds`' h at `_auto_radius`. The LP
    duals on the m-point quantization seed the averaged iteration on the grid;
    the converged fixed point is certified for the truncated cost and the
    certificate is lifted to the full cost.
    """
    from .costs import support_thresholds, truncate
    from .mmot import SIMPLEX_COUNTERS, quantize, solve_mmot, symmetrized_duals

    thresholds = support_thresholds(rho, w, _auto_radius(rho, n), n)
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
    cost_bound = n * (n - 1) * thresholds.h
    osc_report = oscillation_bound_check(v, cost_bound, n, rho, sol_h.value)
    unt = untruncate_certificate(
        v, w, report.margin, rho, n, sol_h.value, sol_full.value, gap_tol, tol
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
        fixed_point=report,
        lp_truncated={key: getattr(sol_h, key) for key in SIMPLEX_COUNTERS},
        lp_full={key: getattr(sol_full, key) for key in SIMPLEX_COUNTERS},
    )


def _auto_radius(rho: GridDensity, n: int) -> float:
    """Largest dyadic radius with concentration safely below 1/n."""
    r = np.pi / 2
    while r > 1e-3:
        if rho.concentration(r) < 1.0 / n - 1e-9:
            return r
        r /= 2
    raise DomainError("no radius with concentration below 1/n")
