"""Grid potentials for the transport dual: c-transforms and certificates.

All potential work happens on truncated (bounded) costs and lifts to the
unbounded problem afterwards: the full cost dominates the truncated one
pointwise, so feasibility margins only improve, and the two problems share
optimal values once the truncation level clears the support threshold.

The averaged fixed point pins the additive constant: its step ignores a
constant added to the seed, and its fixed point has margin 0. n <rho, v> then
lies the certified gap below the cost of the grid measure's Seidl staircase
(`staircase_value`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import TOL, TWO_PI, gap_tolerance
from .costs import CostModel
from .errors import Checked, DomainError, SizeGuardError, StateError
from .measure1d import GridDensity
from .seidl import SeidlMap, cells_cost, mass_staircase

if TYPE_CHECKING:
    from .mmot import LPSolution


def uniform_grid(size: int) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, size)


class Potential(Checked, NamedTuple("_Potential", [("grid", np.ndarray), ("values", np.ndarray)])):
    """Grid function on [0, 2*pi]."""

    __slots__ = ()

    def __new__(cls, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.shape != values.shape or grid.ndim != 1:
            raise DomainError("grid and values must be 1d arrays of equal length")
        if not np.all(np.isfinite(values)):
            raise DomainError("potential values must be finite")
        return super().__new__(cls, grid, values)

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
# rows of x the three-body min-plus bounds and scans per step
X_ROWS = 32
# rows of x the one-body min-plus subtracts and reduces per step, through one buffer
K1_ROWS = 64


class _PairMatrix(NamedTuple):
    """2 w on the grid; for n >= 3 also its TILE x TILE blocks and their minima.

    For the blocks the matrix is padded with +inf to nb * TILE rows and
    columns; `blocks[I * nb + J]` holds rows I*TILE.. and columns J*TILE..
    of the padded matrix, and `minima[I, J]` is that block's minimum.
    """

    full: np.ndarray
    blocks: np.ndarray | None = None
    minima: np.ndarray | None = None


def _doubled_pair_matrix(grid: np.ndarray, w: CostModel, n: int) -> _PairMatrix:
    """2 w on the grid, after the grid^(n-1) guard (checked before any work).

    The grid must be uniform: a translation-invariant cost is read off one
    cost row (`CostModel.grid_matrix`), other costs are evaluated on every pair.
    """
    if n < 2:
        raise DomainError("need n >= 2 marginals")
    g = grid.size
    if g ** (n - 1) > TOL.ctransform_guard:
        raise SizeGuardError(
            f"grid^(n-1) = {g}^{n - 1} = {g ** (n - 1)} exceeds the "
            f"c-transform guard {TOL.ctransform_guard}"
        )
    pair2 = 2.0 * w.grid_matrix(grid)
    if n == 2:
        return _PairMatrix(pair2)
    nb = -(-g // TILE)
    padded = np.full((nb * TILE, nb * TILE), np.inf)
    padded[:g, :g] = pair2
    blocks = padded.reshape(nb, TILE, nb, TILE).swapaxes(1, 2).reshape(nb * nb, TILE, TILE)
    return _PairMatrix(pair2, blocks, blocks.min(axis=(1, 2)).reshape(nb, nb))


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
        out = np.empty(u.size)
        buf = np.empty((min(K1_ROWS, u.size), u.size))
        for x0 in range(0, u.size, K1_ROWS):
            rows = buf[: min(K1_ROWS, u.size - x0)]
            np.subtract(pair2[x0 : x0 + K1_ROWS], u, out=rows)
            rows.min(axis=1, out=out[x0 : x0 + K1_ROWS])
        return out, 0, 0
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
    nb * TILE) besides the pair matrix and its blocks, plus, per step of
    X_ROWS rows, one (X_ROWS, nb^2) bound and the terms of its scanned blocks.
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
    bound = np.empty((X_ROWS, nb, nb))
    for x0 in range(0, g, X_ROWS):
        rows = np.arange(x0, min(x0 + X_ROWS, g))
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

    The cost is taken as given: +inf cells never attain the minimum, and a
    transform that is +inf somewhere is rejected by `Potential`. For a
    bounded cost it is continuous with the modulus of c_n in its first argument.
    """
    values, _, _ = _min_plus(_doubled_pair_matrix(v.grid, w, n), v.values, n - 1)
    return Potential(v.grid, values)


class ConvergenceReport(NamedTuple):
    converged: bool
    iterations: int
    residual: float
    history: tuple
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

    Every step is grid-feasible, whatever v: c_n is symmetric, so
    v_c(x_i) + sum_{j != i} v(x_j) <= c_n(x) for each i of a grid tuple x,
    and the sum over i gives sum_i ((n-1) v + v_c)(x_i) / n <= c_n(x). From
    there the iterates increase monotonically and stay feasible, so the
    loop converges to a fixed point with v = v_c. The report's margin is
    min(v_c - v) of the returned v, i.e. its `feasibility_margin`; only with
    max_iters = 0 is v0 itself returned, at its own margin. The step ignores
    a constant added to v, since v_c drops by (n-1) times it: from the first
    step on, the iterates are those of v0 shifted to margin 0.
    """
    pair = _doubled_pair_matrix(v0.grid, w, n)
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
    report = ConvergenceReport(
        converged, iterations, history[-1] if history else 0.0, tuple(history),
        float(np.min(vc - v)), scanned, total,
    )
    return Potential(v0.grid, v), report


# midpoint cells of the co-motion potential's quadrature, and the half-width of
# its centered difference: below the half-cell pi / SEED_CELLS, so x +- SEED_STEP
# stays in [0, 2*pi]
SEED_CELLS = 4096
SEED_STEP = 1e-5


def comotion_potential(
    rho: GridDensity, w: CostModel, n: int, grid: np.ndarray
) -> tuple[Potential, float]:
    """The Seidl plan's potential on the grid, 0 at x = 0, and its period defect.

    On the Seidl plan the potential is the strictly-correlated-electrons one
    read off the co-motion functions T^k (Seidl, Gori-Giorgi and Savin 2007;
    Colombo, De Pascale and Di Marino 2015):
    v'(x) = 2 sum_{k=1}^{n-1} d1 w(x, T^k x). It is summed by the midpoint
    rule on SEED_CELLS cells of [0, 2*pi], with T^k from `SeidlMap.iterate`
    and d1 w one centered difference of the cost, then interpolated onto the
    grid. The period defect |v(2*pi) - v(0)| of the sum is 0 for the exact
    potential. A seed needs no rigor: the fixed point it starts is certified
    on its own.
    """
    x = (np.arange(SEED_CELLS) + 0.5) * (TWO_PI / SEED_CELLS)
    seidl = SeidlMap(rho, n)
    slope = np.zeros(SEED_CELLS)
    for k in range(1, n):
        y = seidl.iterate(k, x)
        slope += w(x + SEED_STEP, y) - w(x - SEED_STEP, y)
    # 2 d1 w = (w(x + s) - w(x - s)) / s, times the cell width
    sums = np.concatenate(([0.0], np.cumsum(slope * (TWO_PI / SEED_CELLS / SEED_STEP))))
    values = np.interp(grid, np.linspace(0.0, TWO_PI, SEED_CELLS + 1), sums)
    return Potential(grid, values), abs(float(sums[-1]))


def feasibility_margin(v: Potential, w: CostModel, n: int) -> float:
    """Exact min over all grid n-tuples of c_n(x) - sum v(x_j), i.e. min(v_c - v).

    +inf cells of an unbounded cost never attain the minimum.
    """
    vc, _, _ = _min_plus(_doubled_pair_matrix(v.grid, w, n), v.values, n - 1)
    return float(np.min(vc - v.values))


def duality_gap(rho: GridDensity, v: Potential, transport_value: float, n: int) -> float:
    """gap = transport_value - n <rho, v>; non-negative for feasible v (see `feasibility_margin`)."""
    return float(transport_value - n * density_pairing(rho, v))


def staircase_value(rho: GridDensity, grid: np.ndarray, w: CostModel, n: int) -> float:
    """Cost of the grid measure's Seidl staircase, a feasible plan of the grid problem.

    The grid measure puts mu_i = trapezoid weight * rho(x_i) on grid point
    x_i, so <mu, v> is `density_pairing`. By weak duality the staircase's
    cost is at least n <mu, v> + M min(v_c - v) for every grid potential v,
    M being the measure's total mass: priced against it, the gap of a
    feasible v is non-negative, up to rounding.
    """
    cells, mass = mass_staircase(quad_weights(grid) * rho.density(grid), n)
    return cells_cost(grid[cells], mass, w)


class OscillationReport(NamedTuple):
    oscillation: float
    cost_bound: float
    passed: bool
    box_passed: bool
    box_low: float
    box_high: float


def oscillation_bound_check(
    v: Potential,
    h: float,
    n: int,
    rho: GridDensity,
    transport_value: float,
    tol: float = 1e-9,
) -> OscillationReport:
    """Check max v - min v <= h for a potential of a cost bounded by h.

    Also checks the sharper normalized box -h (n-1)/n <= v - ref <= h/n,
    where ref recenters v to the normalization n <rho, v> = transport value.
    """
    osc = v.oscillation()
    shifted = v.values - (density_pairing(rho, v) - transport_value / n)
    box_low = float(shifted.min())
    box_high = float(shifted.max())
    box_passed = box_low >= -h * (n - 1) / n - tol and box_high <= h / n + tol
    return OscillationReport(osc, h, bool(osc <= h + tol), bool(box_passed), box_low, box_high)


class UntruncateReport(NamedTuple):
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
    (the LP values on the quantized marginal) agree once the truncation
    level clears the support threshold, so the same duality gap, priced
    against the full cost's grid staircase (`staircase_value`), certifies v
    for the untruncated problem.
    """
    if margin_trunc < -tol:
        raise DomainError("potential is not certified for the truncated cost")
    margin_full = feasibility_margin(v, w_full, n)
    value_diff = abs(value_full - value_truncated)
    gap_full = duality_gap(rho, v, staircase_value(rho, v.grid, w_full, n), n)
    passed = (
        margin_full >= margin_trunc - 1e-12
        and margin_full >= -tol
        and value_diff <= 1e-7
        and gap_full <= gap_tol
    )
    return UntruncateReport(bool(passed), margin_trunc, margin_full, value_diff, gap_full)


class PotentialCertificate(NamedTuple):
    potential: Potential
    gap: float  # gap_reference - n <rho, v>
    gap_reference: float  # `staircase_value` of the truncated cost
    gap_tol: float
    truncation_level: float
    fixed_point: ConvergenceReport
    oscillation_report: OscillationReport
    untruncate: UntruncateReport
    lp_truncated: LPSolution  # on the truncated cost
    lp_full: LPSolution
    seed_period_defect: float  # of `comotion_potential`

    def passed(self) -> bool:
        fp = self.fixed_point
        return bool(
            fp.converged
            and fp.margin >= -1e-6
            and -1e-6 <= self.gap <= self.gap_tol
            and self.oscillation_report.passed
            and self.untruncate.passed
        )

    def to_json(self) -> dict:
        fp, osc = self.fixed_point, self.oscillation_report
        return {
            "schema": 1,
            "margin": fp.margin,
            "gap": self.gap,
            "gap_reference": self.gap_reference,
            "gap_tol": self.gap_tol,
            "oscillation": osc.oscillation,
            "iterations": fp.iterations,
            "residual": fp.residual,
            "converged": fp.converged,
            "truncation_level": self.truncation_level,
            "cost_bound": osc.cost_bound,
            "box_passed": osc.box_passed,
            "untruncate_passed": self.untruncate.passed,
            "lp_value_truncated": self.lp_truncated.value,
            "lp_value_full": self.lp_full.value,
            "passed": self.passed(),
        }

    def stage(self) -> dict:
        """Deterministic telemetry of the fixed point and LPs, for the manifest's `stages`."""
        fp = self.fixed_point
        return {
            "seed_period_defect": self.seed_period_defect,
            "iterations": fp.iterations,
            "residual_history": list(fp.history),
            "margin_truncated": self.untruncate.margin_truncated,
            "margin_full": self.untruncate.margin_full,
            "lp_truncated": self.lp_truncated.simplex,
            "lp_full": self.lp_full.simplex,
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
) -> PotentialCertificate:
    """Full pipeline: thresholds, truncation, LPs, seeded fixed point, lift.

    The truncation level is `support_thresholds`' h at `_auto_radius`.
    `comotion_potential` seeds the averaged iteration on the grid (at most
    2000 steps, to sup|v - v_c| <= 1e-6). The gap is priced against the grid
    measure's staircase (`staircase_value`); the fixed point is certified for
    the truncated cost and the certificate is lifted to the full cost. The
    LPs on the m-point quantization give `lp_value_*` and the
    truncation-equivalence check.
    """
    from .costs import support_thresholds, truncate
    from .mmot import quantize, solve_mmot

    if grid_size < 3:  # the inclusive grid holds 0 and 2*pi: one ring point at size 2
        raise DomainError(f"grid_size = {grid_size} is below 3; the grid needs two ring points")
    thresholds = support_thresholds(rho, w, _auto_radius(rho, n), n)
    w_h = truncate(w, thresholds.h)
    marginal = quantize(rho, m)
    sol_h = solve_mmot(marginal, n, w_h)
    sol_full = solve_mmot(marginal, n, w)
    if sol_h.status != "optimal" or sol_full.status != "optimal":
        raise StateError("LP oracle failed on the quantized marginal")

    grid = uniform_grid(grid_size)
    v0, defect = comotion_potential(rho, w_h, n, grid)
    v, report = averaged_iteration(v0, w_h, n, max_iters=2000)

    gap_tol = gap_tolerance(grid_size)
    reference = staircase_value(rho, grid, w_h, n)
    gap = duality_gap(rho, v, reference, n)
    osc_report = oscillation_bound_check(v, n * (n - 1) * thresholds.h, n, rho, reference)
    unt = untruncate_certificate(v, w, report.margin, rho, n, sol_h.value, sol_full.value, gap_tol)
    return PotentialCertificate(
        v, gap, reference, gap_tol, thresholds.h, report, osc_report, unt, sol_h, sol_full, defect
    )


def _auto_radius(rho: GridDensity, n: int) -> float:
    """Largest dyadic radius with concentration safely below 1/n."""
    r = np.pi / 2
    while r > 1e-3:
        if rho.concentration(r) < 1.0 / n - 1e-9:
            return r
        r /= 2
    raise DomainError("no radius with concentration below 1/n")
