"""Mollified fermionic trial states built from a transport plan.

A plan whose atoms keep all coordinates at torus distance >= alpha is
smeared with bumps of width eta < alpha / 4. In that regime the bump
supports never overlap, the determinantal cross terms vanish, and the
diagonal density reduces to permutation sums of one-particle factors

    B(x, y) = integral of PB(x - z) PB(y - z) / (rho ~ * PB)(z) dz,

with PB the periodized squared bump. The smeared state has single-particle
density n * rho exactly (up to plan quantization) and kinetic energy
n * (dirichlet(sqrt rho) + dirichlet(chi) / eta^2), which prices the
trial-state upper bound for the kinetic-plus-interaction functional.

All integrals use the composite midpoint rule on uniform torus grids. The
kernels work on windows of the z-grid: a bump is kept on the 2 reach + 1
nodes around its point's base node, evaluated once per distinct phase of the
point against the grid, and B is contracted per z-tile over only the
coordinates whose windows reach that tile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from math import factorial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import TOL, TWO_PI
from .costs import CostModel, torus_distance
from .errors import ConstructionError, DomainError, RegimeError
from .measure1d import GridDensity
from .seidl import DiscretePlan, plan_cost, seidl_plan


# -- mollifier ------------------------------------------------------------


@dataclass(frozen=True)
class Mollifier:
    """Even bump on [-1, 1], tabulated with linear interpolation.

    Normalized so the integral of chi^2 over the tabulated piecewise-linear
    interpolant is exactly 1; the dirichlet energy of the interpolant is
    likewise exact.
    """

    t: np.ndarray
    values: np.ndarray
    dirichlet: float = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1 or t.size < 3:
            raise ConstructionError("mollifier needs matching 1d tables")
        if abs(t[0] + 1.0) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
            raise ConstructionError("mollifier support must be [-1, 1]")
        if np.max(np.abs(v - v[::-1])) > 1e-12:
            raise ConstructionError("mollifier must be even")
        h = np.diff(t)
        sq = np.sum(h * (v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) / 3.0)
        if abs(sq - 1.0) > 1e-10:
            raise ConstructionError("mollifier must satisfy integral chi^2 = 1")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "dirichlet", float(np.sum(np.diff(v) ** 2 / h)))

    @classmethod
    def bump(cls) -> "Mollifier":
        """Standard smooth bump exp(-1 / (1 - t^2)), normalized in L^2."""
        t = np.linspace(-1.0, 1.0, TOL.mollifier_table)
        with np.errstate(divide="ignore", over="ignore"):
            inner = np.where(np.abs(t) < 1.0, 1.0 - t * t, 1.0)
            v = np.where(np.abs(t) < 1.0, np.exp(-1.0 / inner), 0.0)
        h = np.diff(t)
        sq = np.sum(h * (v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) / 3.0)
        return cls(t, v / np.sqrt(sq))

    def chi(self, x):
        """chi at unit scale, zero outside [-1, 1]."""
        return np.interp(np.asarray(x, dtype=float), self.t, self.values, left=0.0, right=0.0)

    def chi_sq(self, x):
        return self.chi(x) ** 2

    def chi_prime(self, x):
        """Piecewise-constant derivative of the tabulated interpolant."""
        x = np.asarray(x, dtype=float)
        slopes = np.diff(self.values) / np.diff(self.t)
        k = np.clip(np.searchsorted(self.t, x, side="right") - 1, 0, slopes.size - 1)
        return np.where(np.abs(x) < 1.0, slopes[k], 0.0)


def _wrap(x):
    """Signed torus representative in [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, TWO_PI) - np.pi


def _midpoints(k: int) -> np.ndarray:
    """Nodes of the k-point composite midpoint rule on the torus."""
    return (np.arange(k) + 0.5) * (TWO_PI / k)


def _correlate(samples, offsets, kernel, dz):
    """Circular midpoint correlation: dz * sum of kernel[i] * samples[z + offsets[i]].

    Each shifted copy is a slice of one copy of samples wrapped by the reach
    R = max |offset| on both sides; the terms are added in offset order.
    """
    size = samples.size
    reach = int(np.max(np.abs(offsets), initial=0))
    if reach > size:
        raise DomainError(f"correlation reach {reach} exceeds the {size} samples")
    wrapped = np.concatenate((samples[size - reach:], samples, samples[:reach]))
    out = np.zeros(size)
    for off, kv in zip(offsets, kernel):
        if kv != 0.0:
            out += kv * wrapped[reach + off: reach + off + size]
    return out * dz


# -- plan geometry ---------------------------------------------------------


def support_separation(plan: DiscretePlan) -> float:
    """Minimum pairwise torus distance between coordinates of any atom."""
    i, j = np.triu_indices(plan.n, k=1)
    d = torus_distance(plan.atoms[:, i], plan.atoms[:, j])
    return float(np.min(d)) if d.size else np.inf


# -- the smeared state -----------------------------------------------------


# z-nodes per tile: b_matrix contracts each tile's points on the tile's
# nodes plus reach nodes either side, not on the whole z-grid
TILE = 256


def _finite_points(x) -> np.ndarray:
    """x as a float array; DomainError names its first non-finite entry and that entry's index."""
    x = np.asarray(x, dtype=float)
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        at = tuple(int(i) for i in bad[0])
        raise DomainError(f"point {x[at]} at index {at[0] if len(at) == 1 else at} is not finite")
    return x


class GammaEta:
    """Mollified trial state for a separated plan, in the disjoint regime.

    On the TOL.quad_grid midpoint z-grid, a point p has the base node
    b = rint(p / dz - 0.5) (mod quad_grid), its nearest, and the phase
    phi = wrap(p - z_b) in [-dz / 2, dz / 2]. Every z with |p - z| < eta lies
    within reach = ceil(eta / dz) steps of b, so the bump PB(p - z) is kept on
    its window `offsets` = -reach .. reach only, at the argument
    (phi - o dz) / eta for node b + o: one row per distinct phase, shared by
    every point with that phase. A point whose base node lies in the
    TILE-node tile t touches only the z-range of TILE + 2 * reach nodes
    starting at t * TILE - reach, which must not wrap onto itself around the
    torus.

    Each unique plan coordinate c keeps its base node (`coord_base`) and its
    window values PB(c - z) / den(z) (`coord_windows`, coords x offsets).
    """

    def __init__(self, plan: DiscretePlan, rho: GridDensity, chi: Mollifier, eta: float):
        if np.min(rho.values) <= 0:
            raise DomainError("mollified states need a strictly positive density")
        alpha = support_separation(plan)
        if not eta > 0:
            raise DomainError("eta must be positive")
        if not eta < alpha / 4:
            raise RegimeError(f"eta = {eta} is not below alpha / 4 = {alpha / 4}")
        self.plan = plan
        self.rho = rho
        self.chi = chi
        self.eta = float(eta)
        self.alpha = float(alpha)
        self.n = plan.n

        self.zgrid = _midpoints(TOL.quad_grid)
        self.dz = TWO_PI / TOL.quad_grid
        self.reach = int(np.ceil(self.eta / self.dz))
        if TILE + 2 * self.reach + 1 > TOL.quad_grid:
            raise ConstructionError(
                f"tile z-range {TILE} + 2 * reach + 1 = {TILE + 2 * self.reach + 1} nodes "
                f"exceeds quad_grid = {TOL.quad_grid} (eta = {self.eta}, reach = {self.reach})"
            )
        self.offsets = np.arange(-self.reach, self.reach + 1)
        # periodized squared bump against the density: (rho~ * chi_eta^2)(z)
        kernel = chi.chi_sq(self.offsets * self.dz / self.eta) / self.eta
        self.den = _correlate(rho.density(self.zgrid), -self.offsets, kernel, self.dz)
        if np.min(self.den) <= 0:
            raise ConstructionError("smeared density vanishes; eta too small for the grid")
        # unique coordinate values across all atoms, with (atom, slot) indices
        coords, inverse = np.unique(plan.atoms, return_inverse=True)
        self.coords = coords
        self.coord_index = inverse.reshape(plan.atoms.shape)
        # column kernels PB(c - z) / den(z) on each unique coordinate's window
        self.coord_base, pb, phase = self._windows(coords)
        self.coord_windows = pb[phase] / self.den[self._window_nodes(self.coord_base)]
        self.contracted = (0, 0)   # (phases, tile_coords) of the latest b_matrix call

    def _window_nodes(self, base):
        """z-node indices of each window: (base + offsets) mod quad_grid."""
        return np.mod(base[:, None] + self.offsets, self.zgrid.size)

    # PB(x) = chi_eta(x)^2 = chi(x / eta)^2 / eta
    def _windows(self, pts):
        """Base nodes, the PB window row of each distinct phase, and each point's phase index.

        The bump is evaluated once per distinct phase; point i's window is
        rows[phase[i]].
        """
        base = np.mod(np.rint(pts / self.dz - 0.5).astype(int), self.zgrid.size)
        phases, phase = np.unique(_wrap(pts - self.zgrid[base]), return_inverse=True)
        rows = self.chi.chi_sq((phases[:, None] - self.offsets * self.dz) / self.eta) / self.eta
        return base, rows, phase

    def b_matrix(self, xs) -> np.ndarray:
        """B(x, coord) for arbitrary finite positions x, over all unique coordinates.

        B(x, c) = dz * sum over z of PB(x - z) PB(c - z) / den(z). The points
        are bucketed by the z-tile of their base node. Each bucket's windows
        are placed in a block on the tile's z-range, which is contracted with
        the windows of only the coordinates that reach that range: a cyclic
        band of the sorted coordinates. Every other entry is an exact 0.
        `contracted` records the distinct phases among xs and the coordinate
        columns contracted, summed over tiles.
        """
        xs = _finite_points(xs)
        gz = self.zgrid.size
        width = TILE + 2 * self.reach
        base, rows_pb, phase = self._windows(xs)
        # the range of tile t starts at node t * TILE - reach, so window entry o
        # of a point lands on column base % TILE + reach + o: a slice of its
        # phase row padded by TILE zeros on both sides
        padded = np.pad(rows_pb * self.dz, ((0, 0), (TILE, TILE)))
        placed = sliding_window_view(padded, width, axis=1)
        first = TILE - base % TILE
        tiles = base // TILE
        coord_nodes = self._window_nodes(self.coord_base)
        out = np.zeros((xs.size, self.coords.size))
        tile_coords = 0
        for t in np.unique(tiles):
            rows = np.flatnonzero(tiles == t)
            start = t * TILE - self.reach
            # a coordinate's window meets the range iff its base lies within reach of it
            near = np.flatnonzero(np.mod(self.coord_base - start + self.reach, gz) < width + 2 * self.reach)
            # window nodes outside the range land in a spare last column
            cols = np.minimum(np.mod(coord_nodes[near] - start, gz), width)
            kernels = np.zeros((near.size, width + 1))
            np.put_along_axis(kernels, cols, self.coord_windows[near], axis=1)
            out[rows[:, None], near] = placed[phase[rows], first[rows]] @ kernels[:, :width].T
            tile_coords += near.size
        self.contracted = (rows_pb.shape[0], tile_coords)
        return out

    def density_at(self, tuples) -> np.ndarray:
        """Diagonal n-particle density at the given coordinate tuples."""
        x = _finite_points(np.atleast_2d(np.asarray(tuples, dtype=float)))
        if x.shape[1] != self.n:
            raise DomainError("tuples must have n coordinates")
        pts, inv = np.unique(x, return_inverse=True)
        b = self.b_matrix(pts)                      # (unique pts, coords)
        idx = inv.reshape(x.shape)                  # (nt, n) into pts
        rho_fac = self.rho.density(x)               # (nt, n)
        out = np.zeros(x.shape[0])
        for sigma in permutations(range(self.n)):
            prod = np.ones((x.shape[0], self.plan.atoms.shape[0]))
            for i in range(self.n):
                prod *= rho_fac[:, i][:, None] * b[idx[:, i]][:, self.coord_index[:, sigma[i]]]
            out += prod @ self.plan.weights
        return out / factorial(self.n)

    def coordinate_masses(self, grid: int) -> np.ndarray:
        """q(coord) = integral of rho(x) B(x, coord) dx at the given resolution."""
        xs = _midpoints(grid)
        b = self.b_matrix(xs)
        return (self.rho.density(xs) * (TWO_PI / grid)) @ b

    def total_mass(self, grid: int = 256) -> float:
        """Quadrature of the diagonal density over the n-torus."""
        q = self.coordinate_masses(grid)
        return float(np.dot(self.plan.weights, np.prod(q[self.coord_index], axis=1)))


def marginal_identity_check(gamma: GammaEta, grid: int = 256) -> float:
    """sup_x | n * integral of Gamma(x, rest) d rest  -  n * rho(x) |.

    The inner integrals are evaluated with the same per-axis midpoint rule
    as the outer grid, matching the stated quadrature budget.
    """
    n = gamma.n
    xs = _midpoints(grid)
    r = gamma.rho.density(xs)
    b = gamma.b_matrix(xs)                    # (grid, coords)
    q = (r * (TWO_PI / grid)) @ b             # coordinate_masses(grid)
    acc = np.zeros(grid)
    for sigma in permutations(range(n)):
        first = gamma.coord_index[:, sigma[0]]
        rest = np.ones(gamma.plan.atoms.shape[0])
        for i in range(1, n):
            rest *= q[gamma.coord_index[:, sigma[i]]]
        acc += b[:, first] @ (gamma.plan.weights * rest)
    density = n * r * acc / factorial(n)
    return float(np.max(np.abs(density - n * r)))


def sqrt_density_dirichlet(rho: GridDensity) -> float:
    """integral of |d sqrt(rho)|^2, exact per linear segment.

    On a segment from v0 to v1 with slope s the integrand is s^2 / (4 rho),
    whose antiderivative is (s / 4) log(rho); strict positivity required.
    """
    v0 = rho.values[:-1]
    v1 = rho.values[1:]
    if np.any(v0 <= 0) or np.any(v1 <= 0):
        raise DomainError("dirichlet energy of sqrt(rho) needs rho > 0")
    h = np.diff(rho.nodes)
    s = (v1 - v0) / h
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(np.abs(s) > 0, 0.25 * s * np.log(v1 / v0), 0.0)
    return float(np.sum(terms))


@dataclass(frozen=True)
class KineticReport:
    exact: float       # n (dirichlet(sqrt rho) + dirichlet(chi) / eta^2)
    quadrature: float  # direct trace over the constructed orbitals
    relative_mismatch: float


def closed_form_kinetic(n: int, rho: GridDensity, chi: Mollifier, eta: float) -> float:
    """n (dirichlet(sqrt rho) + dirichlet(chi) / eta^2): the smeared state's kinetic energy."""
    return n * (sqrt_density_dirichlet(rho) + chi.dirichlet / eta**2)


def kinetic_energy(gamma: GammaEta) -> KineticReport:
    """Both sides of the kinetic identity for the smeared state.

    The quadrature side integrates K(z) against each coordinate's column
    kernel on that coordinate's window, where the kernel is nonzero.
    """
    n = gamma.n
    eta = gamma.eta
    chi = gamma.chi
    rho = gamma.rho
    exact = closed_form_kinetic(n, rho, chi, eta)

    # direct quadrature: K(z) = integral |d(sqrt(rho) chi_eta(. - z))|^2 dx,
    # assembled from three circular correlations on the z-grid
    zs = gamma.zgrid
    dz = gamma.dz
    rho_s = rho.density(zs)
    k = np.clip(np.searchsorted(rho.nodes, zs, side="right") - 1, 0, rho._slopes.size - 1)
    drho = rho._slopes[k]
    dsqrt_sq = drho**2 / (4.0 * rho_s)

    offsets = gamma.offsets
    u = offsets * dz / eta
    k_sq = chi.chi_sq(u) / eta                         # chi_eta^2
    k_sq_prime = 2.0 * chi.chi(u) * chi.chi_prime(u) / eta**2   # (chi_eta^2)'
    k_d = chi.chi_prime(u) ** 2 / eta**3               # (chi_eta')^2

    # K(z) = int (dsqrt)^2 PB + (1/2) drho PB' + rho PD, shifted by z
    kz = (
        _correlate(dsqrt_sq, offsets, k_sq, dz)
        + 0.5 * _correlate(drho, offsets, k_sq_prime, dz)
        + _correlate(rho_s, offsets, k_d, dz)
    )
    # per-coordinate integral of K against its column kernel, over its window
    kq = (gamma.coord_windows * kz[gamma._window_nodes(gamma.coord_base)]).sum(axis=1) * dz
    quadrature = float(
        np.dot(gamma.plan.weights, kq[gamma.coord_index].sum(axis=1))
    )
    rel = abs(quadrature - exact) / max(abs(exact), 1e-300)
    return KineticReport(float(exact), quadrature, float(rel))


PAIR_GRID = 1024   # nodes of the interaction quadrature's midpoint grid


def midpoint_pair_matrix(w: CostModel) -> np.ndarray:
    """The pair cost on the PAIR_GRID-node midpoint grid of the interaction quadrature.

    The cost is taken as given, untruncated. Its +inf cells where two midpoints
    coincide (the diagonal) are set to 0, as trial states put no pair mass there;
    any other non-finite cell raises DomainError naming it. A distance cost is
    read off one cost row (`CostModel.grid_matrix`): PAIR_GRID evaluations, not PAIR_GRID^2.
    """
    xs = _midpoints(PAIR_GRID)
    pair = w.grid_matrix(xs)
    coincident = np.flatnonzero(np.isposinf(np.diagonal(pair)))
    pair[coincident, coincident] = 0.0
    bad = np.argwhere(~np.isfinite(pair))
    if bad.size:
        i, j = bad[0]
        raise DomainError(f"interaction quadrature needs a finite cost off the diagonal: "
                          f"w({xs[i]:.6g}, {xs[j]:.6g}) = {pair[i, j]} at cell ({i}, {j})")
    return pair


def interaction_energy(gamma: GammaEta, pair: np.ndarray) -> float:
    """integral of c_n against the diagonal density, via pair-marginal sums.

    `pair` is the cost on a k-node midpoint grid (`midpoint_pair_matrix`);
    the quadrature runs on that grid, so one matrix serves every gamma of a
    curve. The permutation sum collapses: every ordered coordinate pair of
    every atom contributes one smeared pair energy E[a, b]; the pair's supports
    are disjoint, so `pair`'s diagonal carries no weight.
    """
    xs = _midpoints(pair.shape[0])
    d = (gamma.b_matrix(xs) * (gamma.rho.density(xs) * (TWO_PI / xs.size))[:, None])
    e = d.T @ pair @ d
    n = gamma.n
    i, j = np.triu_indices(n, k=1)
    per_atom = 2.0 * e[gamma.coord_index[:, i], gamma.coord_index[:, j]].sum(axis=1)
    return float(np.dot(gamma.plan.weights, per_atom))


def periodicity_defect(gamma: GammaEta, num_samples: int = 16) -> float:
    """Largest seam defect of the one-particle functions under x -> x + 2*pi.

    Compares values and derivatives of sqrt(rho(x)) chi_eta(x - z) computed
    at x and at x + 2*pi through the actual evaluation paths.
    """
    rng = np.random.default_rng(0)
    zs = rng.uniform(0.0, TWO_PI, num_samples)
    xs = rng.uniform(0.0, TWO_PI, num_samples)
    worst = 0.0
    rho, chi, eta = gamma.rho, gamma.chi, gamma.eta

    def phi_and_slope(x, z):
        x = np.mod(x, TWO_PI)
        r = rho.density(x)
        k = np.clip(np.searchsorted(rho.nodes, x, side="right") - 1, 0, rho._slopes.size - 1)
        dr = rho._slopes[k]
        u = _wrap(x - z) / eta
        val = np.sqrt(r) * chi.chi(u) / np.sqrt(eta)
        slope = (dr / (2.0 * np.sqrt(r))) * chi.chi(u) / np.sqrt(eta) + np.sqrt(r) * chi.chi_prime(u) / eta**1.5
        return val, slope

    for z in zs:
        v0, s0 = phi_and_slope(xs, z)
        v1, s1 = phi_and_slope(xs + TWO_PI, z)
        worst = max(worst, float(np.max(np.abs(v0 - v1))), float(np.max(np.abs(s0 - s1))))
    return worst


# -- the upper-bound curve --------------------------------------------------


@dataclass(frozen=True)
class BoundPoint:
    eps: float
    eta: float
    reach: int            # z-grid steps of the bump's half-width at this eta
    phases: int           # distinct bump phases of the interaction grid's points
    tile_coords: int      # coordinate columns contracted on the interaction grid, over tiles
    kinetic: float
    interaction: float
    bound: float


@dataclass(frozen=True)
class BoundCurve:
    points: tuple
    reference: float      # transport cost of the base plan
    slope: float | None   # log-log slope of bound - reference vs eps
    eta_coefficient: float
    alpha: float          # support separation of the base plan
    cap: float            # the widest width used, alpha / 8
    states: int           # GammaEta states built: one per distinct eta
    coords: int           # unique coordinates of the base plan

    def stage(self) -> dict:
        """Deterministic telemetry of the curve, for the manifest's `stages`."""
        return {
            "alpha": self.alpha,
            "cap": self.cap,
            "rows": [
                {"eps": p.eps, "eta": p.eta, "reach": p.reach, "phases": p.phases,
                 "tile_coords": p.tile_coords}
                for p in self.points
            ],
            "states": self.states,
            "coords": self.coords,
            "quad_grid": TOL.quad_grid,
            "pair_grid": PAIR_GRID,
        }


def _checked_eps(eps_list) -> list:
    """The eps values, largest first; each must be finite, positive and distinct."""
    eps = [float(e) for e in eps_list]
    if not eps:
        raise DomainError("eps list is empty")
    for e in eps:
        if not (np.isfinite(e) and e > 0):
            raise DomainError(f"eps = {e} must be finite and positive")
    eps.sort(reverse=True)
    for hi, lo in zip(eps, eps[1:]):
        if hi == lo:
            raise DomainError(f"eps = {lo} is repeated; the values must be distinct")
    return eps


def upper_bound_curve(
    rho: GridDensity,
    w: CostModel,
    n: int,
    eps_list,
    m: int = 64,
) -> BoundCurve:
    """Trial-state upper bounds eps * kinetic + interaction along an eps list.

    The smearing width follows eta(eps) = min(alpha / 8, c eps^(1/4)) with c
    balancing the smearing cost error (growing like eta^2) against the
    kinetic price (eps / eta^2) at the largest eps, so both error terms
    scale like sqrt(eps) and the curve approaches the plan cost at that
    rate from above. One state is built and priced per distinct eta: the
    probe at alpha / 8 serves every row capped there. The kinetic column is
    the closed form, which needs no state. w is priced untruncated: as eta <= alpha / 8,
    same-atom coordinates are weighted only at distance >= alpha / 2 (`midpoint_pair_matrix`).
    """
    chi = Mollifier.bump()
    eps_arr = _checked_eps(eps_list)
    plan = seidl_plan(rho, n, m)
    reference = plan_cost(plan, w)
    alpha = support_separation(plan)
    cap = alpha / 8.0
    pair = midpoint_pair_matrix(w)
    priced = {}   # eta -> (interaction, reach, phases, tile_coords)

    def price(eta):
        if eta not in priced:
            gamma = GammaEta(plan, rho, chi, eta)
            priced[eta] = (interaction_energy(gamma, pair), gamma.reach, *gamma.contracted)
        return priced[eta]

    # probe the smearing error coefficient at the widest admissible width
    smear_gap = price(cap)[0] - reference
    a_coef = max(smear_gap / cap**2, 1e-12)
    c = min((n * chi.dirichlet / a_coef) ** 0.25, cap / max(eps_arr) ** 0.25)

    points = []
    for eps in eps_arr:
        eta = min(cap, c * eps**0.25)
        inter, *counts = price(eta)
        kin = closed_form_kinetic(n, rho, chi, eta)
        points.append(BoundPoint(eps, eta, *counts, kin, inter, eps * kin + inter))

    slope = None
    gaps = np.array([p.bound - reference for p in points])
    if len(points) >= 2 and np.all(gaps > 0):
        coeffs = np.polyfit(np.log([p.eps for p in points]), np.log(gaps), 1)
        slope = float(coeffs[0])
    return BoundCurve(
        tuple(points), float(reference), slope, float(c), float(alpha), float(cap), len(priced),
        int(np.unique(plan.atoms).size),
    )
