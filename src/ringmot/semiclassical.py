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
point against the grid. The pair grid of the interaction (`pairgrid`) is a
sub-lattice of the z-grid whose nodes all sit at one offset from it, so each
coordinate's window of B on the pair grid is one correlation of a single bump
row with the coordinate's z-window (`GammaEta.pair_windows`). The interaction
prices each distinct coordinate pair of an atom on the two coordinates'
windows, where a distance cost is one cost row, and the identity checks read B
on the same windows of their grids. `GammaEta.b_matrix` evaluates B densely at
arbitrary points: the reference for the windows, and `density_at`'s evaluator.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import TOL, TWO_PI
from .costs import CostModel, torus_distance
from .errors import ConstructionError, DomainError, RegimeError, require_finite
from .measure1d import GridDensity
from .pairgrid import PAIR_GRID, midpoint_pair_matrix, midpoints as _midpoints, window_forms
from .seidl import DiscretePlan, plan_cost, seidl_plan

# points b_matrix places on the z-grid per product: 512 rows of 4096 nodes are 16.8 MB
B_ROWS = 512


# -- mollifier ------------------------------------------------------------


class Mollifier(NamedTuple):
    """Even bump on [-1, 1], tabulated with linear interpolation.

    Normalized so the integral of chi^2 over the tabulated piecewise-linear
    interpolant is exactly 1; `dirichlet`, the dirichlet energy of the
    interpolant, is likewise exact. Built by `bump`.
    """

    t: np.ndarray
    values: np.ndarray
    dirichlet: float

    @classmethod
    def bump(cls) -> "Mollifier":
        """Standard smooth bump exp(-1 / (1 - t^2)), normalized in L^2."""
        t = np.linspace(-1.0, 1.0, TOL.mollifier_table)
        with np.errstate(divide="ignore", over="ignore"):
            inner = np.where(np.abs(t) < 1.0, 1.0 - t * t, 1.0)
            v = np.where(np.abs(t) < 1.0, np.exp(-1.0 / inner), 0.0)
        h = np.diff(t)
        sq = np.sum(h * (v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) / 3.0)
        v = v / np.sqrt(sq)
        return cls(t, v, float(np.sum(np.diff(v) ** 2 / h)))

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


class GammaEta:
    """Mollified trial state for a separated plan, in the disjoint regime.

    On the TOL.quad_grid midpoint z-grid, a point p has the base node
    b = rint(p / dz - 0.5) (mod quad_grid), its nearest, and the phase
    phi = wrap(p - z_b) in [-dz / 2, dz / 2]. Every z with |p - z| < eta lies
    within reach = ceil(eta / dz) steps of b, so the bump PB(p - z) is kept on
    its window `offsets` = -reach .. reach only, at the argument
    (phi - o dz) / eta for node b + o: one row per distinct phase, shared by
    every point with that phase. As eta < alpha / 4 <= pi / 4, a window of
    2 reach + 1 nodes never wraps onto itself around the torus.

    Each unique plan coordinate c keeps its base node (`coord_base`) and its
    window values PB(c - z) / den(z) (`coord_windows`, coords x offsets).

    rho must be continuous across the seam, rho(0) = rho(2*pi): otherwise
    sqrt(rho) is not in H^1 of the ring and the kinetic energy is infinite.
    """

    def __init__(self, plan: DiscretePlan, rho: GridDensity, chi: Mollifier, eta: float):
        if np.min(rho.values) <= 0:
            raise DomainError("mollified states need a strictly positive density")
        r0, r1 = rho.density(0.0), rho.density(TWO_PI)
        if abs(r0 - r1) > 1e-12:
            raise DomainError(
                f"mollified states need a density continuous across the seam: "
                f"rho(0) = {r0!r} but rho(2*pi) = {r1!r}"
            )
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
        self.coord_base, pb = self._windows(coords)
        self.coord_windows = pb / self.den[self._window_nodes(self.coord_base)]
        self.pair_cells = 0        # cost cells of the latest interaction_energy call

    def _window_nodes(self, base):
        """z-node indices of each window: (base + offsets) mod quad_grid."""
        return np.mod(base[:, None] + self.offsets, self.zgrid.size)

    # PB(x) = chi_eta(x)^2 = chi(x / eta)^2 / eta
    def _windows(self, pts):
        """Base nodes and PB window rows of the points, the bump evaluated once per distinct phase."""
        base = np.mod(np.rint(pts / self.dz - 0.5).astype(int), self.zgrid.size)
        phases, phase = np.unique(_wrap(pts - self.zgrid[base]), return_inverse=True)
        rows = self.chi.chi_sq((phases[:, None] - self.offsets * self.dz) / self.eta) / self.eta
        return base, rows[phase]

    def _on_grid(self, base, windows):
        """Window rows placed on the whole z-grid, zero elsewhere."""
        out = np.zeros((base.size, self.zgrid.size))
        out[np.arange(base.size)[:, None], self._window_nodes(base)] = windows
        return out

    def b_matrix(self, xs) -> np.ndarray:
        """B(x, coord) for arbitrary finite positions x, over all unique coordinates.

        B(x, c) = dz * sum over z of PB(x - z) PB(c - z) / den(z): the dense
        reference, one product of each point's bump window and each
        coordinate's column window, both placed on the whole z-grid, taken
        B_ROWS points at a time.
        """
        xs = np.asarray(xs, dtype=float)
        require_finite("points", xs, DomainError)
        base, rows = self._windows(xs)
        cols = self._on_grid(self.coord_base, self.coord_windows).T
        out = np.empty((xs.size, self.coords.size))
        for at in range(0, xs.size, B_ROWS):
            out[at:at + B_ROWS] = self._on_grid(base[at:at + B_ROWS], rows[at:at + B_ROWS] * self.dz) @ cols
        return out

    def pair_windows(self, k: int):
        """Each coordinate's window of B on the k-node midpoint grid: (nodes, values), coords x W.

        k must divide quad_grid, so with r = quad_grid / k the node
        x_i = (r i + r / 2) dz sits (r - 1) / 2 z-steps past z-node r i for
        every i, and B(x_i, c) = dz * sum over o of h[r i - b_c - o] K_c[o],
        where b_c is c's base node, K_c its column window (`coord_base`,
        `coord_windows`) and h[s] = PB((s + (r - 1) / 2) dz) is evaluated once,
        on the s with |s + (r - 1) / 2| < reach. Window c holds the W nodes,
        wrapped mod k, on which that correlation can be nonzero: every nonzero
        of B(., c) on the grid. Its values are one Toeplitz block of h times K_c,
        shared by the coordinates whose first node has the same residue, so a
        state takes at most r products.
        """
        if TOL.quad_grid % k:
            raise DomainError(f"the {k}-node pair grid is not a sub-lattice of the "
                              f"{TOL.quad_grid}-node z-grid: {k} does not divide {TOL.quad_grid}")
        r = TOL.quad_grid // k
        reach = self.reach
        s = np.arange(-reach - r, reach + r)
        s = s[np.abs(2 * s + r - 1) < 2 * reach]
        h = self.chi.chi_sq((s + (r - 1) / 2) * self.dz / self.eta) / self.eta
        width = (s.size + 2 * reach - 1) // r + 1
        # indexed from 0, node lo + w of window c adds h[shift + r w - p] K_c[p]
        start = self.coord_base - reach + s[0]
        lo = -(-start // r)
        shift = r * lo - start
        # blocks[shift + r w, p] = h[shift + r w + p - 2 reach], taken against K_c reversed
        padded = np.concatenate((np.zeros(2 * reach), h, np.zeros(r * width - s.size)))
        blocks = sliding_window_view(padded, 2 * reach + 1)
        kernels = self.coord_windows[:, ::-1] * self.dz
        windows = np.empty((self.coords.size, width))
        for q in range(r):
            rows = np.flatnonzero(shift == q)
            windows[rows] = kernels[rows] @ blocks[q::r].T
        return (lo[:, None] + np.arange(width)) % k, windows

    def density_at(self, tuples) -> np.ndarray:
        """Diagonal n-particle density at the given coordinate tuples."""
        x = np.atleast_2d(np.asarray(tuples, dtype=float))
        require_finite("points", x, DomainError)
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
        """q(coord) = integral of rho(x) B(x, coord) dx on coord's window of the grid (`pair_windows`)."""
        nodes, windows = self.pair_windows(grid)
        return (windows * (self.rho.density(_midpoints(grid)) * (TWO_PI / grid))[nodes]).sum(axis=1)

    def total_mass(self, grid: int = 256) -> float:
        """Quadrature of the diagonal density over the n-torus."""
        q = self.coordinate_masses(grid)
        return float(np.dot(self.plan.weights, np.prod(q[self.coord_index], axis=1)))


def marginal_identity_check(gamma: GammaEta, grid: int = 256) -> float:
    """sup_x | n * integral of Gamma(x, rest) d rest  -  n * rho(x) |.

    The inner integrals are evaluated with the same per-axis midpoint rule
    as the outer grid, matching the stated quadrature budget: the density is
    rho(x) sum_c a(c) B(x, c), scattered from each coordinate's window, where
    slot s of an atom adds its weight times the other slots' masses to a.
    """
    ci, w = gamma.coord_index, gamma.plan.weights
    q = gamma.coordinate_masses(grid)
    a = sum(np.bincount(ci[:, s], w * np.prod(q[np.delete(ci, s, axis=1)], axis=1), gamma.coords.size)
            for s in range(gamma.n))
    nodes, windows = gamma.pair_windows(grid)
    r = gamma.rho.density(_midpoints(grid))
    density = r * np.bincount(nodes.ravel(), (windows * a[:, None]).ravel(), grid)
    return float(np.max(np.abs(density - gamma.n * r)))


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


class KineticReport(NamedTuple):
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
    drho = rho.slope(zs)
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
    quadrature = float(np.dot(gamma.plan.weights, kq[gamma.coord_index].sum(axis=1)))
    rel = abs(quadrature - exact) / max(abs(exact), 1e-300)
    return KineticReport(float(exact), quadrature, float(rel))


def interaction_energy(gamma: GammaEta, pair: np.ndarray) -> float:
    """integral of c_n against the diagonal density, via pair-marginal sums.

    `pair` is the cost M on a k-node midpoint grid (`midpoint_pair_matrix`); the
    quadrature runs on that grid, so one cost serves every gamma of a curve. The
    permutation sum collapses: every coordinate pair (a, b) of an atom adds
    E[a, b] = d_a . M d_b, with d_c(x) = B(x, c) rho(x) dx, priced once per
    distinct pair. d_c vanishes off c's window (`GammaEta.pair_windows`), and
    `window_forms` contracts the (W x W) blocks of M between the windows. The
    supports are disjoint, so M's diagonal carries no weight.
    `gamma.pair_cells` records the cells contracted.
    """
    k = pair.shape[-1]
    nodes, windows = gamma.pair_windows(k)
    windows *= (gamma.rho.density(_midpoints(k)) * (TWO_PI / k))[nodes]
    ab = np.sort(gamma.coord_index[:, list(combinations(range(gamma.n), 2))], -1)
    pairs, inverse = np.unique(ab.reshape(-1, 2), axis=0, return_inverse=True)
    e = window_forms(pair, nodes, windows, pairs)
    gamma.pair_cells = len(pairs) * nodes.shape[1] ** 2
    return float(np.dot(gamma.plan.weights, 2.0 * e[inverse].reshape(ab.shape[:2]).sum(1)))


# -- the upper-bound curve --------------------------------------------------


class BoundPoint(NamedTuple):
    eps: float
    eta: float
    reach: int            # z-grid steps of the bump's half-width at this eta
    pair_cells: int       # cost cells contracted by interaction_energy
    kinetic: float
    interaction: float
    bound: float


class BoundCurve(NamedTuple):
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
                {"eps": p.eps, "eta": p.eta, "reach": p.reach, "pair_cells": p.pair_cells}
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
    priced = {}   # eta -> (interaction, reach, pair_cells, coords)

    def price(eta):
        if eta not in priced:
            gamma = GammaEta(plan, rho, chi, eta)
            priced[eta] = (interaction_energy(gamma, pair), gamma.reach, gamma.pair_cells, gamma.coords.size)
        return priced[eta]

    # probe the smearing error coefficient at the widest admissible width
    smear_gap = price(cap)[0] - reference
    a_coef = max(smear_gap / cap**2, 1e-12)
    c = min((n * chi.dirichlet / a_coef) ** 0.25, cap / max(eps_arr) ** 0.25)

    points = []
    for eps in eps_arr:
        eta = min(cap, c * eps**0.25)
        inter, reach, cells, _ = price(eta)
        kin = closed_form_kinetic(n, rho, chi, eta)
        points.append(BoundPoint(eps, eta, reach, cells, kin, inter, eps * kin + inter))

    slope = None
    gaps = np.array([p.bound - reference for p in points])
    if len(points) >= 2 and np.all(gaps > 0):
        coeffs = np.polyfit(np.log([p.eps for p in points]), np.log(gaps), 1)
        slope = float(coeffs[0])
    return BoundCurve(
        tuple(points), float(reference), slope, float(c), float(alpha), float(cap), len(priced),
        int(price(cap)[3]),
    )
