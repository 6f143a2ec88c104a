"""Quantized marginals, the cyclic monotone (Seidl) plan on them, and its map.

The map T shifts CDF mass by 1/n modulo 1, so T^k is t -> t + k/n mod 1 in
the quantile variable. On the m midpoint-quantile atoms (`quantize`), with n
dividing m, that is the index shift j -> j + k m/n mod m, so every plan
coordinate is exactly an atom the LP oracle solves over: the plan's rows are
the mass-1/m cells of `staircase`, the LP's start basis. `mass_staircase` is
the same plan for any discrete measure, by cumulative mass.
"""

from __future__ import annotations

import csv
from itertools import permutations
from math import factorial
from typing import NamedTuple

import numpy as np

from .config import TOL
from .costs import CostModel
from .errors import Checked, ConstructionError, DomainError, require_finite
from .measure1d import GridDensity


class SeidlMap(Checked, NamedTuple("_SeidlMap", [("rho", GridDensity), ("n", int)])):
    """Piecewise-monotone map advancing mass by 1/n around the ring."""

    __slots__ = ()

    def __new__(cls, rho, n):
        if n < 2:
            raise DomainError("need n >= 2 marginals")
        return super().__new__(cls, rho, n)

    def __call__(self, x):
        return self.iterate(1, x)

    def iterate(self, k: int, x):
        """T^k(x) = Q(F(x) + k/n mod 1), one cdf and one quantile; k = 0 is the identity."""
        if k < 0:
            raise DomainError("iteration count must be non-negative")
        if k == 0:
            return np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        q = self.rho.cdf(x) + (k % self.n) / self.n
        return self.rho.quantile(np.where(q > 1.0, q - 1.0, q))


class DiscreteMarginal(Checked, NamedTuple("_Marginal", [("atoms", np.ndarray)])):
    """Atomic approximation of a density: m distinct atoms, each of mass 1/m."""

    __slots__ = ()

    def __new__(cls, atoms):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim != 1:
            raise DomainError("atoms must be a 1d array")
        require_finite("atoms", atoms, DomainError)
        ordered = np.sort(atoms)
        if np.any(ordered[1:] == ordered[:-1]):
            raise DomainError("atoms must be distinct")
        return super().__new__(cls, atoms)

    @property
    def m(self) -> int:
        return self.atoms.size


def quantize(rho: GridDensity, m: int) -> DiscreteMarginal:
    """Midpoint-quantile atoms Q((j + 1/2) / m), j = 0 .. m-1."""
    if m < 1:
        raise DomainError("need at least one atom")
    return DiscreteMarginal(rho.quantile((np.arange(1, m + 1) - 0.5) / m))


def staircase(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells (m + (n-1)(m-1), n) of atom indices and masses of the north-west-corner staircase.

    This is the multi-index north-west-corner rule on n copies of m atoms of
    mass 1/m, marginal i rotated by floor(i m / n) (Bein, Brucker, Park and
    Pathak 1995). At step j every marginal sits on its atom j, a cell of
    mass 1/m; marginals 0 .. n-2 then move on to atom j + 1 one at a time,
    n - 1 cells of mass 0, and marginal n - 1 follows into step j + 1. Every
    cell after the first reaches a new atom, so the cells' columns are
    independent and form a basis of the LP's marginal rows. With n dividing
    m the mass-1/m cells are the Seidl plan's rows j, j + m/n, ... mod m.
    """
    shift = np.arange(n) * m // n
    moved = np.tri(n, n, -1, dtype=np.intp)  # row s: marginals 0 .. s-1 on atom j + 1
    cells = (np.arange(m)[:, None, None] + moved + shift) % m
    keep = m + (n - 1) * (m - 1)
    mass = np.where(np.arange(keep) % n == 0, 1.0 / m, 0.0)
    return cells.reshape(m * n, n)[:keep], mass


class DiscretePlan(Checked, NamedTuple("_Plan", [("atoms", np.ndarray), ("weights", np.ndarray)])):
    """Sparse joint probability measure on atoms in [0, 2*pi]^n.

    atoms is (num_atoms, n); weights are positive and sum to 1.
    """

    __slots__ = ()

    def __new__(cls, atoms, weights):
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if atoms.shape[0] != weights.size:
            raise ConstructionError("one weight per atom required")
        require_finite("plan atoms", atoms, ConstructionError)
        require_finite("plan weights", weights, ConstructionError)
        if np.any(weights <= 0):
            raise ConstructionError("weights must be positive")
        if abs(weights.sum() - 1.0) > TOL.mass_tol:
            raise ConstructionError("weights must sum to 1")
        return super().__new__(cls, atoms, weights)

    @property
    def n(self) -> int:
        return self.atoms.shape[1]

    def symmetrized(self) -> "DiscretePlan":
        """Replace each atom by its n! coordinate permutations at weight / n!."""
        n = self.n
        perms = list(permutations(range(n)))
        atoms = np.concatenate([self.atoms[:, p] for p in perms], axis=0)
        weights = np.tile(self.weights / factorial(n), len(perms))
        return DiscretePlan(atoms, weights)

    def table(self) -> tuple[list, list]:
        """CSV header ``x_1 .. x_n, weight`` and one row per atom; read back by `plan_from_csv`."""
        header = [f"x_{i + 1}" for i in range(self.n)] + ["weight"]
        return header, np.column_stack([self.atoms, self.weights]).tolist()


def plan_from_csv(path) -> DiscretePlan:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return DiscretePlan(data[:, :-1], data[:, -1])


def seidl_plan(rho: GridDensity, n: int, m: int, symmetrize: bool = False) -> DiscretePlan:
    """Plan on `quantize(rho, m)` whose row j holds atoms j, j + m/n, ..., j + (n-1) m/n mod m.

    These are the mass-1/m cells of `staircase(m, n)`. m must be a multiple
    of n so the shift m/n is a whole number of atoms.
    """
    if n < 2 or m < n or m % n != 0:
        raise DomainError(f"need n >= 2 marginals and m a positive multiple of n: got n = {n}, m = {m}")
    cells, mass = staircase(m, n)
    on = mass > 0
    plan = DiscretePlan(quantize(rho, m).atoms[cells[on]], mass[on])
    return plan.symmetrized() if symmetrize else plan


def cells_cost(atoms: np.ndarray, weights: np.ndarray, w: CostModel) -> float:
    """Energy of plan cells: per cell the cost summed over ordered pairs i != j, weighted.

    `atoms` is (c, n); the weights need not sum to 1. +inf as soon as any
    cell touches the infinity locus.
    """
    i_idx, j_idx = np.triu_indices(atoms.shape[1], k=1)
    costs = 2.0 * np.sum(w(atoms[:, i_idx], atoms[:, j_idx]), axis=1)
    if np.any(np.isinf(costs)):
        return float("inf")
    return float(np.dot(weights, costs))


def plan_cost(plan: DiscretePlan, w: CostModel) -> float:
    """Plan energy, `cells_cost` of the plan's atoms at its weights."""
    return cells_cost(plan.atoms, plan.weights, w)


def mass_staircase(weights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells (c, n) of atom indices and masses of the cyclic monotone plan of a discrete measure.

    The weights mu_0 .. mu_{g-1} >= 0 have total M. The cell at cumulative
    mass t in [0, M) puts coordinate k on the atom holding t + k M/n mod M,
    so every coordinate's marginal is mu. Cells break where some coordinate
    crosses an atom boundary: the n shifted copies of the cumulative sums,
    at most n g cells, each found with `searchsorted`.
    """
    weights = np.asarray(weights, dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(weights)))
    total = cum[-1]
    shifts = np.arange(n) * (total / n)
    breaks = np.append(np.sort(np.mod(cum[:-1, None] - shifts, total), axis=None), total)
    mass = np.diff(breaks)
    on = mass > 0
    t = (breaks[:-1] + 0.5 * mass)[on, None] + shifts
    t = np.where(t >= total, t - total, t)
    cells = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, weights.size - 1)
    return cells, mass[on]
