"""Cyclic monotone transport maps and the plans they generate.

The map T shifts CDF mass by 1/n modulo 1, so it is strictly increasing on
each equal-mass segment and its n-th iterate is the identity. The induced
plan places each marginal at the same midpoint-quantile quantization of the
density. T is undefined exactly at the segment boundaries; atoms are placed
strictly inside segments so that point is never evaluated.
"""

from __future__ import annotations

import csv
from itertools import permutations
from math import factorial
from typing import NamedTuple

import numpy as np

from .config import TOL
from .costs import CostModel
from .errors import ConstructionError, DomainError, require_finite
from .measure1d import GridDensity


class SeidlMap(NamedTuple):
    """Piecewise-monotone map advancing mass by 1/n around the ring."""

    rho: GridDensity
    n: int

    def __call__(self, x):
        q = self.rho.cdf(x) + 1.0 / self.n
        q = np.where(q > 1.0, q - 1.0, q)
        return self.rho.quantile(q)

    def iterate(self, k: int, x):
        """k-fold composition T^(k); k = 0 is the identity."""
        if k < 0:
            raise DomainError("iteration count must be non-negative")
        out = np.asarray(x, dtype=float)
        for _ in range(k):
            out = self(out)
        return out if np.ndim(x) else float(out)


def build_seidl_map(rho: GridDensity, n: int) -> SeidlMap:
    if n < 2:
        raise DomainError("need n >= 2 marginals")
    return SeidlMap(rho, n)


class DiscretePlan(NamedTuple("_Plan", [("atoms", np.ndarray), ("weights", np.ndarray)])):
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

    def marginal_atoms(self, i: int) -> np.ndarray:
        return self.atoms[:, i]

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
    """Plan with atoms (x_j, T(x_j), ..., T^(n-1)(x_j)) at midpoint quantiles.

    m must be a multiple of n so atoms align with the equal-mass segments.
    """
    if m < n:
        raise DomainError("need at least n atoms")
    if m % n != 0:
        raise DomainError("atom count must be a multiple of n")
    T = build_seidl_map(rho, n)
    cols = [np.asarray(rho.quantile((np.arange(1, m + 1) - 0.5) / m))]
    for _ in range(n - 1):
        cols.append(np.asarray(T(cols[-1])))
    plan = DiscretePlan(np.stack(cols, axis=1), np.full(m, 1.0 / m))
    return plan.symmetrized() if symmetrize else plan


def atom_costs(plan: DiscretePlan, w: CostModel) -> np.ndarray:
    """Interaction cost sum over ordered pairs i != j, per atom."""
    n = plan.n
    i_idx, j_idx = np.triu_indices(n, k=1)
    pair_vals = w(plan.atoms[:, i_idx], plan.atoms[:, j_idx])
    return 2.0 * np.sum(pair_vals, axis=1)


def plan_cost(plan: DiscretePlan, w: CostModel) -> float:
    """Plan energy; +inf as soon as any atom touches the infinity locus."""
    costs = atom_costs(plan, w)
    if np.any(np.isinf(costs)):
        return float("inf")
    return float(np.dot(plan.weights, costs))
