"""Balanced-bipartition swap engine.

Given 2n sorted points split into teams A and A^c of size n, the prefix
counting function f_A walks up at members of A and down at members of A^c.
Swapping every maximum point of f_A with its successor strictly lowers the
oscillation and, for well-ordering interactions, never raises the paired
cost. Iterating lands on the odd or even team in at most n - 1 steps.

Indices follow the 1-based convention {1, ..., 2n}.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .config import TOL
from .costs import CostModel, cells_cost
from .errors import Checked, ConstructionError, DomainError, require_finite, require_size


class Bipartition(Checked, NamedTuple("_Bipartition", [("n", int), ("members", tuple)])):
    """Subset A of {1, ..., 2n} with |A| = n, stored sorted."""

    __slots__ = ()

    def __new__(cls, n, members):
        members = tuple(sorted(int(v) for v in members))
        if len(members) != n or len(set(members)) != n:
            raise ConstructionError("need exactly n distinct members")
        if members and (members[0] < 1 or members[-1] > 2 * n):
            raise ConstructionError("members must lie in 1..2n")
        return super().__new__(cls, n, members)

    def complement(self) -> "Bipartition":
        universe = set(range(1, 2 * self.n + 1))
        return Bipartition(self.n, tuple(sorted(universe - set(self.members))))

    def is_odd(self) -> bool:
        return self.members == tuple(range(1, 2 * self.n, 2))

    def is_even(self) -> bool:
        return self.members == tuple(range(2, 2 * self.n + 1, 2))


def odd_bipartition(n: int) -> Bipartition:
    return Bipartition(n, tuple(range(1, 2 * n, 2)))


def even_bipartition(n: int) -> Bipartition:
    return Bipartition(n, tuple(range(2, 2 * n + 1, 2)))


class StepFunction(Checked, NamedTuple("_Step", [("values", tuple)])):
    """Values of the prefix counting function at integer arguments 0..2n."""

    __slots__ = ()

    def __new__(cls, values):
        v = tuple(int(x) for x in values)
        if not v or v[0] != 0 or v[-1] != 0:
            raise ConstructionError("prefix function must start and end at 0")
        if any(abs(b - a) != 1 for a, b in zip(v[:-1], v[1:])):
            raise ConstructionError("jumps must have size exactly 1")
        return super().__new__(cls, v)

    def negated(self) -> "StepFunction":
        return StepFunction(tuple(-x for x in self.values))

    @property
    def maximum(self) -> int:
        return max(self.values)

    @property
    def minimum(self) -> int:
        return min(self.values)


def cumulative_f(a: Bipartition) -> StepFunction:
    """f(k) = |A intersect [1, k]| - |A^c intersect [1, k]|."""
    two_n = 2 * a.n
    steps = np.full(two_n, -1, dtype=int)
    steps[np.asarray(a.members, dtype=int) - 1] = 1
    return StepFunction((0, *np.cumsum(steps).tolist()))


def oscillation(f: StepFunction) -> int:
    """max f - min f; equals 1 exactly on the odd and even teams."""
    return f.maximum - f.minimum


class MaximumPoints(NamedTuple):
    side: str        # "A" if f_A itself was used, "complement" otherwise
    points: tuple    # integer arguments achieving the maximum


def maximum_points(a: Bipartition) -> MaximumPoints:
    """Integer maximum points of f_A, flipping to A^c when max f_A < 1.

    Each reported point ell has ell + 1 in the complement of the side used.
    """
    f = cumulative_f(a)
    side, g, team = ("A", f, a) if f.maximum >= 1 else ("complement", f.negated(), a.complement())
    peak = g.maximum
    if peak < 1:
        raise ConstructionError("prefix function vanishes identically")
    pts = tuple(k for k in range(1, 2 * a.n) if g.values[k] == peak)
    members = set(team.members)
    if any(p + 1 in members for p in pts):
        raise ConstructionError("maximum point successor unexpectedly inside the team")
    return MaximumPoints(side, pts)


class SwapResult(NamedTuple):
    partition: Bipartition
    terminal: bool          # input already had oscillation 1
    side: str | None        # side the maxima were taken from
    maxima: tuple           # swapped maximum points


def swap_step(a: Bipartition) -> SwapResult:
    """One swap B(A) = A + {ell_j + 1} - {ell_j} over all maxima of f_A.

    Inputs with oscillation 1 are returned unchanged with a terminal flag.
    The oscillation of the result is strictly smaller otherwise.
    """
    f = cumulative_f(a)
    if oscillation(f) <= 1:
        return SwapResult(a, True, None, ())
    mp = maximum_points(a)
    team = a if mp.side == "A" else a.complement()
    swapped = set(team.members)
    for p in mp.points:
        swapped.remove(p)
        swapped.add(p + 1)
    new_team = Bipartition(a.n, tuple(sorted(swapped)))
    result = new_team if mp.side == "A" else new_team.complement()
    return SwapResult(result, False, mp.side, mp.points)


def paired_cost(x, a: Bipartition, w: CostModel) -> float:
    """c_n(x_A) + c_n(x_{A^c}), c_n the sum over ordered pairs: each team is one `cells_cost` cell."""
    x = np.asarray(x, dtype=float)
    if x.size != 2 * a.n:
        raise DomainError("need 2n sorted positions")
    return sum(cells_cost(x[None, np.asarray(team, dtype=int) - 1], np.ones(1), w)
               for team in (a.members, a.complement().members))


class TraceStep(NamedTuple):
    members: tuple
    f_values: tuple
    oscillation: int
    paired_cost: float | None

    def to_json(self) -> dict:
        return {
            "members": list(self.members),
            "f_values": list(self.f_values),
            "oscillation": self.oscillation,
            "paired_cost": self.paired_cost,
        }


class ReductionTrace(NamedTuple):
    n: int
    points: tuple | None
    initial: TraceStep
    steps: tuple           # one entry per swap, possibly empty
    terminal: str          # "odd" or "even"

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "points": None if self.points is None else list(self.points),
            "initial": self.initial.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "num_steps": self.num_steps,
            "terminal": self.terminal,
        }


def _sorted_positions(x) -> np.ndarray:
    """x as a float array; DomainError names the first non-finite position, or reports disorder."""
    x = np.asarray(x, dtype=float)
    require_finite("positions", x, DomainError)
    if np.any(np.diff(x) < 0):
        raise DomainError("positions must be sorted")
    return x


def _record(a: Bipartition, x, w) -> TraceStep:
    f = cumulative_f(a)
    cost = None if (x is None or w is None) else paired_cost(x, a, w)
    return TraceStep(a.members, f.values, oscillation(f), cost)


def reduce_to_wellordered(a: Bipartition, x=None, w: CostModel | None = None) -> ReductionTrace:
    """Iterate swap steps until the team is the odd or even one.

    Termination needs at most n - 1 swaps. When positions and a
    well-ordering cost are supplied, the recorded paired cost is
    non-increasing along the trace (the caller asserts this; +inf absorbs).
    """
    if x is not None:
        x = _sorted_positions(x)
    initial = _record(a, x, w)
    steps = []
    current = a
    for _ in range(max(a.n - 1, 1)):
        res = swap_step(current)
        if res.terminal:
            break
        current = res.partition
        steps.append(_record(current, x, w))
    if not (current.is_odd() or current.is_even()):
        raise ConstructionError("reduction did not terminate at the odd/even team")
    return ReductionTrace(
        a.n,
        None if x is None else tuple(float(v) for v in x),
        initial,
        tuple(steps),
        "odd" if current.is_odd() else "even",
    )


class BipartitionRanking(NamedTuple):
    odd_even_minimal: bool
    odd_even_cost: float
    ranking: tuple          # (cost, members) sorted ascending, one per {A, A^c} class
    violator: tuple | None  # members of a strictly cheaper bipartition, if any


# points of the exhaustive ranking: C(11, 5) = 462 bipartitions at 2n = 12
BIPARTITION_POINT_GUARD = 12


def bipartition_min_check(x, w: CostModel) -> BipartitionRanking:
    """Exhaustively rank all balanced bipartitions of the sorted points.

    For well-ordering costs the odd/even split must come out minimal, within
    TOL.well_order_slack; for other costs the violating split is reported.
    Guarded at 2n <= BIPARTITION_POINT_GUARD: more points raise SizeGuardError naming 2n.
    """
    x = _sorted_positions(x)
    if x.size % 2 != 0:
        raise DomainError("need an even number of points")
    require_size("2n", x.size, BIPARTITION_POINT_GUARD)
    n = x.size // 2
    entries = []
    # one representative per complementary pair: fix index 1 inside A
    for rest in combinations(range(2, 2 * n + 1), n - 1):
        a = Bipartition(n, (1, *rest))
        entries.append((paired_cost(x, a, w), a.members))
    entries.sort(key=lambda e: (e[0], e[1]))
    oe_cost = paired_cost(x, odd_bipartition(n), w)
    best_cost, best_members = entries[0]
    minimal = best_cost >= oe_cost - TOL.well_order_slack
    return BipartitionRanking(
        odd_even_minimal=minimal,
        odd_even_cost=oe_cost,
        ranking=tuple(entries),
        violator=None if minimal else best_members,
    )
