"""The LP oracle: exact discrete multimarginal transport on a quantized marginal.

The joint measure over all m^n cells is optimized directly with the
in-house simplex, which keeps the oracle auditable and exposes row duals.
Cells with infinite cost are removed from the variable set instead of
big-M'd so the duals stay clean. One redundant marginal constraint per
extra marginal is dropped to keep the rows full rank, and rows are scaled
to unit norm before solving; stated tolerances apply after scaling.

The simplex starts at the north-west-corner staircase (`seidl.staircase`),
whose mass-1/m cells are the Seidl plan, so phase 1 is skipped. When a
staircase cell has infinite cost (m < 2n puts two marginals on one atom) the
solve starts from the artificial basis instead. The start is not part of the
certificate: phase 2 prices every cell, and the residual check still runs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import TOL
from .costs import CostModel
from .errors import DomainError, SizeGuardError, StateError
from .seidl import DiscreteMarginal, DiscretePlan, quantize, staircase  # quantize: importable here
from .simplex import solve_equality_lp


class LPSolution(NamedTuple):
    """Optimal plan, value, and per-marginal duals of the discrete problem."""

    status: str                      # optimal | infeasible | unbounded-guard
    value: float
    plan: DiscretePlan | None
    duals: np.ndarray | None         # (n, m); dropped rows carry 0
    marginal: DiscreteMarginal
    n: int
    simplex: dict                    # the manifest's stages.simplex: pivot counters and start basis
    residuals: dict | None           # certificate residuals, each within TOL; optimal only


# each certificate residual and the Tolerances field that bounds it
_RESIDUAL_BOUNDS = {
    "primal_violation": "lp_feasibility_tol",
    "dual_infeasibility": "lp_dual_tol",
    "support_slackness": "lp_dual_tol",
    "duality_gap": "lp_dual_tol",
}


def _residuals(marginal, n, digits, costs, mass, duals, value) -> dict:
    """Residuals of the optimality certificate over the LP's cells (post row-unscaling)."""
    primal = 0.0
    for i in range(n):
        got = np.bincount(digits[:, i], weights=mass, minlength=marginal.m)
        primal = max(primal, float(np.max(np.abs(got - 1.0 / marginal.m))))
    dual_at_cells = duals[np.arange(n)[None, :], digits].sum(axis=1)
    dual_feas = float(np.max(dual_at_cells - costs))
    support = mass > 1e-10
    slack = float(np.max(np.abs(costs[support] - dual_at_cells[support]))) if support.any() else 0.0
    dual_obj = float(duals.sum()) / marginal.m
    return {
        "primal_violation": primal,
        "dual_infeasibility": dual_feas,
        "support_slackness": slack,
        "duality_gap": abs(dual_obj - value),
    }


def _cell_costs(marginal: DiscreteMarginal, n: int, w: CostModel):
    m = marginal.m
    pair = np.asarray(w.pair_matrix(marginal.atoms), dtype=float)
    digits = np.stack(
        np.meshgrid(*([np.arange(m)] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    costs = np.zeros(digits.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            costs += 2.0 * pair[digits[:, i], digits[:, j]]
    return digits, costs


def solve_mmot(marginal: DiscreteMarginal, n: int, w: CostModel) -> LPSolution:
    """Exact LP over the m^n joint tensor with marginal equality constraints.

    The simplex starts at the staircase basis when all its cells have
    finite cost, and at the artificial basis otherwise (``sol.simplex["start"]``).
    An optimal solution is returned only if its certificate residuals
    (``sol.residuals``) are within their ``TOL`` bounds; otherwise
    StateError names the residual and the bound.
    """
    if n < 2:
        raise DomainError("need n >= 2 marginals")
    m = marginal.m
    if m**n > TOL.lp_cell_guard:
        raise SizeGuardError(f"m^n = {m**n} exceeds the {TOL.lp_cell_guard} cell guard")

    digits, costs = _cell_costs(marginal, n, w)
    finite = np.isfinite(costs)
    if not finite.any():  # no column to price: the simplex never runs
        simplex = {"iterations": 0, "phase1_pivots": 0, "degenerate_pivots": 0, "lex_ties": 0,
                   "start": "artificial"}
        return LPSolution("infeasible", np.inf, None, None, marginal, n, simplex, None)
    columns = np.flatnonzero(finite)  # flat cell index of each LP column, ascending
    digits = digits[finite]
    costs = costs[finite]
    flat = np.ravel_multi_index(staircase(m, n)[0].T, (m,) * n)
    at = np.minimum(np.searchsorted(columns, flat), columns.size - 1)
    start = at if np.array_equal(columns[at], flat) else None

    # rows: all m constraints of marginal 0, first m-1 of marginals 1..n-1
    def row_id(i, j):
        return j if i == 0 else m + (i - 1) * (m - 1) + j

    n_rows = m + (n - 1) * (m - 1)
    col_rows = np.full((digits.shape[0], n), -1, dtype=np.int64)
    col_rows[:, 0] = digits[:, 0]
    for i in range(1, n):
        keep = digits[:, i] < m - 1
        col_rows[keep, i] = row_id(i, digits[keep, i])

    b = np.full(n_rows, 1.0 / m)
    counts = np.bincount(col_rows[col_rows >= 0].ravel(), minlength=n_rows)
    scale = 1.0 / np.sqrt(np.maximum(counts, 1))
    col_coeffs = np.where(col_rows >= 0, scale[np.maximum(col_rows, 0)], 0.0)

    res = solve_equality_lp(col_rows, col_coeffs, costs, b * scale, start=start)
    simplex = {
        "iterations": res.iterations,
        "phase1_pivots": res.phase1_pivots,
        "degenerate_pivots": res.degenerate_pivots,
        "lex_ties": res.lex_ties,
        "start": "artificial" if start is None else "staircase",
    }
    if res.status != "optimal":
        return LPSolution(res.status, np.inf, None, None, marginal, n, simplex, None)

    mass = res.x
    support = mass > 1e-12
    plan = DiscretePlan(
        marginal.atoms[digits[support]], mass[support] / mass[support].sum()
    )
    y = res.y * scale  # undo row scaling
    duals = np.zeros((n, m))
    duals[0, :] = y[:m]
    duals[1:, : m - 1] = y[m:].reshape(n - 1, m - 1)
    residuals = _residuals(marginal, n, digits, costs, mass, duals, res.objective)
    for name, value in residuals.items():
        bound = getattr(TOL, _RESIDUAL_BOUNDS[name])
        if not value <= bound:
            raise StateError(
                f"LP solution fails its certificate: {name} = {value:.3e} "
                f"exceeds TOL.{_RESIDUAL_BOUNDS[name]} = {bound:g}"
            )
    return LPSolution("optimal", res.objective, plan, duals, marginal, n, simplex, residuals)


def symmetrized_duals(sol: LPSolution) -> np.ndarray:
    """Single potential per atom: average of the marginal duals.

    Coordinate exchange maps optimal duals to optimal duals for symmetric
    problems, so the average stays dual-feasible and reproduces the value:
    n * sum_j v_j / m = optimal cost.
    """
    if sol.status != "optimal":
        raise StateError("duals require an optimal solution")
    return sol.duals.mean(axis=0)
