"""Two-phase revised simplex for equality-constrained LPs with sparse columns.

Columns are given structurally: each variable touches at most K rows, with
the row indices and coefficients stored in padded (N, K) arrays (-1 pads).
The m artificial variables are appended to that table as unit columns
N .. N+m-1, so both phases price, enter and build the basis from one
column table: B is one scatter into an (m+1, m) array whose last row
absorbs the padding, and reduced costs are one gather against the duals
extended by a zero for the padding. Phase 2 prices only the first N
columns, so artificials never re-enter; they may stay basic at zero. The
basis matrix is dense and small (tens of rows), so factorizations are
cheap and the basic solution is recomputed from scratch every iteration.

Pricing uses the most-negative reduced cost with lowest-index tie-breaks;
after a run of degenerate pivots without objective progress the rule
switches to Bland's (lowest eligible index) until progress resumes, which
protects against cycling while keeping the pivot sequence deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL

MAX_PIVOTS = 200_000   # over both phases; past it the LP reports unbounded-guard
STALL_LIMIT = 32       # degenerate pivots before switching to Bland's rule


@dataclass(frozen=True)
class LPResult:
    status: str          # optimal | infeasible | unbounded-guard
    x: np.ndarray        # primal values, length N (zeros unless basic)
    y: np.ndarray        # row duals, length M
    objective: float
    iterations: int


def solve_equality_lp(rows: np.ndarray, coeffs: np.ndarray, c: np.ndarray, b: np.ndarray) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0.

    rows / coeffs describe A column-wise with -1 padding (K >= 1). b must
    be non-negative (flip row signs beforehand if needed).
    """
    n_vars, width = rows.shape
    m = b.size
    if np.any(b < 0):
        raise ValueError("b must be non-negative")
    tol = TOL.lp_pivot_tol

    # artificial variables are unit columns n_vars .. n_vars + m - 1
    unit_rows = np.full((m, width), -1, dtype=rows.dtype)
    unit_rows[:, 0] = np.arange(m)
    rows = np.concatenate([rows, unit_rows])
    coeffs = np.concatenate([coeffs, (unit_rows >= 0).astype(float)])
    basis = np.arange(n_vars, n_vars + m)
    positions = np.arange(m)[:, None]
    total_iters = 0

    def run_phase(cost_vec, n_priced):
        nonlocal total_iters
        last_obj = np.inf
        stalled = 0
        bland = False
        while True:
            if total_iters > MAX_PIVOTS:
                return "unbounded", None, None
            total_iters += 1
            B = np.zeros((m + 1, m))
            B[rows[basis], positions] = coeffs[basis]
            B = B[:m]
            x_b = np.linalg.solve(B, b)
            c_b = cost_vec[basis]
            obj = float(np.dot(c_b, x_b))
            if obj < last_obj - tol:
                last_obj = obj
                stalled = 0
                bland = False
            else:
                stalled += 1
                if stalled >= STALL_LIMIT:
                    bland = True  # anti-cycling mode until progress resumes
            y = np.linalg.solve(B.T, c_b)
            y_pad = np.append(y, 0.0)  # padding index -1 reads this zero
            r = cost_vec[:n_priced] - (y_pad[rows[:n_priced]] * coeffs[:n_priced]).sum(axis=1)
            candidates = np.flatnonzero(r < -tol)
            if candidates.size == 0:
                return "optimal", x_b, y
            entering = int(candidates.min() if bland else candidates[np.argmin(r[candidates])])
            col = np.zeros(m + 1)
            col[rows[entering]] = coeffs[entering]
            d = np.linalg.solve(B, col[:m])
            movable = d > tol
            if not np.any(movable):
                return "unbounded", None, None
            with np.errstate(divide="ignore"):
                ratios = np.where(movable, x_b / np.where(movable, d, 1.0), np.inf)
            theta = ratios[movable].min()
            # smallest variable index among blocking rows (Bland tie-break)
            blocking = np.flatnonzero(movable & (ratios <= theta * (1 + 1e-12) + 1e-12))
            leave_pos = blocking[np.argmin(basis[blocking])]
            basis[leave_pos] = entering

    # phase 1: drive artificials out
    status, x_b, _ = run_phase(np.concatenate([np.zeros(n_vars), np.ones(m)]), n_vars + m)
    if status != "optimal" or float(x_b[basis >= n_vars].sum()) > 1e-7:
        return LPResult("infeasible", np.zeros(n_vars), np.zeros(m), np.inf, total_iters)

    # phase 2: real objective; artificials may remain basic at zero
    status, x_b, y = run_phase(np.concatenate([np.asarray(c, dtype=float), np.zeros(m)]), n_vars)
    if status != "optimal":
        return LPResult("unbounded-guard", np.zeros(n_vars), np.zeros(m), -np.inf, total_iters)
    x = np.zeros(n_vars)
    real = basis < n_vars
    x[basis[real]] = np.maximum(x_b[real], 0.0)
    return LPResult("optimal", x, y, float(np.dot(c, x)), total_iters)
