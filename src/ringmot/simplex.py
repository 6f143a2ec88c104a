"""Two-phase revised simplex for equality-constrained LPs with sparse columns.

Columns are given structurally: each variable touches at most K rows, with
the row indices and coefficients stored in padded (N, K) arrays (-1 pads).
The m artificial variables are appended to that table as unit columns
N .. N+m-1, so both phases price, enter and build the basis from one
column table, kept transposed as contiguous (K, N+m) arrays: B is one
scatter into an (m+1, m) array whose last row absorbs the padding, and
reduced costs accumulate one table row at a time (gather the duals,
extended by a zero for the padding, multiply, add), in the same left to
right order as numpy's reduction of rows shorter than 8, so for K < 8 they
are bitwise those of a row-wise sum over the (N, K) table. Phase 2 prices
only the first N columns, so artificials never re-enter; they may stay
basic at zero.

The basis matrix is dense and small (tens of rows) and is factorized from
scratch at every pivot, by two solves: B^T y = c_B for the duals, then one
two-column solve B [x_B, d] = [b, a_q] for the basic solution and the
entering column; when pricing finds no entering column, B x_B = b is
solved alone. The stall test reads the objective as y.b, equal to c_B.x_B
up to rounding. B is not updated in place: an explicit inverse with rank-1
updates moves reduced costs at rounding level, enough to flip exact pricing
ties and change the pivot sequence and count.

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
    status: str              # optimal | infeasible | unbounded-guard
    x: np.ndarray            # primal values, length N (zeros unless basic)
    y: np.ndarray            # row duals, length M
    objective: float
    iterations: int          # pricing passes over both phases
    phase1_pivots: int       # of those, passes in phase 1
    degenerate_pivots: int   # pivots after which the objective dropped by at most tol
    bland_pivots: int        # entering columns chosen under Bland's rule


def _check_table(rows: np.ndarray, coeffs: np.ndarray, c: np.ndarray, m: int) -> None:
    if rows.ndim != 2 or rows.shape != coeffs.shape:
        raise ValueError(f"rows {rows.shape} and coeffs {coeffs.shape} must be equal (N, K) shapes")
    n_vars, width = rows.shape
    if n_vars < 1 or width < 1:
        raise ValueError(f"the column table needs N >= 1 columns and K >= 1 row slots, got {rows.shape}")
    if c.shape != (n_vars,):
        raise ValueError(f"c has shape {c.shape}, expected ({n_vars},) for N = {n_vars} columns")
    bad = (rows < -1) | (rows >= m)
    if bad.any():
        raise ValueError(
            f"row index {rows[bad][0]} is neither the -1 pad nor in [0, {m}) for m = {m} rows"
        )


def solve_equality_lp(rows: np.ndarray, coeffs: np.ndarray, c: np.ndarray, b: np.ndarray) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0.

    rows / coeffs describe A column-wise with -1 padding (K >= 1). b must
    be non-negative (flip row signs beforehand if needed). A malformed
    table or a c of the wrong length raises ValueError naming the sizes.
    """
    c = np.asarray(c, dtype=float)
    m = b.size
    _check_table(rows, coeffs, c, m)
    if np.any(b < 0):
        raise ValueError("b must be non-negative")
    n_vars, width = rows.shape
    tol = TOL.lp_pivot_tol

    # transposed table; artificial variables are unit columns n_vars .. n_vars + m - 1
    rows_t = np.full((width, n_vars + m), -1, dtype=np.intp)
    rows_t[:, :n_vars] = rows.T
    rows_t[0, n_vars:] = np.arange(m)
    coeffs_t = np.zeros((width, n_vars + m))
    coeffs_t[:, :n_vars] = coeffs.T
    coeffs_t[0, n_vars:] = 1.0
    basis = np.arange(n_vars, n_vars + m)
    positions = np.arange(m)
    rhs = np.zeros((m + 1, 2))  # [b, a_q]; the last row absorbs the padding
    rhs[:m, 0] = b
    total_iters = degenerate = bland_pivots = 0

    def run_phase(cost_vec, n_priced):
        nonlocal total_iters, degenerate, bland_pivots
        r = np.empty(n_priced)
        term = np.empty(n_priced)
        y_pad = np.zeros(m + 1)  # padding index -1 wraps to the trailing zero
        last_obj = np.inf
        stalled = 0
        bland = False
        while True:
            if total_iters > MAX_PIVOTS:
                return "unbounded", None, None
            total_iters += 1
            B = np.zeros((m + 1, m))
            B[rows_t[:, basis], positions] = coeffs_t[:, basis]
            B = B[:m]
            y = np.linalg.solve(B.T, cost_vec[basis])
            obj = float(np.dot(y, b))
            if obj < last_obj - tol:
                last_obj = obj
                stalled = 0
                bland = False
            else:
                degenerate += 1
                stalled += 1
                if stalled >= STALL_LIMIT:
                    bland = True  # anti-cycling mode until progress resumes
            y_pad[:m] = y
            np.take(y_pad, rows_t[0, :n_priced], out=r, mode="wrap")
            r *= coeffs_t[0, :n_priced]
            for k in range(1, width):
                np.take(y_pad, rows_t[k, :n_priced], out=term, mode="wrap")
                term *= coeffs_t[k, :n_priced]
                r += term
            np.subtract(cost_vec[:n_priced], r, out=r)
            entering = int(np.argmax(r < -tol) if bland else np.argmin(r))
            if not r[entering] < -tol:
                return "optimal", np.linalg.solve(B, b), y
            bland_pivots += bland
            rhs[:, 1] = 0.0
            rhs[rows_t[:, entering], 1] = coeffs_t[:, entering]
            x_b, d = np.linalg.solve(B, rhs[:m]).T
            movable = np.flatnonzero(d > tol)
            if movable.size == 0:
                return "unbounded", None, None
            ratios = x_b[movable] / d[movable]
            # smallest variable index among blocking rows (Bland tie-break)
            blocking = movable[ratios <= ratios.min() * (1 + 1e-12) + 1e-12]
            basis[blocking[np.argmin(basis[blocking])]] = entering

    def result(status, x, y, objective):
        return LPResult(status, x, y, objective, total_iters, phase1_pivots, degenerate, bland_pivots)

    def stopped():
        # an improving ray or the MAX_PIVOTS guard, in either phase
        return result("unbounded-guard", np.zeros(n_vars), np.zeros(m), -np.inf)

    # phase 1: drive artificials out
    status, x_b, _ = run_phase(np.concatenate([np.zeros(n_vars), np.ones(m)]), n_vars + m)
    phase1_pivots = total_iters
    if status != "optimal":
        return stopped()
    if float(x_b[basis >= n_vars].sum()) > 1e-7:
        return result("infeasible", np.zeros(n_vars), np.zeros(m), np.inf)

    # phase 2: real objective; artificials may remain basic at zero
    status, x_b, y = run_phase(np.concatenate([c, np.zeros(m)]), n_vars)
    if status != "optimal":
        return stopped()
    x = np.zeros(n_vars)
    real = basis < n_vars
    x[basis[real]] = np.maximum(x_b[real], 0.0)
    return result("optimal", x, y, float(np.dot(c, x)))
