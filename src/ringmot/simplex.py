"""Revised simplex for equality-constrained LPs with sparse columns.

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

The solve starts either from the artificial basis, running phase 1 to find
a feasible basis, or from a caller's ``start``: the m column indices of a
primal feasible basis, after which phase 1 is skipped. The start is checked
loudly (length, repeats, range, singularity, sign of x_B) but is not part of
any optimality claim: phase 2 still prices every column.

The basis matrix is dense and small (tens of rows) and is factorized from
scratch at every pivot, by two solves: B^T y = c_B for the duals, then one
two-column solve B [x_B, d] = [b, a_q] for the basic solution and the
entering column; when pricing finds no entering column, B x_B = b is
solved alone. B is not updated in place: an explicit inverse with rank-1
updates moves reduced costs at rounding level, enough to flip exact pricing
ties and change the pivot sequence and count.

One pivot rule serves both starts. Pricing takes the most negative reduced
cost, lowest index on ties (Dantzig). The ratio test takes the smallest
x_B[i] / d[i]; ties go to the lexicographically smallest row of
(B^-1 B0) / d, where B0 is the starting basis matrix (the identity for the
artificial start). That is the simplex on b perturbed by B0 (e, e^2, ...),
which never revisits a basis (Dantzig, Orden and Wolfe 1955), so it stops
without reading objective progress. B^-1 B0 starts as the identity and
takes each pivot's row operation, O(m^2) and no extra solve. The objective
y.b is read only to count degenerate pivots.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import TOL

MAX_PIVOTS = 200_000   # over both phases; past it the LP reports unbounded-guard


class LPResult(NamedTuple):
    status: str              # optimal | infeasible | unbounded-guard
    x: np.ndarray            # primal values, length N (zeros unless basic)
    y: np.ndarray            # row duals, length M
    objective: float
    iterations: int          # pricing passes over both phases
    phase1_pivots: int       # of those, passes in phase 1 (0 from a given start)
    degenerate_pivots: int   # pivots after which the objective dropped by at most tol
    lex_ties: int            # pivots whose leaving row the lexicographic rule chose


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


def _check_start(start, n_vars: int, b: np.ndarray, basis_matrix) -> np.ndarray:
    m = b.size
    basis = np.asarray(start, dtype=np.intp)
    if basis.shape != (m,):
        raise ValueError(f"start has shape {basis.shape}, expected ({m},) for m = {m} rows")
    bad = (basis < 0) | (basis >= n_vars)
    if bad.any():
        raise ValueError(f"start column {basis[bad][0]} is not in [0, {n_vars}) for N = {n_vars} columns")
    values, counts = np.unique(basis, return_counts=True)
    if counts.max() > 1:
        raise ValueError(f"start repeats column {values[counts > 1][0]}")
    # 1-norm condition number, singular past matrix_rank's default bound;
    # inv factors by the same LU as the pivots' solves, where an SVD would
    # map more of LAPACK into every process
    B0 = basis_matrix(basis)
    try:
        inverse = np.linalg.inv(B0)
    except np.linalg.LinAlgError:
        inverse = np.full((m, m), np.inf)
    cond = np.linalg.norm(B0, 1) * np.linalg.norm(inverse, 1)
    if not cond * m * np.finfo(float).eps < 1.0:
        raise ValueError(f"start basis matrix ({m} x {m}) is singular: 1-norm condition number {cond:.3e}")
    x_b = inverse @ b
    tol = TOL.lp_pivot_tol
    if x_b.min() < -tol:
        k = int(np.argmin(x_b))
        raise ValueError(
            f"start is not primal feasible: x_B = {x_b[k]:.3e} at column {basis[k]} is below -{tol:g}"
        )
    return basis.copy()


def solve_equality_lp(
    rows: np.ndarray, coeffs: np.ndarray, c: np.ndarray, b: np.ndarray, start=None
) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0.

    rows / coeffs describe A column-wise with -1 padding (K >= 1). b must
    be non-negative (flip row signs beforehand if needed). A malformed
    table or a c of the wrong length raises ValueError naming the sizes.
    ``start``, if given, lists the m basic columns of a primal feasible
    basis and skips phase 1; a start of the wrong length, with a repeated
    or out-of-range column, a singular basis matrix or an x_B entry below
    -TOL.lp_pivot_tol raises ValueError.
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
    positions = np.arange(m)

    def basis_matrix(basis):
        B = np.zeros((m + 1, m))
        B[rows_t[:, basis], positions] = coeffs_t[:, basis]
        return B[:m]

    if start is None:
        basis = np.arange(n_vars, n_vars + m)
    else:
        basis = _check_start(start, n_vars, b, basis_matrix)
    rhs = np.zeros((m + 1, 2))  # [b, a_q]; the last row absorbs the padding
    rhs[:m, 0] = b
    total_iters = degenerate = lex_ties = 0
    lex = np.eye(m)  # B^-1 B0, kept by each pivot's row operation

    def leaving_position(x_b, d):
        nonlocal lex_ties, lex
        movable = np.flatnonzero(d > tol)
        if movable.size == 0:
            return None
        ratios = x_b[movable] / d[movable]
        blocking = movable[ratios <= ratios.min() * (1 + 1e-12) + 1e-12]
        if blocking.size > 1:
            lex_ties += 1
            # keys snapped to a grid of tol, so rounding noise ties; rows of
            # the nonsingular B^-1 B0 are never proportional, so the order
            # is strict. lexsort's primary key is its last: columns reversed
            keys = np.round(lex[blocking] / (d[blocking, None] * tol))
            blocking = blocking[np.lexsort(keys.T[::-1])]
        leaving = blocking[0]
        pivot_row = lex[leaving] / d[leaving]
        lex -= d[:, None] * pivot_row
        lex[leaving] = pivot_row
        return leaving

    def run_phase(cost_vec, n_priced):
        nonlocal total_iters, degenerate
        r = np.empty(n_priced)
        term = np.empty(n_priced)
        y_pad = np.zeros(m + 1)  # padding index -1 wraps to the trailing zero
        last_obj = np.inf
        while True:
            if total_iters > MAX_PIVOTS:
                return "unbounded", None, None
            total_iters += 1
            B = basis_matrix(basis)
            y = np.linalg.solve(B.T, cost_vec[basis])
            obj = float(np.dot(y, b))
            if obj < last_obj - tol:
                last_obj = obj
            else:
                degenerate += 1
            y_pad[:m] = y
            np.take(y_pad, rows_t[0, :n_priced], out=r, mode="wrap")
            r *= coeffs_t[0, :n_priced]
            for k in range(1, width):
                np.take(y_pad, rows_t[k, :n_priced], out=term, mode="wrap")
                term *= coeffs_t[k, :n_priced]
                r += term
            np.subtract(cost_vec[:n_priced], r, out=r)
            entering = int(np.argmin(r))
            if not r[entering] < -tol:
                return "optimal", np.linalg.solve(B, b), y
            rhs[:, 1] = 0.0
            rhs[rows_t[:, entering], 1] = coeffs_t[:, entering]
            x_b, d = np.linalg.solve(B, rhs[:m]).T
            leaving = leaving_position(x_b, d)
            if leaving is None:
                return "unbounded", None, None
            basis[leaving] = entering

    def result(status, x, y, objective):
        return LPResult(status, x, y, objective, total_iters, phase1_pivots, degenerate, lex_ties)

    def stopped():
        # an improving ray or the MAX_PIVOTS guard, in either phase
        return result("unbounded-guard", np.zeros(n_vars), np.zeros(m), -np.inf)

    phase1_pivots = 0
    if start is None:
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
