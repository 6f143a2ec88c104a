"""Numerical tolerances and grid sizes, pinned in one place.

Every tolerance used by a contract check lives here so that tests and
library code agree on the budgets.
"""

from typing import NamedTuple


class Tolerances(NamedTuple):
    # measure1d
    mass_tol: float = 1e-12          # |integral of density - 1|

    # costs
    well_order_slack: float = 1e-9
    threshold_inflation: float = 1e-6  # relative bump applied to the truncation level

    # mmot
    lp_pivot_tol: float = 1e-9
    lp_feasibility_tol: float = 1e-9
    lp_dual_tol: float = 1e-7
    lp_cell_guard: int = 200_000

    # kantorovich
    ctransform_guard: int = 1_000_000   # grid**(n-1) cap for one transform

    # semiclassical
    mollifier_table: int = 2048
    quad_grid: int = 4096               # internal z/x quadrature resolution


TOL = Tolerances()

TWO_PI = 6.283185307179586476925286766559


def gap_tolerance(grid_size: int) -> float:
    """Duality-gap budget on the grid: 10/g.

    The gap is priced against the grid measure's own staircase, which has no
    quantization error, so the budget has no term in the LP's m.
    """
    return 10.0 / grid_size
