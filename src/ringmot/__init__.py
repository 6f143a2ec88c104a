"""1D symmetric multimarginal optimal transport on the ring [0, 2*pi].

Subpackages: piecewise-linear densities (measure1d), pairwise interaction
models and well-ordering certification (costs), cyclic monotone transport
plans (seidl), the bipartition swap engine (swaplab), an exact LP oracle
(mmot), grid Kantorovich potentials (kantorovich), and mollified trial-state
bounds (semiclassical).
"""

from .config import TOL, TWO_PI
from .measure1d import GridDensity

__all__ = ["TOL", "TWO_PI", "GridDensity"]

__version__ = "0.1.0"
