"""1D symmetric multimarginal optimal transport on the ring [0, 2*pi].

Modules: piecewise-linear densities (measure1d), pairwise interaction
models and well-ordering certification (costs), cyclic monotone transport
plans (seidl), the bipartition swap engine (swaplab), an exact LP oracle
(mmot), grid Kantorovich potentials (kantorovich), and mollified trial-state
bounds (semiclassical).

Importing the package loads no numpy, so ``ringmot.cli`` can pick the BLAS
thread count before numpy starts; ``GridDensity`` is resolved on first use.
"""

from .config import TOL, TWO_PI

__all__ = ["TOL", "TWO_PI", "GridDensity"]

__version__ = "0.1.0"


def __getattr__(name):
    if name == "GridDensity":
        from .measure1d import GridDensity

        return GridDensity
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
