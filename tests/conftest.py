import os

# the CLI's default (ringmot/cli.py): the in-process suite computes on one BLAS thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from ringmot.costs import (
    ExpProfile,
    InverseProfile,
    LinearProfile,
    make_ring_cost,
    make_torus_cost,
)
from ringmot.measure1d import GridDensity

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def uniform():
    return GridDensity.uniform()


@pytest.fixture(scope="session")
def cosine():
    return GridDensity.cosine()


@pytest.fixture(scope="session")
def cosine08():
    return GridDensity.cosine(amplitude=0.8)


@pytest.fixture(scope="session")
def ring_inverse():
    return make_ring_cost(InverseProfile())


@pytest.fixture(scope="session")
def ring_exp2():
    return make_ring_cost(ExpProfile(rate=2.0))


@pytest.fixture(scope="session")
def torus_linear():
    return make_torus_cost(LinearProfile(np.pi, 1.0))


# -- independent oracles ----------------------------------------------------


def riemann_cdf(rho: GridDensity, x: float, panels: int = 2_000_000) -> float:
    """Midpoint Riemann sum of the interpolated density over [0, x]."""
    if x <= 0:
        return 0.0
    mids = (np.arange(panels) + 0.5) * (x / panels)
    return float(np.sum(np.interp(mids, rho.nodes, rho.values)) * (x / panels))


def bisect_quantile(rho: GridDensity, q: float, tol: float = 1e-10) -> float:
    """Bisection on the oracle CDF, independent of the library inversion."""
    lo, hi = 0.0, TWO_PI
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if riemann_cdf(rho, mid, panels=200_000) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def window_mass(rho: GridDensity, center: float, r: float, panels: int = 200_000) -> float:
    """Brute-force mass of the torus window [center - r, center + r]."""
    mids = center - r + (np.arange(panels) + 0.5) * (2 * r / panels)
    wrapped = np.mod(mids, TWO_PI)
    return float(np.sum(np.interp(wrapped, rho.nodes, rho.values)) * (2 * r / panels))
