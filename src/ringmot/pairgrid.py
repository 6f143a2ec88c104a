"""The pair grid of the interaction quadrature: the pair cost on it, and its windowed forms.

The trial-state interaction is a quadratic form of the pair cost on the
PAIR_GRID-node midpoint grid. A distance cost is kept as one cost row: the
matrix cell (i, j) is row[(j - i) mod PAIR_GRID], and the PAIR_GRID^2 matrix
is never built. Any other cost is kept as its dense matrix. Both forms are
made by `midpoint_pair_matrix` and read by `window_forms` alone.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import TWO_PI
from .costs import CostModel
from .errors import DomainError

PAIR_GRID = 1024   # nodes of the interaction quadrature's midpoint grid


def midpoints(k: int) -> np.ndarray:
    """Nodes of the k-point composite midpoint rule on the torus."""
    return (np.arange(k) + 0.5) * (TWO_PI / k)


def midpoint_pair_matrix(w: CostModel) -> np.ndarray:
    """The pair cost on the PAIR_GRID-node midpoint grid of the interaction quadrature.

    A distance cost comes back as one cost row, row[j] = w(x_0, x_j); any other
    cost as the dense matrix (`CostModel.grid_matrix`). The cost is taken as
    given, untruncated. Its +inf cells where two midpoints coincide (the
    diagonal, row[0]) are set to 0, as trial states put no pair mass there; any
    other non-finite cell raises DomainError naming it. Every cell of a distance
    cost's matrix is a row entry, so checking the row checks them all.
    """
    xs = midpoints(PAIR_GRID)
    pair = w(xs[0], xs) if w.translation_invariant else w.grid_matrix(xs)
    cells = np.atleast_2d(pair)   # the row is the matrix's first row
    coincident = np.flatnonzero(np.isposinf(np.diagonal(cells)))
    cells[coincident, coincident] = 0.0
    bad = np.argwhere(~np.isfinite(cells))
    if bad.size:
        i, j = bad[0]
        raise DomainError(f"interaction quadrature needs a finite cost off the diagonal: "
                          f"w({xs[i]:.6g}, {xs[j]:.6g}) = {cells[i, j]} at cell ({i}, {j})")
    return pair


def window_forms(pair: np.ndarray, nodes: np.ndarray, windows: np.ndarray, pairs) -> np.ndarray:
    """windows[a] . M[nodes[a]][:, nodes[b]] windows[b] for each (a, b) in pairs.

    M is the pair cost `pair` on its k-node grid (`midpoint_pair_matrix`).
    Row c of `nodes` holds the W grid nodes of window c, consecutive mod k. The
    (W x W) block between two windows is a Toeplitz view of a distance cost's
    row, or is gathered from a dense matrix; both are contracted alike.
    """
    k = pair.shape[-1]
    width = nodes.shape[1]
    if pair.ndim == 1:   # band[s][t] = row[(s + t + 1 - W) mod k]
        band = sliding_window_view(pair[np.arange(1 - width, k + width - 1) % k], width)
        blocks = (band[(nodes[b, 0] - nodes[a, 0]) % k:][:width][::-1] for a, b in pairs)
    else:
        blocks = (pair[nodes[a][:, None], nodes[b]] for a, b in pairs)
    return np.array([windows[a].dot(m).dot(windows[b]) for (a, b), m in zip(pairs, blocks)])
