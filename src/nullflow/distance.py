"""Geodesic distance fields with cut-locus masking.

Three routes, chosen by grid/metric structure:

* spherical 1-D grids: arc length along the symmetry-reduced coordinate
  (exact up to quadrature error for the round-sphere scenario);
* periodic grids with a constant diagonal metric: closed-form minimum-image
  distance;
* periodic grids with varying metrics: ``scipy.sparse.csgraph.dijkstra`` on
  a 16-neighbour periodic graph built with numpy (first-order accurate with
  a small metrication overestimate; adequate for cube membership tests at
  desk scale).  The search stops at the caller's ``limit``, the cube
  radius 2 rho for ``verify``, so it settles only the ball it reads.

Nodes near the cut locus are masked invalid rather than raising: distance
there is only Lipschitz and its Laplacian is meaningless.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import PERIODIC_2D, SPHERICAL_1D, LeafGrid
from .metric import LeafMetric

CUT_LOCUS_MARGIN = 3  # in units of the grid spacing


@dataclass
class DistanceField:
    grid: LeafGrid
    values: np.ndarray
    valid: np.ndarray  # False within the cut-locus margin


def _distance_symmetric(metric: LeafMetric, center: int) -> DistanceField:
    grid = metric.grid
    theta = grid.axes[0]
    h = grid.spacings[0]
    speed = np.sqrt(metric.comps[..., 0, 0])
    # scipy's cumulative_trapezoid(speed, theta, initial=0.0), operation for operation
    arc = np.concatenate(([0.0], np.cumsum(np.diff(theta) * (speed[1:] + speed[:-1]) / 2.0)))
    d = np.abs(arc - arc[center])
    # the cut locus is the collapsed antipode past the far end of the
    # chart; mask a margin of nodes at that end
    margin = CUT_LOCUS_MARGIN * h
    if center <= len(theta) // 2:
        return DistanceField(grid, d, theta <= theta[-1] - margin)
    return DistanceField(grid, d, theta >= theta[0] + margin)


def _is_constant_diagonal(metric: LeafMetric) -> bool:
    g = metric.comps
    if np.max(np.abs(g[..., 0, 1])) > 1e-13:
        return False
    return all(np.ptp(c) < 1e-13 * max(1.0, np.max(c)) for c in (g[..., 0, 0], g[..., 1, 1]))


def _min_image_offsets(grid: LeafGrid, center: tuple):
    """Coordinate offsets from the center to each node's nearest periodic image,
    and the two periods."""
    lx, ly = (n * h for n, h in zip(grid.shape, grid.spacings))
    x, y = grid.coordinate_fields()
    dx, dy = x - x[center], y - y[center]
    return dx - lx * np.round(dx / lx), dy - ly * np.round(dy / ly), lx, ly


def _periodic_mask(grid: LeafGrid, center: tuple) -> np.ndarray:
    dx, dy, lx, ly = _min_image_offsets(grid, center)
    hx, hy = grid.spacings  # nodes within the margin of the cut locus are invalid
    return (np.abs(dx) < lx / 2 - CUT_LOCUS_MARGIN * hx) & (np.abs(dy) < ly / 2 - CUT_LOCUS_MARGIN * hy)


def _distance_flat_periodic(metric: LeafMetric, center: tuple) -> DistanceField:
    dx, dy, _, _ = _min_image_offsets(metric.grid, center)
    g = metric.comps[0, 0]
    d = np.sqrt(g[0, 0] * dx**2 + g[1, 1] * dy**2)
    return DistanceField(metric.grid, d, _periodic_mask(metric.grid, center))


_NEIGHBOR_STEPS = [
    (di, dj)
    for di in (-2, -1, 0, 1, 2)
    for dj in (-2, -1, 0, 1, 2)
    if (di, dj) != (0, 0) and (abs(di) != 2 or abs(dj) != 2)
]


def _distance_dijkstra(metric: LeafMetric, center: tuple, limit: float) -> DistanceField:
    from scipy.sparse import csr_matrix  # the only route that loads scipy
    from scipy.sparse.csgraph import dijkstra
    grid = metric.grid
    nx, ny = grid.shape
    hx, hy = grid.spacings
    # padded[p][2 + i, 2 + j] is component p at node (i, j), periodically
    padded = [np.pad(metric.comps[..., a, b], 2, mode="wrap") for a, b in ((0, 0), (0, 1), (1, 1))]
    steps = len(_NEIGHBOR_STEPS)
    weights = np.empty(grid.shape + (steps,))  # the CSR layout: row = node, one entry per step
    for s, (di, dj) in enumerate(_NEIGHBOR_STEPS[:steps // 2]):
        # each padded edge (i, j) -> (i + di, j + dj), measured by the mean of both metrics
        near = np.s_[max(0, -di):nx + 4 - max(0, di), max(0, -dj):ny + 4 - max(0, dj)]
        far = np.s_[max(0, di):nx + 4 - max(0, -di), max(0, dj):ny + 4 - max(0, -dj)]
        m00, m01, m11 = (0.5 * (c[near] + c[far]) for c in padded)
        vx, vy = di * hx, dj * hy
        w = np.sqrt(m00 * vx * vx + 2.0 * m01 * vx * vy + m11 * vy * vy)
        # the steps are listed in pairs (s, -s) from both ends; node (i, j) leaves by
        # -s on the edge (i - di, j - dj) -> (i, j), seen from its far end
        i0, j0 = 2 - max(0, -di), 2 - max(0, -dj)
        weights[..., s] = w[i0:i0 + nx, j0:j0 + ny]
        weights[..., steps - 1 - s] = w[i0 - di:i0 - di + nx, j0 - dj:j0 - dj + ny]
    di, dj = np.array(_NEIGHBOR_STEPS, dtype=np.int32).T
    targets = ((np.arange(nx, dtype=np.int32)[:, None] + di) % nx * ny)[:, None] + (
        (np.arange(ny, dtype=np.int32)[:, None] + dj) % ny)
    row_starts = np.arange(0, nx * ny * steps + 1, steps, dtype=np.int32)
    graph = csr_matrix((weights.ravel(), targets.ravel(), row_starts))
    # nodes farther than ``limit`` are never settled and stay at inf
    dist = dijkstra(graph, indices=np.arange(nx * ny).reshape(nx, ny)[center], limit=limit)
    return DistanceField(grid, dist.reshape(grid.shape), _periodic_mask(grid, center))


def geodesic_distance(metric: LeafMetric, center, limit: float = np.inf) -> DistanceField:
    """Distance to the given center node; cut-locus band flagged invalid.  Nodes
    farther than ``limit`` read inf (the Dijkstra search stops there); the rest
    read the unbounded distance."""
    grid = metric.grid
    if grid.topology == SPHERICAL_1D:
        field = _distance_symmetric(metric, int(center))
    elif grid.topology != PERIODIC_2D:
        raise ValueError(f"unsupported topology {grid.topology}")
    elif _is_constant_diagonal(metric):
        field = _distance_flat_periodic(metric, tuple(center))
    else:
        return _distance_dijkstra(metric, tuple(center), limit)
    field.values[field.values > limit] = np.inf
    return field
