"""Geodesic distance fields with cut-locus masking.

Three routes, chosen by grid/metric structure:

* spherical 1-D grids: arc length along the symmetry-reduced coordinate
  (exact up to quadrature error for the round-sphere scenario);
* periodic grids with a constant diagonal metric: closed-form minimum-image
  distance;
* periodic grids with varying metrics: ``scipy.sparse.csgraph.dijkstra`` on
  a 16-neighbour periodic graph built with numpy (first-order accurate with
  a small metrication overestimate; adequate for cube membership tests at
  desk scale).

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

    def masked(self) -> np.ndarray:
        out = self.values.copy()
        out[~self.valid] = np.nan
        return out


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


def _distance_dijkstra(metric: LeafMetric, center: tuple) -> DistanceField:
    from scipy.sparse import csr_matrix  # the only route that loads scipy
    from scipy.sparse.csgraph import dijkstra
    grid = metric.grid
    nx, ny = grid.shape
    hx, hy = grid.spacings
    g00, g01, g11 = (np.ascontiguousarray(metric.comps[..., a, b]) for a, b in ((0, 0), (0, 1), (1, 1)))
    steps = len(_NEIGHBOR_STEPS)
    weights = np.empty(grid.shape + (steps,))
    for s, (di, dj) in enumerate(_NEIGHBOR_STEPS[:steps // 2]):
        # the edge (i, j) -> (i + di, j + dj) is measured by the mean of both metrics
        m00, m01, m11 = (0.5 * (c + np.roll(c, (-di, -dj), axis=(0, 1))) for c in (g00, g01, g11))
        vx, vy = di * hx, dj * hy
        weights[..., s] = np.sqrt(m00 * vx * vx + 2.0 * m01 * vx * vy + m11 * vy * vy)
        # the steps are listed in pairs (s, -s) from both ends, and the edge
        # (i, j) -> (i - di, j - dj) is the edge above seen from its far end
        weights[..., steps - 1 - s] = np.roll(weights[..., s], (di, dj), axis=(0, 1))
    di, dj = np.array(_NEIGHBOR_STEPS, dtype=np.int32).T
    targets = ((np.arange(nx, dtype=np.int32)[:, None] + di) % nx * ny)[:, None] + (
        (np.arange(ny, dtype=np.int32)[:, None] + dj) % ny)
    # CSR row r holds the edges leaving node r, one per step
    row_starts = np.arange(0, nx * ny * steps + 1, steps, dtype=np.int32)
    graph = csr_matrix((weights.ravel(), targets.ravel(), row_starts))
    dist = dijkstra(graph, indices=np.arange(nx * ny).reshape(nx, ny)[center])
    return DistanceField(grid, dist.reshape(grid.shape), _periodic_mask(grid, center))


def geodesic_distance(metric: LeafMetric, center) -> DistanceField:
    """Distance to the given center node; cut-locus band flagged invalid."""
    metric.require_positive_definite()
    grid = metric.grid
    if grid.topology == SPHERICAL_1D:
        return _distance_symmetric(metric, int(center))
    if grid.topology == PERIODIC_2D:
        center = tuple(center)
        if _is_constant_diagonal(metric):
            return _distance_flat_periodic(metric, center)
        return _distance_dijkstra(metric, center)
    raise ValueError(f"unsupported topology {grid.topology}")
