"""Structured leaf grids and finite-difference derivative stencils.

Two grid kinds are supported:

* ``periodic-2d``: an Nx x Ny doubly periodic grid (flat torus and
  perturbations of it).  All stencils wrap around.
* ``spherical-collapsed-poles``: a 1-D grid in a single coordinate
  (called theta below) carrying a rotationally symmetric 2-D geometry on
  the open interval (0, pi), so the poles are never grid nodes.  Fields
  depend on theta only; derivatives along the symmetry coordinate vanish
  identically.

All stencils are second-order central differences.  A periodic stencil is
one pass of contiguous slices over its input read as a C-ordered flat array
(:func:`_periodic_stencil`).  The spherical grid reflects fields evenly
across its poles: a stencil gathers each node's neighbours through a pair
of index arrays built once per grid, in which the node past either end is
that end node itself.  Each grid has a background metric g_0 = dx^2 + g11_0 dy^2,
flat or round, whose Laplacian is :func:`background_laplacian`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

PERIODIC_2D = "periodic-2d"
SPHERICAL_1D = "spherical-collapsed-poles"
TOPOLOGIES = (PERIODIC_2D, SPHERICAL_1D)

_MIN_NODES = 8


class GridError(ValueError):
    pass


def finite_real(x) -> bool:
    """Whether a parameter is a finite number; booleans and strings are not."""
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True, eq=False)
class LeafGrid:
    """Discretization of a leaf coordinate chart."""

    topology: str
    axes: tuple  # tuple of 1-D coordinate arrays
    spacings: tuple  # grid spacing per axis

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise GridError(f"unknown topology {self.topology!r}")
        for ax, h in zip(self.axes, self.spacings):
            if len(ax) < _MIN_NODES:
                raise GridError(f"need at least {_MIN_NODES} nodes per axis, got {len(ax)}")
            if h <= 0:
                raise GridError("grid spacing must be positive")

    @cached_property
    def shape(self):
        return tuple(len(ax) for ax in self.axes)

    @cached_property
    def reflected_neighbours(self) -> tuple:
        """(next, previous) node per node along the sphere chart's axis, min(i + 1, n - 1)
        and max(i - 1, 0): even reflection across a pole between cell centres maps the
        node past either end onto that end node."""
        i = np.arange(self.shape[0])
        return np.minimum(i + 1, i[-1]), np.maximum(i - 1, 0)

    @cached_property
    def background_g11(self):
        """g11_0 of the background metric g_0 = dx^2 + g11_0 dy^2, computed once: 1.0 on a
        periodic grid, sin^2 theta per node on the sphere chart, each at most 1."""
        return 1.0 if self.topology == PERIODIC_2D else np.sin(self.axes[0]) ** 2

    @cached_property
    def _round_sines(self) -> tuple:  # (sin theta_{i+1/2} / h at the n - 1 interior faces, h sin theta_i)
        h = self.spacings[0]
        return np.sin(np.arange(1, self.shape[0]) * h) / h, h * np.sin(self.axes[0])

    def coordinate_fields(self):
        """Coordinate values broadcast to the grid shape."""
        if self.topology == PERIODIC_2D:
            return np.meshgrid(*self.axes, indexing="ij")
        return (self.axes[0].copy(),)


def make_torus_grid(n: int, side: float = 2.0 * np.pi) -> LeafGrid:
    """Doubly periodic n x n grid on [0, side) x [0, side)."""
    h = side / n
    x = np.arange(n) * h
    return LeafGrid(PERIODIC_2D, (x, x.copy()), (h, h))


def make_sphere_grid(n: int) -> LeafGrid:
    """Cell-centered theta grid on (0, pi); the poles are never nodes.

    Nodes sit at theta_i = (i + 1/2) h, i = 0..n-1 with h = pi/n, so even
    reflection across the collapsed poles maps ghost nodes exactly onto
    interior nodes and central stencils apply everywhere.
    """
    h = np.pi / n
    theta = (np.arange(n) + 0.5) * h
    return LeafGrid(SPHERICAL_1D, (theta,), (h,))


@dataclass
class ScalarField:
    """Node-sampled scalar quantity on a leaf grid."""

    grid: LeafGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GridError("scalar field contains non-finite values")


def grids_compatible(a: LeafGrid, b: LeafGrid) -> bool:
    if a is b:
        return True
    if a.topology != b.topology or a.shape != b.shape:
        return False
    return all(np.allclose(ax, bx) for ax, bx in zip(a.axes, b.axes))


def field_values(field, grid: LeafGrid | None = None) -> np.ndarray:
    """Unwrap a ScalarField (checking its grid) or pass an array through."""
    if isinstance(field, ScalarField):
        if grid is not None and not grids_compatible(field.grid, grid):
            raise GridError("field grid does not match metric grid")
        return field.values
    return np.asarray(field, dtype=float)


def _periodic_stencil(values, axis: int, stencil, scale: float) -> np.ndarray:
    """``stencil(out, v, v_next, v_previous)`` / ``scale`` at every node of a periodic grid, C-contiguous:
    one pass over the C-ordered flat input, where the next node along ``axis`` is a fixed shift s
    away (a row, or one node's trailing components), then again at the two wrapped edges of the
    axis, whose neighbours s away are not theirs."""
    v = np.ascontiguousarray(values, dtype=float)
    flat, s, out = v.reshape(-1), v[0].size if axis == 0 else v[0, 0].size, np.empty(v.shape)
    stencil(out.reshape(-1)[s:-s], flat[s:-s], flat[2 * s:], flat[:-2 * s])
    v, o = v.swapaxes(0, axis), out.swapaxes(0, axis)
    for i, nxt, prv in ((0, 1, -1), (-1, 0, -2)):
        stencil(o[i], v[i], v[nxt], v[prv])
    out /= scale
    return out


def _second_difference(out, v, nxt, prv):
    np.multiply(v, -2.0, out=out)  # so out + v[i+1] is exactly v[i+1] - 2 v[i]
    out += nxt
    out += prv


def partial_deriv(grid: LeafGrid, values: np.ndarray, axis: int) -> np.ndarray:
    """First derivative along a coordinate axis, second order."""
    if grid.topology == PERIODIC_2D:
        return _periodic_stencil(values, axis, lambda o, v, nxt, prv: np.subtract(nxt, prv, out=o),
                                 2.0 * grid.spacings[axis])
    values = np.asarray(values, dtype=float)
    # 1-D reductions: derivatives along the symmetry coordinate vanish
    if axis == 1:
        return np.zeros_like(values)
    nxt, prv = grid.reflected_neighbours
    return (values[nxt] - values[prv]) / (2.0 * grid.spacings[0])


def second_deriv(grid: LeafGrid, values: np.ndarray, axis: int) -> np.ndarray:
    """Pure second derivative along one axis (3-point stencil)."""
    if grid.topology == PERIODIC_2D:
        return _periodic_stencil(values, axis, _second_difference, grid.spacings[axis] ** 2)
    values = np.asarray(values, dtype=float)
    if axis == 1:
        return np.zeros_like(values)
    nxt, prv = grid.reflected_neighbours
    return (values[nxt] - 2.0 * values + values[prv]) / grid.spacings[0] ** 2


def periodic_laplacian(grid: LeafGrid, values: np.ndarray) -> np.ndarray:
    """The 5-point Laplacian d_00 f + d_11 f on a periodic grid: second_deriv(grid, f, 0)
    + second_deriv(grid, f, 1), C-contiguous."""
    out = second_deriv(grid, values, 0)
    out += second_deriv(grid, values, 1)
    return out


def background_laplacian(grid: LeafGrid, values: np.ndarray) -> np.ndarray:
    """Delta_0 f of the grid's background metric: :func:`periodic_laplacian` on a periodic grid;
    on the sphere chart the round metric's, in flux form (F_{i+1/2} - F_{i-1/2}) / (h sin theta_i)
    with F_{i+1/2} = (sin theta_{i+1/2} / h) (f_{i+1} - f_i), whose fluxes through the poles are
    exactly 0 (not sin(pi) = 1.2e-16), so Delta_0 of a constant is exactly 0."""
    if grid.topology == PERIODIC_2D:
        return periodic_laplacian(grid, values)
    face, cell = grid._round_sines
    flux = np.zeros(len(cell) + 1)
    inner = np.subtract(values[1:], values[:-1], out=flux[1:-1])
    inner *= face
    out = np.subtract(flux[1:], flux[:-1])
    out /= cell
    return out


def mixed_deriv(grid: LeafGrid, values: np.ndarray) -> np.ndarray:
    """Mixed second derivative d^2/dx0 dx1 (zero on the spherical 1-D grid)."""
    if grid.topology == SPHERICAL_1D:
        return np.zeros_like(np.asarray(values, dtype=float))
    return partial_deriv(grid, partial_deriv(grid, values, 0), 1)
