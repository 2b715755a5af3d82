"""Built-in leaf scenarios.

* ``round-sphere``: radius-r sphere leaf in its rotationally symmetric
  reduction, g' = r^2 (dtheta^2 + sin^2(theta) dphi^2) on the open chart
  0 < theta < pi.
* ``flat-torus``: the flat square torus, g' = identity.
* ``torus-bump``: conformal perturbation of the flat torus,
  g' = (1 + amp sin x sin y) I with |amp| < 1.
"""
from __future__ import annotations

import numpy as np

from .grids import finite_real, make_sphere_grid, make_torus_grid
from .metric import LeafMetric

SCENARIOS = ("round-sphere", "flat-torus", "torus-bump")

DEFAULT_RESOLUTION = 64


class ScenarioError(ValueError):
    pass


def sphere_metric(radius: float, n: int = DEFAULT_RESOLUTION) -> LeafMetric:
    if not (finite_real(radius) and radius > 0):
        raise ScenarioError(f"sphere radius must be a finite number above 0, got {radius!r}")
    grid = make_sphere_grid(n)
    return LeafMetric(grid, np.full(grid.shape, radius**2))  # r^2 g_round


def flat_torus_metric(side: float = 2.0 * np.pi, n: int = DEFAULT_RESOLUTION) -> LeafMetric:
    if not (finite_real(side) and side > 0):
        raise ScenarioError(f"torus side must be a finite number above 0, got {side!r}")
    grid = make_torus_grid(n, side=side)
    return LeafMetric(grid, np.ones(grid.shape))


def torus_bump_conformal_factor(amp: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 + amp * np.sin(x) * np.sin(y)


def torus_bump_metric(amp: float, n: int = DEFAULT_RESOLUTION) -> LeafMetric:
    if not (finite_real(amp) and abs(amp) < 1.0):
        raise ScenarioError(f"bump amplitude must be a finite number with |amp| < 1, got {amp!r}")
    grid = make_torus_grid(n)
    x, y = grid.coordinate_fields()
    return LeafMetric(grid, torus_bump_conformal_factor(amp, x, y))


def build_scenario_metric(name: str, **params) -> LeafMetric:
    """Construct the leaf metric for a named scenario."""
    params = dict(params)
    if name == "round-sphere":
        metric = sphere_metric(
            params.pop("radius", 1.0), n=params.pop("resolution", DEFAULT_RESOLUTION)
        )
    elif name == "flat-torus":
        metric = flat_torus_metric(
            side=params.pop("side", 2.0 * np.pi),
            n=params.pop("resolution", DEFAULT_RESOLUTION),
        )
    elif name == "torus-bump":
        metric = torus_bump_metric(
            params.pop("amp", 0.2), n=params.pop("resolution", DEFAULT_RESOLUTION)
        )
    else:
        raise ScenarioError(f"unknown scenario {name!r}; choose one of {SCENARIOS}")
    if params:
        raise ScenarioError(f"unknown parameters for {name}: {sorted(params)}")
    return metric
