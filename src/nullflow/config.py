"""Run configuration: strict JSON parsing and validation.

A run document has up to six sections:

    {
      "scenario": {"name": "round-sphere", "radius": 1.0, "resolution": 64},
      "flow": {"direction": "forward", "t_end": 0.45, "dt_initial": 1e-4},
      "heat_initial": "cosine-mode",
      "estimates": {"alpha": 1.0, "p": 2.0, "q": 2.0, "rho": 0.7, "center": 32},
      "theorems": ["li-yau"],
      "seed": 0
    }

Unknown keys are rejected at every level; constraint violations name the
failing constraint.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .estimates import THEOREM_IDS, EstimateError, EstimateParams
from .flow import FlowConfig, FlowError
from .grids import SPHERICAL_1D, ScalarField
from .metric import LeafMetric
from .scenarios import SCENARIOS, build_scenario_metric

HEAT_INITIAL_IDS = ("constant", "cosine-mode")

_FLOW_KEYS = {f.name for f in fields(FlowConfig)}
_ESTIMATE_KEYS = {f.name for f in fields(EstimateParams)}
_TOP_KEYS = {"scenario", "flow", "heat_initial", "estimates", "theorems", "seed"}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: dict
    flow: FlowConfig
    heat_initial: str | None = None
    estimates: EstimateParams | None = None
    theorems: tuple = ()
    seed: int = 0

    def build_metric(self) -> LeafMetric:
        params = {k: v for k, v in self.scenario.items() if k != "name"}
        return build_scenario_metric(self.scenario["name"], **params)

    def build_heat_initial(self, metric: LeafMetric) -> ScalarField | None:
        if self.heat_initial is None:
            return None
        grid = metric.grid
        if self.heat_initial == "constant":
            return ScalarField(grid, np.full(grid.shape, 2.0))
        # cosine-mode: one smooth mode above a positive floor
        if grid.topology == SPHERICAL_1D:
            return ScalarField(grid, 2.0 + np.cos(grid.axes[0]))
        x, _ = grid.coordinate_fields()
        return ScalarField(grid, 2.0 + np.sin(x))


def _reject_unknown(section: dict, allowed: set, where: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run document (strict)."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigError("top-level document must be an object")
    _reject_unknown(doc, _TOP_KEYS, "document")

    scenario = doc.get("scenario")
    if not isinstance(scenario, dict) or "name" not in scenario:
        raise ConfigError("scenario section with a name is required")
    name = scenario["name"]
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    resolution = scenario.get("resolution", 1)
    if type(resolution) is not int or resolution < 1:
        raise ConfigError("scenario resolution must be a positive integer")
    for key in ("flow", "estimates"):
        if not isinstance(doc.get(key, {}), dict):
            raise ConfigError(f"the {key} section must be an object")

    flow_doc = doc.get("flow", {})
    _reject_unknown(flow_doc, _FLOW_KEYS, "flow")
    try:
        flow = FlowConfig(**flow_doc)
    except (FlowError, TypeError) as exc:
        raise ConfigError(f"invalid flow section: {exc}")

    heat_initial = doc.get("heat_initial")
    if heat_initial is not None and heat_initial not in HEAT_INITIAL_IDS:
        raise ConfigError(
            f"unknown heat_initial {heat_initial!r}; choose from {HEAT_INITIAL_IDS}"
        )
    if flow.heat != "none" and heat_initial is None:
        raise ConfigError("flow.heat requires a heat_initial id")

    est_doc = doc.get("estimates")
    estimates = None
    if est_doc is not None:
        _reject_unknown(est_doc, _ESTIMATE_KEYS, "estimates")
        est_doc = dict(est_doc)
        if isinstance(est_doc.get("center"), list):
            est_doc["center"] = tuple(est_doc["center"])
        try:
            estimates = EstimateParams(**est_doc)
        except (EstimateError, TypeError) as exc:
            raise ConfigError(f"invalid estimates section: {exc}")

    theorems = doc.get("theorems", [])
    if not isinstance(theorems, list):
        raise ConfigError("theorems must be a list of theorem ids")
    for tid in theorems:
        if tid not in THEOREM_IDS:
            raise ConfigError(f"unknown theorem id {tid!r}; choose from {THEOREM_IDS}")
    if theorems and estimates is None:
        raise ConfigError("theorem verification requires an estimates section")
    if theorems and heat_initial is None:
        raise ConfigError("theorem verification requires heat_initial data")

    seed = doc.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    cfg = RunConfig(dict(scenario), flow, heat_initial, estimates, tuple(theorems), seed)
    try:
        shape = cfg.build_metric().grid.shape
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid scenario parameters: {exc}")
    if estimates is not None:  # a node index on a 1-D grid, [i, j] on a 2-D one
        c = estimates.center if len(shape) > 1 else (estimates.center,)
        if type(c) is not tuple or len(c) != len(shape) or any(
                type(i) is not int or not 0 <= i < n for i, n in zip(c, shape)):
            raise ConfigError(f"estimates.center must be a node of the grid of shape {shape}")
    return cfg
