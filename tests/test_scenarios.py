import numpy as np
import pytest

from nullflow.scenarios import (
    ScenarioError,
    build_scenario_metric,
    flat_torus_metric,
    sphere_metric,
    torus_bump_conformal_factor,
    torus_bump_metric,
)


def test_round_sphere_components():
    m = build_scenario_metric("round-sphere", radius=1.0, resolution=32)
    th = m.grid.axes[0]
    assert np.allclose(m.comps[..., 0, 0], 1.0)
    assert np.allclose(m.comps[..., 1, 1], np.sin(th) ** 2)
    assert np.max(np.abs(m.comps[..., 0, 1])) == 0.0


def test_flat_torus_identity():
    m = build_scenario_metric("flat-torus", side=2 * np.pi, resolution=16)
    eye = np.zeros_like(m.comps)
    eye[..., 0, 0] = eye[..., 1, 1] = 1.0
    assert np.array_equal(m.comps, eye)


def test_torus_bump_matches_closed_form():
    amp = 0.2
    m = build_scenario_metric("torus-bump", amp=amp, resolution=24)
    x, y = m.grid.coordinate_fields()
    factor = torus_bump_conformal_factor(amp, x, y)
    assert np.allclose(m.comps[..., 0, 0], factor)
    assert np.allclose(m.comps[..., 1, 1], factor)
    m.require_positive_definite()


def test_invalid_scenario_inputs():
    with pytest.raises(ScenarioError):
        build_scenario_metric("klein-bottle")
    with pytest.raises(ScenarioError):
        sphere_metric(-1.0, 16)
    with pytest.raises(ScenarioError):
        torus_bump_metric(1.5, 16)
    with pytest.raises(ScenarioError):
        flat_torus_metric(side=-1.0)
    with pytest.raises(ScenarioError):
        build_scenario_metric("round-sphere", radius=1.0, warp=2.0)


@pytest.mark.parametrize("name, key, value", [
    ("round-sphere", "radius", True), ("round-sphere", "radius", "1"),
    ("round-sphere", "radius", np.inf), ("flat-torus", "side", False),
    ("flat-torus", "side", np.nan), ("torus-bump", "amp", True), ("torus-bump", "amp", "0.2"),
])
def test_scenario_parameters_must_be_finite_numbers(name, key, value):
    with pytest.raises(ScenarioError, match="must be a finite number"):
        build_scenario_metric(name, **{key: value, "resolution": 16})
