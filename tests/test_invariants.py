"""What a correct run keeps: the torus's area and Gauss-Bonnet, the round
sphere's K = 1 / w and collapse time, and second-order convergence of the torus fields to a Fourier
reference solve.

Under dg/dt = -2K g the area obeys dA/dt = -4 pi chi (Hamilton, "The Ricci
flow on surfaces", 1988), so a torus keeps its area and its total curvature
0, and a sphere collapses at T* = t + A / (2 int K dA), read off any sample.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from fourier_reference import flow_and_heat
from nullflow.config import parse_config
from nullflow.flow import run_flow

GOLDEN_CONFIG = Path(__file__).parent / "data" / "golden_config.json"


def _torus_config(name):
    spec = importlib.util.spec_from_file_location(
        "nullbench_workloads", Path(__file__).parents[1] / "nullbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.torus_config(name, 0)


def _run(doc):
    cfg = parse_config(json.dumps(doc))
    metric = cfg.build_metric()
    return run_flow(metric, cfg.flow, u0=cfg.build_heat_initial(metric))


@pytest.mark.parametrize("name", ["torus-verify-64", "torus-backward-128"])
def test_torus_keeps_its_area_and_zero_total_curvature(name):
    traj = _run(_torus_config(name))
    cell = np.prod(traj.grid.spacings)
    areas = [float(np.sum(m.w) * cell) for m in traj.metrics]
    assert len(areas) > 2
    for k, (metric, area) in enumerate(zip(traj.metrics, areas)):
        assert abs(area - areas[0]) <= 1e-14 * areas[0]
        # w K = -1/2 Delta0 log w telescopes on the periodic stencil
        assert abs(np.sum(traj.curvature(k).K * metric.w) * cell) <= 1e-14 * area


def test_golden_sphere_collapse_time_is_the_same_at_every_sample():
    # the unit sphere collapses at r^2 / 2
    traj = _run(json.loads(GOLDEN_CONFIG.read_text()))
    collapse = []
    for k, metric in enumerate(traj.metrics):
        # dA = sqrt(g00 g11) dtheta dphi; the 2 pi of dphi cancels
        dA = np.sqrt(metric.comps[..., 0, 0] * metric.comps[..., 1, 1]) * traj.grid.spacings[0]
        collapse.append(traj.times[k] + np.sum(dA) / (2.0 * np.sum(traj.curvature(k).K * dA)))
    assert len(collapse) > 5
    assert max(abs(t - 0.5) for t in collapse) <= 1e-12


def test_golden_round_sphere_has_k_one_over_w_at_every_sample():
    # w g_round with a uniform w: Delta_0 log w is exactly 0, so K = 1 / w, the flow
    # keeps w uniform to the bit, and the run ends singular at r^2 / 2
    traj = _run(json.loads(GOLDEN_CONFIG.read_text()))
    assert len(traj.metrics) == 10 and traj.termination == "singular"
    assert traj.singular_time == pytest.approx(0.5, abs=1e-12)
    for k, metric in enumerate(traj.metrics):
        assert np.all(metric.w == metric.w[0]) and metric.w[0] == pytest.approx(1.0 - 2.0 * traj.times[k], abs=1e-12)
        assert np.array_equal(traj.curvature(k).K * metric.w, np.ones(traj.grid.shape))


def test_torus_fields_converge_to_the_fourier_reference_at_order_two():
    doc = _torus_config("torus-verify-64")
    docs = {n: {"scenario": dict(doc["scenario"], resolution=n), "flow": doc["flow"],
                "heat_initial": doc["heat_initial"]} for n in (32, 48, 64, 128)}
    assert doc["flow"]["t_end"] == 0.1

    def reference(n):
        cfg = parse_config(json.dumps(docs[n]))
        metric = cfg.build_metric()
        return flow_and_heat(metric.w, cfg.build_heat_initial(metric).values, 0.1, 400)

    w_ref, u_ref = reference(32)
    # the reference itself is resolved: n = 48 shares every other n = 32 node
    w48, u48 = reference(48)
    assert np.max(np.abs(w48[::3, ::3] - w_ref[::2, ::2])) < 1e-12
    assert np.max(np.abs(u48[::3, ::3] - u_ref[::2, ::2])) < 1e-12

    errors = []
    for n in (32, 64, 128):
        traj = _run(docs[n])
        assert traj.times[-1] == 0.1
        s = n // 32
        errors.append((np.max(np.abs(traj.metrics[-1].w[::s, ::s] - w_ref)),
                       np.max(np.abs(traj.heat_fields[-1].values[::s, ::s] - u_ref))))
    errors = np.array(errors)
    assert np.all(errors[:-1] / errors[1:] >= 3.9), errors
