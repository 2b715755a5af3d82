import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nullflow.config import parse_config
from nullflow.estimates import (
    A_SLACK,
    THEOREM_IDS,
    EstimateError,
    EstimateParams,
    _harnack,
    _smoothstep,
    _smoothstep_d1,
    _smoothstep_d2,
    bound_alpha_one,
    bound_backward_thm,
    bound_forward_thm,
    bound_global_forward,
    bound_local_forward,
    build_cutoff,
    operational_constants,
    time_derivative,
    verify,
)
from nullflow.flow import CurvatureBounds, FlowConfig, FlowTrajectory, run_flow
from nullflow.grids import ScalarField
from nullflow.metric import LeafMetric, grad_norm_sq
from nullflow.report import estimate_report_doc, render_json
from nullflow.scenarios import flat_torus_metric, sphere_metric

CERT = build_cutoff(samples=100_001)


# --- cutoff ---------------------------------------------------------------


def cutoff_profile(s):
    """C^2 profile: 1 on [0,1], quintic smoothstep down to 0 at 2."""
    s = np.asarray(s, dtype=float)
    out = np.ones_like(s)
    mid = (s > 1.0) & (s < 2.0)
    out[mid] = _smoothstep(2.0 - s[mid])
    out[s >= 2.0] = 0.0
    return out


def _cutoff_d1(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 1.0) & (s < 2.0)
    out[mid] = _smoothstep_d1(2.0 - s[mid])
    return out


def _cutoff_d2(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 1.0) & (s < 2.0)
    out[mid] = _smoothstep_d2(2.0 - s[mid])
    return out


def test_cutoff_plateau_and_support():
    assert cutoff_profile(0.5) == 1.0
    assert cutoff_profile(3.0) == 0.0
    s = np.linspace(0.0, 2.5, 1001)
    psi = cutoff_profile(s)
    assert np.all(psi >= 0.0) and np.all(psi <= 1.0)
    assert np.all(np.diff(psi) <= 1e-12)  # nonincreasing


def test_cutoff_certificate_against_dense_oracle():
    # independent dense-sampling oracle: raw finite differences of psi
    s = np.linspace(1.0, 2.0, 1_000_001)
    psi = cutoff_profile(s)
    h = s[1] - s[0]
    d1 = np.gradient(psi, h)
    d2 = np.gradient(d1, h)
    c1_oracle = np.max(-d2[5:-5])
    pos = psi[5:-5] > 1e-12
    c2_oracle = np.max(d1[5:-5][pos] ** 2 / psi[5:-5][pos])
    assert CERT.c1 >= c1_oracle * 0.999
    assert CERT.c1 <= c1_oracle * 1.2
    assert CERT.c2 >= c2_oracle * 0.999
    assert CERT.c2 <= c2_oracle * 1.2


# 1,001 and 2,001 samples put a node exactly on s = 1 and s = 2; 131,075
# put one on s = 1 and fill exactly 8 slices; 777,778 end with a short slice
@pytest.mark.parametrize("samples", [8, 1_001, 2_001, 10_001, 100_001, 131_075, 777_778, 1_000_000])
def test_cutoff_certificate_equals_unsliced_computation(samples):
    s = np.linspace(0.0, 2.0, samples)
    psi = cutoff_profile(s)
    pos = psi > 0.0
    c1 = max(float(np.max(-_cutoff_d2(s))), 0.0) * 1.05
    c2 = float(np.max(_cutoff_d1(s[pos]) ** 2 / psi[pos])) * 1.05
    tracemalloc.start()
    try:
        cert = build_cutoff(samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.c1, cert.c2, cert.samples) == (c1, c2, samples)
    assert peak < 3e6  # the whole linspace alone is 8 MB at 10^6 samples


def test_operational_constants_structure():
    consts = operational_constants(CERT)
    assert consts["c3"] == max(consts["c1"], consts["c2"])
    assert consts["c4"] == 2 * consts["c3"]
    assert consts["c_n"] == 2 * consts["c4"]


# --- params ---------------------------------------------------------------


def test_params_constraint_enforced():
    EstimateParams(alpha=2.0, p=3.0, q=6.0)  # 1/3 + 1/6 = 1/2
    with pytest.raises(EstimateError):
        EstimateParams(alpha=2.0, p=3.0, q=5.0)
    with pytest.raises(EstimateError):
        EstimateParams(alpha=0.5, p=1.0, q=1.0)


@pytest.mark.parametrize("field, value", [
    ("A", "x"), ("A", True), ("A", -1), ("A", 0.0), ("A", float("nan")), ("A", float("inf")),
    ("ricci_upper", "x"), ("ricci_upper", False), ("ricci_upper", -5.0),
    ("ricci_upper", float("nan")), ("ricci_upper", float("inf")),
])
def test_estimate_params_reject_malformed_constants(field, value):
    EstimateParams(**{field: 2})
    with pytest.raises(EstimateError, match=f"{field} must be a finite number"):
        EstimateParams(**{field: value})


# --- pointwise quantities -------------------------------------------------


def harnack_quantity(m, u, u_t, alpha, t):
    """G = t (|grad f|^2 - alpha f_t) as verify forms it, from |grad u|^2/u^2."""
    return _harnack(grad_norm_sq(m, u) / u**2, u, u_t, alpha, t)


def test_harnack_quantity_chain_rule_exact():
    m = flat_torus_metric(n=32)
    x, _ = m.grid.coordinate_fields()
    u = 2.0 + np.sin(x)
    u_t = -0.3 * np.sin(x)
    alpha = 1.7

    for t in (0.2, 1.0):
        G = harnack_quantity(m, u, u_t, alpha, t)
        direct = t * (grad_norm_sq(m, u) / u**2 - alpha * u_t / u)
        assert np.max(np.abs(G - direct)) < 1e-12


def test_harnack_quantity_constant_in_space():
    m = flat_torus_metric(n=16)
    lam = 0.4
    u = np.full(m.grid.shape, 2.0)
    G = harnack_quantity(m, u, -lam * u, 1.5, 2.0)
    assert np.max(np.abs(G - 2.0 * 1.5 * lam)) < 1e-13


def test_harnack_alpha_linearity():
    m = flat_torus_metric(n=16)
    x, _ = m.grid.coordinate_fields()
    u = 2.0 + np.sin(x)
    u_t = 0.1 * np.cos(x)
    t = 0.7
    G1 = harnack_quantity(m, u, u_t, 1.0, t)
    G2 = harnack_quantity(m, u, u_t, 2.5, t)
    assert np.max(np.abs((G2 - G1) + 1.5 * t * u_t / u)) < 1e-13


def test_flat_torus_exact_mode_substitution():
    # u = 2 + e^{-t} sin x at x = pi/2, t = 1, alpha = 1
    n = 256
    m = flat_torus_metric(n=n)
    x, _ = m.grid.coordinate_fields()
    t = 1.0
    u = 2.0 + np.exp(-t) * np.sin(x)
    u_t = -np.exp(-t) * np.sin(x)
    G = harnack_quantity(m, u, u_t, 1.0, t)
    i = n // 4  # x = pi/2
    expected = t * (0.0 + np.exp(-1.0) / (2.0 + np.exp(-1.0)))
    assert abs(G[i, 0] - expected) < 1e-3


# --- bound evaluators against substitution oracles ------------------------


def test_bound_backward_substitution():
    u = np.array([1.0])
    A = 1.0
    rhs = bound_backward_thm(0.1, CurvatureBounds(0.0, 0.0, 0.0), 2.0, CERT, A, u)
    assert abs(rhs[0] - (10.0 + CERT.c2 / 4.0)) < 1e-12
    b = CurvatureBounds(0.3, 0.7, 1.1)
    rho, t = 1.5, 0.25
    rhs = bound_backward_thm(t, b, rho, CERT, A, u)
    oracle = 1.0 / t + CERT.c2 * 0.3 + 4 * 0.7 + 2 * 1.1 + (rho * CERT.c1 * np.sqrt(0.7) + CERT.c2) / rho**2
    assert abs(rhs[0] - oracle) < 1e-12


def test_bound_forward_substitution_and_scaling():
    u = np.array([1.0])
    rhs1 = bound_forward_thm(1.0, 0.0, 0.0, 1.0, CERT, 1.0, u)[0]
    assert abs(rhs1 - (1.0 + CERT.c2)) < 1e-12
    rhs2 = bound_forward_thm(1.0, 0.0, 0.0, 2.0, CERT, 1.0, u)[0]
    assert abs((rhs2 - 1.0) - (rhs1 - 1.0) / 4.0) < 1e-12  # doubling rho quarters c2/rho^2


def test_bound_prefactor_is_one_at_u_equals_A():
    u = np.array([3.0])
    rhs = bound_forward_thm(0.5, 0.0, 0.0, 1.0, CERT, 3.0, u)[0]
    assert abs(rhs - (2.0 + CERT.c2)) < 1e-12


def test_bound_local_substitution():
    c = operational_constants(CERT)["c3"]
    val = bound_local_forward(1.0, CurvatureBounds(0.0, 0.0, 0.0), 1.0, 2.0, 4.0, 4.0, c)
    assert abs(val - (4.0 + c * 4.0 * (16.0 + 1.0))) < 1e-12
    with pytest.raises(EstimateError):
        bound_local_forward(1.0, CurvatureBounds(0, 0, 0), 1.0, 1.0, 2.0, 2.0, c)


def test_bound_global_substitution():
    assert abs(bound_global_forward(1.0, 0.0, 0.0, 2.0, 4.0, 4.0) - 4.0) < 1e-12
    # nonnegative-Ricci branch at alpha = 1, p = q = 2: 1/t + 2 rho
    assert abs(bound_global_forward(2.0, 0.3, None, 1.0, 2.0, 2.0) - (0.5 + 0.6)) < 1e-12


def test_bound_alpha_one_substitution():
    assert abs(bound_alpha_one(1.0, 0.0) - 1.0) < 1e-15
    assert abs(bound_alpha_one(0.5, 1.0) - 4.0) < 1e-15


def test_bounds_monotone_in_t_and_rho():
    ts = np.linspace(0.1, 2.0, 20)
    vals = [bound_alpha_one(t, 0.5) for t in ts]
    assert np.all(np.diff(vals) < 0)
    rhos = np.linspace(0.0, 2.0, 20)
    u = np.array([1.0])
    vals = [bound_backward_thm(1.0, CurvatureBounds(r, r, r), 1.0, CERT, 1.0, u)[0] for r in rhos]
    assert np.all(np.diff(vals) > 0)


# --- verification sweeps --------------------------------------------------


def _static_heat_trajectory(metric, u_fn, times):
    heats = [ScalarField(metric.grid, u_fn(t)) for t in times]
    return FlowTrajectory(np.asarray(times), [metric] * len(times), heats, "reached-t_end")


def test_verify_flat_torus_classical_holds():
    m = flat_torus_metric(n=48)
    x, _ = m.grid.coordinate_fields()
    times = np.linspace(0.05, 1.0, 20)
    traj = _static_heat_trajectory(m, lambda t: 2.0 + np.exp(-t) * np.sin(x), times)
    rep = verify(traj, "li-yau", EstimateParams(rho=1.0, center=(0, 0), ricci_upper=0.0), cert=CERT)
    assert rep.status == "holds"
    assert rep.min_margin >= -1e-6


def test_verify_constant_data_trivial():
    m = flat_torus_metric(n=16)
    times = np.linspace(0.1, 1.0, 5)
    traj = _static_heat_trajectory(m, lambda t: np.full(m.grid.shape, 2.0), times)
    rep = verify(traj, "li-yau", EstimateParams(rho=1.0, center=(0, 0), ricci_upper=0.0), cert=CERT)
    assert rep.status == "holds"
    # LHS is identically zero, so every margin equals the bound n/(2t)
    assert abs(rep.min_margin - 2.0 / (2.0 * 1.0)) < 1e-12


def test_verify_fault_injection_pinpoints_node():
    m = flat_torus_metric(n=32)
    x, _ = m.grid.coordinate_fields()
    times = np.linspace(0.05, 0.5, 12)
    u_series = [2.0 + np.exp(-t) * np.sin(x) for t in times]
    # corrupt one node at one interior time
    k_bad, node_bad = 6, (5, 7)
    u_series[k_bad] = u_series[k_bad].copy()
    u_series[k_bad][node_bad] *= 2.0
    heats = [ScalarField(m.grid, u) for u in u_series]
    traj = FlowTrajectory(np.asarray(times), [m] * len(times), heats, "reached-t_end")
    rep = verify(traj, "li-yau", EstimateParams(rho=1.0, center=(0, 0), ricci_upper=0.0), cert=CERT)
    assert rep.status == "violated"
    flat_bad = node_bad[0] * 32 + node_bad[1]
    # the corrupted node must appear among the worst violations, at the
    # corrupted sample or its time-stencil neighbours
    hits = [(k, node) for k, node, _, _ in rep.violations]
    assert any(node == flat_bad and abs(k - k_bad) <= 1 for k, node in hits)


def test_verify_fails_closed_past_heat_horizon():
    # the golden run freezes u past heat_t_max; A must come from the live
    # heat samples, or A = NaN makes every log-gradient RHS NaN and a
    # spiked u still reports `holds`
    cfg = parse_config((Path(__file__).parent / "data" / "golden_config.json").read_text())
    metric = cfg.build_metric()
    traj = run_flow(metric, cfg.flow, u0=cfg.build_heat_initial(metric))
    assert traj.heat_valid_until is not None
    traj.heat_fields[2].values[24] *= 3.0
    rep = verify(traj, "log-gradient-forward", cfg.estimates, cert=CERT)
    assert np.isfinite(rep.constants["A"])
    assert rep.status == "violated"
    assert -180.0 < rep.min_margin < -170.0
    # an explicit non-finite A is an error, never a verdict: EstimateParams
    # refuses it, and verify still fails closed on one set afterwards
    with pytest.raises(EstimateError, match="A must be a finite number"):
        dataclasses.replace(cfg.estimates, A=float("nan"))
    nan_a = dataclasses.replace(cfg.estimates)
    nan_a.A = float("nan")
    with pytest.raises(EstimateError, match="non-finite"):
        verify(traj, "log-gradient-forward", nan_a, cert=CERT)


def test_verify_measures_distances_of_live_samples_only(monkeypatch):
    import nullflow.estimates as estimates

    cfg = parse_config((Path(__file__).parent / "data" / "golden_config.json").read_text())
    metric = cfg.build_metric()
    traj = run_flow(metric, cfg.flow, u0=cfg.build_heat_initial(metric))
    live = int(np.count_nonzero(traj.times <= traj.heat_valid_until + 1e-12))
    assert 1 < live < len(traj.times)
    centers = []
    distance = estimates.geodesic_distance
    monkeypatch.setattr(estimates, "geodesic_distance",
                        lambda m, c, limit: centers.append(c) or distance(m, c, limit))
    rep = verify(traj, "li-yau", cfg.estimates, cert=CERT)
    assert len(centers) == live
    assert [t for t, _ in rep.extra["margin_by_time"]] == list(traj.times[1:live])


_TORUS_HEAT = {
    "scenario": {"name": "torus-bump", "amp": 0.3, "resolution": 16},
    "flow": {"t_end": 0.1, "dt_initial": 0.002, "heat": "heat", "sample_every": 10},
    "heat_initial": "cosine-mode",
    "estimates": {"alpha": 2.0, "p": 4.0, "q": 4.0, "rho": 0.8, "center": [3, 12]},
}


def _torus_heat_run(**flow):
    """A torus-bump n = 16 forward heat run (6 samples, all live by default)."""
    doc = json.loads(json.dumps(_TORUS_HEAT))
    doc["flow"].update(flow)
    cfg = parse_config(json.dumps(doc))
    metric = cfg.build_metric()
    return cfg, run_flow(metric, cfg.flow, u0=cfg.build_heat_initial(metric))


def _count_distance_calls(monkeypatch):
    """The (center, limit) of each distance verify asks for."""
    import nullflow.estimates as estimates

    calls = []
    distance = estimates.geodesic_distance
    monkeypatch.setattr(estimates, "geodesic_distance",
                        lambda m, c, limit: calls.append((tuple(c), limit)) or distance(m, c, limit))
    return calls


def test_verify_shares_distances_across_theorems(monkeypatch):
    cfg, traj = _torus_heat_run()
    calls = _count_distance_calls(monkeypatch)
    shared = [verify(traj, tid, cfg.estimates, cert=CERT) for tid in THEOREM_IDS]
    # once per live sample, not once per theorem, searched up to the cube radius 2 rho
    assert calls == [((3, 12), 1.6)] * len(traj.times)
    assert list(traj.sweeps) == [((3, 12), 0.8)]
    for rep in shared:  # every field as on a trajectory that verifies this theorem alone
        _, fresh = _torus_heat_run()
        alone = verify(fresh, rep.theorem, cfg.estimates, cert=CERT)
        np.testing.assert_equal(dataclasses.asdict(rep), dataclasses.asdict(alone))
    assert len(calls) == len(traj.times) * (1 + len(THEOREM_IDS))


def test_verify_measures_a_second_center_afresh(monkeypatch):
    cfg, traj = _torus_heat_run()
    first = verify(traj, "log-gradient-forward", cfg.estimates, cert=CERT)
    other = dataclasses.replace(cfg.estimates, center=(10, 4))
    calls = _count_distance_calls(monkeypatch)
    rep = verify(traj, "log-gradient-forward", other, cert=CERT)
    assert calls == [((10, 4), 1.6)] * len(traj.times)
    assert list(traj.sweeps) == [((3, 12), 0.8), ((10, 4), 0.8)]
    assert rep.min_margin != first.min_margin
    _, fresh = _torus_heat_run()
    alone = verify(fresh, "log-gradient-forward", other, cert=CERT)
    np.testing.assert_equal(dataclasses.asdict(rep), dataclasses.asdict(alone))


def test_verify_measures_a_second_rho_afresh(monkeypatch):
    cfg, traj = _torus_heat_run()
    first = verify(traj, "harnack-local", cfg.estimates, cert=CERT)
    smaller = dataclasses.replace(cfg.estimates, rho=0.5)
    calls = _count_distance_calls(monkeypatch)
    rep = verify(traj, "harnack-local", smaller, cert=CERT)
    assert calls == [((3, 12), 1.0)] * len(traj.times)
    assert list(traj.sweeps) == [((3, 12), 0.8), ((3, 12), 0.5)]
    assert rep.admissible_points < first.admissible_points
    _, fresh = _torus_heat_run()
    alone = verify(fresh, "harnack-local", smaller, cert=CERT)
    np.testing.assert_equal(dataclasses.asdict(rep), dataclasses.asdict(alone))


def test_five_theorem_verify_matches_verify_without_any_cache():
    # one trajectory carries the flow's packs (with K) and the shared sweep;
    # a copy of its samples carries neither
    cfg, traj = _torus_heat_run()
    # the flow's first RK stage of each step computed K on the pack of its metric
    assert ["K" in vars(p) for p in traj.curvatures] == [True] * 5 + [False]
    shared = [verify(traj, tid, cfg.estimates, cert=CERT) for tid in THEOREM_IDS]
    for rep in shared:
        bare = FlowTrajectory(
            traj.times.copy(), [LeafMetric(m.grid, m.comps.copy()) for m in traj.metrics],
            [ScalarField(f.grid, f.values.copy()) for f in traj.heat_fields], traj.termination,
        )
        alone = verify(bare, rep.theorem, cfg.estimates, cert=CERT)
        assert render_json(estimate_report_doc(rep)) == render_json(estimate_report_doc(alone))


def test_verify_of_forward_heat_run_builds_no_pack_for_a_live_sample(monkeypatch):
    import nullflow.flow as flow

    cfg = parse_config((Path(__file__).parent / "data" / "golden_config.json").read_text())
    metric = cfg.build_metric()
    golden = run_flow(metric, cfg.flow, u0=cfg.build_heat_initial(metric))
    live = int(np.count_nonzero(golden.times <= golden.heat_valid_until + 1e-12))
    # the run hands over the pack of each sample inside the heat horizon, where it is current
    assert [p is not None for p in golden.curvatures] == [k < live for k in range(len(golden.times))]
    assert all(p.metric is m for p, m in zip(golden.curvatures[:live], golden.metrics))
    torus_cfg, torus = _torus_heat_run()
    built = []
    curvature_pack = flow.curvature_pack
    monkeypatch.setattr(flow, "curvature_pack", lambda m: built.append(m) or curvature_pack(m))
    verify(golden, "li-yau", cfg.estimates, cert=CERT)
    for tid in THEOREM_IDS:
        verify(torus, tid, torus_cfg.estimates, cert=CERT)
    assert built == []


def test_verify_with_cached_packs_never_inverts_a_metric(monkeypatch):
    from nullflow.metric import LeafMetric

    cfg, traj = _torus_heat_run()
    inverted = []
    inverse = LeafMetric.inverse
    monkeypatch.setattr(LeafMetric, "inverse", lambda self: inverted.append(self) or inverse(self))
    for tid in THEOREM_IDS:  # g^-1 comes from the sample's pack in K, |grad Scal'| and the LHS
        verify(traj, tid, cfg.estimates, cert=CERT)
    assert inverted == []


@pytest.mark.parametrize("flow", [
    {"t_end": 0.01, "dt_initial": 1e-4, "sample_every": 100},  # 2 stored samples
    {"heat_t_max": 0.03},  # 6 stored samples, u frozen past the second
], ids=["two-samples", "two-live-samples"])
def test_verify_needs_three_live_heat_samples(flow):
    cfg, traj = _torus_heat_run(**flow)
    with pytest.raises(EstimateError, match="at least 3 live heat samples, the trajectory has 2"):
        verify(traj, "log-gradient-forward", cfg.estimates, cert=CERT)


def test_verify_hypothesis_gate_blocks_conclusion():
    # li-yau requires nonnegative Ricci; a saddle-like bump region fails it
    from nullflow.scenarios import torus_bump_metric

    m = torus_bump_metric(0.4, 32)
    times = np.linspace(0.1, 0.5, 6)
    traj = _static_heat_trajectory(m, lambda t: np.full(m.grid.shape, 2.0), times)
    rep = verify(traj, "li-yau", EstimateParams(rho=1.0, center=(0, 0), ricci_upper=1.0), cert=CERT)
    assert rep.status == "hypothesis-violated"
    assert rep.failed_hypothesis == "ricci-nonnegative"
    assert np.isnan(rep.max_violation)


def test_verify_gates_explicit_ricci_upper_on_measured_curvature():
    # li-yau and alpha = 1 harnack-global use ricci_upper as the rho of
    # Ric' <= rho g'; on this run sup K = 1.64
    m = sphere_metric(1.0, 32)
    traj = run_flow(m, FlowConfig(t_end=0.2, dt_initial=1e-3, heat="heat", sample_every=20),
                    u0=ScalarField(m.grid, 2.0 + np.cos(m.grid.axes[0])))
    for theorem in ("li-yau", "harnack-global"):
        below = [EstimateParams(rho=0.7, center=16, ricci_upper=0.0),
                 EstimateParams(rho=0.7, center=16)]
        below[1].ricci_upper = -5.0  # the gate does not rely on the constructor's check
        for params in below:
            rep = verify(traj, theorem, params, cert=CERT)
            assert rep.measured_bounds["ricci_eig_sup"] == pytest.approx(1.6445, abs=1e-4)
            assert rep.status == "hypothesis-violated"
            assert rep.failed_hypothesis == "ricci-upper-bound"
        rep = verify(traj, theorem, EstimateParams(rho=0.7, center=16, ricci_upper=2.0), cert=CERT)
        assert rep.status == "holds"
        assert rep.min_margin == pytest.approx(8.2367, abs=1e-4)


@pytest.fixture(scope="module")
def torus_heat_run():
    return _torus_heat_run()


@pytest.mark.parametrize("theorem, params, gate", [
    ("log-gradient-backward", {"A": 1.5}, "u-upper-bound-A"),  # sup u is about 3
    ("log-gradient-forward", {"A": 1.5}, "u-upper-bound-A"),
    ("harnack-local", {"alpha": 1.0, "p": 2.0, "q": 2.0}, "alpha-greater-than-one"),
    ("li-yau", {}, "alpha-equals-one"),
    ("harnack-global", {"alpha": 1.0, "p": 2.0, "q": 2.0}, "ricci-nonnegative"),
    ("harnack-global", {}, None),  # alpha = 2 needs no sign of Ric'
])
def test_verify_gates_each_reachable_hypothesis(torus_heat_run, theorem, params, gate):
    cfg, traj = torus_heat_run
    rep = verify(traj, theorem, dataclasses.replace(cfg.estimates, **params), cert=CERT)
    assert rep.measured_bounds["neg_ricci_eig_sup"] > 0.01  # the bump's cube has K < 0
    assert rep.failed_hypothesis == gate
    if gate is None:
        assert rep.status == "holds"
        assert rep.admissible_points > 0
    else:
        assert rep.status == "hypothesis-violated"
        assert np.isnan(rep.max_violation) and np.isnan(rep.min_margin)
        assert rep.admissible_points == 0 and rep.violations == [] and rep.extra == {}


@pytest.fixture(scope="module")
def torus_64_heat_run():
    """torus-verify-64 at seed 1; at n = 32 harnack-local holds even at k = 10."""
    doc = json.loads(json.dumps(_TORUS_HEAT))
    doc["scenario"].update(amp=0.226066, resolution=64)
    doc["estimates"]["center"] = [11, 53]
    cfg = parse_config(json.dumps(doc))
    metric = cfg.build_metric()
    return cfg, run_flow(metric, cfg.flow, u0=cfg.build_heat_initial(metric))


def _with_u_scaled(traj, k, node):
    """A copy of the heat run with u at ``node`` of sample 3 (t = 0.06) times k."""
    heats = [ScalarField(f.grid, f.values.copy()) for f in traj.heat_fields]
    heats[3].values[node] *= k
    return FlowTrajectory(traj.times, traj.metrics, heats, traj.termination, curvatures=list(traj.curvatures))


# the smallest of the factors 2, 5 and 10 that flips each theorem; log-gradient-forward
# is shown failing on the golden run and li-yau on the flat torus above
@pytest.mark.parametrize("theorem, flip", [
    ("log-gradient-backward", 5.0),  # margin 46.6 unfaulted
    ("harnack-global", 5.0),  # 60.3
    ("harnack-local", 10.0),  # 1,700; still holds at 5 (1,518)
])
def test_negative_control_flips_theorem(torus_64_heat_run, theorem, flip):
    cfg, traj = torus_64_heat_run
    center = tuple(cfg.estimates.center)
    assert verify(_with_u_scaled(traj, 2.0, center), theorem, cfg.estimates, cert=CERT).status == "holds"
    rep = verify(_with_u_scaled(traj, flip, center), theorem, cfg.estimates, cert=CERT)
    assert rep.status == "violated"
    k_worst, node, _, _ = rep.violations[0]
    i, j = np.unravel_index(node, traj.grid.shape)
    assert k_worst == 3 and abs(i - center[0]) + abs(j - center[1]) <= 1


def test_verify_rejects_unknown_theorem():
    m = flat_torus_metric(n=16)
    times = np.linspace(0.1, 0.5, 4)
    traj = _static_heat_trajectory(m, lambda t: np.full(m.grid.shape, 2.0), times)
    with pytest.raises(EstimateError):
        verify(traj, "mean-value", EstimateParams(), cert=CERT)


def test_verify_backward_sweep_on_sphere_run():
    m = sphere_metric(1.0, 48)
    th = m.grid.axes[0]
    traj = run_flow(
        m,
        FlowConfig(direction="backward", t_end=0.3, dt_initial=1e-3,
                   heat="conjugate-heat", sample_every=30),
        u0=ScalarField(m.grid, 2.0 + np.cos(th)),
    )
    rep = verify(traj, "log-gradient-backward", EstimateParams(rho=0.5, center=24), cert=CERT)
    assert rep.status == "holds"
    assert rep.extra["rhs_proof_variant_min"] > 0.0


def test_verify_forward_sweep_on_sphere_run():
    m = sphere_metric(1.0, 48)
    th = m.grid.axes[0]
    traj = run_flow(
        m,
        FlowConfig(t_end=0.3, dt_initial=1e-3, heat="heat", sample_every=30),
        u0=ScalarField(m.grid, 2.0 + np.cos(th)),
    )
    rep = verify(traj, "log-gradient-forward", EstimateParams(rho=0.5, center=24), cert=CERT)
    assert rep.status == "holds"


def test_time_derivative_matches_smooth_series():
    times = np.linspace(0.0, 1.0, 21)
    series = np.exp(-2.0 * times)[:, None] * np.ones((1, 4))
    d = time_derivative(times, series)
    exact = -2.0 * series
    assert np.max(np.abs(d - exact)[1:-1]) < 5e-3


# --- closed-form margins on the round sphere ------------------------------

# forward flow of the unit sphere with plain heat from u0 = 2 + cos(theta):
# r^2 = 1 - 2t and u = 2 + (1 - 2t) cos(theta), so |grad u|^2 = (1 - 2t) sin^2(theta),
# u_t = -2 cos(theta), K = 1/r^2 is constant in space and rho1 = rho2 = rho3 = 0
_SPHERE_RHO, _SPHERE_T = 0.7, 0.3
_SPHERE_PARAMS = {
    "li-yau": EstimateParams(rho=_SPHERE_RHO),
    "log-gradient-forward": EstimateParams(rho=_SPHERE_RHO),
    "harnack-global": EstimateParams(alpha=2.0, p=4.0, q=4.0, rho=_SPHERE_RHO),
    "harnack-local": EstimateParams(alpha=2.0, p=4.0, q=4.0, rho=_SPHERE_RHO),
}


def _sphere_exact_margin(theorem, times, theta_c):
    """min of RHS - LHS over the samples t > 0 and the continuum cube
    |theta - theta_c| <= 2 rho / r, on a fine theta grid of [0, pi]."""
    par = _SPHERE_PARAMS[theorem]
    theta = np.linspace(0.0, np.pi, 100_001)
    A = (1.0 + A_SLACK) * 3.0  # sup u is u0 at theta = 0
    ricci_upper = (1.0 + 1e-9) / (1.0 - 2.0 * times[-1])  # sup K, at the last sample
    margin = np.inf
    for t in times[times > 0.0]:
        a = 1.0 - 2.0 * t
        th = theta[np.abs(theta - theta_c) <= 2.0 * par.rho / np.sqrt(a)]
        u = 2.0 + a * np.cos(th)
        log_grad_sq = a * np.sin(th) ** 2 / u**2
        if theorem == "log-gradient-forward":
            lhs, rhs = log_grad_sq, bound_forward_thm(t, 0.0, 0.0, par.rho, CERT, A, u)
        else:
            lhs = log_grad_sq + par.alpha * 2.0 * np.cos(th) / u
            if theorem == "li-yau":
                rhs = bound_alpha_one(t, ricci_upper)
            elif theorem == "harnack-global":
                rhs = bound_global_forward(t, 0.0, 0.0, par.alpha, par.p, par.q)
            else:
                c3 = operational_constants(CERT)["c3"]
                rhs = bound_local_forward(t, CurvatureBounds(), par.rho, par.alpha, par.p, par.q, c3)
        margin = min(margin, float(np.min(rhs - lhs)))
    return margin


def test_sphere_margins_converge_to_the_closed_form():
    """The forward theorems' min margins differ from the continuum ones by
    O(h^2): samples every 0.05 to T = 0.3, centre n/2, rho = 0.7."""
    errors = {}
    for n, dt in ((24, 1e-3), (48, 5e-4)):
        m = sphere_metric(1.0, n)
        traj = run_flow(m, FlowConfig(t_end=_SPHERE_T, dt_initial=dt, heat="heat",
                                      sample_every=round(0.05 / dt)),
                        u0=ScalarField(m.grid, 2.0 + np.cos(m.grid.axes[0])))
        assert np.allclose(traj.times, np.arange(7) * 0.05)
        for theorem, par in _SPHERE_PARAMS.items():
            rep = verify(traj, theorem, dataclasses.replace(par, center=n // 2), cert=CERT)
            exact = _sphere_exact_margin(theorem, traj.times, m.grid.axes[0][n // 2])
            errors[theorem, n] = rep.min_margin - exact
    for theorem in _SPHERE_PARAMS:
        assert abs(errors[theorem, 48]) <= 0.05, (theorem, errors)
        assert errors[theorem, 24] / errors[theorem, 48] >= 3.5, (theorem, errors)
