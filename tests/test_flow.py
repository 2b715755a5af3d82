from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import node_major_reference as ref

from nullflow.flow import (
    CurvatureBounds,
    FlowConfig,
    FlowError,
    FlowTrajectory,
    curvature_suprema,
    measure_curvature_bounds,
    metric_equivalence_check,
    run_flow,
    solve_conjugate_heat,
    solve_heat,
    step_flow,
)
from nullflow.grids import ScalarField
from nullflow.metric import LeafMetric, MetricError, curvature, gradient
from nullflow.scenarios import flat_torus_metric, sphere_metric, torus_bump_metric


def test_flat_torus_single_step_is_stationary():
    m = flat_torus_metric(n=16)
    out = step_flow(m, "forward", 0.1)
    assert np.max(np.abs(out.comps - m.comps)) < 1e-15


def test_sphere_step_matches_radius_ode():
    # d(r^2)/dt = -2 forward, +2 backward
    m = sphere_metric(1.0, 64)
    dt = 1e-4
    mid = 32
    fwd = step_flow(m, "forward", dt)
    bwd = step_flow(m, "backward", dt)
    assert abs(fwd.comps[mid, 0, 0] - (1.0 - 2 * dt)) < 5e-3 * dt
    assert abs(bwd.comps[mid, 0, 0] - (1.0 + 2 * dt)) < 5e-3 * dt


def test_step_output_symmetric():
    m = sphere_metric(1.0, 32)
    out = step_flow(m, "forward", 1e-3)
    assert np.array_equal(out.comps[..., 0, 1], out.comps[..., 1, 0])


def test_config_validation():
    with pytest.raises(FlowError):
        FlowConfig(direction="sideways")
    with pytest.raises(FlowError):
        FlowConfig(t_end=-1.0)
    with pytest.raises(FlowError):
        FlowConfig(heat="steam")


def test_shrinking_sphere_tracks_closed_form():
    m = sphere_metric(1.0, 128)
    traj = run_flow(m, FlowConfig(t_end=0.45, dt_initial=1e-4, sample_every=500))
    assert traj.termination == "reached-t_end"
    mid = 64
    for t, mk in zip(traj.times, traj.metrics):
        r_num = np.sqrt(mk.comps[mid, 0, 0])
        assert abs(r_num - np.sqrt(1.0 - 2.0 * t)) / np.sqrt(1.0 - 2.0 * t) < 5e-3


def test_singularity_detection_near_half():
    traj = run_flow(sphere_metric(1.0, 48), FlowConfig(t_end=1.0, dt_initial=5e-4))
    assert traj.termination == "singular"
    assert abs(traj.singular_time - 0.5) < 1e-2


def test_flow_times_strictly_increasing_and_metrics_pd():
    traj = run_flow(sphere_metric(1.0, 32), FlowConfig(t_end=0.3, dt_initial=1e-3))
    assert np.all(np.diff(traj.times) > 0)
    for m in traj.metrics:
        assert m.is_positive_definite()


def test_rk4_order_under_dt_halving():
    # torus-bump has a genuinely nonlinear time dependence; global error
    # against a much finer reference should drop ~2^4 per dt halving
    errs = []
    for dt in (5e-3, 2.5e-3):
        traj = run_flow(torus_bump_metric(0.5, 16), FlowConfig(t_end=0.2, dt_initial=dt, sample_every=10**9))
        ref = run_flow(torus_bump_metric(0.5, 16), FlowConfig(t_end=0.2, dt_initial=dt / 16, sample_every=10**9))
        errs.append(np.max(np.abs(traj.metrics[-1].comps - ref.metrics[-1].comps)))
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_backward_run_grows_sphere():
    m = sphere_metric(1.0, 48)
    traj = run_flow(m, FlowConfig(direction="backward", t_end=0.3, dt_initial=1e-3, sample_every=30))
    mid = 24
    # r^2(t) = r^2(0) + 2t along the backward flow
    r2_0 = traj.metrics[0].comps[mid, 0, 0]
    for t, mk in zip(traj.times, traj.metrics):
        assert abs(mk.comps[mid, 0, 0] - (r2_0 + 2 * t)) < 5e-3
    assert abs(traj.metrics[-1].comps[mid, 0, 0] - 1.0) < 1e-12


def _check_one_curvature_pack_per_sample(monkeypatch, heat):
    import nullflow.flow as flow
    import nullflow.metric as metric_module
    from nullflow.estimates import EstimateParams, build_cutoff, verify

    calls, gammas = [], []
    build, christoffel = flow.curvature_pack, metric_module.christoffel
    monkeypatch.setattr(flow, "curvature_pack", lambda metric: calls.append(1) or build(metric))
    monkeypatch.setattr(metric_module, "christoffel", lambda m, *ginv: gammas.append(1) or christoffel(m, *ginv))
    m = sphere_metric(1.0, 32)
    traj = run_flow(
        m,
        FlowConfig(direction="backward", t_end=0.1, dt_initial=1e-3, heat=heat, sample_every=20),
        u0=ScalarField(m.grid, 2.0 + np.cos(m.grid.axes[0])),
    )
    assert len(calls) == len(gammas) == len(traj.times) == 6
    rep = verify(traj, "log-gradient-backward", EstimateParams(rho=0.5, center=16),
                 cert=build_cutoff(samples=10_001))
    assert rep.status == "holds"
    # verify reuses the heat solve's packs, so it builds none of its own
    assert len(calls) == len(gammas) == len(traj.times)


def test_conjugate_heat_builds_one_curvature_pack_per_sample(monkeypatch):
    _check_one_curvature_pack_per_sample(monkeypatch, "conjugate-heat")


def test_plain_heat_builds_one_curvature_pack_per_sample(monkeypatch):
    _check_one_curvature_pack_per_sample(monkeypatch, "heat")


def test_conjugate_heat_inverts_each_sample_metric_once(monkeypatch):
    m = torus_bump_metric(0.3, 16)
    traj = run_flow(m, FlowConfig(t_end=0.05, dt_initial=1e-2, sample_every=1))
    assert len(traj.times) == 6
    calls = []
    inverse = LeafMetric.inverse
    monkeypatch.setattr(LeafMetric, "inverse", lambda self: calls.append(self) or inverse(self))
    x, _ = m.grid.coordinate_fields()
    heats = solve_conjugate_heat(traj, ScalarField(m.grid, 2.0 + np.sin(x)))
    assert len(heats) == 6
    # Gamma, K and the Laplacian share one inverse per sample
    assert len(calls) == len({id(metric) for metric in calls}) == 6


def _reference_heat_substep(metric, u, dt, conjugate):
    """The per-stage algorithm: Laplace-Beltrami, and with it the Christoffel
    symbols and the inverse metric, rebuilt at every RK stage, on the
    node-major reference kernels (np.roll stencils, Hessian and einsum)."""
    scal = 2.0 * ref.gauss_curvature(metric) if conjugate else None

    def rhs(v):
        lap = ref.laplace_beltrami(metric, v)
        return lap if scal is None else lap - scal * v

    ginv = ref.inverse(metric)
    grid = metric.grid
    rate = sum(float(np.max(ginv[..., a, a])) / grid.spacings[a] ** 2 for a in range(grid.ndim_grid))
    if scal is not None:
        rate += float(np.max(np.abs(scal)))
    nsub = max(1, int(np.ceil(dt / (0.2 / rate))))
    h = dt / nsub
    for _ in range(nsub):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


@pytest.mark.parametrize("direction,heat", [
    ("forward", "heat"), ("forward", "conjugate-heat"), ("backward", "conjugate-heat"),
])
def test_shared_heat_operator_is_bit_identical_to_per_stage_rebuild(direction, heat):
    m = torus_bump_metric(0.3, 16)
    x, _ = m.grid.coordinate_fields()
    u0 = 2.0 + np.sin(x)
    config = FlowConfig(direction=direction, t_end=0.02, dt_initial=2e-3, heat=heat, sample_every=5)
    traj = run_flow(m, config, u0=ScalarField(m.grid, u0))
    conjugate = heat == "conjugate-heat"
    expected = [u0]
    if direction == "forward":  # Strang halves around every flow step, as run_flow takes them
        metric, u, t, step = m, u0, 0.0, 0
        while t < config.t_end - 1e-15:
            dt = min(config.dt_initial, config.t_end - t)
            u = _reference_heat_substep(metric, u, 0.5 * dt, conjugate)
            metric = step_flow(metric, direction, dt)
            u = _reference_heat_substep(metric, u, 0.5 * dt, conjugate)
            t += dt
            step += 1
            if step % config.sample_every == 0:
                expected.append(u)
    else:  # Strang halves between the stored samples
        u = u0
        for k in range(1, len(traj.times)):
            dt = traj.times[k] - traj.times[k - 1]
            u = _reference_heat_substep(traj.metrics[k - 1], u, 0.5 * dt, conjugate)
            u = _reference_heat_substep(traj.metrics[k], u, 0.5 * dt, conjugate)
            expected.append(u)
    assert len(traj.heat_fields) == len(expected) == 3
    for got, want in zip(traj.heat_fields, expected):
        assert np.array_equal(got.values, want)


def test_heat_builds_christoffel_symbols_once_per_metric(monkeypatch):
    import nullflow.metric as metric_module
    from nullflow.config import parse_config

    seen = []
    build = metric_module.christoffel
    monkeypatch.setattr(metric_module, "christoffel", lambda m, *ginv: seen.append(m) or build(m, *ginv))
    cfg = parse_config((Path(__file__).parent / "data" / "golden_config.json").read_text())
    m = cfg.build_metric()
    run_flow(m, cfg.flow, u0=cfg.build_heat_initial(m))
    # the heat runs to t = 0.3 in 600 steps of 5e-4, so it sees 601 metrics;
    # rebuilding the operator at every RK stage made 4,800 calls
    assert len(seen) == len({id(metric) for metric in seen}) == 601


def _sheared_bump(amp, n, eps):
    """Torus bump plus a smooth symmetric perturbation with g01 != 0."""
    base = torus_bump_metric(amp, n)
    x, y = base.grid.coordinate_fields()
    comps = base.comps.copy()
    comps[..., 0, 0] += eps * np.cos(x + y)
    comps[..., 0, 1] += eps * np.sin(x) * np.cos(y)
    comps[..., 1, 0] = comps[..., 0, 1]
    return LeafMetric(base.grid, comps)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_step_flow_from_the_metrics_pack_is_bit_identical(direction):
    for m in (sphere_metric(1.0, 32), torus_bump_metric(0.3, 16), _sheared_bump(0.3, 17, 0.2)):
        pack = curvature(m)
        out = step_flow(m, direction, 1e-3, pack)
        assert np.array_equal(out.comps, step_flow(m, direction, 1e-3).comps)
        assert "K" in vars(pack)  # stage 1 left K on the pack for later readers


@pytest.mark.parametrize("heat", ["heat", "none"])
def test_forward_heat_run_takes_stage_one_from_the_heat_pack(monkeypatch, heat):
    import nullflow.metric as metric_module

    seen = []
    build = metric_module.christoffel
    monkeypatch.setattr(metric_module, "christoffel", lambda m, *ginv: seen.append(m) or build(m, *ginv))
    m = torus_bump_metric(0.3, 16)
    x, _ = m.grid.coordinate_fields()
    config = FlowConfig(t_end=0.02, dt_initial=2e-3, heat=heat, sample_every=5)
    run_flow(m, config, u0=ScalarField(m.grid, 2.0 + np.sin(x)))
    # with heat: stages 2-4 and the new metric's pack per step (stage 1 reads
    # the current pack), plus the initial pack; without: all 4 stages
    assert len(seen) == 4 * 10 + (heat == "heat")


def test_backward_run_starts_at_exactly_zero():
    # 2,400 forward steps of 1.25e-4 sum to 0.3 - 1.9e-14; the clock must land on
    # t_end rather than take a rounding-sliver step
    traj = run_flow(sphere_metric(1.0, 8), FlowConfig(direction="backward", t_end=0.3, dt_initial=1.25e-4))
    assert traj.times[0] == 0.0
    assert len(traj.times) == 25
    fwd = run_flow(sphere_metric(1.0, 8), FlowConfig(t_end=0.3, dt_initial=1.25e-4))
    assert fwd.times[-1] == 0.3


def test_step_flow_validates_only_its_result(monkeypatch):
    import nullflow.flow as flow

    validated = []
    check = LeafMetric.__post_init__
    monkeypatch.setattr(LeafMetric, "__post_init__", lambda self: validated.append(1) or check(self))
    for m in (sphere_metric(1.0, 32), torus_bump_metric(0.3, 16)):
        for _ in range(3):
            validated.clear()
            m = step_flow(m, "forward", 1e-3)
            assert len(validated) == 1
    # a NaN step still fails closed on the checked result
    monkeypatch.setattr(flow, "ricci", lambda metric: np.full(metric.comps.shape, np.nan))
    with pytest.raises(MetricError, match="symmetric"):
        step_flow(m, "forward", 1e-3)


def test_cfl_adaptive_controller_runs():
    traj = run_flow(sphere_metric(1.0, 32), FlowConfig(t_end=0.2, dt_initial=0.05, dt_controller="cfl-adaptive"))
    assert traj.termination == "reached-t_end"
    mid = 16
    assert abs(traj.metrics[-1].comps[mid, 0, 0] - 0.6) < 5e-3


# --- heat coupling --------------------------------------------------------


def _static_trajectory(metric, t_end, n_samples):
    times = np.linspace(0.0, t_end, n_samples)
    return FlowTrajectory(times, [metric] * n_samples, None, "reached-t_end")


def test_heat_constant_data_stays_constant():
    m = flat_torus_metric(n=16)
    traj = _static_trajectory(m, 1.0, 11)
    series = solve_heat(traj, ScalarField(m.grid, np.full(m.grid.shape, 3.0)))
    assert np.max(np.abs(series[-1].values - 3.0)) < 1e-13


def test_heat_fourier_mode_on_static_torus():
    m = flat_torus_metric(n=64)
    x, y = m.grid.coordinate_fields()
    traj = _static_trajectory(m, 1.0, 41)
    series = solve_heat(traj, ScalarField(m.grid, 2.0 + np.sin(x)))
    exact = 2.0 + np.exp(-1.0) * np.sin(x)
    assert np.max(np.abs(series[-1].values - exact)) < 5e-4


def test_heat_positivity_enforced():
    m = flat_torus_metric(n=16)
    traj = _static_trajectory(m, 0.1, 3)
    u0 = np.full(m.grid.shape, 1.0)
    u0[0, 0] = -0.5
    with pytest.raises(FlowError):
        solve_heat(traj, ScalarField(m.grid, u0))
    with pytest.raises(FlowError):
        run_flow(m, FlowConfig(t_end=0.1, dt_initial=0.01, heat="heat"), u0=ScalarField(m.grid, u0))


def test_conjugate_heat_reduces_to_heat_on_flat_torus():
    m = flat_torus_metric(n=32)
    x, _ = m.grid.coordinate_fields()
    traj = _static_trajectory(m, 0.5, 11)
    u0 = ScalarField(m.grid, 2.0 + np.sin(x))
    a = solve_heat(traj, u0)
    b = solve_conjugate_heat(traj, u0)
    assert np.max(np.abs(a[-1].values - b[-1].values)) < 1e-12


def test_conjugate_heat_constant_on_frozen_sphere():
    m = sphere_metric(1.0, 48)
    traj = _static_trajectory(m, 0.2, 21)
    series = solve_conjugate_heat(traj, ScalarField(m.grid, np.ones(m.grid.shape)))
    # Scal' = 2 on the unit sphere: u(t) = e^{-2t} uniformly
    assert np.max(np.abs(series[-1].values - np.exp(-0.4))) < 2e-3


def test_heat_refined_resolution_oracle_on_shrinking_sphere():
    vals = []
    for n, dt in ((48, 2e-3), (96, 1e-3)):
        m = sphere_metric(1.0, n)
        th = m.grid.axes[0]
        traj = run_flow(
            m,
            FlowConfig(t_end=0.2, dt_initial=dt, heat="heat", sample_every=10**9),
            u0=ScalarField(m.grid, 2.0 + np.cos(th)),
        )
        # compare at matching angles via the shared midpoint structure
        vals.append(traj.heat_fields[-1].values)
    coarse, fine = vals
    # each coarse cell-centered node sits midway between a fine node pair
    restricted = fine.reshape(-1, 2).mean(axis=1)
    assert np.max(np.abs(coarse - restricted)) < 5e-3


def test_heat_solution_positive_along_collapse():
    m = sphere_metric(1.0, 48)
    th = m.grid.axes[0]
    traj = run_flow(
        m,
        FlowConfig(t_end=1.0, dt_initial=5e-4, heat="heat", heat_t_max=0.3, sample_every=100),
        u0=ScalarField(m.grid, 2.0 + np.cos(th)),
    )
    assert traj.termination == "singular"
    for f in traj.heat_fields:
        assert np.all(f.values > 0.0)


# --- bounds and equivalence ----------------------------------------------


def test_measured_bounds_flat_torus_zero():
    traj = _static_trajectory(flat_torus_metric(n=16), 1.0, 3)
    b = measure_curvature_bounds(traj)
    assert b.rho1 < 1e-12 and b.rho2 < 1e-12 and b.rho3 < 1e-10


def test_sphere_ricci_stays_nonnegative_along_flow():
    traj = run_flow(sphere_metric(1.0, 48), FlowConfig(t_end=0.3, dt_initial=1e-3, sample_every=50))
    b = measure_curvature_bounds(traj)
    assert b.rho2 < 1e-2  # no appreciable negative Ricci appears


def test_equivalence_flat_torus_trivial():
    traj = _static_trajectory(flat_torus_metric(n=16), 1.0, 3)
    rep = metric_equivalence_check(traj, CurvatureBounds(0.0, 0.0, 0.0))
    assert rep.hypothesis_ok and rep.holds
    assert abs(rep.worst_lower - 1.0) < 1e-12
    assert abs(rep.worst_upper - 1.0) < 1e-12


def test_equivalence_shrinking_sphere():
    traj = run_flow(sphere_metric(1.0, 64), FlowConfig(t_end=0.25, dt_initial=1e-3, sample_every=50))
    rho2 = 1.0 / (1.0 - 2 * 0.25) * 1.05  # sup Ricci eigenvalue over [0, 0.25]
    rep = metric_equivalence_check(traj, CurvatureBounds(0.0, rho2, 0.0))
    assert rep.hypothesis_ok
    assert rep.holds
    # closed form: eigratio = r(t)^2 = 1 - 2t >= e^{-2 rho2 t}
    assert rep.worst_lower >= 1.0 - 1e-9


def test_equivalence_hypothesis_gate():
    traj = run_flow(sphere_metric(1.0, 48), FlowConfig(t_end=0.25, dt_initial=1e-3, sample_every=50))
    rep = metric_equivalence_check(traj, CurvatureBounds(0.0, 0.5, 0.0))
    assert not rep.hypothesis_ok
    assert rep.failed_hypothesis == "ricci-upper-bound"


def _eigen_oracle_suprema(trajectory, masks):
    """The same suprema through g'-relative Ricci eigenvalues:
    eigh -> g^{-1/2} Ric g^{-1/2} -> eigvalsh, and Scal = g^ab Ric_ab."""
    sups = dict.fromkeys(
        ("neg_scal_sup", "neg_ricci_eig_sup", "ricci_eig_sup", "grad_scal_sup"), -np.inf
    )
    for metric, mask in zip(trajectory.metrics, masks):
        if not np.any(mask):
            continue
        ric = curvature(metric).ricci
        w, v = np.linalg.eigh(metric.comps)
        s = np.einsum("...ab,...b,...cb->...ac", v, 1.0 / np.sqrt(w), v)
        eigs = np.linalg.eigvalsh(np.einsum("...ab,...bc,...cd->...ad", s, ric, s))
        scal = np.einsum("...ab,...ab->...", metric.inverse(), ric)
        grad = gradient(metric, scal)
        grad_norm = np.sqrt(np.einsum("...ab,...a,...b->...", metric.comps, grad, grad))
        for key, values in (
            ("neg_scal_sup", -scal),
            ("neg_ricci_eig_sup", -eigs[..., 0]),
            ("ricci_eig_sup", eigs[..., 1]),
            ("grad_scal_sup", grad_norm),
        ):
            sups[key] = max(sups[key], float(np.max(values[mask])))
    return sups


_coeff = st.floats(-1.0, 1.0)
_offdiag = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)


@settings(max_examples=25, deadline=None)
@given(
    amps=st.lists(st.floats(0.05, 0.5), min_size=2, max_size=2),
    eps=st.floats(0.01, 0.1),
    coeffs=st.tuples(_coeff, _offdiag, _coeff),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_k_route_matches_ricci_eigen_oracle(amps, eps, coeffs, density, seed):
    # torus bumps plus a smooth SPD perturbation with g01 != 0; |eps P| < 0.3
    # stays below the bump's smallest eigenvalue 0.5
    metrics = []
    for amp in amps:
        base = torus_bump_metric(amp, 16)
        x, y = base.grid.coordinate_fields()
        pert = np.zeros(base.comps.shape)
        pert[..., 0, 0] = coeffs[0] * np.cos(x + y)
        pert[..., 0, 1] = pert[..., 1, 0] = coeffs[1] * np.sin(x) * np.cos(y)
        pert[..., 1, 1] = coeffs[2] * np.sin(y)
        metrics.append(LeafMetric(base.grid, base.comps + eps * pert))
    traj = FlowTrajectory(np.array([0.0, 0.1]), metrics, None, "reached-t_end")
    rng = np.random.default_rng(seed)
    masks = [rng.random(m.grid.shape) < density for m in metrics]

    got = curvature_suprema(traj, masks)
    want = _eigen_oracle_suprema(traj, masks)
    scale = max(float(np.max(np.abs(traj.curvature(k).K))) for k in range(2))
    for key in want:
        assert np.isclose(got[key], want[key], rtol=1e-12, atol=1e-12 * scale), key
    # no masks means every node of every sample
    full = [np.ones(m.grid.shape, dtype=bool) for m in metrics]
    assert curvature_suprema(traj) == curvature_suprema(traj, full)
