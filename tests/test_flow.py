from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import node_major_reference as ref

from nullflow.estimates import CurvatureBounds, curvature_suprema
from nullflow.flow import (
    FlowConfig,
    FlowError,
    FlowTrajectory,
    HEAT_CONJUGATE,
    HEAT_PLAIN,
    _check_singular,
    _solve_on_trajectory,
    run_flow,
    step_flow,
)
from nullflow.grids import ScalarField
from nullflow.metric import LeafMetric, MetricError, SingularMetricError, curvature, gradient
from nullflow.scenarios import flat_torus_metric, sphere_metric, torus_bump_metric


def test_flat_torus_single_step_is_stationary():
    m = flat_torus_metric(n=16)
    out = step_flow(m, 0.1)
    assert np.max(np.abs(out.comps - m.comps)) < 1e-15


def test_sphere_step_matches_radius_ode():
    # d(r^2)/dt = -2
    m = sphere_metric(1.0, 64)
    dt = 1e-4
    mid = 32
    fwd = step_flow(m, dt)
    assert abs(fwd.comps[mid, 0, 0] - (1.0 - 2 * dt)) < 5e-3 * dt


def test_step_output_symmetric():
    m = sphere_metric(1.0, 32)
    out = step_flow(m, 1e-3)
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


def test_nan_metric_is_singular_at_once_and_never_stored(monkeypatch):
    import nullflow.flow as flow

    # NaN <= 0 is False, so a NaN eigenvalue must fail the check explicitly; it
    # passes the symmetry check, so LeafMetric's eigenvalue check rejects it
    _check_singular(sphere_metric(1.0, 16), 1e-6)
    m = sphere_metric(1.0, 16)
    comps = m.comps.copy()
    comps[4, 1, 1] = np.nan
    with pytest.raises(SingularMetricError, match="node 4"):
        LeafMetric(m.grid, comps)

    steps = []
    step = flow.step_flow

    def nan_third_step(metric, dt, pack=None):
        out = step(metric, dt, pack)
        steps.append(1)
        if len(steps) == 3:
            comps = out.comps.copy()
            comps[5, 1, 1] = np.nan
            return LeafMetric(out.grid, comps)
        return out

    monkeypatch.setattr(flow, "step_flow", nan_third_step)
    traj = run_flow(sphere_metric(1.0, 16), FlowConfig(t_end=0.1, dt_initial=1e-3, sample_every=1))
    assert traj.termination == "singular"
    assert traj.singular_time == 1e-3 + 1e-3 + 1e-3  # not a step later
    assert len(traj.metrics) == 3
    assert all(np.all(np.isfinite(m.comps)) for m in traj.metrics)


def test_flow_times_strictly_increasing_and_metrics_pd():
    traj = run_flow(sphere_metric(1.0, 32), FlowConfig(t_end=0.3, dt_initial=1e-3))
    assert np.all(np.diff(traj.times) > 0)
    for m in traj.metrics:  # checked again from the components
        assert ref.check_metric(m.grid, m.comps).min() == m.smallest_eigenvalue


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
    # the chart's Laplacian reads Gamma^0_00 and Gamma^0_11 alone, which the pack
    # builds without the full Christoffel symbols
    assert len(calls) == len(traj.times) == 6 and gammas == []
    rep = verify(traj, "log-gradient-backward", EstimateParams(rho=0.5, center=16), cert=build_cutoff())
    assert rep.status == "holds"
    # verify reuses the heat solve's packs, so it builds none of its own
    assert len(calls) == len(traj.times) and gammas == []


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
    heats = _solve_on_trajectory(traj, ScalarField(m.grid, 2.0 + np.sin(x)), HEAT_CONJUGATE)
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
            metric = step_flow(metric, dt)
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

    seen, full = [], []
    build, symbols = metric_module.christoffel, metric_module._christoffel_ab
    monkeypatch.setattr(metric_module, "christoffel", lambda m, *ginv: full.append(m) or build(m, *ginv))
    monkeypatch.setattr(metric_module, "_christoffel_ab",
                        lambda dg, ginv, *ab, **cs: seen.append(ginv) or symbols(dg, ginv, *ab, **cs))
    cfg = parse_config((Path(__file__).parent / "data" / "golden_config.json").read_text())
    m = cfg.build_metric()
    run_flow(m, cfg.flow, u0=cfg.build_heat_initial(m))
    # the heat runs to t = 0.3 in 600 steps of 5e-4, so it sees 601 metrics, each
    # with one pack and its inverse; rebuilding the operator at every RK stage
    # made 4,800 calls.  The chart's Laplacian reads Gamma^0_00 and Gamma^0_11
    # alone, two brackets of a pack, and no metric builds all 8 symbols
    assert len(seen) == 2 * len({id(ginv) for ginv in seen}) == 2 * 601
    assert full == []


def _sheared_bump(amp, n, eps):
    """Torus bump plus a smooth symmetric perturbation with g01 != 0."""
    base = torus_bump_metric(amp, n)
    x, y = base.grid.coordinate_fields()
    comps = base.comps.copy()
    comps[..., 0, 0] += eps * np.cos(x + y)
    comps[..., 0, 1] += eps * np.sin(x) * np.cos(y)
    comps[..., 1, 0] = comps[..., 0, 1]
    return LeafMetric(base.grid, comps)


def test_step_flow_from_the_metrics_pack_is_bit_identical():
    for m in (sphere_metric(1.0, 32), torus_bump_metric(0.3, 16), _sheared_bump(0.3, 17, 0.2)):
        pack = curvature(m)
        out = step_flow(m, 1e-3, pack)
        assert np.array_equal(out.comps, step_flow(m, 1e-3).comps)
        assert "K" in vars(pack)  # stage 1 left K on the pack for later readers


@pytest.mark.parametrize("heat", ["heat", "none"])
def test_torus_run_and_verify_build_no_christoffel_symbols(monkeypatch, heat):
    import nullflow.metric as metric_module
    from nullflow.estimates import THEOREM_IDS, EstimateParams, build_cutoff, verify

    seen = []
    build = metric_module.christoffel
    monkeypatch.setattr(metric_module, "christoffel", lambda m, *ginv: seen.append(m) or build(m, *ginv))
    m = torus_bump_metric(0.3, 16)
    x, _ = m.grid.coordinate_fields()
    config = FlowConfig(t_end=0.02, dt_initial=2e-3, heat=heat, sample_every=5)
    traj = run_flow(m, config, u0=ScalarField(m.grid, 2.0 + np.sin(x)))
    if heat == "none":  # no heat field, so nothing to verify
        assert traj.heat_fields is None and not any(traj.curvatures)
    else:
        # on g = w I, K and the flat Laplacian read no Christoffel symbol: not in
        # the RK stages, the heat substeps, stage 1 from the heat pack, nor verify
        params = EstimateParams(alpha=2.0, p=4.0, q=4.0, rho=0.8, center=(3, 12))
        cert = build_cutoff()
        for theorem in THEOREM_IDS:
            verify(traj, theorem, params, cert=cert)
        assert len(traj.curvatures) == len(traj.times) == 3
        assert all("K" in vars(pack) and "christoffel" not in vars(pack) for pack in traj.curvatures)
    assert seen == []


@pytest.mark.parametrize("direction,heat", [
    ("forward", "heat"), ("forward", "conjugate-heat"), ("backward", "conjugate-heat"),
])
def test_conformal_route_leaves_every_stored_bit_unchanged(monkeypatch, direction, heat):
    import nullflow.metric as metric_module

    m = torus_bump_metric(0.3, 16)
    x, _ = m.grid.coordinate_fields()
    config = FlowConfig(direction=direction, t_end=0.02, dt_initial=2e-3, heat=heat, sample_every=5)
    runs = []
    for _ in range(2):
        runs.append(run_flow(m, config, u0=ScalarField(m.grid, 2.0 + np.sin(x))))
        # then every metric takes the generic Christoffel route
        monkeypatch.setattr(metric_module, "_conformal_factor", lambda comps: None)
    fast, generic = runs
    assert fast.times.tobytes() == generic.times.tobytes() and len(fast.times) == 3
    # bytes, so that a zero's sign counts as it does in the CSV
    for a, b in zip(fast.metrics, generic.metrics):
        assert a.comps.tobytes() == b.comps.tobytes()
    for a, b in zip(fast.heat_fields, generic.heat_fields):
        assert a.values.tobytes() == b.values.tobytes()


def _components_route(monkeypatch):
    """Step the sphere chart as its components and give its heat Laplacian the
    two symbols it reads out of the full Christoffel symbols, as both were."""
    import nullflow.flow as flow
    import nullflow.metric as metric_module

    monkeypatch.setattr(flow, "step_flow", ref.step_flow)
    monkeypatch.setattr(metric_module.CurvaturePack, "chart_christoffel", property(
        lambda pack: (pack.christoffel[..., 0, 0, 0], pack.christoffel[..., 0, 1, 1])))


_CHART_RUNS = {  # the golden run's flow, shortened where heat runs
    "forward-heat": FlowConfig(t_end=0.05, dt_initial=5e-4, heat="heat", sample_every=20),
    "forward-conjugate-heat": FlowConfig(t_end=0.05, dt_initial=5e-4, heat="conjugate-heat", sample_every=20),
    "backward-conjugate-heat": FlowConfig(direction="backward", t_end=0.05, dt_initial=5e-4,
                                          heat="conjugate-heat", sample_every=20),
    "flow-to-singular": FlowConfig(t_end=1.0, dt_initial=5e-4, sample_every=100),
}


@pytest.mark.parametrize("n", [16, 48, 97])
@pytest.mark.parametrize("run", list(_CHART_RUNS))
def test_chart_route_leaves_every_stored_bit_unchanged(monkeypatch, run, n):
    m = sphere_metric(1.0, n)
    u0 = ScalarField(m.grid, 1.0 + 0.2 * np.cos(m.grid.axes[0]))
    config = _CHART_RUNS[run]
    runs = []
    for _ in range(2):
        runs.append(run_flow(m, config, u0=u0 if config.heat != "none" else None))
        _components_route(monkeypatch)
    diagonal, components = runs
    assert diagonal.termination == components.termination
    assert (diagonal.termination == "singular") == (run == "flow-to-singular")
    assert np.float64(diagonal.singular_time or 0.0).tobytes() == np.float64(components.singular_time or 0.0).tobytes()
    assert diagonal.times.tobytes() == components.times.tobytes() and len(diagonal.times) > 2
    # bytes, so that a zero's sign counts as it does in the CSV
    for a, b in zip(diagonal.metrics, components.metrics, strict=True):
        assert a.comps.tobytes() == b.comps.tobytes()
    if config.heat != "none":
        for a, b in zip(diagonal.heat_fields, components.heat_fields, strict=True):
            assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_chart_k_not_finite_fails_as_the_component_step(monkeypatch, stage, value):
    import nullflow.flow as flow
    import nullflow.metric as metric_module

    kernel = metric_module._gauss_curvature_symmetric
    m = sphere_metric(1.0, 48)
    outcomes = []
    for step, module in ((step_flow, flow), (ref.step_flow, metric_module)):
        calls = []

        def bad_kernel(grid, a, b):
            calls.append(1)
            k = kernel(grid, a, b)
            if len(calls) == stage:
                k[17] = value
            return k

        monkeypatch.setattr(module, "_gauss_curvature_symmetric", bad_kernel)
        with np.errstate(invalid="ignore"), pytest.raises(MetricError) as info:
            step(m, 5e-4)
        outcomes.append((type(info.value), str(info.value), info.value.node))
        assert len(calls) == 4
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is MetricError and "not finite" in outcomes[0][1]


def test_a_tiny_off_diagonal_on_the_chart_steps_to_positive_zero():
    # |g01| <= 1e-12 of the largest diagonal entry is accepted as diagonal, and
    # the chart's step reads and writes the diagonal alone
    twin = sphere_metric(1.0, 48)
    comps = twin.comps.copy()
    comps[..., 0, 1] = comps[..., 1, 0] = 1e-13
    out = step_flow(LeafMetric(twin.grid, comps), 5e-4)
    assert out.comps.tobytes() == step_flow(twin, 5e-4).comps.tobytes()
    assert not np.signbit(out.comps[..., 0, 1]).any() and not out.comps[..., 0, 1].any()


def test_final_state_near_the_last_sample_is_stored():
    # the last sample is at 4e-9 and the clock ends on 5e-9; a tolerance of
    # 1e-8 took the two for one time and dropped the final state
    traj = run_flow(flat_torus_metric(n=8), FlowConfig(t_end=5e-9, dt_initial=1e-9, sample_every=2))
    assert traj.termination == "reached-t_end"
    assert len(traj.times) == len(traj.metrics) == 4
    assert traj.times[-1] == 5e-9
    assert np.allclose(traj.times, [0.0, 2e-9, 4e-9, 5e-9], rtol=1e-12, atol=0.0)


def test_backward_run_starts_at_exactly_zero():
    # 2,400 forward steps of 1.25e-4 sum to 0.3 - 1.9e-14; the clock must land on
    # t_end rather than take a rounding-sliver step
    traj = run_flow(sphere_metric(1.0, 8), FlowConfig(direction="backward", t_end=0.3, dt_initial=1.25e-4))
    assert traj.times[0] == 0.0
    assert len(traj.times) == 25
    fwd = run_flow(sphere_metric(1.0, 8), FlowConfig(t_end=0.3, dt_initial=1.25e-4))
    assert fwd.times[-1] == 0.3


def test_each_metric_is_checked_once_and_each_rk_stage_once(monkeypatch):
    # the positive-definiteness check runs where a metric is made and on the
    # RK stages 2-4 of each step, and nowhere else: a torus-bump n = 64 heat
    # run of 50 steps (the config of the benchmark's torus-verify-64, seed 0)
    # makes 50 metrics and checks 200 times; each step's pack, its K, the
    # heat substeps and the singularity test check nothing
    import nullflow.flow as flow
    import nullflow.metric as metric_module

    m = torus_bump_metric(0.253175, 64)
    x, y = m.grid.coordinate_fields()
    made, checks = [], []
    check, validate = metric_module._conformal_min_eigenvalue, LeafMetric.__post_init__
    for module in (metric_module, flow):
        monkeypatch.setattr(module, "_conformal_min_eigenvalue", lambda w: checks.append(1) or check(w))
    monkeypatch.setattr(LeafMetric, "__post_init__", lambda self: made.append(1) or validate(self))
    config = FlowConfig(t_end=0.1, dt_initial=0.002, heat="heat", sample_every=10)
    traj = run_flow(m, config, u0=ScalarField(m.grid, 2.0 + np.sin(x) * np.cos(y)))
    assert traj.termination == "reached-t_end" and len(traj.times) == 6
    assert len(made) == 50
    assert len(checks) == len(made) + 3 * 50


def test_step_flow_validates_only_its_result(monkeypatch):
    import nullflow.flow as flow

    validated = []
    check = LeafMetric.__post_init__
    monkeypatch.setattr(LeafMetric, "__post_init__", lambda self: validated.append(1) or check(self))
    for m in (sphere_metric(1.0, 32), torus_bump_metric(0.3, 16)):
        for _ in range(3):
            validated.clear()
            m = step_flow(m, 1e-3)
            assert len(validated) == 1
    # a NaN step still fails closed on the checked result; the torus steps w,
    # so the NaN comes through the conformal K: at stage 4 it reaches the
    # result, and at an earlier stage the next stage's check on w
    kernel = flow._gauss_curvature_conformal
    for nan_at, error, message in ((4, MetricError, r"not finite \(node 0\)"),
                                   (3, SingularMetricError, r"node 0, eigenvalue nan")):
        calls = []

        def nan_kernel(grid, w):
            calls.append(1)
            return np.full(w.shape, np.nan) if len(calls) == nan_at else kernel(grid, w)

        monkeypatch.setattr(flow, "_gauss_curvature_conformal", nan_kernel)
        with pytest.raises(error, match=message):
            step_flow(m, 1e-3)


def _step_outcome(step, m, dt, with_pack):
    """The bytes of a step's components, or the class and message it raised;
    ``m`` may be a function that makes the metric."""
    try:
        m = m() if callable(m) else m
        return step(m, dt, curvature(m) if with_pack else None).comps.tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def _random_w_comps(n, seed, amp, scale):
    w = scale * (1.0 + amp * np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n)))
    comps = np.zeros((n, n, 2, 2))
    comps[..., 0, 0] = comps[..., 1, 1] = w
    return comps


def _random_w(n, seed, amp, scale):
    return LeafMetric(torus_bump_metric(0.3, n).grid, _random_w_comps(n, seed, amp, scale))


_w_cases = dict(n=st.sampled_from([16, 33]), seed=st.integers(0, 2**32 - 1), amp=st.floats(0.0, 0.6),
                scale=st.floats(0.25, 4.0), dt=st.floats(1e-5, 0.5), with_pack=st.booleans())


@settings(max_examples=60, deadline=None)
@given(**_w_cases)
def test_scalar_step_is_bit_identical_to_the_component_step(n, seed, amp, scale, dt, with_pack):
    m = _random_w(n, seed, amp, scale)
    assert _step_outcome(step_flow, m, dt, with_pack) == _step_outcome(ref.step_flow, m, dt, with_pack)
    bump = torus_bump_metric(0.3, n)
    assert _step_outcome(step_flow, bump, dt, with_pack) == _step_outcome(ref.step_flow, bump, dt, with_pack)


@settings(max_examples=15, deadline=None)
@given(node=st.tuples(st.integers(0, 32), st.integers(0, 32)), **_w_cases)
def test_scalar_step_fails_as_the_component_step_at_one_bad_node(node, n, seed, amp, scale, dt, with_pack):
    node = (node[0] % n, node[1] % n)
    grid = torus_bump_metric(0.3, n).grid
    # 1e-160 squared is subnormal, and 4 (1e155)^2 overflows; the metric is
    # checked on w when made, and the reference checks its components first
    for value in (0.0, -0.0, -1.0, np.nan, np.inf, 5e-324, 1e-160, 1e155):
        comps = _random_w_comps(n, seed, amp, scale)
        comps[node + (0, 0)] = comps[node + (1, 1)] = value

        def checked():
            ref.check_metric(grid, comps)
            return LeafMetric(grid, comps)

        with np.errstate(over="ignore", invalid="ignore"):
            got = _step_outcome(step_flow, lambda: LeafMetric(grid, comps), dt, with_pack)
            assert got == _step_outcome(ref.step_flow, checked, dt, with_pack)


def test_a_negative_zero_off_the_diagonal_steps_as_its_positive_zero_twin():
    # g01 = g10 = -0.0 is still w I, so the step runs on w and writes +0.0
    twin = torus_bump_metric(0.3, 16)
    comps = twin.comps.copy()
    comps[..., 0, 1] = comps[..., 1, 0] = -0.0
    m = LeafMetric(twin.grid, comps)
    assert m.w is not None
    assert step_flow(m, 1e-3).comps.tobytes() == step_flow(twin, 1e-3).comps.tobytes()


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
    series = _solve_on_trajectory(traj, ScalarField(m.grid, np.full(m.grid.shape, 3.0)), HEAT_PLAIN)
    assert np.max(np.abs(series[-1].values - 3.0)) < 1e-13


def test_heat_fourier_mode_on_static_torus():
    m = flat_torus_metric(n=64)
    x, y = m.grid.coordinate_fields()
    traj = _static_trajectory(m, 1.0, 41)
    series = _solve_on_trajectory(traj, ScalarField(m.grid, 2.0 + np.sin(x)), HEAT_PLAIN)
    exact = 2.0 + np.exp(-1.0) * np.sin(x)
    assert np.max(np.abs(series[-1].values - exact)) < 5e-4


def test_heat_positivity_enforced():
    m = flat_torus_metric(n=16)
    traj = _static_trajectory(m, 0.1, 3)
    u0 = np.full(m.grid.shape, 1.0)
    u0[0, 0] = -0.5
    with pytest.raises(FlowError):
        _solve_on_trajectory(traj, ScalarField(m.grid, u0), HEAT_PLAIN)
    with pytest.raises(FlowError):
        run_flow(m, FlowConfig(t_end=0.1, dt_initial=0.01, heat="heat"), u0=ScalarField(m.grid, u0))


_NON_FINITE_HEAT_RUNS = {  # a NaN would reach a stored sample; an inf, on the sphere, none
    "torus-nan": (
        {"name": "torus-bump", "amp": 0.3, "resolution": 16},
        {"t_end": 0.1, "dt_initial": 0.002, "heat": "heat", "sample_every": 10},
        np.nan,
    ),
    "sphere-inf": (
        {"name": "round-sphere", "radius": 1.0, "resolution": 16},
        {"t_end": 1.0, "dt_initial": 0.002, "heat": "heat", "sample_every": 1000},
        np.inf,
    ),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_HEAT_RUNS))
def test_a_non_finite_heat_field_fails_at_the_half_step_that_made_it(monkeypatch, tmp_path, capsys, case):
    # a non-finite value put into the 9th Laplacian call, at node 0: every node its
    # stencil spreads to comes after it, so node 0 is the first non-finite one
    import json

    import nullflow.flow as flow
    from nullflow.cli import main
    from nullflow.config import parse_config

    scenario, flow_doc, value = _NON_FINITE_HEAT_RUNS[case]
    doc = {"scenario": scenario, "flow": flow_doc, "heat_initial": "cosine-mode"}
    calls, halves = [], []
    laplacian, substep = flow.laplace_beltrami, flow._heat_substep

    def poisoned(metric, u, pack):
        out = laplacian(metric, u, pack)
        calls.append(1)
        if len(calls) == 9:
            out.flat[0] = value
        return out

    monkeypatch.setattr(flow, "laplace_beltrami", poisoned)
    monkeypatch.setattr(flow, "_heat_substep", lambda *a: halves.append(len(calls)) or substep(*a))
    cfg = parse_config(json.dumps(doc))
    metric = cfg.build_metric()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with np.errstate(invalid="ignore"):  # the stages after an inf take inf - inf
        with pytest.raises(FlowError, match=r"heat solution is not finite at node 0 \(u = (nan|inf)\)$"):
            run_flow(metric, cfg.flow, u0=cfg.build_heat_initial(metric))
        assert halves[-1] < 9 <= len(calls)  # the half step that took the 9th call raised
        calls.clear()
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "heat solution is not finite at node 0" in capsys.readouterr().err


def test_conjugate_heat_reduces_to_heat_on_flat_torus():
    m = flat_torus_metric(n=32)
    x, _ = m.grid.coordinate_fields()
    traj = _static_trajectory(m, 0.5, 11)
    u0 = ScalarField(m.grid, 2.0 + np.sin(x))
    a = _solve_on_trajectory(traj, u0, HEAT_PLAIN)
    b = _solve_on_trajectory(traj, u0, HEAT_CONJUGATE)
    assert np.max(np.abs(a[-1].values - b[-1].values)) < 1e-12


def test_conjugate_heat_constant_on_frozen_sphere():
    m = sphere_metric(1.0, 48)
    traj = _static_trajectory(m, 0.2, 21)
    series = _solve_on_trajectory(traj, ScalarField(m.grid, np.ones(m.grid.shape)), HEAT_CONJUGATE)
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


# --- curvature bounds ----------------------------------------------------


def test_measured_bounds_flat_torus_zero():
    traj = _static_trajectory(flat_torus_metric(n=16), 1.0, 3)
    b = CurvatureBounds.from_suprema(curvature_suprema(traj, [np.ones(traj.grid.shape, bool)] * 3))
    assert b.rho1 < 1e-12 and b.rho2 < 1e-12 and b.rho3 < 1e-10


def test_sphere_ricci_stays_nonnegative_along_flow():
    traj = run_flow(sphere_metric(1.0, 48), FlowConfig(t_end=0.3, dt_initial=1e-3, sample_every=50))
    b = CurvatureBounds.from_suprema(curvature_suprema(traj, [np.ones(traj.grid.shape, bool)] * len(traj.times)))
    assert b.rho2 < 1e-2  # no appreciable negative Ricci appears


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


@settings(max_examples=25, deadline=None)
@given(
    amps=st.lists(st.floats(0.05, 0.5), min_size=1, max_size=3),
    n=st.integers(8, 24),
    eps=st.floats(0.0, 0.2),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_neg_scal_sup_is_twice_neg_ricci_eig_sup_bit_for_bit(amps, n, eps, density, seed):
    # sup -Scal' is read off K as 2 sup -K; it must equal the masked pass over
    # Scal' = 2K that it replaces, sign of zero included
    metrics = [_sheared_bump(amp, n, eps) for amp in amps]
    traj = FlowTrajectory(np.linspace(0.0, 0.1, len(metrics)), metrics, None, "reached-t_end")
    rng = np.random.default_rng(seed)
    masks = [rng.random(m.grid.shape) < density for m in metrics]
    want = -np.inf
    for k, mask in enumerate(masks):
        if np.any(mask):
            want = max(want, float(np.max(-traj.curvature(k).scal[mask])))
    got = curvature_suprema(traj, masks)["neg_scal_sup"]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
