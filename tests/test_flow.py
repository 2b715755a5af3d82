import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import node_major_reference as ref

from nullflow.estimates import CurvatureBounds, curvature_suprema
from nullflow.flow import (
    _CFL_NUMBER,
    _CONFORMAL_HEAT_CFL,
    FlowConfig,
    FlowError,
    FlowTrajectory,
    HEAT_CONJUGATE,
    HEAT_PLAIN,
    _heat_substep,
    _rk4,
    _solve_on_trajectory,
    run_flow,
    step_flow,
)
from nullflow.grids import ScalarField, make_sphere_grid, make_torus_grid
from nullflow.metric import LeafMetric, MetricError, curvature, gradient
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


def test_nan_metric_is_an_error_at_once_and_never_stored(monkeypatch):
    import nullflow.flow as flow

    # a NaN is not a collapse: it passes the symmetry check, and LeafMetric's
    # eigenvalue check rejects it as not finite, naming its node
    m = sphere_metric(1.0, 16)
    comps = m.comps.copy()
    comps[4, 1, 1] = np.nan
    with pytest.raises(MetricError, match=r"not finite \(node 4\)") as info:
        LeafMetric(m.grid, comps)
    assert type(info.value) is MetricError

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
    with pytest.raises(MetricError, match=r"not finite \(node 5\)") as info:
        run_flow(sphere_metric(1.0, 16), FlowConfig(t_end=0.1, dt_initial=1e-3, sample_every=1))
    assert type(info.value) is MetricError and info.value.node == 5 and len(steps) == 3


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


def _nonlinear_rate(v):
    # a fresh array at every stage, nonlinear so the stages differ; a zero keeps its sign, as in sin
    return np.sin(v) - v * v * 1e-3


_RK4_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
_RK4_SHAPES = st.integers(1, 6).flatmap(lambda n: st.sampled_from([(n,), (n, n), (n, n, 2, 2)]))


@settings(max_examples=200, deadline=None)
@given(state=arrays(np.float64, _RK4_SHAPES, elements=_RK4_VALUES), data=st.data(),
       dt=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0)), linear=st.booleans())
def test_rk4_in_place_is_the_textbook_expression_bit_for_bit(state, data, dt, linear):
    # states shaped (n,), (n, n) and (n, n, 2, 2), with +-0.0 among finite values
    k1 = data.draw(arrays(np.float64, state.shape, elements=_RK4_VALUES))
    rate = np.negative if linear else _nonlinear_rate
    kept = state.tobytes(), k1.tobytes()
    got = _rk4(state, k1, rate, dt)
    assert (state.tobytes(), k1.tobytes()) == kept
    assert got.tobytes() == ref.textbook_rk4(state, k1, rate, dt).tobytes()


def test_rk4_allocates_at_most_three_state_sized_arrays_and_keeps_one():
    # a count that repeats exactly, not a timing: the stage buffer, the sum in k2 and the
    # rate's fresh k3 or k4 (the textbook expression peaks at 6.00 state-sized arrays)
    state = np.random.default_rng(0).uniform(0.5, 2.0, (128, 128))
    k1 = -state
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = _rk4(state, k1, lambda v: -v, 1e-3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (peak - base) / state.nbytes <= 3.25
    assert 1.0 <= (kept - base) / state.nbytes <= 1.25
    assert out.shape == state.shape


@pytest.mark.parametrize("make", [lambda: torus_bump_metric(0.3, 16), lambda: sphere_metric(1.0, 24)])
@pytest.mark.parametrize("with_pack", [True, False])
def test_step_flow_writes_neither_its_metric_nor_the_packs_k(make, with_pack):
    m = make()
    pack = curvature(m) if with_pack else None
    before = [m.w.tobytes(), m.comps.tobytes()] + ([pack.K.tobytes()] if with_pack else [])
    out = step_flow(m, 1e-3, pack)
    assert [m.w.tobytes(), m.comps.tobytes()] + ([pack.K.tobytes()] if with_pack else []) == before
    assert not np.shares_memory(out.w, m.w)


@pytest.mark.parametrize("make", [lambda: torus_bump_metric(0.3, 16), lambda: sphere_metric(1.0, 24)])
@pytest.mark.parametrize("mode", [HEAT_PLAIN, HEAT_CONJUGATE])
def test_heat_substep_leaves_its_input_unchanged(make, mode):
    m = make()
    u = 2.0 + np.cos(m.grid.coordinate_fields()[0])
    before = u.tobytes()
    out = _heat_substep(curvature(m), u, 2e-3, mode)
    assert u.tobytes() == before
    assert not np.shares_memory(out, u) and out.tobytes() != before


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
    # on w g_round K and the Laplacian read w alone, and no Christoffel symbol
    assert len(calls) == len(traj.times) == 6 and gammas == []
    rep = verify(traj, "log-gradient-backward", EstimateParams(rho=0.5, center=16), cert=build_cutoff())
    assert rep.status == "holds"
    # verify reuses the heat solve's packs, so it builds none of its own
    assert len(calls) == len(traj.times) and gammas == []


def test_conjugate_heat_builds_one_curvature_pack_per_sample(monkeypatch):
    _check_one_curvature_pack_per_sample(monkeypatch, "conjugate-heat")


def test_plain_heat_builds_one_curvature_pack_per_sample(monkeypatch):
    _check_one_curvature_pack_per_sample(monkeypatch, "heat")


def test_conjugate_heat_never_inverts_a_conformal_metric(monkeypatch):
    m = torus_bump_metric(0.3, 16)
    traj = run_flow(m, FlowConfig(t_end=0.05, dt_initial=1e-2, sample_every=1))
    assert len(traj.times) == 6
    calls = []
    inverse = LeafMetric.inverse
    monkeypatch.setattr(LeafMetric, "inverse", lambda self: calls.append(self) or inverse(self))
    x, _ = m.grid.coordinate_fields()
    heats = _solve_on_trajectory(traj, ScalarField(m.grid, 2.0 + np.sin(x)), HEAT_CONJUGATE)
    assert len(heats) == 6
    # on g = w I the Laplacian and the diffusion rate read the pack's g^00 = w / (w w), and K
    # is the conformal one, so no sample's metric is inverted
    assert calls == []


def _reference_heat_substep(metric, u, dt, conjugate, substeps):
    """The per-stage algorithm: Laplace-Beltrami, and with it the inverse metric
    and any Christoffel symbols, rebuilt at every RK stage, on the node-major
    reference kernels (np.roll stencils, Hessian and einsum).  On g = w I it
    takes the flat form gi (d_00 v + d_11 v), as the program does: the Hessian's
    trace differs from it in the last bit at some nodes.  The substeps are sized
    as the program sizes them, at _CONFORMAL_HEAT_CFL on g = w I and _CFL_NUMBER
    elsewhere, and their count is appended to ``substeps``."""
    grid = metric.grid
    scal = 2.0 * ref.gauss_curvature(metric) if conjugate else None
    conformal = ref._conformal_factor(metric.comps) is not None

    def rhs(v):
        if conformal:
            lap = ref.inverse(metric)[..., 0, 0] * (ref.second_deriv(grid, v, 0) + ref.second_deriv(grid, v, 1))
        else:
            lap = ref.laplace_beltrami(metric, v)
        return lap if scal is None else lap - scal * v

    ginv = ref.inverse(metric)
    rate = sum(float(np.max(ginv[..., a, a])) / grid.spacings[a] ** 2 for a in range(len(grid.spacings)))
    if scal is not None:
        rate += float(np.max(np.abs(scal)))
    cfl = _CONFORMAL_HEAT_CFL if conformal else _CFL_NUMBER
    nsub = max(1, int(np.ceil(dt / (cfl / rate))))
    substeps.append(nsub)
    h = dt / nsub
    for _ in range(nsub):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def _check_shared_heat_operator(direction, heat, n, dt_initial, t_end):
    """A torus-bump heat run at n and dt_initial to t_end, its u at every sample
    against the per-stage reference; returns the reference's substep counts."""
    m = torus_bump_metric(0.3, n)
    x, _ = m.grid.coordinate_fields()
    u0 = 2.0 + np.sin(x)
    config = FlowConfig(direction=direction, t_end=t_end, dt_initial=dt_initial, heat=heat, sample_every=5)
    traj = run_flow(m, config, u0=ScalarField(m.grid, u0))
    conjugate = heat == "conjugate-heat"
    expected, substeps = [u0], []
    if direction == "forward":  # Strang halves around every flow step, as run_flow takes them
        metric, u, t, step = m, u0, 0.0, 0
        while t < config.t_end - 1e-15:
            dt = min(config.dt_initial, config.t_end - t)
            u = _reference_heat_substep(metric, u, 0.5 * dt, conjugate, substeps)
            metric = step_flow(metric, dt)
            u = _reference_heat_substep(metric, u, 0.5 * dt, conjugate, substeps)
            t += dt
            step += 1
            if step % config.sample_every == 0:
                expected.append(u)
    else:  # Strang halves between the stored samples
        u = u0
        for k in range(1, len(traj.times)):
            dt = traj.times[k] - traj.times[k - 1]
            u = _reference_heat_substep(traj.metrics[k - 1], u, 0.5 * dt, conjugate, substeps)
            u = _reference_heat_substep(traj.metrics[k], u, 0.5 * dt, conjugate, substeps)
            expected.append(u)
    assert len(traj.heat_fields) == len(expected) == 3
    for got, want in zip(traj.heat_fields, expected):
        assert np.array_equal(got.values, want)
    return substeps


_SHARED_HEAT_RUNS = [("forward", "heat"), ("forward", "conjugate-heat"), ("backward", "conjugate-heat")]


@pytest.mark.parametrize("direction,heat", _SHARED_HEAT_RUNS)
def test_shared_heat_operator_is_bit_identical_to_per_stage_rebuild(direction, heat):
    _check_shared_heat_operator(direction, heat, 16, 2e-3, 0.02)


@pytest.mark.parametrize("direction,heat", _SHARED_HEAT_RUNS)
def test_shared_heat_operator_is_bit_identical_over_several_conformal_substeps(direction, heat):
    # every half step takes at least two substeps at _CONFORMAL_HEAT_CFL (six at _CFL_NUMBER
    # forward), where n = 16 at dt 2e-3 takes one at either
    assert min(_check_shared_heat_operator(direction, heat, 32, 0.03, 0.3)) >= 2


def test_heat_builds_christoffel_symbols_once_per_metric(monkeypatch):
    from functools import cached_property

    import nullflow.metric as metric_module
    from nullflow.config import parse_config

    seen, full, inverted = [], [], []
    build, coefficients = metric_module.christoffel, metric_module.CurvaturePack.inverse_diagonal.func
    monkeypatch.setattr(metric_module, "christoffel", lambda m, *ginv: full.append(m) or build(m, *ginv))
    spy = cached_property(lambda pack: seen.append(pack) or coefficients(pack))
    spy.__set_name__(metric_module.CurvaturePack, "inverse_diagonal")
    monkeypatch.setattr(metric_module.CurvaturePack, "inverse_diagonal", spy)
    inverse = LeafMetric.inverse
    monkeypatch.setattr(LeafMetric, "inverse", lambda self: inverted.append(self) or inverse(self))
    cfg = parse_config((Path(__file__).parent / "data" / "golden_config.json").read_text())
    m = cfg.build_metric()
    run_flow(m, cfg.flow, u0=cfg.build_heat_initial(m))
    # the heat runs to t = 0.3 in 600 steps of 5e-4, so it sees 601 metrics, each
    # with one pack; rebuilding the operator at every RK stage made 4,800 calls.
    # On w g_round the Laplacian and its rate read g^00 = w / (w w) alone, which a
    # pack builds once from w, so no metric is inverted or builds a Christoffel symbol
    assert len(seen) == len({id(pack) for pack in seen}) == 601
    assert full == [] and inverted == []


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
    fast = run_flow(m, config, u0=ScalarField(m.grid, 2.0 + np.sin(x)))
    # then every metric made from components, each step's stages and result among them,
    # keeps them and takes the generic Christoffel route
    monkeypatch.setattr(metric_module, "_not_conformal", lambda comps, g11_0=1.0: np.ones(comps.shape[:-2], bool))
    start = LeafMetric(m.grid, m.comps)
    assert start.w is None
    generic = run_flow(start, config, u0=ScalarField(m.grid, 2.0 + np.sin(x)))
    assert all(k.w is None for k in generic.metrics)
    assert fast.times.tobytes() == generic.times.tobytes() and len(fast.times) == 3
    # bytes, so that a zero's sign counts as it does in the CSV
    for a, b in zip(fast.metrics, generic.metrics):
        assert a.comps.tobytes() == b.comps.tobytes()
    for a, b in zip(fast.heat_fields, generic.heat_fields):
        assert a.values.tobytes() == b.values.tobytes()


def _reference_route(monkeypatch):
    """Step the sphere chart and take its heat Laplacian on the node-major
    reference kernels: RK4 on w with the chart K, and w^-1 Delta_0 u."""
    import nullflow.flow as flow

    monkeypatch.setattr(flow, "step_flow", ref.step_flow)
    monkeypatch.setattr(flow, "laplace_beltrami", lambda metric, u, pack=None: ref.laplace_beltrami(metric, u))


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
    # the flow's w step and flux-form Laplacian against the node-major reference's, on
    # the round sphere, whose w stays uniform, and on w = 1 + 0.2 cos(theta), whose does not
    round_sphere = sphere_metric(1.0, n)
    comps = round_sphere.comps.copy()
    comps[..., 0, 0] = 1.0 + 0.2 * np.cos(round_sphere.grid.axes[0])
    comps[..., 1, 1] = comps[..., 0, 0] * round_sphere.grid.background_g11
    u0 = ScalarField(round_sphere.grid, 1.0 + 0.2 * np.cos(round_sphere.grid.axes[0]))
    config = _CHART_RUNS[run]
    for m in (round_sphere, LeafMetric(round_sphere.grid, comps)):
        runs = []
        for _ in range(2):
            runs.append(run_flow(m, config, u0=u0 if config.heat != "none" else None))
            _reference_route(monkeypatch)
        monkeypatch.undo()
        chart, reference = runs
        assert chart.termination == reference.termination
        assert (chart.termination == "singular") == (run == "flow-to-singular")
        assert np.float64(chart.singular_time or 0.0).tobytes() == np.float64(reference.singular_time or 0.0).tobytes()
        assert chart.times.tobytes() == reference.times.tobytes() and len(chart.times) > 2
        # bytes, so that a zero's sign counts as it does in the CSV
        for a, b in zip(chart.metrics, reference.metrics, strict=True):
            assert a.comps.tobytes() == b.comps.tobytes()
        if config.heat != "none":
            for a, b in zip(chart.heat_fields, reference.heat_fields, strict=True):
                assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_chart_k_not_finite_fails_as_the_component_step(monkeypatch, stage, value):
    # a non-finite K at one node and RK stage fails the step as the reference's
    # does: the next stage's check on w, or at stage 4 the result's, names the node
    import nullflow.metric as metric_module

    m = sphere_metric(1.0, 48)
    outcomes = []
    for step, module, name in ((step_flow, metric_module, "conformal_curvature"), (ref.step_flow, ref, "round_curvature")):
        kernel, calls = getattr(module, name), []

        def bad_kernel(grid, w, kernel=kernel, calls=calls):
            calls.append(1)
            k = kernel(grid, w)
            if len(calls) == stage:
                k[17] = value
            return k

        monkeypatch.setattr(module, name, bad_kernel)
        with np.errstate(invalid="ignore"), pytest.raises(MetricError) as info:
            step(m, 5e-4)
        outcomes.append((type(info.value), str(info.value), info.value.node))
        assert len(calls) == stage
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (MetricError, "metric components are not finite (node 17)", 17)


def test_chart_heat_substeps_reach_the_conformal_stability_limit(monkeypatch):
    # w^-1 Delta_0 in flux form has a real spectrum within 4 diffusion_rate, so the chart's
    # heat substeps are taken at _CONFORMAL_HEAT_CFL: at n = 96, dt 2e-3 the run reaches
    # t_end (the chart's former (a, b) flow blew up at t = 0.27), and plain heat stays
    # within 1e-4 of u = 2 + (1 - 2t) cos(theta)
    import nullflow.flow as flow

    calls = []
    laplacian = flow.laplace_beltrami
    monkeypatch.setattr(flow, "laplace_beltrami", lambda *args: calls.append(1) or laplacian(*args))
    m = sphere_metric(1.0, 96)
    theta = m.grid.axes[0]
    for heat in ("conjugate-heat", "heat"):
        calls.clear()
        traj = run_flow(m, FlowConfig(t_end=0.3, dt_initial=2e-3, heat=heat, sample_every=10),
                        u0=ScalarField(m.grid, 2.0 + np.cos(theta)))
        assert traj.termination == "reached-t_end" and traj.times[-1] == 0.3
        assert len(calls) == 3392
    assert np.max(np.abs(traj.heat_fields[-1].values - (2.0 + 0.4 * np.cos(theta)))) < 1e-4


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
    # the positive-definiteness check runs where a metric is made, the RK
    # stages 2-4 of each step made metrics too, and nowhere else: a torus-bump
    # n = 64 heat run of 50 steps (the config of the benchmark's
    # torus-verify-64, seed 0) makes 50 metrics and 150 stages and checks 200
    # times; each step's pack, its K, the heat substeps and the singularity
    # test check nothing
    import nullflow.metric as metric_module

    m = torus_bump_metric(0.253175, 64)
    x, y = m.grid.coordinate_fields()
    made, checks = [], []
    check, validate = metric_module._min_eigenvalue, LeafMetric.__post_init__
    monkeypatch.setattr(metric_module, "_min_eigenvalue", lambda lam, comps: checks.append(1) or check(lam, comps))
    monkeypatch.setattr(LeafMetric, "__post_init__", lambda self, values: made.append(1) or validate(self, values))
    config = FlowConfig(t_end=0.1, dt_initial=0.002, heat="heat", sample_every=10)
    traj = run_flow(m, config, u0=ScalarField(m.grid, 2.0 + np.sin(x) * np.cos(y)))
    assert traj.termination == "reached-t_end" and len(traj.times) == 6
    assert len(made) == 50 + 3 * 50
    assert len(checks) == len(made)


def test_step_flow_checks_its_three_later_stages_and_its_result_as_metrics(monkeypatch):
    import nullflow.metric as metric_module

    validated = []
    check = LeafMetric.__post_init__
    monkeypatch.setattr(LeafMetric, "__post_init__", lambda self, values: validated.append(values) or check(self, values))
    metrics = []
    for m in (sphere_metric(1.0, 32), torus_bump_metric(0.3, 16)):
        for _ in range(3):
            validated.clear()
            m = step_flow(m, 1e-3)
            assert len(validated) == 4 and all(v.shape == m.grid.shape for v in validated)
        metrics.append(m)
    # a NaN step still fails closed, as not finite: both topologies step w, so the
    # NaN comes through the conformal K; at stage 4 it reaches the checked
    # result, and at an earlier stage the next stage's check on w
    kernel = metric_module.conformal_curvature
    for m in metrics:
        for nan_at in (4, 3, 1):
            calls = []

            def nan_kernel(grid, w):
                calls.append(1)
                return np.full(w.shape, np.nan) if len(calls) == nan_at else kernel(grid, w)

            monkeypatch.setattr(metric_module, "conformal_curvature", nan_kernel)
            with pytest.raises(MetricError, match=r"not finite \(node 0\)") as info:
                step_flow(m, 1e-3)
            assert type(info.value) is MetricError and len(calls) == nan_at


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
    # the metric is checked on w when made, and the reference checks its
    # components first; 5e-324, 1e-160 and 1e155 are valid, but 5e-324 squared
    # is 0.0, so its g^00 = w / (w w) divides by zero, 1e-160 squared is
    # subnormal and (1e155)^2 overflows, and the step fails on what follows
    for value in (0.0, -0.0, -1.0, np.nan, np.inf, 5e-324, 1e-160, 1e155):
        comps = _random_w_comps(n, seed, amp, scale)
        comps[node + (0, 0)] = comps[node + (1, 1)] = value

        def checked():
            ref.check_metric(grid, comps)
            return LeafMetric(grid, comps)

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got = _step_outcome(step_flow, lambda: LeafMetric(grid, comps), dt, with_pack)
            assert got == _step_outcome(ref.step_flow, checked, dt, with_pack)


def _stage_w_I_metric():
    """A torus metric one bit off w I: g00 = 1 - 2^-53 beside g11 = 1.0 at the minimum of w,
    where K < 0, so an RK stage grows both past 1.0, and at about every other dt rounds them to
    one float, which makes the stage exactly w I."""
    grid = make_torus_grid(16)
    x, y = grid.coordinate_fields()
    comps = np.zeros(grid.shape + (2, 2))
    comps[..., 0, 0] = comps[..., 1, 1] = (1.0 + 0.3 * np.sin(x) * np.sin(y)) / 0.7
    comps[4, 12, 0, 0], comps[4, 12, 1, 1] = np.nextafter(1.0, 0.0), 1.0
    return LeafMetric(grid, comps)


_TWO_BRANCH_CASES = {
    "round-sphere": lambda: sphere_metric(1.3, 48),
    "sphere-w": lambda: LeafMetric(make_sphere_grid(48), 1.0 + 0.2 * np.cos(make_sphere_grid(48).axes[0])),
    "bump": lambda: torus_bump_metric(0.3, 16),
    "random-w": lambda: _random_w(17, 3, 0.4, 1.5),
    "sheared": lambda: _sheared_bump(0.3, 17, 0.2),
    "stage-w-I": _stage_w_I_metric,
}


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(list(_TWO_BRANCH_CASES)), dt=st.floats(1e-5, 1e-3), with_pack=st.booleans())
def test_step_flow_is_the_two_branch_step_bit_for_bit(case, dt, with_pack):
    # one RK4 path in the metric's own form against two separate RK4 loops: on w with a bare
    # check of each stage's w, and on the symmetrized components
    m = _TWO_BRANCH_CASES[case]()
    assert (m.w is None) == (case in ("sheared", "stage-w-I"))
    got = _step_outcome(step_flow, m, dt, with_pack)
    assert isinstance(got, bytes) and got == _step_outcome(ref.two_branch_step, m, dt, with_pack)


def test_a_components_stage_exactly_w_I_steps_as_the_two_branch_step(monkeypatch):
    # a stage of the components state made a metric exactly w I keeps w alone, and its
    # Ricci factor K w is taken back to the components as (K w) I
    import nullflow.flow as flow

    m, made = _stage_w_I_metric(), []
    assert m.w is None
    make = flow.LeafMetric
    monkeypatch.setattr(flow, "LeafMetric", lambda grid, values: made.append(make(grid, values)) or made[-1])
    hits = 0
    for dt in np.linspace(1e-4, 5e-3, 12):
        made.clear()
        out = step_flow(m, dt)
        assert out.comps.tobytes() == ref.two_branch_step(m, dt).comps.tobytes()
        hits += any(stage.w is not None for stage in made[:3])
    assert hits >= 6


def test_a_negative_zero_off_the_diagonal_steps_as_its_positive_zero_twin():
    # g01 = g10 = -0.0 is still w I, so the step runs on w and writes +0.0
    twin = torus_bump_metric(0.3, 16)
    comps = twin.comps.copy()
    comps[..., 0, 1] = comps[..., 1, 0] = -0.0
    m = LeafMetric(twin.grid, comps)
    assert m.w is not None
    assert step_flow(m, 1e-3).comps.tobytes() == step_flow(twin, 1e-3).comps.tobytes()


def test_a_metric_symmetric_only_within_the_tolerance_steps():
    # g10 = 1e-14 beside g01 = 0 passes np.allclose's atol; where K < 0 the metric
    # grows, and a stage state not symmetrized would grow g10 past that atol
    twin = torus_bump_metric(0.3, 16)
    k = curvature(twin).K
    node = np.unravel_index(np.argmin(k), k.shape)
    comps = twin.comps.copy()
    comps[node + (1, 0)] = 1e-14
    m = LeafMetric(twin.grid, comps)
    assert m.w is None and k[node] < 0.0
    out = step_flow(m, 1e-3)
    assert np.array_equal(out.comps[..., 0, 1], out.comps[..., 1, 0])
    assert np.allclose(out.comps, step_flow(twin, 1e-3).comps, rtol=1e-12, atol=1e-13)


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("case", sorted(_NON_FINITE_HEAT_RUNS))
def test_a_non_finite_heat_field_fails_without_a_numpy_warning(monkeypatch, case, value):
    import json
    import warnings

    import nullflow.flow as flow
    from nullflow.config import parse_config

    scenario, flow_doc, _ = _NON_FINITE_HEAT_RUNS[case]
    cfg = parse_config(json.dumps({"scenario": scenario, "flow": flow_doc, "heat_initial": "cosine-mode"}))
    metric = cfg.build_metric()
    calls, laplacian = [], flow.laplace_beltrami

    def poisoned(metric, u, pack):
        out = laplacian(metric, u, pack)
        calls.append(1)
        if len(calls) == 9:
            out.flat[0] = value
        return out

    monkeypatch.setattr(flow, "laplace_beltrami", poisoned)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(FlowError, match=r"heat solution is not finite at node 0 \(u = (nan|inf)\)$"):
            run_flow(metric, cfg.flow, u0=cfg.build_heat_initial(metric))
    assert [str(w.message) for w in seen] == []


def _rk4_amplification(z):
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def _count_laplacians(monkeypatch):
    import nullflow.flow as flow

    calls, laplacian = [], flow.laplace_beltrami
    monkeypatch.setattr(flow, "laplace_beltrami", lambda *a: calls.append(1) or laplacian(*a))
    return calls


def test_conformal_heat_substeps_damp_the_stiffest_mode_by_rk4s_factor(monkeypatch):
    # on g = w I with w constant, 2 + eps (-1)^(i+j) is an eigenvector of w^-1 Delta0 with
    # the stiffest eigenvalue, -8 / (w h^2) = -4 diffusion_rate; each RK4 substep of size s
    # multiplies its amplitude by R(-4 s rate), which the substep limit keeps in (0, 1)
    w, grid = 2.5, flat_torus_metric(n=32).grid
    pack = curvature(LeafMetric(grid, w * np.broadcast_to(np.eye(2), grid.shape + (2, 2))))
    eigenvalue = -8.0 / (w * grid.spacings[0] ** 2)
    assert eigenvalue == pytest.approx(-4.0 * pack.diffusion_rate, rel=1e-15)
    i, j = np.indices(grid.shape)
    board = (-1.0) ** (i + j)
    dt = 5.5 * 0.6 / pack.diffusion_rate
    calls = _count_laplacians(monkeypatch)
    u = _heat_substep(pack, 2.0 + 0.5 * board, dt, HEAT_PLAIN)
    assert len(calls) == 4 * 6  # six RK4 substeps, where a limit of 0.2 / rate took 17
    factor = _rk4_amplification(eigenvalue * dt / 6)
    assert 0.0 < factor < 1.0
    assert np.max(np.abs(u - (2.0 + 0.5 * factor**6 * board))) <= 1e-12 * 0.5 * factor**6


@pytest.mark.parametrize("heat", [HEAT_PLAIN, HEAT_CONJUGATE])
def test_conformal_heat_substeps_split_into_fifths_agree(heat):
    # one half step of 11 substeps against five of 3 (another size), at the torus
    # workloads' largest resolution: RK4's error at the limit, which falls as the
    # substep's fourth power and so as n^-8, is far below REL_TOL there (measured
    # 3.8e-14 for heat and 2.1e-13 for conjugate heat; 8e-9 at n = 32)
    m = torus_bump_metric(0.3, 128)
    pack = curvature(m)
    x, y = m.grid.coordinate_fields()
    u0 = 2.0 + np.sin(x) * np.cos(y)
    rate = pack.diffusion_rate + (float(np.max(np.abs(pack.scal))) if heat == HEAT_CONJUGATE else 0.0)
    dt = 10.5 * 0.6 / rate
    whole = _heat_substep(pack, u0, dt, heat)
    parts = u0
    for _ in range(5):
        parts = _heat_substep(pack, parts, dt / 5, heat)
    assert not np.array_equal(whole, parts)
    assert np.max(np.abs(whole - parts) / np.abs(whole)) <= 1e-11


@pytest.mark.parametrize("name, laplacians", [("torus-verify-64", 400), ("torus-backward-128", 160)])
def test_seed_zero_torus_heat_takes_the_pinned_number_of_laplacians(monkeypatch, name, laplacians):
    # a count, not a timing: 800 and 448 at a substep limit of 0.2 / rate
    import json

    from nullflow.config import parse_config
    from test_invariants import _torus_config

    cfg = parse_config(json.dumps(_torus_config(name)))
    metric = cfg.build_metric()
    calls = _count_laplacians(monkeypatch)
    run_flow(metric, cfg.flow, u0=cfg.build_heat_initial(metric))
    assert len(calls) == laplacians


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
        ric = curvature(metric).K[..., None, None] * metric.comps  # Ric = K g
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
