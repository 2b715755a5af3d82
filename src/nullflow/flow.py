"""Time integration of the leaf-metric flow and coupled heat equations.

The leaf metric evolves by dg'/dt = -2 Ric'(g') (forward) or +2 Ric'
(backward).  Only forward steps are taken, with classical RK4, on the
diagonal alone where Ric' = K g' keeps it so (w on g' = w I, (a, b) on
the sphere chart), else on the 2x2 components; a backward run reverses a
forward one.  Each step ends in a LeafMetric, valid once made and never
edited in place, so only the RK stage states, which are not metrics, are
checked here.
A scalar density u can be co-evolved by the heat equation
(Delta - d/dt)u = 0 or the conjugate heat equation
(d/dt - Delta + Scal')u = 0, interleaved Strang-style so u sees
time-centered metrics.  Integration stops early with a recorded singular
time when a step's metric is not positive definite or its smallest
eigenvalue falls below the threshold (the shrinking-sphere collapse).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grids import SPHERICAL_1D, ScalarField, field_values, finite_real
from .metric import DIM, CurvaturePack, LeafMetric, MetricError, SingularMetricError, laplace_beltrami, ricci
from .metric import _conformal_min_eigenvalue, _gauss_curvature_conformal, _gauss_curvature_symmetric
from .metric import curvature as curvature_pack

FORWARD = "forward"
BACKWARD = "backward"
HEAT_NONE = "none"
HEAT_PLAIN = "heat"
HEAT_CONJUGATE = "conjugate-heat"

REACHED_T_END = "reached-t_end"
SINGULAR = "singular"
STEP_UNDERFLOW = "step-underflow"

_CFL_NUMBER = 0.2


class FlowError(ValueError):
    pass


@dataclass
class FlowConfig:
    direction: str = FORWARD
    t_end: float = 0.45
    dt_initial: float = 1e-4
    dt_controller: str = "fixed"  # fixed | cfl-adaptive
    eps_singular_rel: float = 1e-6  # threshold relative to the initial min eigenvalue
    heat: str = HEAT_NONE
    heat_t_max: float | None = None  # stop heat stepping early (stiff near collapse)
    sample_every: int = 100

    def __post_init__(self):
        if self.direction not in (FORWARD, BACKWARD):
            raise FlowError(f"unknown direction {self.direction!r}")
        for key in ("t_end", "dt_initial", "eps_singular_rel"):
            value = getattr(self, key)
            if not (finite_real(value) and value > 0):
                raise FlowError(f"{key} must be a finite number above 0, got {value!r}")
        if self.dt_controller not in ("fixed", "cfl-adaptive"):
            raise FlowError(f"unknown dt controller {self.dt_controller!r}")
        if self.heat not in (HEAT_NONE, HEAT_PLAIN, HEAT_CONJUGATE):
            raise FlowError(f"unknown heat coupling {self.heat!r}")
        if type(self.sample_every) is not int or self.sample_every < 1:
            raise FlowError("sample_every must be an integer of at least 1")
        if self.heat_t_max is not None and not (finite_real(self.heat_t_max) and self.heat_t_max > 0):
            raise FlowError(f"heat_t_max must be a finite number above 0, got {self.heat_t_max!r}")
        if self.heat_t_max is not None and (self.direction == BACKWARD or self.heat == HEAT_NONE):
            raise FlowError("heat_t_max applies only to a forward run with heat")


@dataclass
class FlowTrajectory:
    times: np.ndarray
    metrics: list  # LeafMetric per sample
    heat_fields: list | None  # ScalarField values per sample, or None
    termination: str
    singular_time: float | None = None
    heat_valid_until: float | None = None  # u frozen past this time (if set)
    curvatures: list = field(default_factory=list)  # lazily filled CurvaturePacks
    sweeps: dict = field(default_factory=dict)  # (center, rho) -> the verify sweep of estimates

    @property
    def grid(self):
        return self.metrics[0].grid

    def curvature(self, k):
        """CurvaturePack for sample k, cached."""
        if not self.curvatures:
            self.curvatures = [None] * len(self.metrics)
        if self.curvatures[k] is None:
            self.curvatures[k] = curvature_pack(self.metrics[k])
        return self.curvatures[k]


def _rk4(state: np.ndarray, k1: np.ndarray, rate, dt: float) -> np.ndarray:
    """One classical RK4 step of d state/dt = rate(state), from its rate k1 at ``state``."""
    k2 = rate(state + 0.5 * dt * k1)
    k3 = rate(state + 0.5 * dt * k2)
    k4 = rate(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_flow(metric: LeafMetric, dt: float, pack: CurvaturePack | None = None) -> LeafMetric:
    """One forward RK4 step of dg'/dt = -2 Ric'(g'); stage 1 reads K off ``pack``, the
    metric's own CurvaturePack, when given.  Ric' = K g' keeps a diagonal metric diagonal,
    so the state is the diagonal d alone, with the rate -2 K d: ``metric.w`` on g' = w I,
    whose stages 2-4 are checked as metrics are, and the sphere chart's unchecked (a, b).
    That is bit for bit the components' step, error included, on every metric with +0.0
    off the diagonal, where it writes +0.0: a chart metric with a tiny accepted g01 (at
    most 1e-12 of its largest g_aa) steps to +0.0.  Any other metric is stepped as its
    components, symmetrized, each stage checked as metrics are but not for symmetry."""
    if dt <= 0:
        raise FlowError("dt must be positive")
    grid, w, g = metric.grid, metric.w, metric.comps
    if w is None and grid.topology != SPHERICAL_1D:
        k1 = -2.0 * (ricci(metric) if pack is None else pack.ricci)
        out = _rk4(g, k1, lambda c: -2.0 * ricci(LeafMetric._stage(grid, c)), dt)
        return LeafMetric(grid, 0.5 * (out + np.swapaxes(out, -1, -2)))
    if w is None:  # the chart's (a, b), contiguous
        state = np.diagonal(g, 0, -2, -1).T.copy()

        def curvature(d):
            return _gauss_curvature_symmetric(grid, d[0], d[1])
    else:
        state, curvature = w, lambda v: _gauss_curvature_conformal(grid, v)
    ks = [curvature(state) if pack is None else pack.K]

    def rate(d):
        if w is not None:  # a stage's w, checked as a LeafMetric checks w I
            _conformal_min_eigenvalue(d)
        ks.append(curvature(d))
        return -2.0 * (ks[-1] * d)

    out = _rk4(state, -2.0 * (ks[0] * state), rate, dt)
    # as symmetrized components: 0.5 (d + d) on the diagonal and +0.0 off it, where the rates
    # -2 K (+0.0) are NaN only at a K not finite, and there d is not finite either
    out += out
    out *= 0.5
    comps = np.zeros(grid.shape + (DIM, DIM))
    comps[..., 0, 0], comps[..., 1, 1] = (out, out) if w is not None else out
    if not np.isfinite(out).all() and not all(np.isfinite(k).all() for k in ks):
        node = int(np.argmax(~np.isfinite(comps).all(axis=(-2, -1))))
        raise MetricError(f"metric components are not finite (node {node})", node)
    return LeafMetric(grid, comps)


def _check_singular(metric: LeafMetric, threshold: float):
    lam = metric.smallest_eigenvalue
    if lam < threshold:
        raise SingularMetricError(f"metric singular (eigenvalue {lam:.3e} below {threshold:.3e})")


def _heat_rhs(pack: CurvaturePack, u: np.ndarray, scal: np.ndarray | None) -> np.ndarray:
    lap = laplace_beltrami(pack.metric, u, pack)
    return lap if scal is None else lap - scal * u


def _heat_substep(pack: CurvaturePack, u: np.ndarray, dt: float, mode: str) -> np.ndarray:
    """Advance u by dt on the frozen metric of ``pack`` with RK4, CFL-limited
    substeps that share its inverse, diffusion rate and the Christoffel symbols its
    Laplacian reads (none on w I, two on the sphere chart); conjugate heat also
    reads Scal' = 2K, which plain heat never computes."""
    scal = pack.scal if mode == HEAT_CONJUGATE else None
    rate = pack.diffusion_rate
    if scal is not None:
        rate += float(np.max(np.abs(scal)))
    dt_cfl = _CFL_NUMBER / rate
    nsub = max(1, int(np.ceil(dt / dt_cfl)))
    h = dt / nsub
    for _ in range(nsub):
        u = _rk4(u, _heat_rhs(pack, u, scal), lambda v: _heat_rhs(pack, v, scal), h)
    if not (u.min() > 0.0 and u.max() < np.inf):  # a NaN fails both
        bad = ~np.isfinite(u)
        if bad.any():
            node = int(np.argmax(bad))
            raise FlowError(f"heat solution is not finite at node {node} (u = {u.flat[node]})")
        node = int(np.argmin(u))
        raise FlowError(f"heat solution lost positivity at node {node} (u = {u.flat[node]:.3e})")
    return u


def run_flow(initial: LeafMetric, config: FlowConfig, u0: ScalarField | None = None) -> FlowTrajectory:
    """Integrate the flow (optionally co-evolving u) and sample the state.

    Samples are stored every ``sample_every`` steps plus the final state.
    Termination reasons: reached-t_end, singular (with the singular time),
    or step-underflow for a collapsed adaptive step.

    Backward runs (dg'/dt = +2 Ric') are realized as the time reversal of
    a forward integration: stepping the backward equation explicitly is
    exponentially ill-posed (a backward heat equation), while the reversed
    forward trajectory satisfies it exactly.  The coupled conjugate heat
    equation is then solved forward in t along the stored samples, which
    is its well-posed direction.
    """
    if config.direction == BACKWARD:
        return _run_backward(initial, config, u0)
    if config.heat != HEAT_NONE:
        if u0 is None:
            raise FlowError("heat coupling requires initial data u0")
        u = field_values(u0, initial.grid).copy()
        if np.any(u <= 0.0):
            raise FlowError("heat initial data must be positive everywhere")
    else:
        u = None

    threshold = config.eps_singular_rel * initial.smallest_eigenvalue
    heat_t_max = config.heat_t_max if config.heat_t_max is not None else config.t_end

    t = 0.0
    dt = config.dt_initial
    metric = initial
    # the geometry of ``metric`` while heat runs, else None; each step's second
    # heat half builds the next one
    pack = curvature_pack(metric) if u is not None else None
    times, metrics, packs = [], [], []
    heats = [] if u is not None else None

    def store():
        # the stored metric is never modified, so its pack serves verify
        times.append(t)
        metrics.append(metric)
        packs.append(pack)
        if heats is not None:
            heats.append(ScalarField(metric.grid, u.copy()))

    store()
    termination = REACHED_T_END
    singular_time = None
    step = 0
    while t < config.t_end:
        dt_step = min(dt, config.t_end - t)
        if config.dt_controller == "cfl-adaptive":
            # the linearized flow diffuses with coefficient g^aa along each
            # active axis, so the explicit limit matches the heat stencil's
            rate = curvature_pack(metric).diffusion_rate
            if rate > 0:
                dt_step = min(dt_step, _CFL_NUMBER / rate)
            if dt_step < 1e-12 * config.t_end:
                termination = STEP_UNDERFLOW
                break
        heat_active = u is not None and t < heat_t_max
        try:
            if heat_active:
                h_dt = min(dt_step, heat_t_max - t)
                u = _heat_substep(pack, u, 0.5 * h_dt, config.heat)
            new_metric = step_flow(metric, dt_step, pack)
            _check_singular(new_metric, threshold)
            pack = curvature_pack(new_metric) if heat_active else None
            if heat_active:
                u = _heat_substep(pack, u, 0.5 * h_dt, config.heat)
        except SingularMetricError:
            termination = SINGULAR
            # collapse happened inside this step
            singular_time = t + dt_step
            break
        metric = new_metric
        t += dt_step
        step += 1
        # a remainder within the clock's accumulated rounding is no time left
        if config.t_end - t <= step * np.finfo(float).eps * config.t_end:
            t = config.t_end
        if step % config.sample_every == 0:
            store()

    if termination == REACHED_T_END and times[-1] != t:  # the clock lands on t_end exactly
        store()

    valid_until = heat_t_max if heats is not None and heat_t_max < config.t_end else None
    return FlowTrajectory(
        np.asarray(times), metrics, heats, termination, singular_time,
        heat_valid_until=valid_until, curvatures=packs,
    )


def _run_backward(initial: LeafMetric, config: FlowConfig, u0: ScalarField | None) -> FlowTrajectory:
    fwd = run_flow(initial, replace(config, direction=FORWARD, heat=HEAT_NONE))
    if fwd.termination != REACHED_T_END:
        raise FlowError(
            "backward run unreachable: the auxiliary forward integration "
            f"terminated {fwd.termination} before t_end"
        )
    times = config.t_end - fwd.times[::-1]
    metrics = fwd.metrics[::-1]  # the auxiliary run is discarded, so its samples need no copy
    traj = FlowTrajectory(times, metrics, None, REACHED_T_END)
    if config.heat != HEAT_NONE:
        if u0 is None:
            raise FlowError("heat coupling requires initial data u0")
        traj.heat_fields = _solve_on_trajectory(traj, u0, config.heat)
    return traj


def _solve_on_trajectory(trajectory: FlowTrajectory, u0: ScalarField, mode: str) -> list:
    u = field_values(u0, trajectory.grid).copy()
    if np.any(u <= 0.0):
        raise FlowError("heat initial data must be positive everywhere")
    out = [ScalarField(trajectory.grid, u.copy())]
    for k in range(1, len(trajectory.times)):  # on the cached packs, which verify reuses
        dt = trajectory.times[k] - trajectory.times[k - 1]
        u = _heat_substep(trajectory.curvature(k - 1), u, 0.5 * dt, mode)
        u = _heat_substep(trajectory.curvature(k), u, 0.5 * dt, mode)
        out.append(ScalarField(trajectory.grid, u.copy()))
    return out
