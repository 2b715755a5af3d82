"""Time integration of the leaf-metric flow and coupled heat equations.

The leaf metric evolves by dg'/dt = -2 Ric'(g') (forward) or +2 Ric'
(backward).  Only forward steps are taken, with classical RK4, in the
metric's own form: the conformal factor alone where Ric' = K g' keeps
g' = w g_0 so (every scenario: the flat g_0 on the torus, the round one on
the sphere chart, where dw/dt = Delta_0 log w - 2), else the 2x2
components; a backward run reverses a forward one.  Each RK stage and each
step ends in a LeafMetric, so each is checked by the metric's own rule.
A scalar density u can be co-evolved by the heat equation
(Delta - d/dt)u = 0 or the conjugate heat equation
(d/dt - Delta + Scal')u = 0, interleaved Strang-style so u sees
time-centered metrics.  Integration stops early with a recorded singular
time when an eigenvalue of a step's metric (or checked stage) is <= 0 or below
the threshold (the shrinking-sphere collapse); a NaN or inf is a MetricError.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grids import ScalarField, field_values, finite_real
from .metric import CurvaturePack, LeafMetric, SingularMetricError, laplace_beltrami, ricci
from .metric import curvature as curvature_pack

FORWARD = "forward"
BACKWARD = "backward"
HEAT_NONE = "none"
HEAT_PLAIN = "heat"
HEAT_CONJUGATE = "conjugate-heat"

REACHED_T_END = "reached-t_end"
SINGULAR = "singular"

_CFL_NUMBER = 0.2
# Heat substeps on g = w g_0: w^-1 Delta0 is self-adjoint in the w-weighted (on the sphere
# chart w sin(theta)-weighted) inner product, so its spectrum is real, and by Gershgorin
# in [-4 diffusion_rate, 0]: the rows of the periodic 5-point Delta0 sum to 8 / h^2, those
# of the chart's flux form to 2 (s_{i+1/2} + s_{i-1/2}) / (s_i h^2) <= 4 / h^2, s = sin(theta).
# Conjugate heat's -Scal' shifts it by at most max|Scal'|.  RK4's amplification R(z) lies
# in (0, 1) on the real z in (-2.785, 0), and a substep h with h (diffusion_rate +
# max|Scal'|) <= 0.6 keeps h (4 diffusion_rate + max|Scal'|) <= 2.4 within it.  The heat
# substeps on a metric not of that form keep _CFL_NUMBER.
_CONFORMAL_HEAT_CFL = 0.6
_EPS = float(np.finfo(float).eps)


class FlowError(ValueError):
    pass


@dataclass
class FlowConfig:
    direction: str = FORWARD
    t_end: float = 0.45
    dt_initial: float = 1e-4
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
    """One classical RK4 step of d state/dt = rate(state) from its rate k1 at ``state``, in the
    textbook order of operations and so bit for bit (a + b == b + a), but accumulated in place: the
    stages refill one buffer, and k2 takes the sum, each k scaled once its stage is formed.  ``state``
    and ``k1`` are never written; ``rate`` returns a fresh array and keeps no reference to its input."""
    stage = k1 * (0.5 * dt)
    stage += state
    acc = rate(stage)  # k2, then the weighted sum
    np.multiply(acc, 0.5 * dt, out=stage)
    stage += state
    acc *= 2.0
    acc += k1
    k3 = rate(stage)
    np.multiply(k3, dt, out=stage)
    stage += state
    acc += np.multiply(k3, 2.0, out=k3)
    del k3  # freed before k4 is made
    acc += rate(stage)
    acc *= dt / 6.0
    acc += state
    return acc


def step_flow(metric: LeafMetric, dt: float, pack: CurvaturePack | None = None) -> LeafMetric:
    """One forward RK4 step of dg'/dt = -2 Ric'(g') in the metric's own form: the state is
    ``metric.w`` where g' = w g_0, which Ric' = K g' keeps so, else ``metric.comps``, and the
    rate is -2 ``ricci`` of each stage made a LeafMetric, so checked as every metric is.
    Stage 1 reads K off ``pack``, the metric's own CurvaturePack, when given."""
    if dt <= 0:
        raise FlowError("dt must be positive")
    grid, state = metric.grid, metric.comps if metric.w is None else metric.w

    def rate(m, pack=None):
        k = ricci(m, pack)
        if k.ndim < state.ndim:  # a components stage exactly w g_0, on the torus: (K w) I
            k = k[..., None, None] * np.eye(2)
        k *= -2.0
        return k

    return LeafMetric(grid, _rk4(state, rate(metric, pack), lambda s: rate(LeafMetric(grid, s)), dt))


def _heat_rhs(pack: CurvaturePack, u: np.ndarray, scal: np.ndarray | None) -> np.ndarray:
    lap = laplace_beltrami(pack.metric, u, pack)
    return lap if scal is None else np.subtract(lap, scal * u, out=lap)


def _heat_substep(pack: CurvaturePack, u: np.ndarray, dt: float, mode: str) -> np.ndarray:
    """Advance u by dt on the frozen metric of ``pack`` with RK4, CFL-limited
    substeps that share its inverse, diffusion rate and the Christoffel symbols its
    Laplacian reads (none on w g_0); conjugate heat also reads Scal' = 2K, which
    plain heat never computes.  A substep h keeps h (diffusion_rate + max|Scal'|) at
    or below _CONFORMAL_HEAT_CFL on w g_0, where RK4 is provably stable, and
    _CFL_NUMBER elsewhere.  A NaN or inf in u raises
    FlowError, and numpy prints no warning for it first."""
    scal = pack.scal if mode == HEAT_CONJUGATE else None
    rate = pack.diffusion_rate
    if scal is not None:
        rate += float(np.max(np.abs(scal)))
    dt_cfl = (_CFL_NUMBER if pack.metric.w is None else _CONFORMAL_HEAT_CFL) / rate
    nsub = max(1, int(np.ceil(dt / dt_cfl)))
    h = dt / nsub
    with np.errstate(invalid="ignore", over="ignore"):  # the check below fails a NaN or inf
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
    Termination reasons: reached-t_end or singular (with the singular time).

    Backward runs (dg'/dt = +2 Ric') are realized as the time reversal of
    a forward integration: stepping the backward equation explicitly is
    exponentially ill-posed (a backward heat equation), while the reversed
    forward trajectory satisfies it exactly.  The coupled conjugate heat
    equation is then solved forward in t along the stored samples, which
    is its well-posed direction.
    """
    if config.direction == BACKWARD:
        fwd = run_flow(initial, replace(config, direction=FORWARD, heat=HEAT_NONE))
        if fwd.termination != REACHED_T_END:
            raise FlowError("backward run unreachable: the auxiliary forward integration "
                            f"terminated {fwd.termination} before t_end")
        # the auxiliary run is discarded, so its samples need no copy
        traj = FlowTrajectory(config.t_end - fwd.times[::-1], fwd.metrics[::-1], None, REACHED_T_END)
        if config.heat != HEAT_NONE:
            if u0 is None:
                raise FlowError("heat coupling requires initial data u0")
            traj.heat_fields = _solve_on_trajectory(traj, u0, config.heat)
        return traj
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
        dt_step = min(config.dt_initial, config.t_end - t)
        heat_active = u is not None and t < heat_t_max
        try:
            if heat_active:
                h_dt = min(dt_step, heat_t_max - t)
                u = _heat_substep(pack, u, 0.5 * h_dt, config.heat)
            new_metric = step_flow(metric, dt_step, pack)
            if new_metric.smallest_eigenvalue < threshold:  # the collapse, caught below
                raise SingularMetricError(f"metric eigenvalue below the singular threshold {threshold:.3e}")
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
        if config.t_end - t <= step * _EPS * config.t_end:
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
