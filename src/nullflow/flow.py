"""Time integration of the leaf-metric flow and coupled heat equations.

The leaf metric evolves by dg'/dt = -2 Ric'(g') (forward) or +2 Ric'
(backward).  Only forward steps are taken, with classical RK4, on w alone
where g' = w I (every torus scenario; Ric' = K g' keeps the form), else on
the 2x2 components, symmetrized; a backward run reverses a forward one.
A scalar density u can be co-evolved by the heat equation
(Delta - d/dt)u = 0 or the conjugate heat equation
(d/dt - Delta + Scal')u = 0, interleaved Strang-style so u sees
time-centered metrics.  Integration stops early with a recorded
singular time when the metric loses positive definiteness (the
shrinking-sphere collapse).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grids import LeafGrid, ScalarField, field_values, finite_real
from .metric import DIM, CurvaturePack, LeafMetric, MetricError, SingularMetricError
from .metric import _conformal_w, _gauss_curvature_conformal, laplace_beltrami, ricci
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
BOUND_SLACK = 1e-9  # relative slack of measured curvature bounds


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


def step_flow(metric: LeafMetric, dt: float, pack: CurvaturePack | None = None) -> LeafMetric:
    """One forward RK4 step of dg'/dt = -2 Ric'(g'); stage 1 reads K off ``pack``, the
    metric's own CurvaturePack, when given.  On g' = w I the state is w and the rate
    -2 K w, from the conformal K, which checks each stage's w I.  The step is bit for
    bit that of the components, taken on the sphere chart, on any other metric and
    where a -0.0 is off the diagonal (which that step can keep)."""
    if dt <= 0:
        raise FlowError("dt must be positive")
    metric.require_positive_definite()
    grid, g = metric.grid, metric.comps
    w = _conformal_w(metric)
    if w is not None and (np.signbit(g[..., 0, 1]).any() or np.signbit(g[..., 1, 0]).any()):
        w = None
    if w is None:
        state, rhs = g, lambda c: -2.0 * ricci(LeafMetric._unchecked(grid, c))
        k1 = rhs(state) if pack is None else -2.0 * pack.ricci
    else:
        state, rhs = w, lambda v: -2.0 * (_gauss_curvature_conformal(grid, v) * v)
        k1 = rhs(state) if pack is None else -2.0 * (pack.K * w)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if w is None:
        return LeafMetric(grid, 0.5 * (out + np.swapaxes(out, -1, -2)))
    # as symmetrized components: 0.5 (w + w), and +0.0 off the diagonal, where the
    # rates -2 K (+-0) are NaN only at a K not finite, which only k4 can show
    out += out
    out *= 0.5
    if not np.all(np.isfinite(k4)):
        raise MetricError(f"metric components are not finite (node {int(np.argmax(~np.isfinite(out)))})")
    comps = np.zeros(grid.shape + (DIM, DIM))
    comps[..., 0, 0] = comps[..., 1, 1] = out
    return LeafMetric(grid, comps)


def _check_singular(metric: LeafMetric, threshold: float):
    lam = metric.min_eigenvalue()
    if not np.all(lam >= threshold):  # a NaN eigenvalue fails too
        node = int(np.argmin(lam))
        raise SingularMetricError(f"metric singular at node {node} (eigenvalue {lam.flat[node]:.3e})")


def _heat_rhs(pack: CurvaturePack, u: np.ndarray, scal: np.ndarray | None) -> np.ndarray:
    lap = laplace_beltrami(pack.metric, u, pack)
    return lap if scal is None else lap - scal * u


def _diffusion_rate(grid: LeafGrid, ginv: np.ndarray) -> float:
    """Explicit-stability rate sum of g^aa / h_a^2 over active axes.

    On 1-D reduced grids derivatives along the symmetry axis vanish, so
    only axis 0 contributes.
    """
    return sum(
        float(np.max(ginv[..., a, a])) / grid.spacings[a] ** 2
        for a in range(grid.ndim_grid)
    )


def _heat_substep(pack: CurvaturePack, u: np.ndarray, dt: float, mode: str) -> np.ndarray:
    """Advance u by dt on the frozen metric of ``pack`` with RK4, CFL-limited
    substeps that all share its inverse (and its Christoffel symbols off w I);
    conjugate heat also reads Scal' = 2K, which plain heat never computes."""
    scal = pack.scal if mode == HEAT_CONJUGATE else None
    rate = _diffusion_rate(pack.grid, pack.ginv)
    if scal is not None:
        rate += float(np.max(np.abs(scal)))
    dt_cfl = _CFL_NUMBER / rate
    nsub = max(1, int(np.ceil(dt / dt_cfl)))
    h = dt / nsub
    for _ in range(nsub):
        k1 = _heat_rhs(pack, u, scal)
        k2 = _heat_rhs(pack, u + 0.5 * h * k1, scal)
        k3 = _heat_rhs(pack, u + 0.5 * h * k2, scal)
        k4 = _heat_rhs(pack, u + h * k3, scal)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if np.any(u <= 0.0):
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
    initial.require_positive_definite()
    if config.heat != HEAT_NONE:
        if u0 is None:
            raise FlowError("heat coupling requires initial data u0")
        u = field_values(u0, initial.grid).copy()
        if np.any(u <= 0.0):
            raise FlowError("heat initial data must be positive everywhere")
    else:
        u = None

    threshold = config.eps_singular_rel * float(np.min(initial.min_eigenvalue()))
    heat_t_max = config.heat_t_max if config.heat_t_max is not None else config.t_end

    t = 0.0
    dt = config.dt_initial
    metric = initial.copy()
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
            rate = _diffusion_rate(metric.grid, metric.inverse())
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


@dataclass
class CurvatureBounds:
    """Curvature scales (rho1, rho2, rho3) entering the estimate hypotheses:
    Scal' >= -rho1, Ric' >= -rho2 g', and |grad Scal'| <= rho3."""

    rho1: float = 0.0
    rho2: float = 0.0
    rho3: float = 0.0

    def __post_init__(self):
        if self.rho1 < 0 or self.rho2 < 0 or self.rho3 < 0:
            raise FlowError("curvature bounds must be nonnegative")

    @classmethod
    def from_suprema(cls, sups: dict) -> "CurvatureBounds":
        """Smallest bounds covering :func:`curvature_suprema`, with slack."""
        bump = 1.0 + BOUND_SLACK
        return cls(
            max(sups["neg_scal_sup"], 0.0) * bump,
            max(sups["neg_ricci_eig_sup"], 0.0) * bump,
            max(sups["grad_scal_sup"], 0.0) * bump,
        )


def curvature_suprema(trajectory: FlowTrajectory, masks=None) -> dict:
    """Suprema of -Scal', -Ric', Ric' and |grad Scal'| over the samples.

    In 2-D both g'-relative Ricci eigenvalues equal the Gauss curvature K,
    so the Ricci suprema are max(-K) and max(K).  ``masks`` restricts
    sample k to the nodes where ``masks[k]`` is True; samples with an
    empty mask or past the end of ``masks`` are skipped, and every
    supremum is -inf if all are.
    """
    sups = dict.fromkeys(
        ("neg_scal_sup", "neg_ricci_eig_sup", "ricci_eig_sup", "grad_scal_sup"), -np.inf
    )
    if masks is None:
        masks = [np.ones(trajectory.grid.shape, dtype=bool)] * len(trajectory.metrics)
    for k, mask in enumerate(masks):
        if not np.any(mask):
            continue
        pack = trajectory.curvature(k)
        K = pack.K[mask]
        for key, values in (
            ("neg_scal_sup", -pack.scal[mask]),
            ("neg_ricci_eig_sup", -K),
            ("ricci_eig_sup", K),
            ("grad_scal_sup", pack.grad_scal[mask]),
        ):
            sups[key] = max(sups[key], float(np.max(values)))
    return sups
