"""Reference kernels on node-major tensors (components on the last axes),
with np.roll periodic stencils, sphere chart stencils on a copy extended by
two reflected ghost nodes at each pole, a full Hessian tensor and einsum
traces.

nullflow.metric and nullflow.grids compute the same quantities on the same
node-major arrays with slice stencils; the tests require the two routes to
agree bit for bit.  ``step_flow`` is the flow's RK4 step on the 2x2
components of a periodic metric, which nullflow.flow takes on w alone for
g = w I.  A sphere chart metric is w g_round, and its K, Laplacian and flow
step read w = g00 alone, with the round metric's Laplacian in flux form
(:func:`round_laplacian`).  ``two_branch_step`` steps a metric w g_0 and any
other metric in two separate RK4 loops, on w with a bare check of each
stage's w, and on the symmetrized components; nullflow.flow's one RK4 path
in the metric's own form must agree with it bit for bit.
"""
import numpy as np

from nullflow.grids import PERIODIC_2D, SPHERICAL_1D
from nullflow.metric import (
    DIM,
    LeafMetric,
    MetricError,
    SingularMetricError,
    _gauss_curvature_conformal,
    conformal_curvature,
)
from nullflow.metric import gauss_curvature as program_gauss_curvature


def _extend_even(values):
    """Two ghost nodes on each end by even reflection across the poles: the
    smooth rotationally symmetric quantities of a collapsed-pole chart are
    even across both."""
    return np.concatenate([values[1::-1], values, values[:-3:-1]], axis=0)


def partial_deriv(grid, values, axis):
    values = np.asarray(values, dtype=float)
    if grid.topology == PERIODIC_2D:
        h = grid.spacings[axis]
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)
    if axis == 1:
        return np.zeros_like(values)
    ext = _extend_even(values)
    return (ext[2:] - ext[:-2])[1:-1] / (2.0 * grid.spacings[0])


def second_deriv(grid, values, axis):
    values = np.asarray(values, dtype=float)
    if grid.topology == PERIODIC_2D:
        h = grid.spacings[axis]
        return (
            np.roll(values, -1, axis=axis) - 2.0 * values + np.roll(values, 1, axis=axis)
        ) / h**2
    if axis == 1:
        return np.zeros_like(values)
    ext = _extend_even(values)
    return (ext[2:] - 2.0 * ext[1:-1] + ext[:-2])[1:-1] / grid.spacings[0] ** 2


def mixed_deriv(grid, values):
    if grid.topology == SPHERICAL_1D:
        return np.zeros_like(np.asarray(values, dtype=float))
    return partial_deriv(grid, partial_deriv(grid, values, 0), 1)


def round_laplacian(grid, values):
    """Delta_0 f of the round metric on the chart, (F_{i+1/2} - F_{i-1/2}) / (h sin theta_i)
    with F_{i+1/2} = sin theta_{i+1/2} (f_{i+1} - f_i) / h and both fluxes through the poles 0."""
    h, n = grid.spacings[0], grid.shape[0]
    face = np.sin(np.arange(1, n) * h) / h
    flux = np.concatenate([[0.0], np.diff(values) * face, [0.0]])
    return np.diff(flux) / (h * np.sin(grid.axes[0]))


def round_curvature(grid, w):
    """K of w g_round, (1 - Delta_0 log w / 2) / w."""
    return (1.0 - 0.5 * round_laplacian(grid, np.log(w))) / w


def _check_w(w):
    """A stage's w checked for w > 0 at every node: not finite fails first, then w <= 0 or NaN."""
    bad = ~np.isfinite(w)
    if bad.any():
        node = int(np.argmax(bad))
        raise MetricError(f"metric components are not finite (node {node})", node)
    if not np.all(w > 0.0):
        node = int(np.argmin(w))
        raise SingularMetricError(f"metric not positive definite (node {node}, eigenvalue {w.flat[node]:.3e})", node)


def _conformal_factor(comps):
    """w = g00 where the periodic ``comps`` are exactly w I at every node, else None."""
    off = (comps[..., 0, 1] != 0.0) | (comps[..., 1, 0] != 0.0) | (comps[..., 1, 1] != comps[..., 0, 0])
    return None if off.any() else comps[..., 0, 0]


def inverse(metric):
    g = metric.comps
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    inv = np.empty_like(g)
    inv[..., 0, 0] = g[..., 1, 1] / det
    inv[..., 1, 1] = g[..., 0, 0] / det
    inv[..., 0, 1] = -g[..., 0, 1] / det
    inv[..., 1, 0] = -g[..., 1, 0] / det
    return inv


def christoffel(metric):
    ginv = inverse(metric)
    dg = [partial_deriv(metric.grid, metric.comps, axis=d) for d in range(DIM)]
    gamma = np.zeros(metric.grid.shape + (DIM, DIM, DIM))
    for c in range(DIM):
        for a in range(DIM):
            for b in range(DIM):
                acc = 0.0
                for d in range(DIM):
                    acc = acc + ginv[..., c, d] * (
                        dg[a][..., d, b] + dg[b][..., d, a] - dg[d][..., a, b]
                    )
                gamma[..., c, a, b] = 0.5 * acc
    return gamma


def gauss_curvature(metric):
    grid = metric.grid
    if grid.topology == SPHERICAL_1D:
        return round_curvature(grid, metric.comps[..., 0, 0])
    gamma = christoffel(metric)
    dgamma = [partial_deriv(grid, gamma, axis=d) for d in range(DIM)]
    ric = np.zeros(grid.shape + (DIM, DIM))
    for s in range(DIM):
        for n in range(DIM):
            acc = 0.0
            for m in range(DIM):
                term = dgamma[m][..., m, n, s] - dgamma[n][..., m, m, s]
                for l in range(DIM):
                    term = term + (
                        gamma[..., m, m, l] * gamma[..., l, n, s]
                        - gamma[..., m, n, l] * gamma[..., l, m, s]
                    )
                acc = acc + term
            ric[..., s, n] = acc
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    return 0.5 * np.einsum("...ab,...ab->...", inverse(metric), ric)


def hessian(metric, values):
    grid = metric.grid
    gamma = christoffel(metric)
    df = [partial_deriv(grid, values, axis=d) for d in range(DIM)]
    hess = np.empty(grid.shape + (DIM, DIM))
    hess[..., 0, 0] = second_deriv(grid, values, 0)
    hess[..., 1, 1] = second_deriv(grid, values, 1)
    cross = mixed_deriv(grid, values)
    hess[..., 0, 1] = cross
    hess[..., 1, 0] = cross
    for a in range(DIM):
        for b in range(DIM):
            for c in range(DIM):
                hess[..., a, b] -= gamma[..., c, a, b] * df[c]
    return hess


def laplace_beltrami(metric, values):
    if metric.grid.topology == SPHERICAL_1D:  # w^-1 Delta_0 f, with g^00 = w / (w w) as on w I
        w = metric.comps[..., 0, 0]
        return round_laplacian(metric.grid, values) * (w / (w * w))
    return np.einsum("...ab,...ab->...", inverse(metric), hessian(metric, values))


def _min_eigenvalue(comps):
    """The smaller eigenvalue per node of the symmetric form g01 spans (g10 is
    within the symmetry check's tolerance of it), checked: a component not
    finite fails first, then an eigenvalue <= 0 or NaN.  It is min(g00, g11)
    where g01 == 0, else det / lam_max = min (max / lam_max) - g01 (g01 / lam_max)
    with lam_max of the form scaled by its largest |entry| (lam_min itself where
    lam_max <= 0), and never above min(g00, g11)."""
    g = comps
    bad = ~np.isfinite(g).all(axis=(-2, -1))
    if bad.any():
        raise MetricError(f"metric components are not finite (node {int(np.argmax(bad))})")
    g00, g01, g11 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    scale = np.abs(np.stack([g00, g11, g01])).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, c = g00 / scale, g11 / scale, g01 / scale
        lam_max = 0.5 * (a + b) + np.hypot(0.5 * (a - b), c)
        small = np.minimum(g00, g11)
        det_over_max = small * (np.maximum(a, b) / lam_max) - g01 * (c / lam_max)
        low = np.where(lam_max > 0.0, det_over_max, (0.5 * (a + b) - np.hypot(0.5 * (a - b), c)) * scale)
        lam = np.where(g01 == 0.0, small, np.minimum(small, low))
    if not np.all(lam > 0.0):
        node = int(np.argmin(lam))
        raise SingularMetricError(f"metric not positive definite (node {node}, eigenvalue {lam.flat[node]:.3e})")
    return lam


def check_metric(grid, comps):
    """The checks of a metric in their order, on its four components: shape,
    symmetry as np.allclose(g01, g10, atol=1e-14) decides it (a non-finite
    component named by node), then, on the mean g01 / 2 + g10 / 2 where they differ,
    :func:`_min_eigenvalue`, which it returns, and on the sphere chart that
    g01 == g10 == 0 and g11 == g00 sin^2(theta) at every node."""
    comps = np.asarray(comps, dtype=float)
    if comps.shape != grid.shape + (DIM, DIM):
        raise MetricError(f"metric component shape {comps.shape} invalid")
    if not np.all(np.isclose(comps[..., 0, 1], comps[..., 1, 0], atol=1e-14)):
        bad = ~np.isfinite(comps).all(axis=(-2, -1))
        if bad.any():
            raise MetricError(f"metric components are not finite (node {int(np.argmax(bad))})")
        raise MetricError("metric components are not symmetric")
    off = comps[..., 0, 1] != comps[..., 1, 0]
    if off.any():
        comps = comps.copy()
        comps[off, 0, 1] = comps[off, 1, 0] = 0.5 * comps[off, 0, 1] + 0.5 * comps[off, 1, 0]
    lam = _min_eigenvalue(comps)
    if grid.topology == SPHERICAL_1D:
        off = ((comps[..., 0, 1] != 0.0) | (comps[..., 1, 0] != 0.0)
               | (comps[..., 1, 1] != comps[..., 0, 0] * np.sin(grid.axes[0]) ** 2))
        if off.any():
            raise MetricError("sphere chart metric not w g_round: g12 != 0 or g22 != g11 sin^2(theta) "
                              f"(node {int(np.argmax(off))})")
    return lam


def _component_rate(grid, comps):
    """-2 Ric' of a periodic metric's components, after their checks."""
    _min_eigenvalue(comps)
    w = _conformal_factor(comps)
    if w is None:
        return -2.0 * (program_gauss_curvature(LeafMetric(grid, comps))[..., None, None] * comps)
    return -2.0 * (_gauss_curvature_conformal(grid, w)[..., None, None] * comps)


def _chart_rate(grid, w):
    """-2 K w of a chart stage's w, after its check."""
    _check_w(w)
    return -2.0 * (round_curvature(grid, w) * w)


def _step_chart(metric, dt, pack):
    """RK4 on w = g00 of a sphere chart metric, each stage's w checked; the
    result is written as w g_round."""
    grid, w = metric.grid, metric.comps[..., 0, 0]
    k1 = -2.0 * ((round_curvature(grid, w) if pack is None else pack.K) * w)
    k2 = _chart_rate(grid, w + 0.5 * dt * k1)
    k3 = _chart_rate(grid, w + 0.5 * dt * k2)
    k4 = _chart_rate(grid, w + dt * k3)
    out = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    comps = np.zeros(metric.comps.shape)
    comps[..., 0, 0] = out
    comps[..., 1, 1] = out * np.sin(grid.axes[0]) ** 2
    return LeafMetric(grid, comps)


def step_flow(metric, dt, pack=None):
    """nullflow.flow.step_flow as it stepped every periodic metric: RK4 on the
    grid + (2, 2) components, symmetrized after the step, each stage's
    components checked; a sphere chart metric steps its w (:func:`_step_chart`)."""
    grid, g = metric.grid, metric.comps
    if grid.topology == SPHERICAL_1D:
        return _step_chart(metric, dt, pack)
    k1 = -2.0 * ((program_gauss_curvature(metric) if pack is None else pack.K)[..., None, None] * g)
    k2 = _component_rate(grid, g + 0.5 * dt * k1)
    k3 = _component_rate(grid, g + 0.5 * dt * k2)
    k4 = _component_rate(grid, g + dt * k3)
    out = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return LeafMetric(grid, 0.5 * (out + np.swapaxes(out, -1, -2)))


def textbook_rk4(state, k1, rate, dt):
    """The allocating RK4 expression that ``flow._rk4`` accumulates in place."""
    k2 = rate(state + 0.5 * dt * k1)
    k3 = rate(state + 0.5 * dt * k2)
    k4 = rate(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def two_branch_step(metric, dt, pack=None):
    """The flow step in two RK4 branches: on g = w g_0 the state is w, with the
    rate -2 K w of the conformal K, each stage's w checked by :func:`_check_w`, and the result
    written as w and w g11_0 on the diagonal; on any other metric the state is the components,
    with the rate -2 K g of the stage symmetrized, 0.5 (c + c^T), and made a LeafMetric, and
    the result symmetrized.  Stage 1 reads K off ``pack`` when given."""
    grid = metric.grid
    if metric.w is None:
        def rate(c):
            sym = 0.5 * (c + np.swapaxes(c, -1, -2))
            return -2.0 * (program_gauss_curvature(LeafMetric(grid, sym))[..., None, None] * sym)

        g = metric.comps
        k1 = -2.0 * ((program_gauss_curvature(metric) if pack is None else pack.K)[..., None, None] * g)
        out = textbook_rk4(g, k1, rate, dt)
        return LeafMetric(grid, 0.5 * (out + np.swapaxes(out, -1, -2)))

    def rate(d):
        _check_w(d)
        return -2.0 * (conformal_curvature(grid, d) * d)

    w = metric.w
    k1 = -2.0 * ((conformal_curvature(grid, w) if pack is None else pack.K) * w)
    out = textbook_rk4(w, k1, rate, dt)
    comps = np.zeros(grid.shape + (DIM, DIM))
    comps[..., 0, 0] = out
    comps[..., 1, 1] = out * grid.background_g11
    return LeafMetric(grid, comps)
