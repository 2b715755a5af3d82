"""Reference kernels on node-major tensors (components on the last axes),
with np.roll periodic stencils, sphere chart stencils on a copy extended by
two reflected ghost nodes at each pole, a full Hessian tensor and einsum
traces.

nullflow.metric and nullflow.grids compute the same quantities on the same
node-major arrays with slice stencils; the tests require the two routes to
agree bit for bit.  Every metric is w g_0, and the kernels here read its 2x2
components ``metric.comps``: on the torus K is the full Christoffel / Ricci
sum, m = n summands and products by g^01 = +-0 included.  On the sphere
chart K, the Laplacian and the flow step read w = g00 alone, with the round
metric's Laplacian in flux form (:func:`round_laplacian`).  ``step_flow`` is
the textbook RK4 step on w, each stage's w checked by :func:`_check_w` and
its rate -2 K w taken with the K here.
"""
import numpy as np

from nullflow.grids import PERIODIC_2D, SPHERICAL_1D
from nullflow.metric import DIM, LeafMetric, MetricError, SingularMetricError


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


def check_metric(grid, w):
    """The smallest eigenvalue w g11_0 of w g_0 per node (w on the torus, w sin^2(theta) on the
    chart), checked: shape, then a w not finite, then an eigenvalue <= 0 or NaN, each named by
    its first node."""
    w = np.asarray(w, dtype=float)
    if w.shape != grid.shape:
        raise MetricError(f"metric shape {w.shape} invalid")
    bad = ~np.isfinite(w)
    if bad.any():
        node = int(np.argmax(bad))
        raise MetricError(f"metric components are not finite (node {node})", node)
    lam = w * np.sin(grid.axes[0]) ** 2 if grid.topology == SPHERICAL_1D else w
    if not np.all(lam > 0.0):
        node = int(np.argmin(lam))
        raise SingularMetricError(f"metric not positive definite (node {node}, eigenvalue {lam.flat[node]:.3e})", node)
    return lam


def textbook_rk4(state, k1, rate, dt):
    """The allocating RK4 expression that ``flow._rk4`` accumulates in place."""
    k2 = rate(state + 0.5 * dt * k1)
    k3 = rate(state + 0.5 * dt * k2)
    k4 = rate(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rate(grid, w):
    """-2 K w of a stage's w, after its check."""
    _check_w(w)
    return -2.0 * (gauss_curvature(LeafMetric(grid, w)) * w)


def step_flow(metric, dt, pack=None):
    """The flow's RK4 step on w, textbook order, each stage's w checked by :func:`_check_w`;
    stage 1 reads K off ``pack`` when given."""
    grid, w = metric.grid, metric.w
    k1 = -2.0 * ((gauss_curvature(metric) if pack is None else pack.K) * w)
    return LeafMetric(grid, textbook_rk4(w, k1, lambda s: _rate(grid, s), dt))
