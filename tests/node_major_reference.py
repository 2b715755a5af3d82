"""Reference kernels on node-major tensors (components on the last axes),
with np.roll periodic stencils, a full Hessian tensor and einsum traces.

nullflow.metric and nullflow.grids compute the same quantities on the same
node-major arrays with slice stencils; the tests require the two routes to
agree bit for bit.  ``step_flow`` is the flow's RK4 step on the
2x2 components, which nullflow.flow takes on w alone for g = w I.
"""
import numpy as np

from nullflow.grids import PERIODIC_2D, SPHERICAL_1D, _extend_even
from nullflow.metric import (
    DIM,
    LeafMetric,
    MetricError,
    SingularMetricError,
    _conformal_factor,
    _gauss_curvature_conformal,
    ricci,
)


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
    if grid.topology == SPHERICAL_1D:  # surface-of-revolution formula
        a, b = metric.comps[..., 0, 0], metric.comps[..., 1, 1]
        root = np.sqrt(a * b)
        inner = partial_deriv(grid, b, 0) / root
        return -partial_deriv(grid, inner, 0) / (2.0 * root)
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
    return np.einsum("...ab,...ab->...", inverse(metric), hessian(metric, values))


def _min_eigenvalue(comps):
    """The smaller eigenvalue per node, from the four components; a zero
    determinant fails first, then an eigenvalue <= 0 or NaN."""
    g = comps
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    if np.any(det == 0.0):
        raise SingularMetricError("singular metric matrix")
    tr = g[..., 0, 0] + g[..., 1, 1]
    lam = 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
    if not np.all(lam > 0.0):
        node = int(np.argmin(lam))
        raise SingularMetricError(f"metric not positive definite (node {node}, eigenvalue {lam.flat[node]:.3e})")
    return lam


def check_metric(grid, comps):
    """The checks of a metric in their order, on its four components: shape,
    symmetry as np.allclose(g01, g10, atol=1e-14) decides it (a non-finite
    component named by node), then :func:`_min_eigenvalue`, which it returns."""
    comps = np.asarray(comps, dtype=float)
    if comps.shape != grid.shape + (DIM, DIM):
        raise MetricError(f"metric component shape {comps.shape} invalid")
    if not np.all(np.isclose(comps[..., 0, 1], comps[..., 1, 0], atol=1e-14)):
        bad = ~np.isfinite(comps).all(axis=(-2, -1))
        if bad.any():
            raise MetricError(f"metric components are not finite (node {int(np.argmax(bad))})")
        raise MetricError("metric components are not symmetric")
    return _min_eigenvalue(comps)


def _component_rate(grid, comps):
    """-2 Ric' of the components on a periodic grid, after their checks."""
    _min_eigenvalue(comps)
    w = _conformal_factor(comps)
    if w is None:
        return -2.0 * ricci(LeafMetric(grid, comps))
    return -2.0 * (_gauss_curvature_conformal(grid, w)[..., None, None] * comps)


def step_flow(metric, dt, pack=None):
    """nullflow.flow.step_flow on a periodic grid as it stepped every metric:
    RK4 on the (n0, n1, 2, 2) components, symmetrized after the step, each
    stage's components checked."""
    grid, g = metric.grid, metric.comps
    k1 = -2.0 * ricci(metric) if pack is None else -2.0 * pack.ricci
    k2 = _component_rate(grid, g + 0.5 * dt * k1)
    k3 = _component_rate(grid, g + 0.5 * dt * k2)
    k4 = _component_rate(grid, g + dt * k3)
    out = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return LeafMetric(grid, 0.5 * (out + np.swapaxes(out, -1, -2)))
