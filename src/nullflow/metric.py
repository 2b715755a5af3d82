"""Leaf metrics, curvature, and differential operators.

The leaf is a 2-D Riemannian manifold discretized on a structured grid.
In two dimensions every curvature is carried by the Gauss curvature K:
Ric = K g, Scal = 2K and Rm = K (g_ac g_bd - g_ad g_bc), so K is the only
curvature computed here and the rest are derived from it.  On periodic
grids K comes from the finite-difference Christoffel / Ricci construction,
Ric_sn = sum_m R^m_{smn}, whose m = n summand is exactly 0.0 (an array
minus itself), so only m = 1 - n and the half of the d_d Gamma^c_ab it
reads are computed.  On spherical 1-D grids (diagonal metrics
a(x) dx^2 + b(x) dy^2) it comes from the surface-of-revolution formula

    K = -(1 / (2 sqrt(ab))) d/dx ( b' / sqrt(ab) ),

which stays uniformly second-order accurate up to the excluded poles of
the chart, where the generic route loses accuracy to the cot(theta)
singularity of the Christoffel symbols.

Every periodic scenario starts as g = w I, and the flow keeps that form bit
for bit.  For such a metric (g01 and g10 zero, g00 == g11 at every node)
every Christoffel symbol is +-p or +-q, with gi = g^00 = g^11 = w / (w w),
p = gi d_0 w / 2 and q = gi d_1 w / 2.  :func:`gauss_curvature`, the one place
that picks K's route, then drops the Christoffel route's products by
g^01 = +-0 and its pairs that cancel exactly, which can change only the sign
of an exact zero.  In 2-D sqrt(g) g^ab is conformally invariant, so the
Laplacian is flat, gi (d_00 f + d_11 f), and a pack of g = w I builds its
Christoffel symbols only if a Hessian reads them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import (
    SPHERICAL_1D,
    LeafGrid,
    field_values,
    mixed_deriv,
    partial_deriv,
    periodic_laplacian,
    second_deriv,
)

DIM = 2  # leaf dimension for every built-in scenario


def _node_major(soa: np.ndarray, ncomp: int) -> np.ndarray:
    """Node-major view (grid axes first) of component-major storage."""
    return soa.transpose(tuple(range(ncomp, soa.ndim)) + tuple(range(ncomp)))


def _component_major(t: np.ndarray, ncomp: int) -> np.ndarray:
    """Contiguous component-major storage of a node-major tensor (no copy of a view)."""
    return np.ascontiguousarray(t.transpose(tuple(range(-ncomp, 0)) + tuple(range(t.ndim - ncomp))))


def _trace(g, t) -> np.ndarray:
    """g^ab t_ab from components ``g[a][b]``, ``t[a][b]``, with the products
    paired as np.einsum("...ab,...ab->...") pairs them on node-major arrays."""
    return (g[0][0] * t[0][0] + g[1][0] * t[1][0]) + (g[0][1] * t[0][1] + g[1][1] * t[1][1])


def _conformal_factor(comps: np.ndarray) -> np.ndarray | None:
    """w, contiguous, when ``comps`` is exactly w I: g01 and g10 zero and g00 ==
    g11 at every node (a NaN fails); None otherwise."""
    w = comps[..., 0, 0]
    if np.any(comps[..., 0, 1]) or np.any(comps[..., 1, 0]) or not np.array_equal(w, comps[..., 1, 1]):
        return None
    return np.ascontiguousarray(w)


def _conformal_w(metric: "LeafMetric") -> np.ndarray | None:
    """w of a metric exactly w I off the sphere chart (the conformal kernels' case), else None."""
    return None if metric.grid.topology == SPHERICAL_1D else _conformal_factor(metric.comps)


class MetricError(ValueError):
    pass


class SingularMetricError(MetricError):
    pass


def _min_eigenvalue(tr: np.ndarray, det: np.ndarray) -> np.ndarray:
    """The smaller eigenvalue of a symmetric 2x2 matrix from its trace and determinant."""
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr - disc)


def _require_positive(lam: np.ndarray):
    if not np.all(lam > 0.0):  # a NaN eigenvalue fails too
        node = int(np.argmin(lam))
        raise SingularMetricError(f"metric not positive definite (node {node}, eigenvalue {lam.flat[node]:.3e})")


@dataclass
class LeafMetric:
    """Symmetric positive-definite metric g'_ab sampled per node."""

    grid: LeafGrid
    comps: np.ndarray  # shape = grid.shape + (2, 2)

    def __post_init__(self):
        self.comps = np.asarray(self.comps, dtype=float)
        if self.comps.shape != self.grid.shape + (DIM, DIM):
            raise MetricError(f"metric component shape {self.comps.shape} invalid")
        # the predicate of np.allclose(a, b, atol=1e-14), without its call overhead
        a, b = self.comps[..., 0, 1], self.comps[..., 1, 0]
        with np.errstate(invalid="ignore"):  # inf - inf
            close = (a == b) | ((np.abs(a - b) <= 1e-14 + 1e-5 * np.abs(b)) & np.isfinite(b))
        if not np.all(close):
            bad = ~np.isfinite(self.comps).all(axis=(-2, -1))
            if bad.any():  # a non-finite component fails the test above, so name it
                raise MetricError(f"metric components are not finite (node {int(np.argmax(bad))})")
            raise MetricError("metric components are not symmetric")

    @classmethod
    def _unchecked(cls, grid: LeafGrid, comps: np.ndarray) -> "LeafMetric":
        """Skips the symmetry check: for the RK stages of the flow only."""
        metric = object.__new__(cls)
        metric.grid, metric.comps = grid, comps
        return metric

    def determinant(self) -> np.ndarray:
        g = self.comps
        return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]

    def min_eigenvalue(self) -> np.ndarray:
        g = self.comps
        return _min_eigenvalue(g[..., 0, 0] + g[..., 1, 1], self.determinant())

    def require_positive_definite(self):
        _require_positive(self.min_eigenvalue())

    def inverse(self) -> np.ndarray:
        det = self.determinant()
        if np.any(det == 0.0):
            raise SingularMetricError("singular metric matrix")
        g = self.comps
        inv = np.empty((DIM, DIM) + det.shape)
        inv[0, 0] = g[..., 1, 1] / det
        inv[1, 1] = g[..., 0, 0] / det
        inv[0, 1] = -g[..., 0, 1] / det
        inv[1, 0] = -g[..., 1, 0] / det
        return _node_major(inv, 2)

    def copy(self) -> "LeafMetric":
        return LeafMetric(self.grid, self.comps.copy())


class CurvaturePack:
    """The geometry of one frozen metric, checked and built once by
    :func:`curvature` for every operator on it: the inverse g^ab, stored as
    contiguous components ``ginv_c[a, b]`` for the kernels, and, on first
    read, the Christoffel symbols ``gamma_c[c, a, b]`` and the Gauss curvature
    K.  The 2-D Ricci and scalar curvatures are derived from K; Riemann,
    K (g_ac g_bd - g_ad g_bc), is not provided."""

    def __init__(self, metric: LeafMetric, ginv: np.ndarray):
        self.metric = metric
        # g = w I exactly: laplace_beltrami takes the flat form
        self.conformal = _conformal_w(metric) is not None
        self.ginv_c = _component_major(ginv, 2)

    @cached_property
    def gamma_c(self) -> np.ndarray:
        return _component_major(christoffel(self.metric, self.ginv), 3)

    @property
    def grid(self) -> LeafGrid:
        return self.metric.grid

    @property
    def ginv(self) -> np.ndarray:
        """g^ab, shape + (a, b): a node-major view of ``ginv_c``."""
        return _node_major(self.ginv_c, 2)

    @property
    def christoffel(self) -> np.ndarray:
        """Gamma^c_ab, shape + (c, a, b): a node-major view of ``gamma_c``."""
        return _node_major(self.gamma_c, 3)

    @cached_property
    def K(self) -> np.ndarray:
        return gauss_curvature(self.metric, self)

    @cached_property
    def grad_scal(self) -> np.ndarray:
        """|grad Scal'| per node."""
        return np.sqrt(grad_norm_sq(self.metric, self.scal, self))

    @property
    def ricci(self) -> np.ndarray:
        """Ric_ab = K g_ab, shape + (a, b)."""
        return self.K[..., None, None] * self.metric.comps

    @property
    def scal(self) -> np.ndarray:
        return 2.0 * self.K


def christoffel(metric: LeafMetric, ginv: np.ndarray | None = None) -> np.ndarray:
    """Gamma^c_ab = 1/2 g^cd (d_a g_db + d_b g_da - d_d g_ab), stored component-major;
    ``ginv`` is a checked metric's inverse (a pack's), else the metric is checked here."""
    if ginv is None:
        metric.require_positive_definite()
        ginv = metric.inverse()
    ginv = _component_major(ginv, 2)
    # dg[d][a, b] = d_d g_ab, component-major: the stencils keep their input's layout
    comps = _node_major(_component_major(metric.comps, 2), 2)
    dg = [_component_major(partial_deriv(metric.grid, comps, axis=d), 2) for d in range(DIM)]
    gamma = np.empty((DIM, DIM, DIM) + metric.grid.shape)
    for a in range(DIM):
        for b in range(DIM):
            # the bracket d_a g_db + d_b g_da - d_d g_ab does not depend on c
            b0, b1 = (dg[a][d, b] + dg[b][d, a] - dg[d][a, b] for d in range(DIM))
            for c in range(DIM):
                gamma[c, a, b] = 0.5 * (ginv[c, 0] * b0 + ginv[c, 1] * b1)
    return _node_major(gamma, 3)


def _gauss_curvature_symmetric(metric: LeafMetric) -> np.ndarray:
    g = metric.comps
    a = g[..., 0, 0]
    b = g[..., 1, 1]
    if np.max(np.abs(g[..., 0, 1])) > 1e-12 * max(np.max(a), np.max(b)):
        raise MetricError("spherical 1-D curvature requires a diagonal metric")
    grid = metric.grid
    root = np.sqrt(a * b)
    inner = partial_deriv(grid, b, 0) / root
    return -partial_deriv(grid, inner, 0) / (2.0 * root)


def _gauss_curvature_generic(pack: CurvaturePack) -> np.ndarray:
    """Ric_sn = sum_m R^m_{smn} from Gamma and its derivatives; returns K = Scal/2.

    In R^r_{smn} = d_m Gamma^r_ns - d_n Gamma^r_ms + Gamma^r_ml Gamma^l_ns - Gamma^r_nl Gamma^l_ms
    the m = n summand is an array minus itself, exactly 0.0 for finite Gamma, so
    Ric_sn is the m = 1 - n summand alone, in the full sum's order.  It reads only
    dgamma[d][c, s] = d_d Gamma^c_{1-d, s}: 4 of the 8 components per axis.  The
    terms, the symmetrization and the trace are formed in place, in the order of
    ``0.5 * _trace(ginv, 0.5 * (ric + ric.swapaxes(0, 1)))``."""
    grid, gamma = pack.grid, pack.gamma_c
    dgamma = [_component_major(partial_deriv(grid, _node_major(gamma[:, 1 - d], 2), axis=d), 2)
              for d in range(DIM)]
    ric = np.empty((DIM, DIM) + grid.shape)
    p, q = np.empty(grid.shape), np.empty(grid.shape)  # hold every product and partial sum below
    for s in range(DIM):
        for n in range(DIM):
            m = 1 - n
            term = np.subtract(dgamma[m][m, s], dgamma[n][m, s], out=ric[s, n])
            for l in range(DIM):
                np.multiply(gamma[m, m, l], gamma[l, n, s], out=p)
                term += np.subtract(p, np.multiply(gamma[m, n, l], gamma[l, m, s], out=q), out=p)
    # ric = 0.5 * (ric + ric.swapaxes(0, 1)); both off-diagonal entries are p
    for s in range(DIM):
        ric[s, s] += ric[s, s]
        ric[s, s] *= 0.5
    np.add(ric[0, 1], ric[1, 0], out=p)
    p *= 0.5
    # 0.5 * _trace(ginv, ric), in its order
    g, t00, t11 = pack.ginv_c, ric[0, 0], ric[1, 1]
    t00 *= g[0, 0]
    t00 += np.multiply(g[1, 0], p, out=q)
    t11 *= g[1, 1]
    t00 += np.add(np.multiply(g[0, 1], p, out=q), t11, out=q)
    return np.multiply(t00, 0.5, out=q)


def _gauss_curvature_conformal(grid: LeafGrid, w: np.ndarray, checked: bool = False) -> np.ndarray:
    """K of g = w I, with the checks of :func:`curvature` unless its pack made
    them (``checked``), and the operations of :func:`_gauss_curvature_generic`
    on Gamma^0_00 = Gamma^1_01 = -Gamma^0_11 = p and Gamma^1_11 = Gamma^0_01 =
    -Gamma^1_00 = q:

        K = 0.5 (((T + A) - A) gi + ((T - A) + A) gi),  T = -(d_1 q + d_0 p),
        A = p p + q q,

    where ric_01 + ric_10 and every product by g^01 = +-0 are exact zeros.  The
    checks read w alone: on w I the metric's trace is w + w and its determinant
    w w bit for bit, so they raise what LeafMetric's raise, at the same node."""
    ww = w * w  # the determinant
    if not checked:
        if np.any(ww == 0.0):
            raise SingularMetricError("singular metric matrix")
        _require_positive(_min_eigenvalue(w + w, ww))
    gi = np.divide(w, ww, out=ww)
    p, q = partial_deriv(grid, w, 0), partial_deriv(grid, w, 1)
    for c in (p, q):
        c *= gi
        c *= 0.5
    t, d = partial_deriv(grid, q, 1), partial_deriv(grid, p, 0)
    t += d
    np.negative(t, out=t)
    a = np.multiply(p, p, out=p)
    a += np.multiply(q, q, out=q)
    k = np.add(t, a, out=d)
    k -= a
    k *= gi
    t -= a
    t += a
    t *= gi
    k += t
    k *= 0.5
    return k


def gauss_curvature(metric: LeafMetric, pack: CurvaturePack | None = None) -> np.ndarray:
    """Gauss curvature K per node, the one place that picks its route: the
    surface-of-revolution formula on spherical charts, the conformal one on
    g = w I exactly, else the Christoffel route on ``pack`` (built if not given)."""
    if metric.grid.topology == SPHERICAL_1D:
        return _gauss_curvature_symmetric(metric)
    w = _conformal_factor(metric.comps)
    if w is None:
        return _gauss_curvature_generic(curvature(metric) if pack is None else pack)
    return _gauss_curvature_conformal(metric.grid, w, checked=pack is not None)


def curvature(metric: LeafMetric) -> CurvaturePack:
    """The checked geometry pack of ``metric``; its one inversion serves Gamma, K and the kernels."""
    ginv = metric.inverse()
    metric.require_positive_definite()
    return CurvaturePack(metric, ginv)


def ricci(metric: LeafMetric) -> np.ndarray:
    """Ricci tensor K g (the flow's right-hand side)."""
    return gauss_curvature(metric)[..., None, None] * metric.comps


def _inverse_and_differential(metric: LeafMetric, field, pack: CurvaturePack | None):
    """g^ab (the pack's, when given) and d_a f, both node-major."""
    values = field_values(field, metric.grid)
    ginv = metric.inverse() if pack is None else pack.ginv
    df = np.stack([partial_deriv(metric.grid, values, axis=d) for d in range(DIM)], axis=-1)
    return ginv, df


def gradient(metric: LeafMetric, field, pack: CurvaturePack | None = None) -> np.ndarray:
    """Contravariant gradient (grad f)^a = g^ab d_b f, shape grid + (2,)."""
    ginv, df = _inverse_and_differential(metric, field, pack)
    return np.einsum("...ab,...b->...a", ginv, df)


def grad_norm_sq(metric: LeafMetric, field, pack: CurvaturePack | None = None) -> np.ndarray:
    """||grad f||^2 = g^ab d_a f d_b f >= 0."""
    ginv, df = _inverse_and_differential(metric, field, pack)
    out = np.einsum("...ab,...a,...b->...", ginv, df, df)
    return np.maximum(out, 0.0)


def hessian(metric: LeafMetric, field, gamma: np.ndarray | None = None) -> np.ndarray:
    """Covariant Hessian f_ab = d_a d_b f - Gamma^c_ab d_c f."""
    values = field_values(field, metric.grid)
    grid = metric.grid
    if gamma is None:
        gamma = christoffel(metric)
    gamma = _component_major(gamma, 3)
    df = [partial_deriv(grid, values, axis=d) for d in range(DIM)]
    hess = np.empty((DIM, DIM) + grid.shape)
    hess[0, 0] = second_deriv(grid, values, 0)
    hess[1, 1] = second_deriv(grid, values, 1)
    hess[0, 1] = hess[1, 0] = mixed_deriv(grid, values)
    for a in range(DIM):
        for b in range(DIM):
            for c in range(DIM):
                hess[a, b] -= gamma[c, a, b] * df[c]
    return _node_major(hess, 2)


def laplace_beltrami(metric: LeafMetric, field, pack: CurvaturePack | None = None) -> np.ndarray:
    """Delta f = g^ab f_ab, the trace of :func:`hessian`, on ``pack`` (built from
    ``metric`` if not given).  A conformal pack takes the flat form
    gi (d_00 f + d_11 f), which reads no Christoffel symbol; the sphere chart
    skips the terms that vanish on its diagonal metric."""
    values = field_values(field, metric.grid)
    pack = curvature(metric) if pack is None else pack
    grid, g = metric.grid, pack.ginv_c
    if pack.conformal:
        return g[0, 0] * periodic_laplacian(grid, values)
    if grid.topology == SPHERICAL_1D:
        # d_1 f, d_11 f and d_01 f vanish, and so do g^01 and Gamma^0_01 of
        # the chart's diagonal metric
        G, d0 = pack.gamma_c, partial_deriv(grid, values, 0)
        h00 = second_deriv(grid, values, 0) - G[0, 0, 0] * d0
        return g[0, 0] * h00 + g[1, 1] * (0.0 - G[0, 1, 1] * d0)
    return _trace(g, _component_major(hessian(metric, values, pack.christoffel), 2))


def bochner_residual(metric: LeafMetric, field) -> np.ndarray:
    """Residual of Delta||grad f||^2 = 2||Hess f||^2 + 2<grad f, grad Delta f>
    + 2 Ric(grad f, grad f); converges to zero on smooth fields.

    The sign of the Hessian-squared term is the one that makes the residual
    vanish identically on the flat torus.
    """
    values = field_values(field, metric.grid)
    pack = curvature(metric)
    ginv, df = _inverse_and_differential(metric, values, pack)
    gradsq = grad_norm_sq(metric, values, pack)
    lhs = laplace_beltrami(metric, gradsq, pack)
    hess = hessian(metric, values, gamma=pack.christoffel)
    hess_sq = np.einsum("...ac,...bd,...ab,...cd->...", ginv, ginv, hess, hess)
    lap = laplace_beltrami(metric, values, pack)
    dlap = np.stack([partial_deriv(metric.grid, lap, d) for d in range(DIM)], axis=-1)
    cross = np.einsum("...ab,...a,...b->...", ginv, df, dlap)
    ric_term = np.einsum("...ac,...bd,...cd,...a,...b->...", ginv, ginv, pack.ricci, df, df)
    return lhs - 2.0 * hess_sq - 2.0 * cross - 2.0 * ric_term


def ricci_identity_residual(metric: LeafMetric, field) -> np.ndarray:
    """Residual of the commutation rule for third covariant derivatives,

        div(Hess f)_i - (Delta f)_i = Ric_ij (grad f)^j,

    contracted against (grad f)^i.
    """
    values = field_values(field, metric.grid)
    grid = metric.grid
    pack = curvature(metric)
    gamma, ginv = pack.gamma_c, pack.ginv_c
    hess_view = hessian(metric, values, gamma=pack.christoffel)
    hess = _component_major(hess_view, 2)
    # covariant divergence of the Hessian: B_i = g^jk ( d_k H_ij - G^l_ki H_lj - G^l_kj H_il )
    dhess = [_component_major(partial_deriv(grid, hess_view, axis=k), 2) for k in range(DIM)]
    cov = np.empty((DIM, DIM, DIM) + grid.shape)  # (k, i, j) -> nabla_k H_ij
    for k in range(DIM):
        for i in range(DIM):
            for j in range(DIM):
                term = dhess[k][i, j]
                for l in range(DIM):
                    term = term - gamma[l, k, i] * hess[l, j]
                    term = term - gamma[l, k, j] * hess[i, l]
                cov[k, i, j] = term
    div_hess = np.stack([_trace(ginv, cov[:, i].swapaxes(0, 1)) for i in range(DIM)], axis=-1)
    lap = _trace(ginv, hess)
    dlap = np.stack([partial_deriv(grid, lap, d) for d in range(DIM)], axis=-1)
    gradf = gradient(metric, values, pack)
    ric_low = np.einsum("...ij,...j->...i", pack.ricci, gradf)
    resid = div_hess - dlap - ric_low
    return np.einsum("...i,...i->...", gradf, resid)
