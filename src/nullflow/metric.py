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

A LeafMetric is checked and classified once, where it is made, and its
``comps`` are never edited in place after, so no kernel checks its metric
again.  On w I the checks read w alone: the trace w + w and the determinant
w w are bit for bit those of the components, so they fail at the same nodes.

Every tensor is stored node-major, grid axes first and components last, as
``LeafMetric.comps``: g^ab, Ricci and the Hessian have shape grid + (2, 2),
Gamma^c_ab grid + (2, 2, 2).
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


def _trace(g, t) -> np.ndarray:
    """g^ab t_ab per node, with the products paired as np.einsum("...ab,...ab->...")
    pairs them."""
    return ((g[..., 0, 0] * t[..., 0, 0] + g[..., 1, 0] * t[..., 1, 0])
            + (g[..., 0, 1] * t[..., 0, 1] + g[..., 1, 1] * t[..., 1, 1]))


def _conformal_factor(comps: np.ndarray) -> np.ndarray | None:
    """w, contiguous, when ``comps`` is exactly w I: g01 and g10 zero and g00 ==
    g11 at every node (a NaN fails); None otherwise."""
    w = comps[..., 0, 0]
    if np.any(comps[..., 0, 1]) or np.any(comps[..., 1, 0]) or not np.array_equal(w, comps[..., 1, 1]):
        return None
    return np.ascontiguousarray(w)


class MetricError(ValueError):
    """A metric rejected when made; ``node`` is the flat index of the node it names, if any."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class SingularMetricError(MetricError):
    pass


def _min_eigenvalue(tr: np.ndarray, det: np.ndarray) -> float:
    """The smallest of the smaller eigenvalues of symmetric 2x2 matrices, from
    their traces and determinants, checked: a zero determinant, then an
    eigenvalue <= 0 or NaN, raises SingularMetricError."""
    if np.any(det == 0.0):
        raise SingularMetricError("singular metric matrix", int(np.argmax(det == 0.0)))
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    lam = 0.5 * (tr - disc)
    low = float(lam.min())
    if not low > 0.0:  # a NaN eigenvalue fails too
        node = int(np.argmin(lam))
        raise SingularMetricError(
            f"metric not positive definite (node {node}, eigenvalue {lam.flat[node]:.3e})", node)
    return low


@dataclass
class LeafMetric:
    """Symmetric positive-definite metric g'_ab per node, valid once made, with ``comps``
    never edited in place after: ``w`` is its conformal factor if g' = w I off the sphere
    chart, else None, and ``smallest_eigenvalue`` the least over the nodes."""

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
                node = int(np.argmax(bad))
                raise MetricError(f"metric components are not finite (node {node})", node)
            raise MetricError("metric components are not symmetric")
        self._classify()

    @classmethod
    def _stage(cls, grid: LeafGrid, comps: np.ndarray) -> "LeafMetric":
        """An RK stage state of the flow: not checked for symmetry, nor at all on the sphere chart."""
        metric = object.__new__(cls)
        metric.grid, metric.comps, metric.w = grid, comps, None
        if grid.topology != SPHERICAL_1D:
            metric._classify()
        return metric

    def _classify(self):
        g = self.comps
        w = self.w = None if self.grid.topology == SPHERICAL_1D else _conformal_factor(g)
        tr, det = (g[..., 0, 0] + g[..., 1, 1], self.determinant()) if w is None else (w + w, w * w)
        self.smallest_eigenvalue = _min_eigenvalue(tr, det)

    def determinant(self) -> np.ndarray:
        g = self.comps
        return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]

    def inverse(self) -> np.ndarray:
        det = self.determinant()
        g = self.comps
        inv = np.empty(det.shape + (DIM, DIM))
        inv[..., 0, 0] = g[..., 1, 1] / det
        inv[..., 1, 1] = g[..., 0, 0] / det
        inv[..., 0, 1] = -g[..., 0, 1] / det
        inv[..., 1, 0] = -g[..., 1, 0] / det
        return inv


class CurvaturePack:
    """The geometry of one frozen metric, built once by :func:`curvature` for
    every operator on it: the inverse ``ginv`` (g^ab, shape grid + (a, b))
    and, on first read, the Christoffel symbols (Gamma^c_ab, shape
    grid + (c, a, b)) and the Gauss curvature K.  The 2-D Ricci and scalar
    curvatures are derived from K; Riemann, K (g_ac g_bd - g_ad g_bc), is not
    provided."""

    def __init__(self, metric: LeafMetric, ginv: np.ndarray):
        self.metric = metric
        self.ginv = ginv

    @cached_property
    def christoffel(self) -> np.ndarray:
        return christoffel(self.metric, self.ginv)

    @property
    def grid(self) -> LeafGrid:
        return self.metric.grid

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
    """Gamma^c_ab = 1/2 g^cd (d_a g_db + d_b g_da - d_d g_ab), shape grid + (c, a, b),
    on ``ginv``, the metric's inverse (a pack's), when given."""
    ginv = metric.inverse() if ginv is None else ginv
    dg = [partial_deriv(metric.grid, metric.comps, axis=d) for d in range(DIM)]  # d_d g_ab
    gamma = np.empty(metric.grid.shape + (DIM, DIM, DIM))
    for a in range(DIM):
        for b in range(DIM):
            # the bracket d_a g_db + d_b g_da - d_d g_ab does not depend on c
            b0, b1 = (dg[a][..., d, b] + dg[b][..., d, a] - dg[d][..., a, b] for d in range(DIM))
            for c in range(DIM):
                gamma[..., c, a, b] = 0.5 * (ginv[..., c, 0] * b0 + ginv[..., c, 1] * b1)
    return gamma


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
    dgamma[d][..., c, s] = d_d Gamma^c_{1-d, s}: 4 of the 8 components per axis."""
    grid, gamma = pack.grid, pack.christoffel
    dgamma = [partial_deriv(grid, gamma[..., 1 - d, :], axis=d) for d in range(DIM)]
    ric = np.empty(grid.shape + (DIM, DIM))
    for s in range(DIM):
        for n in range(DIM):
            m = 1 - n
            term = dgamma[m][..., m, s] - dgamma[n][..., m, s]
            for l in range(DIM):
                term = term + (gamma[..., m, m, l] * gamma[..., l, n, s]
                               - gamma[..., m, n, l] * gamma[..., l, m, s])
            ric[..., s, n] = term
    return 0.5 * _trace(pack.ginv, 0.5 * (ric + ric.swapaxes(-1, -2)))


def _gauss_curvature_conformal(grid: LeafGrid, w: np.ndarray) -> np.ndarray:
    """K of g = w I, with the operations of :func:`_gauss_curvature_generic`
    on Gamma^0_00 = Gamma^1_01 = -Gamma^0_11 = p and Gamma^1_11 = Gamma^0_01 =
    -Gamma^1_00 = q:

        K = 0.5 (((T + A) - A) gi + ((T - A) + A) gi),  T = -(d_1 q + d_0 p),
        A = p p + q q,

    where ric_01 + ric_10 and every product by g^01 = +-0 are exact zeros.  It
    checks nothing: w is a metric's, or an RK stage's that the flow checked."""
    ww = w * w  # the determinant
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
    if metric.w is not None:
        return _gauss_curvature_conformal(metric.grid, metric.w)
    if metric.grid.topology == SPHERICAL_1D:
        return _gauss_curvature_symmetric(metric)
    return _gauss_curvature_generic(curvature(metric) if pack is None else pack)


def curvature(metric: LeafMetric) -> CurvaturePack:
    """The geometry pack of ``metric``; its one inversion serves Gamma, K and the kernels."""
    return CurvaturePack(metric, metric.inverse())


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
    """||grad f||^2 = g^ab d_a f d_b f >= 0, summed in the order of
    np.einsum("...ab,...a,...b->...")."""
    g, df = _inverse_and_differential(metric, field, pack)
    d0, d1 = df[..., 0], df[..., 1]
    out = ((g[..., 0, 0] * d0 * d0 + g[..., 0, 1] * d0 * d1) + g[..., 1, 0] * d1 * d0) + g[..., 1, 1] * d1 * d1
    return np.maximum(out, 0.0)


def hessian(metric: LeafMetric, field, gamma: np.ndarray | None = None) -> np.ndarray:
    """Covariant Hessian f_ab = d_a d_b f - Gamma^c_ab d_c f."""
    values = field_values(field, metric.grid)
    grid = metric.grid
    if gamma is None:
        gamma = christoffel(metric)
    df = [partial_deriv(grid, values, axis=d) for d in range(DIM)]
    hess = np.empty(grid.shape + (DIM, DIM))
    hess[..., 0, 0] = second_deriv(grid, values, 0)
    hess[..., 1, 1] = second_deriv(grid, values, 1)
    hess[..., 0, 1] = hess[..., 1, 0] = mixed_deriv(grid, values)
    for a in range(DIM):
        for b in range(DIM):
            for c in range(DIM):
                hess[..., a, b] -= gamma[..., c, a, b] * df[c]
    return hess


def laplace_beltrami(metric: LeafMetric, field, pack: CurvaturePack | None = None) -> np.ndarray:
    """Delta f = g^ab f_ab, the trace of :func:`hessian`, on ``pack`` (built from
    ``metric`` if not given).  On g = w I it takes the flat form
    gi (d_00 f + d_11 f), which reads no Christoffel symbol; the sphere chart
    skips the terms that vanish on its diagonal metric."""
    values = field_values(field, metric.grid)
    pack = curvature(metric) if pack is None else pack
    grid, g = metric.grid, pack.ginv
    if metric.w is not None:
        return g[..., 0, 0] * periodic_laplacian(grid, values)
    if grid.topology == SPHERICAL_1D:
        # d_1 f, d_11 f and d_01 f vanish, and so do g^01 and Gamma^0_01 of
        # the chart's diagonal metric
        G, d0 = pack.christoffel, partial_deriv(grid, values, 0)
        h00 = second_deriv(grid, values, 0) - G[..., 0, 0, 0] * d0
        return g[..., 0, 0] * h00 + g[..., 1, 1] * (0.0 - G[..., 0, 1, 1] * d0)
    return _trace(g, hessian(metric, values, pack.christoffel))


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
    gamma, ginv = pack.christoffel, pack.ginv
    hess = hessian(metric, values, gamma=gamma)
    # covariant divergence of the Hessian: B_i = g^jk ( d_k H_ij - G^l_ki H_lj - G^l_kj H_il )
    dhess = [partial_deriv(grid, hess, axis=k) for k in range(DIM)]
    cov = np.empty(grid.shape + (DIM, DIM, DIM))  # (k, i, j) -> nabla_k H_ij
    for k in range(DIM):
        for i in range(DIM):
            for j in range(DIM):
                term = dhess[k][..., i, j]
                for l in range(DIM):
                    term = term - gamma[..., l, k, i] * hess[..., l, j]
                    term = term - gamma[..., l, k, j] * hess[..., i, l]
                cov[..., k, i, j] = term
    div_hess = np.stack([_trace(ginv, cov[..., i, :].swapaxes(-1, -2)) for i in range(DIM)], axis=-1)
    lap = _trace(ginv, hess)
    dlap = np.stack([partial_deriv(grid, lap, d) for d in range(DIM)], axis=-1)
    gradf = gradient(metric, values, pack)
    ric_low = np.einsum("...ij,...j->...i", pack.ricci, gradf)
    resid = div_hess - dlap - ric_low
    return np.einsum("...i,...i->...", gradf, resid)
