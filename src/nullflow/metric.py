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
singularity of the Christoffel symbols.  The chart's Laplacian reads only
g^00, g^11, Gamma^0_00 and Gamma^0_11, so its pack builds those four from a
and b, and neither inverts the metric nor builds another symbol.

Every periodic scenario starts as g = w I, and the flow keeps that form bit
for bit.  For such a metric (g01 and g10 zero, g00 == g11 at every node)
every Christoffel symbol is +-p or +-q, with gi = g^00 = g^11 = w / (w w),
p = gi d_0 w / 2 and q = gi d_1 w / 2.  :func:`gauss_curvature`, the one place
that picks K's route, then drops the Christoffel route's products by
g^01 = +-0 and its pairs that cancel exactly, which can change only the sign
of an exact zero.  In 2-D sqrt(g) g^ab is conformally invariant, so the
Laplacian is flat, gi (d_00 f + d_11 f), and a pack of g = w I reads gi off w
and builds its Christoffel symbols only if a Hessian reads them.

A LeafMetric is checked and classified once, where it is made, and its
``comps`` are never edited in place after, so no kernel checks its metric
again.  Its smallest eigenvalue follows one rule, min(g00, g11) exactly
where g01 == 0 (on w I that is w), and :func:`_min_eigenvalue` is the one
check of it.

Every tensor is stored node-major, grid axes first and components last, as
``LeafMetric.comps``: g^ab, Ricci and the Hessian have shape grid + (2, 2),
Gamma^c_ab grid + (2, 2, 2).
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


def _smallest_eigenvalues(g00, g01, g11) -> np.ndarray:
    """Per node, the smaller eigenvalue of [[g00, g01], [g01, g11]]: min(g00, g11), exactly, where
    g01 == 0, else det / lam_max on the entries scaled by their largest magnitude, where nothing
    cancels or overflows, and at most min(g00, g11), so that rounding never hides an entry <= 0."""
    lam = np.minimum(g00, g11)
    if g01.any():
        off = g01 != 0.0
        a, b, c = g00[off], g11[off], g01[off]
        s = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
        with np.errstate(all="ignore"):  # where this is not finite, the check fails
            a, b, c = a / s, b / s, c / s
            top = 0.5 * (a + b) + np.hypot(0.5 * (a - b), c)
            lam[off] = np.minimum(lam[off], (a * b - c * c) / top * s)
    return lam


def _min_eigenvalue(lam: np.ndarray, comps: np.ndarray) -> float:
    """The least of ``lam``, the smallest eigenvalue of each node's metric ``comps`` (w, or its
    2x2 components), checked: a component not finite raises MetricError, then an eigenvalue <= 0
    (or a NaN) SingularMetricError, each naming its first node."""
    low = lam.min()
    if low > 0.0 and comps.max() < np.inf:
        return float(low)
    bad = ~np.isfinite(comps.reshape(lam.size, -1)).all(axis=1)
    if bad.any():
        node = int(np.argmax(bad))
        raise MetricError(f"metric components are not finite (node {node})", node)
    node = int(np.argmin(lam))
    raise SingularMetricError(f"metric not positive definite (node {node}, eigenvalue {lam.flat[node]:.3e})", node)


@dataclass
class LeafMetric:
    """Symmetric positive-definite metric g'_ab per node, diagonal on the sphere chart, valid once
    made, with ``comps`` never edited in place after: ``w`` is its conformal factor if g' = w I off
    the sphere chart, else None (a caller that wrote ``comps`` as w I from a contiguous w, as the
    flow step does, passes it, and only w is checked), and ``smallest_eigenvalue`` the least."""

    grid: LeafGrid
    comps: np.ndarray  # shape = grid.shape + (2, 2)
    w: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        g = self.comps = np.asarray(self.comps, dtype=float)
        if g.shape != self.grid.shape + (DIM, DIM):
            raise MetricError(f"metric component shape {g.shape} invalid")
        chart = self.grid.topology == SPHERICAL_1D
        if self.w is None:  # else the caller wrote comps as w I from w, which alone is checked
            a, b = g[..., 0, 1], g[..., 1, 0]
            if not (a == b).all():  # a NaN fails; then np.allclose(a, b, atol=1e-14)'s predicate
                with np.errstate(invalid="ignore"):  # inf - inf
                    close = (a == b) | ((np.abs(a - b) <= 1e-14 + 1e-5 * np.abs(b)) & np.isfinite(b))
                if not np.all(close):
                    bad = ~np.isfinite(g).all(axis=(-2, -1))
                    if bad.any():  # a non-finite component fails the test above, so name it
                        node = int(np.argmax(bad))
                        raise MetricError(f"metric components are not finite (node {node})", node)
                    raise MetricError("metric components are not symmetric")
            self.w = None if chart else _conformal_factor(g)
        g00, g01, g11 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]  # the form the kernels read
        self.smallest_eigenvalue = (_min_eigenvalue(self.w, self.w) if self.w is not None
                                    else _min_eigenvalue(_smallest_eigenvalues(g00, g01, g11), g))
        if chart and g01.any():  # the chart's K and Laplacian read a diagonal metric
            node = int(np.argmax(np.abs(g01)))
            if abs(g01.flat[node]) > 1e-12 * max(np.max(g00), np.max(g11)):
                raise MetricError(f"sphere chart metric not diagonal (node {node}, g01 {g01.flat[node]:.3e})", node)

    def inverse(self) -> np.ndarray:
        g = self.comps
        det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
        inv = np.empty(det.shape + (DIM, DIM))
        inv[..., 0, 0] = g[..., 1, 1] / det
        inv[..., 1, 1] = g[..., 0, 0] / det
        inv[..., 0, 1] = -g[..., 0, 1] / det
        inv[..., 1, 0] = -g[..., 1, 0] / det
        return inv


class CurvaturePack:
    """The geometry of one frozen metric, built once by :func:`curvature` for every operator on
    it, each part on first read: the inverse ``ginv`` (g^ab, shape grid + (a, b)), the Christoffel
    symbols (Gamma^c_ab, shape grid + (c, a, b)), the Gauss curvature K and the CFL diffusion rate.
    The heat Laplacian, its rate and |grad f|^2 read ``inverse_diagonal``, which g = w I and the
    sphere chart build without ``ginv`` or a Christoffel symbol.  The 2-D Ricci and scalar
    curvatures are derived from K; Riemann, K (g_ac g_bd - g_ad g_bc), is not provided."""

    def __init__(self, metric: LeafMetric):
        self.metric = metric

    @cached_property
    def ginv(self) -> np.ndarray:
        return self.metric.inverse()

    @cached_property
    def christoffel(self) -> np.ndarray:
        return christoffel(self.metric, self.ginv)

    @cached_property
    def chart_coefficients(self) -> tuple:
        """(g^00, g^11, Gamma^0_00, Gamma^0_11) of the sphere chart's a dx^2 + b dy^2, contiguous,
        for its Laplacian and diffusion rate.  With g01 = +0.0, as every scenario and flow step
        writes it, they are bit for bit the diagonal of ``ginv`` and those entries of
        :attr:`christoffel`, read without inverting the metric: there the determinant
        a b - (+0.0) is a b, the brackets (da + da) - da and (0.0 + 0.0) - db are da (never
        -0.0, as a > 0) and 0.0 - db, and each term in g^01 = -0.0 adds -0.0."""
        g = self.metric.comps
        a, b = g[..., 0, 0], g[..., 1, 1]
        det = a * b
        g00 = b / det
        return (g00, a / det, 0.5 * (g00 * partial_deriv(self.grid, a, 0)),
                0.5 * (g00 * (0.0 - partial_deriv(self.grid, b, 0))))

    @cached_property
    def inverse_diagonal(self) -> tuple:
        """(g^00, g^11): on g = w I both w / (w w), one contiguous array, bit for bit ``ginv``'s
        (its determinant is w w - 0 0); the sphere chart's :attr:`chart_coefficients`; else ``ginv``'s."""
        if self.metric.w is not None:
            return (self.metric.w / (self.metric.w * self.metric.w),) * DIM
        if self.grid.topology == SPHERICAL_1D:
            return self.chart_coefficients[:2]
        return self.ginv[..., 0, 0], self.ginv[..., 1, 1]

    @property
    def grid(self) -> LeafGrid:
        return self.metric.grid

    @cached_property
    def diffusion_rate(self) -> float:
        """Explicit-stability rate, max g^aa / h_a^2 summed over the grid's axes (axis 0 alone
        on the sphere chart, along whose symmetry axis derivatives vanish)."""
        return sum(float(np.max(gaa)) / h ** 2 for gaa, h in zip(self.inverse_diagonal, self.grid.spacings))

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


def _gauss_curvature_symmetric(grid: LeafGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K of the sphere chart's a dx^2 + b dy^2, the diagonal of a metric or of a flow stage."""
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
        return _gauss_curvature_symmetric(metric.grid, metric.comps[..., 0, 0], metric.comps[..., 1, 1])
    return _gauss_curvature_generic(curvature(metric) if pack is None else pack)


def curvature(metric: LeafMetric) -> CurvaturePack:
    """The geometry pack of ``metric``; its one inversion, if any reader needs it, serves Gamma,
    K and the kernels."""
    return CurvaturePack(metric)


def ricci(metric: LeafMetric) -> np.ndarray:
    """Ricci tensor K g (the flow's right-hand side)."""
    return gauss_curvature(metric)[..., None, None] * metric.comps


def gradient(metric: LeafMetric, field, pack: CurvaturePack | None = None) -> np.ndarray:
    """Contravariant gradient (grad f)^a = g^ab d_b f, shape grid + (2,)."""
    values = field_values(field, metric.grid)
    df = np.stack([partial_deriv(metric.grid, values, axis=d) for d in range(DIM)], axis=-1)
    return np.einsum("...ab,...b->...a", metric.inverse() if pack is None else pack.ginv, df)


def grad_norm_sq(metric: LeafMetric, field, pack: CurvaturePack | None = None) -> np.ndarray:
    """||grad f||^2 = g^ab d_a f d_b f >= 0, summed in the order of
    np.einsum("...ab,...a,...b->...").  On g = w I and the sphere chart it reads the pack's
    g^00 and g^11 alone, with g^01 = g^10 = 0.0: the sign of a zero term cannot change the
    sum, whose first term is never -0.0, and a NaN or inf d f still makes its node NaN."""
    pack = curvature(metric) if pack is None else pack
    values = field_values(field, metric.grid)
    d0, d1 = (partial_deriv(metric.grid, values, axis=d) for d in range(DIM))
    if metric.w is None and metric.grid.topology != SPHERICAL_1D:
        g00, g01, g10, g11 = (pack.ginv[..., a, b] for a in range(DIM) for b in range(DIM))
    else:
        (g00, g11), g01, g10 = pack.inverse_diagonal, 0.0, 0.0
    out = ((g00 * d0 * d0 + g01 * d0 * d1) + g10 * d1 * d0) + g11 * d1 * d1
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
    grid = metric.grid
    if metric.w is not None:
        lap = periodic_laplacian(grid, values)
        return np.multiply(lap, pack.inverse_diagonal[0], out=lap)
    if grid.topology == SPHERICAL_1D:
        # d_1 f, d_11 f, d_01 f, g^01 and Gamma^0_01 vanish on the chart; d_0 f and d_00 f are
        # partial_deriv's and second_deriv's stencils on u's reflected neighbours, gathered once
        (g00, g11, G000, G011), (nxt, prv) = pack.chart_coefficients, grid.reflected_neighbours
        up, down, h = values[nxt], values[prv], grid.spacings[0]
        d0 = (up - down) / (2.0 * h)
        h00 = (up - 2.0 * values + down) / h ** 2 - G000 * d0
        return g00 * h00 + g11 * (0.0 - G011 * d0)
    return _trace(pack.ginv, hessian(metric, values, pack.christoffel))


def bochner_residual(metric: LeafMetric, field) -> np.ndarray:
    """Residual of Delta||grad f||^2 = 2||Hess f||^2 + 2<grad f, grad Delta f>
    + 2 Ric(grad f, grad f); converges to zero on smooth fields.

    The sign of the Hessian-squared term is the one that makes the residual
    vanish identically on the flat torus.
    """
    values = field_values(field, metric.grid)
    pack = curvature(metric)
    ginv, df = pack.ginv, np.stack([partial_deriv(metric.grid, values, d) for d in range(DIM)], axis=-1)
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
