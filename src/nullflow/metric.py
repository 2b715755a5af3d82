"""Leaf metrics, curvature, and differential operators.

The leaf is a 2-D Riemannian manifold discretized on a structured grid.
In two dimensions every curvature is carried by the Gauss curvature K:
Ric = K g, Scal = 2K and Rm = K (g_ac g_bd - g_ad g_bc), so K is the only
curvature computed here and the rest are derived from it.

Every scenario starts conformal to its grid's background metric g_0 (the
flat one on the torus, the round one on the sphere chart), and the flow
keeps it so, since Ric = K g scales g at each node.  A metric g = w g_0
(g01 and g10 zero, g11 == g00 g11_0 bit for bit) is carried by w alone,
with K = (K_0 - Delta_0 log w / 2) / w and Delta_g = w^-1 Delta_0
(Chow & Knopf, The Ricci Flow: An Introduction, 2004, ch. 5), where Delta_0
is :func:`~nullflow.grids.background_laplacian`.  On the sphere chart
K_0 = 1 and K is that formula, exact on a uniform w; a chart metric of any
other form is rejected where it is made.  On the torus K keeps the
Christoffel route's operations on Gamma = +-p, +-q, with
gi = g^00 = g^11 = w / (w w), p = gi d_0 w / 2 and q = gi d_1 w / 2, which
drops its products by g^01 = +-0 and its pairs that cancel exactly.

A periodic metric not of that form takes K from the finite-difference
Christoffel / Ricci construction, Ric_sn = sum_m R^m_{smn}, whose m = n
summand is exactly 0.0 (an array minus itself), so only m = 1 - n and the
half of the d_d Gamma^c_ab it reads are computed.

A LeafMetric decides its form, checks and classifies itself once, where it
is made, from w or from its components, and is never edited in place after,
so no kernel checks its metric again.  Its smallest eigenvalue follows one
rule, min(g00, g11) exactly where g01 == 0 (on w g_0 that is w g11_0, as
g11_0 <= 1), and :func:`_min_eigenvalue` is the one check of it.

Every tensor is stored node-major, grid axes first and components last, as
``LeafMetric.comps``: g^ab, Ricci and the Hessian have shape grid + (2, 2),
Gamma^c_ab grid + (2, 2, 2).  :func:`ricci` keeps the metric's own form:
the factor K w of Ric = (K w) g_0 on w g_0.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .grids import (
    PERIODIC_2D,
    SPHERICAL_1D,
    LeafGrid,
    background_laplacian,
    field_values,
    mixed_deriv,
    partial_deriv,
    second_deriv,
)

DIM = 2  # leaf dimension for every built-in scenario


def _trace(g, t) -> np.ndarray:
    """g^ab t_ab per node, with the products paired as np.einsum("...ab,...ab->...")
    pairs them."""
    return ((g[..., 0, 0] * t[..., 0, 0] + g[..., 1, 0] * t[..., 1, 0])
            + (g[..., 0, 1] * t[..., 0, 1] + g[..., 1, 1] * t[..., 1, 1]))


def _not_conformal(comps: np.ndarray, g11_0=1.0) -> np.ndarray:
    """Per node, whether ``comps`` is not exactly w g_0 there, for the background
    g_0 = diag(1, g11_0): g01 or g10 not zero, or g11 != g00 g11_0 (a NaN is not)."""
    return (comps[..., 0, 1] != 0.0) | (comps[..., 1, 0] != 0.0) | (comps[..., 1, 1] != comps[..., 0, 0] * g11_0)


class MetricError(ValueError):
    """A metric rejected when made; ``node`` is the flat index of the node it names, if any."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class SingularMetricError(MetricError):
    pass


def _smallest_eigenvalues(g00, g01, g11) -> np.ndarray:
    """Per node, the smaller eigenvalue of [[g00, g01], [g01, g11]]: min(g00, g11), exactly, where
    g01 == 0, else det / lam_max = min (max / lam_max) - g01 (g01 / lam_max), lam_max from the entries
    scaled by their largest |entry|, so nothing overflows or underflows (mean - radius where lam_max <= 0,
    as det / lam_max is 0 / 0 at 0); at most min(g00, g11), so rounding never hides an entry <= 0."""
    lam = np.minimum(g00, g11)
    if g01.any():
        off = g01 != 0.0
        a, b, c = g00[off], g11[off], g01[off]
        s = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
        with np.errstate(all="ignore"):  # where this is not finite, the check fails
            x, y, z = a / s, b / s, c / s
            mean, radius = 0.5 * (x + y), np.hypot(0.5 * (x - y), z)
            top = mean + radius
            low = np.where(top > 0.0, lam[off] * (np.maximum(x, y) / top) - c * (z / top), (mean - radius) * s)
            lam[off] = np.minimum(lam[off], low)
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


@dataclass(eq=False)
class LeafMetric:
    """Symmetric positive-definite metric g'_ab per node, valid once made and never edited in
    place after.  ``values`` is its conformal factor w (shape grid.shape) for g' = w g_0, g_0 the
    grid's background, or its 2x2 components (shape grid.shape + (2, 2)); components exactly
    w g_0 keep w alone, and components accepted within the symmetry tolerance keep their mean
    (g + g^T) / 2.  ``w`` is None where g' is not w g_0, ``entries`` and ``comps`` build w g_0
    on each read, and ``smallest_eigenvalue`` is the least.  A sphere chart metric must be
    w g_0, and a periodic one not of that form takes the generic route."""

    grid: LeafGrid
    values: InitVar[np.ndarray]

    def __post_init__(self, values):
        grid, g = self.grid, np.asarray(values, dtype=float)
        shape, g11_0 = grid.shape, grid.background_g11
        if g.shape == shape + (DIM, DIM):
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
                off, g = a != b, g.copy()  # the mean of each pair that differs, halved first so it never overflows
                g[..., 0, 1][off] = g[..., 1, 0][off] = 0.5 * a[off] + 0.5 * b[off]
            if not _not_conformal(g, g11_0).any():
                g = np.ascontiguousarray(g[..., 0, 0])
        elif g.shape != shape:
            raise MetricError(f"metric shape {g.shape} invalid")
        conformal, chart = g.shape == shape, grid.topology == SPHERICAL_1D
        self.w, self._comps = (g, None) if conformal else (None, g)
        # w g_0's eigenvalues are w and w g11_0 <= w, with g11_0 = 1 off the chart
        lam = ((g * g11_0 if chart else g) if conformal
               else _smallest_eigenvalues(g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]))
        self.smallest_eigenvalue = _min_eigenvalue(lam, g)
        if chart and not conformal:  # every kernel reads a chart metric as w g_0
            node = int(np.argmax(_not_conformal(g, g11_0)))
            raise MetricError("sphere chart metric not w g_round: g12 != 0 or g22 != g11 sin^2(theta) "
                              f"(node {node})", node)

    @property
    def entries(self) -> tuple:
        """(g00, g01, g11), each of shape grid.shape: on w g_0 w, +0.0 and w g11_0, built on each read."""
        if self.w is None:
            return self._comps[..., 0, 0], self._comps[..., 0, 1], self._comps[..., 1, 1]
        return self.w, np.zeros_like(self.w), self.w * self.grid.background_g11

    @property
    def comps(self) -> np.ndarray:
        """The components g_ab, shape grid + (2, 2), on w g_0 built from ``entries`` on each read."""
        if self.w is None:
            return self._comps
        g00, g01, g11 = self.entries
        return np.stack([g00, g01, g01, g11], axis=-1).reshape(self.grid.shape + (DIM, DIM))

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
    The heat Laplacian, its rate and |grad f|^2 read ``inverse_diagonal``, which g = w g_0 builds
    without ``ginv`` or a Christoffel symbol.  The 2-D scalar curvature is derived from K, and
    :func:`ricci` reads K off a pack; Riemann, K (g_ac g_bd - g_ad g_bc), is not provided."""

    def __init__(self, metric: LeafMetric):
        self.metric = metric

    @cached_property
    def ginv(self) -> np.ndarray:
        return self.metric.inverse()

    @cached_property
    def christoffel(self) -> np.ndarray:
        return christoffel(self.metric, self.ginv)

    @cached_property
    def inverse_diagonal(self) -> tuple:
        """(g^00, g^11): on g = w g_0, gi = w / (w w), one contiguous array, and gi / g11_0 (gi
        itself off the chart: bit for bit ``ginv``'s, whose determinant is w w - 0 0); else ``ginv``'s."""
        w = self.metric.w
        if w is None:
            return self.ginv[..., 0, 0], self.ginv[..., 1, 1]
        gi = w / (w * w)
        return (gi, gi) if self.grid.topology == PERIODIC_2D else (gi, gi / self.grid.background_g11)

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


def conformal_curvature(grid: LeafGrid, w: np.ndarray) -> np.ndarray:
    """K of g = w g_0: :func:`_gauss_curvature_conformal` on the torus, and on the sphere chart
    (1 - Delta_0 log w / 2) / w, exactly 1 / w on a uniform w.  It checks nothing: w is a
    metric's, or an RK stage's that the flow checked."""
    if grid.topology == PERIODIC_2D:
        return _gauss_curvature_conformal(grid, w)
    k = background_laplacian(grid, np.log(w))
    k *= -0.5
    k += 1.0
    k /= w
    return k


def gauss_curvature(metric: LeafMetric, pack: CurvaturePack | None = None) -> np.ndarray:
    """Gauss curvature K per node, the one place that picks its route: the
    conformal one on g = w g_0 exactly, else the Christoffel route on ``pack``
    (built if not given)."""
    if metric.w is not None:
        return conformal_curvature(metric.grid, metric.w)
    return _gauss_curvature_generic(curvature(metric) if pack is None else pack)


def curvature(metric: LeafMetric) -> CurvaturePack:
    """The geometry pack of ``metric``; its one inversion, if any reader needs it, serves Gamma,
    K and the kernels."""
    return CurvaturePack(metric)


def ricci(metric: LeafMetric, pack: CurvaturePack | None = None) -> np.ndarray:
    """Ric = K g (the flow's right-hand side) in the metric's own form, a fresh array: the factor
    K w on g = w g_0, since Ric = (K w) g_0, else K g_ab, shape grid + (a, b).  K is read off
    ``pack``, the metric's own, when given, and never written."""
    if metric.w is None:
        return (gauss_curvature(metric) if pack is None else pack.K)[..., None, None] * metric.comps
    if pack is not None:
        return pack.K * metric.w
    k = gauss_curvature(metric)  # fresh, so scaled in place
    k *= metric.w
    return k


def gradient(metric: LeafMetric, field, pack: CurvaturePack | None = None) -> np.ndarray:
    """Contravariant gradient (grad f)^a = g^ab d_b f, shape grid + (2,)."""
    values = field_values(field, metric.grid)
    df = np.stack([partial_deriv(metric.grid, values, axis=d) for d in range(DIM)], axis=-1)
    return np.einsum("...ab,...b->...a", metric.inverse() if pack is None else pack.ginv, df)


def grad_norm_sq(metric: LeafMetric, field, pack: CurvaturePack | None = None) -> np.ndarray:
    """||grad f||^2 = g^ab d_a f d_b f >= 0, summed in the order of
    np.einsum("...ab,...a,...b->...").  On g = w g_0 it reads the pack's g^00 and g^11 alone,
    with g^01 = g^10 = 0.0: the sign of a zero term cannot change the sum, whose first term
    is never -0.0, and a NaN or inf d f still makes its node NaN."""
    pack = curvature(metric) if pack is None else pack
    values = field_values(field, metric.grid)
    d0, d1 = (partial_deriv(metric.grid, values, axis=d) for d in range(DIM))
    if metric.w is None:
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
    ``metric`` if not given).  On g = w g_0 it is w^-1 Delta_0 f (in 2-D sqrt(g) g^ab
    is conformally invariant), g^00 times the background Laplacian, which reads no
    Christoffel symbol."""
    values = field_values(field, metric.grid)
    pack = curvature(metric) if pack is None else pack
    if metric.w is not None:
        lap = background_laplacian(metric.grid, values)
        return np.multiply(lap, pack.inverse_diagonal[0], out=lap)
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
    return lhs - 2.0 * hess_sq - 2.0 * cross - 2.0 * (pack.K * gradsq)  # Ric(grad f, grad f) = K |grad f|^2


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
    df = np.stack([partial_deriv(grid, values, d) for d in range(DIM)], axis=-1)
    resid = div_hess - dlap - pack.K[..., None] * df  # Ric_ij (grad f)^j = K d_i f
    return np.einsum("...i,...i->...", gradf, resid)
