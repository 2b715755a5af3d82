"""Leaf metrics, curvature, and differential operators.

The leaf is a 2-D Riemannian manifold discretized on a structured grid.
In two dimensions every curvature is carried by the Gauss curvature K:
Ric = K g, Scal = 2K and Rm = K (g_ac g_bd - g_ad g_bc), so K is the only
curvature computed here and the rest are derived from it.

Every scenario starts conformal to its grid's background metric g_0 (the
flat one on the torus, the round one on the sphere chart), and the flow
keeps it so, since Ric = K g scales g at each node.  So a metric is
g = w g_0, carried by its conformal factor w alone, with
K = (K_0 - Delta_0 log w / 2) / w and Delta_g = w^-1 Delta_0 (Chow & Knopf,
The Ricci Flow: An Introduction, 2004, ch. 5), where Delta_0 is
:func:`~nullflow.grids.background_laplacian`.  On the sphere chart K_0 = 1
and K is that formula, exact on a uniform w.  On the torus K keeps the
Christoffel route's operations on Gamma = +-p, +-q, with
gi = g^00 = g^11 = w / (w w), p = gi d_0 w / 2 and q = gi d_1 w / 2, which
drops its products by g^01 = +-0 and its pairs that cancel exactly.

A LeafMetric checks itself once, where it is made, and is never edited in
place after, so no kernel checks its metric again.  Its smallest eigenvalue
is w g11_0 (w off the chart, as g11_0 <= 1), and :func:`_min_eigenvalue`
is the one check of it.

The Christoffel symbols, the Hessian and g^ab serve the identity residuals
and :mod:`nullflow.nullgeom`.  Every tensor is stored node-major, grid axes
first and components last, as ``LeafMetric.comps``: g^ab and the Hessian
have shape grid + (2, 2), Gamma^c_ab grid + (2, 2, 2).  :func:`ricci` is
the factor K w of Ric = (K w) g_0.
"""
from __future__ import annotations

from dataclasses import dataclass
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


class MetricError(ValueError):
    """A metric rejected when made; ``node`` is the flat index of the node it names, if any."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class SingularMetricError(MetricError):
    pass


def _min_eigenvalue(lam: np.ndarray, w: np.ndarray) -> float:
    """The least of ``lam``, the smallest eigenvalue of w g_0 at each node, checked: a w not
    finite raises MetricError, then an eigenvalue <= 0 (or a NaN) SingularMetricError, each
    naming its first node."""
    low = lam.min()
    if low > 0.0 and w.max() < np.inf:
        return float(low)
    bad = ~np.isfinite(w)
    if bad.any():
        node = int(np.argmax(bad))
        raise MetricError(f"metric components are not finite (node {node})", node)
    node = int(np.argmin(lam))
    raise SingularMetricError(f"metric not positive definite (node {node}, eigenvalue {lam.flat[node]:.3e})", node)


@dataclass(eq=False)
class LeafMetric:
    """The metric g' = w g_0 of a leaf, g_0 its grid's background, carried by its conformal
    factor ``w`` (shape grid.shape); valid once made and never edited in place after.
    ``comps`` builds its components on each read, and ``smallest_eigenvalue``
    is the least of its eigenvalues w and w g11_0."""

    grid: LeafGrid
    w: np.ndarray

    def __post_init__(self):
        grid, w = self.grid, np.asarray(self.w, dtype=float)
        if w.shape != grid.shape:
            raise MetricError(f"metric shape {w.shape} invalid")
        self.w = w
        # w g_0's eigenvalues are w and w g11_0 <= w, with g11_0 = 1 off the chart
        self.smallest_eigenvalue = _min_eigenvalue(w * grid.background_g11 if grid.topology == SPHERICAL_1D else w, w)

    @property
    def comps(self) -> np.ndarray:
        """The components g_ab, shape grid + (2, 2), built on each read: g00 = w, g01 = g10 =
        +0.0 and g11 = w g11_0."""
        w, g01 = self.w, np.zeros_like(self.w)
        return np.stack([w, g01, g01, w * self.grid.background_g11], axis=-1).reshape(self.grid.shape + (DIM, DIM))

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
    The heat Laplacian, its rate and |grad f|^2 read ``inverse_diagonal``, built from w without
    ``ginv`` or a Christoffel symbol.  The 2-D scalar curvature is derived from K, and
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
        """(g^00, g^11): gi = w / (w w), one contiguous array, and gi / g11_0 (gi itself off the
        chart: bit for bit ``ginv``'s, whose determinant is w w - 0 0)."""
        w = self.metric.w
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
        return gauss_curvature(self.metric)

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


def _gauss_curvature_conformal(grid: LeafGrid, w: np.ndarray) -> np.ndarray:
    """K of g = w I, with the operations of the Christoffel route, K = g^ab Ric_ab / 2 from
    Ric_sn = sum_m R^m_{smn}, on Gamma^0_00 = Gamma^1_01 = -Gamma^0_11 = p and Gamma^1_11 =
    Gamma^0_01 = -Gamma^1_00 = q:

        K = 0.5 (((T + A) - A) gi + ((T - A) + A) gi),  T = -(d_1 q + d_0 p),
        A = p p + q q,

    where the m = n summands, ric_01 + ric_10 and every product by g^01 = +-0 are exact
    zeros (``tests/node_major_reference.py`` keeps the full sum on the components)."""
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


def gauss_curvature(metric: LeafMetric) -> np.ndarray:
    """Gauss curvature K of g = w g_0 per node: :func:`_gauss_curvature_conformal` on the torus,
    and on the sphere chart (1 - Delta_0 log w / 2) / w, exactly 1 / w on a uniform w.  It checks
    nothing: w is a metric's, or an RK stage's, each checked where it was made."""
    grid, w = metric.grid, metric.w
    if grid.topology == PERIODIC_2D:
        return _gauss_curvature_conformal(grid, w)
    k = background_laplacian(grid, np.log(w))
    k *= -0.5
    k += 1.0
    k /= w
    return k


def curvature(metric: LeafMetric) -> CurvaturePack:
    """The geometry pack of ``metric``; its one inversion, if any reader needs it, serves Gamma,
    K and the kernels."""
    return CurvaturePack(metric)


def ricci(metric: LeafMetric, pack: CurvaturePack | None = None) -> np.ndarray:
    """Ric = K g (the flow's right-hand side) as the factor K w of Ric = (K w) g_0, a fresh
    array.  K is read off ``pack``, the metric's own, when given, and never written."""
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
    np.einsum("...ab,...a,...b->...").  It reads the pack's g^00 and g^11 alone, with
    g^01 = g^10 = 0.0: the sign of a zero term cannot change the sum, whose first term is
    never -0.0, and a NaN or inf d f still makes its node NaN."""
    pack = curvature(metric) if pack is None else pack
    values = field_values(field, metric.grid)
    d0, d1 = (partial_deriv(metric.grid, values, axis=d) for d in range(DIM))
    g00, g11 = pack.inverse_diagonal
    out = ((g00 * d0 * d0 + 0.0 * d0 * d1) + 0.0 * d1 * d0) + g11 * d1 * d1
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
    """Delta f = g^ab f_ab on ``pack`` (built from ``metric`` if not given): w^-1 Delta_0 f
    (in 2-D sqrt(g) g^ab is conformally invariant), g^00 times the background Laplacian,
    which reads no Christoffel symbol."""
    lap = background_laplacian(metric.grid, field_values(field, metric.grid))
    return np.multiply(lap, (curvature(metric) if pack is None else pack).inverse_diagonal[0], out=lap)


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
