"""Ambient degenerate geometry: block metrics, null-curve frames,
and the geodesic reparametrization of null curves.

The ambient manifold carries a rank-deficient metric whose radical
(null space) has rank 1.  With the radical coordinate listed first the
metric matrix per node is

    [[0, 0],
     [0, g'_ab]]

and the leaf block is independent of the radical coordinate.  Null
curves through the radical direction carry a frame {E, W1, W2} with
structure functions (htilde, k1, k2, k3):

    D_E E  = htilde E
    D_E W1 = -k1 E + k3 W2
    D_E W2 = -k2 E - k3 W1

A reparametrization t = a * int exp(int htilde*) + b turns the curve
into a geodesic in the new parameter p = (t - b)/a.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import DIM, LeafMetric

RADICAL_TOL = 1e-12


class NullStructureError(ValueError):
    pass


@dataclass
class DegenerateMetric:
    """Rank-deficient ambient metric with the radical coordinate first."""

    leaf: LeafMetric

    @property
    def total_dimension(self):
        return DIM + 1

    def matrix(self) -> np.ndarray:
        """Assembled (n+1)x(n+1) matrix per node, radical block zero."""
        m = self.total_dimension
        out = np.zeros(self.leaf.grid.shape + (m, m))
        out[..., 1:, 1:] = self.leaf.comps
        return out

    def rank(self) -> np.ndarray:
        """Numerical rank per node via SVD thresholding."""
        mat = self.matrix()
        s = np.linalg.svd(mat, compute_uv=False)
        cutoff = s[..., :1] * self.total_dimension * np.finfo(float).eps
        cutoff = np.maximum(cutoff, RADICAL_TOL)
        return np.sum(s > cutoff, axis=-1)


def radical_vector_field(metric: DegenerateMetric) -> np.ndarray:
    """The coordinate field along the radical direction, d/d(radical)."""
    m = metric.total_dimension
    v = np.zeros(metric.leaf.grid.shape + (m,))
    v[..., 0] = 1.0
    return v


def radical_check(metric: DegenerateMetric, vector: np.ndarray, tol: float = RADICAL_TOL) -> np.ndarray:
    """True per node where g(vector, X) = 0 for every coordinate basis X."""
    vector = np.asarray(vector, dtype=float)
    m = metric.total_dimension
    if vector.shape != metric.leaf.grid.shape + (m,):
        raise NullStructureError(f"vector field shape {vector.shape} invalid")
    pairing = np.einsum("...ab,...b->...a", metric.matrix(), vector)
    return np.max(np.abs(pairing), axis=-1) <= tol


def screen_projection(metric: DegenerateMetric, vector: np.ndarray) -> np.ndarray:
    """Drop the radical component, leaving the screen (leaf) part.

    Idempotent by construction; the radical field projects to zero.
    """
    vector = np.asarray(vector, dtype=float)
    m = metric.total_dimension
    if vector.shape[-1] != m:
        raise NullStructureError(f"expected {m}-vectors, got {vector.shape[-1]}")
    out = vector.copy()
    out[..., 0] = 0.0
    return out


# --- null curve frames (flat ambient) -------------------------------------

_FLAT_AMBIENT = np.diag([0.0, 1.0, 1.0])


@dataclass
class NullCurveFrame:
    """Frame {E, W1, W2} sampled along a null curve in a flat ambient.

    Vectors are expressed in coordinates where the ambient metric is the
    constant diag(0, 1, 1) block form, so covariant derivatives reduce to
    plain parameter derivatives.
    """

    params: np.ndarray  # sample parameters t_k, strictly increasing
    E: np.ndarray  # (k, 3) null tangent samples
    W1: np.ndarray
    W2: np.ndarray

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        self.E = np.asarray(self.E, dtype=float)
        self.W1 = np.asarray(self.W1, dtype=float)
        self.W2 = np.asarray(self.W2, dtype=float)
        k = len(self.params)
        for name in ("E", "W1", "W2"):
            v = getattr(self, name)
            if v.shape != (k, 3):
                raise NullStructureError(f"{name} must have shape ({k}, 3)")
        if np.any(np.diff(self.params) <= 0):
            raise NullStructureError("parameter samples must be strictly increasing")
        self._check_invariants()

    def _check_invariants(self):
        g = _FLAT_AMBIENT

        def pair(a, b):
            return np.einsum("ki,ij,kj->k", a, g, b)

        if np.max(np.abs(pair(self.E, self.E))) > 1e-10:
            raise NullStructureError("tangent E is not null")
        for w in (self.W1, self.W2):
            if np.max(np.abs(pair(self.E, w))) > 1e-10:
                raise NullStructureError("screen vector not orthogonal to E")
        if (
            np.max(np.abs(pair(self.W1, self.W1) - 1.0)) > 1e-10
            or np.max(np.abs(pair(self.W2, self.W2) - 1.0)) > 1e-10
            or np.max(np.abs(pair(self.W1, self.W2))) > 1e-10
        ):
            raise NullStructureError("screen frame not orthonormal")


def _param_deriv(params: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Second-order derivative of vector samples along the parameter."""
    out = np.empty_like(samples)
    t = params
    out[1:-1] = (samples[2:] - samples[:-2]) / (t[2:] - t[:-2])[:, None]
    out[0] = (-3 * samples[0] + 4 * samples[1] - samples[2]) / (t[2] - t[0])
    out[-1] = (3 * samples[-1] - 4 * samples[-2] + samples[-3]) / (t[-1] - t[-3])
    return out


def frenet_functions(frame: NullCurveFrame, derivative=None):
    """Fit (htilde, k1, k2, k3) from the frame's covariant derivatives.

    In the flat ambient the covariant derivative along the curve is the
    parameter derivative of the component samples; pass ``derivative`` to
    supply analytic derivatives instead of the built-in finite differences.
    ``derivative(name, params)`` must return (k, 3) samples for name in
    {"E", "W1", "W2"}.
    """
    t = frame.params
    if derivative is None:
        dE = _param_deriv(t, frame.E)
        dW1 = _param_deriv(t, frame.W1)
        dW2 = _param_deriv(t, frame.W2)
    else:
        dE = np.asarray(derivative("E", t), dtype=float)
        dW1 = np.asarray(derivative("W1", t), dtype=float)
        dW2 = np.asarray(derivative("W2", t), dtype=float)

    k = len(t)
    htilde = np.empty(k)
    k1 = np.empty(k)
    k2 = np.empty(k)
    k3 = np.empty(k)
    for i in range(k):
        basis = np.stack([frame.E[i], frame.W1[i], frame.W2[i]], axis=1)
        if abs(np.linalg.det(basis)) < 1e-12:
            raise NullStructureError(f"degenerate frame at sample {i}")
        # D_E E = htilde E;  D_E W1 = -k1 E + k3 W2;  D_E W2 = -k2 E - k3 W1
        ce = np.linalg.solve(basis, dE[i])
        c1 = np.linalg.solve(basis, dW1[i])
        c2 = np.linalg.solve(basis, dW2[i])
        htilde[i] = ce[0]
        k1[i] = -c1[0]
        k2[i] = -c2[0]
        k3[i] = c1[2]
    return htilde, k1, k2, k3


@dataclass
class ReparamResult:
    """Geodesic reparametrization of a null curve.

    ``t_of_tstar`` samples the map t(t*); the distinguished parameter is
    p = (t - b)/a.  ``residual`` is the max-norm of the second derivative
    of t* with respect to p (the geodesic equation defect), and
    ``quadrature_error`` a Richardson estimate of the integration error.
    """

    tstar: np.ndarray
    t_of_tstar: np.ndarray
    a: float
    b: float
    residual: float
    quadrature_error: float

    def p_of_tstar(self) -> np.ndarray:
        return (self.t_of_tstar - self.b) / self.a


def _reparam_map(tstar: np.ndarray, h_values: np.ndarray, a: float, b: float) -> np.ndarray:
    from scipy.integrate import cumulative_simpson
    inner = cumulative_simpson(h_values, x=tstar, initial=0.0)
    return a * cumulative_simpson(np.exp(inner), x=tstar, initial=0.0) + b


def distinguished_parameter(htilde_star, tstar: np.ndarray, a: float = 1.0, b: float = 0.0) -> ReparamResult:
    """Reparametrize a null curve with structure function htilde* to a geodesic.

    t(t*) = a * int exp(int htilde*) dt* + b, via composite Simpson
    quadrature on the given strictly increasing samples.  The residual
    measures how far the reparametrized curve is from satisfying the
    geodesic equation in p = (t - b)/a.
    """
    from scipy.interpolate import make_interp_spline  # scipy is loaded only by the routes that call it
    if a == 0.0:
        raise NullStructureError("reparametrization requires a != 0")
    tstar = np.asarray(tstar, dtype=float)
    if tstar.ndim != 1 or len(tstar) < 9:
        raise NullStructureError("need at least 9 parameter samples")
    if np.any(np.diff(tstar) <= 0):
        raise NullStructureError("parameter samples must be strictly increasing")
    h_values = np.asarray(
        htilde_star(tstar) if callable(htilde_star) else htilde_star, dtype=float
    )
    if h_values.shape != tstar.shape:
        raise NullStructureError("htilde* samples must match the parameter samples")

    t_map = _reparam_map(tstar, h_values, a, b)
    if np.any(np.diff(t_map) <= 0) if a > 0 else np.any(np.diff(t_map) >= 0):
        raise NullStructureError("reparametrization map is not strictly monotone")

    # Richardson estimate: repeat on every other sample; Simpson is O(h^4)
    coarse = _reparam_map(tstar[::2], h_values[::2], a, b)
    quad_err = float(np.max(np.abs(coarse - t_map[::2])) / 15.0)

    # geodesic defect: t* as a function of p must satisfy
    # d2t*/dp2 + htilde*(t*) (dt*/dp)^2 = 0 (chain rule through t'(t*) =
    # a exp(int htilde*)); measured by spline differentiation of the map
    # p increases with t* regardless of the sign of a: dp/dt* = exp(int h) > 0
    p = (t_map - b) / a
    spline = make_interp_spline(p, tstar, k=5)
    d1 = spline.derivative(1)(p)
    # second derivative through a second spline of d1: two first-derivative
    # stages amplify quadrature rounding far less than one second derivative
    d2 = make_interp_spline(p, d1, k=5).derivative(1)(p)
    defect = d2 + h_values * d1**2
    interior = slice(3, -3)  # spline edge effects excluded
    residual = float(np.max(np.abs(defect[interior])))
    return ReparamResult(tstar, t_map, float(a), float(b), residual, quad_err)
