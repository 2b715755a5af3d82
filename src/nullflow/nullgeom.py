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
AMBIENT_DIM = DIM + 1  # the radical coordinate, then the leaf's


class NullStructureError(ValueError):
    pass


@dataclass
class DegenerateMetric:
    """Rank-deficient ambient metric with the radical coordinate first."""

    leaf: LeafMetric

    def matrix(self) -> np.ndarray:
        """Assembled (n+1)x(n+1) matrix per node, radical block zero."""
        out = np.zeros(self.leaf.grid.shape + (AMBIENT_DIM, AMBIENT_DIM))
        out[..., 1:, 1:] = self.leaf.comps
        return out

    def rank(self) -> np.ndarray:
        """Numerical rank per node via SVD thresholding."""
        mat = self.matrix()
        s = np.linalg.svd(mat, compute_uv=False)
        cutoff = s[..., :1] * AMBIENT_DIM * np.finfo(float).eps
        cutoff = np.maximum(cutoff, RADICAL_TOL)
        return np.sum(s > cutoff, axis=-1)


def radical_vector_field(metric: DegenerateMetric) -> np.ndarray:
    """The coordinate field along the radical direction, d/d(radical)."""
    v = np.zeros(metric.leaf.grid.shape + (AMBIENT_DIM,))
    v[..., 0] = 1.0
    return v


def radical_check(metric: DegenerateMetric, vector: np.ndarray, tol: float = RADICAL_TOL) -> np.ndarray:
    """True per node where g(vector, X) = 0 for every coordinate basis X."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != metric.leaf.grid.shape + (AMBIENT_DIM,):
        raise NullStructureError(f"vector field shape {vector.shape} invalid")
    pairing = np.einsum("...ab,...b->...a", metric.matrix(), vector)
    return np.max(np.abs(pairing), axis=-1) <= tol


def screen_projection(metric: DegenerateMetric, vector: np.ndarray) -> np.ndarray:
    """Drop the radical component, leaving the screen (leaf) part.

    Idempotent by construction; the radical field projects to zero.
    """
    vector = np.asarray(vector, dtype=float)
    if vector.shape[-1] != AMBIENT_DIM:
        raise NullStructureError(f"expected {AMBIENT_DIM}-vectors, got {vector.shape[-1]}")
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
        k = len(self.params)
        if k < 3:
            raise NullStructureError(f"need at least 3 parameter samples, got {k}")
        for name in ("E", "W1", "W2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
            if getattr(self, name).shape != (k, 3):
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


def frenet_functions(frame: NullCurveFrame, derivative=None):
    """Fit (htilde, k1, k2, k3) from the frame's covariant derivatives.

    In the flat ambient the covariant derivative along the curve is the
    parameter derivative of the component samples: ``np.gradient`` with
    ``edge_order=2``, second order on any strictly increasing samples (the
    rule u_t takes).  Pass ``derivative`` to supply analytic derivatives
    instead; ``derivative(name, params)`` must return (k, 3) samples for
    name in {"E", "W1", "W2"}.  Each sample's basis [E | W1 | W2] is solved
    for the three derivatives at once.
    """
    t = frame.params
    names = ("E", "W1", "W2")
    if derivative is None:
        derivs = [np.gradient(getattr(frame, n), t, axis=0, edge_order=2) for n in names]
    else:
        derivs = [np.asarray(derivative(n, t), dtype=float) for n in names]
    basis = np.stack([getattr(frame, n) for n in names], axis=2)
    bad = np.abs(np.linalg.det(basis)) < 1e-12
    if bad.any():
        raise NullStructureError(f"degenerate frame at sample {int(np.argmax(bad))}")
    # D_E E = htilde E;  D_E W1 = -k1 E + k3 W2;  D_E W2 = -k2 E - k3 W1
    ce, c1, c2 = np.moveaxis(np.linalg.solve(basis, np.stack(derivs, axis=2)), 2, 0)
    return ce[:, 0], -c1[:, 0], -c2[:, 0], c1[:, 2]


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
