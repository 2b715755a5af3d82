"""Gradient-estimate evaluation on flow trajectories.

Every supported inequality bounds a gradient quantity of a positive
solution u of the (conjugate) heat equation coupled to the leaf flow:

* ``log-gradient-backward``: |grad u|^2/u^2 <= (1 + ln(A/u))^2 *
  (1/t + c2 rho1 + 4 rho2 + 2 rho3 + (rho c1 sqrt(rho2) + c2)/rho^2),
  local on a geodesic cube, u solving the conjugate heat equation along
  the backward flow.  A proof-end variant replaces 2 rho3 by
  rho3 + sqrt(rho3) and is recorded alongside.
* ``log-gradient-forward``: same shape without the Ricci term:
  (1 + ln(A/u))^2 (1/t + c2 rho1 + 2 rho3 + c2/rho^2).
* ``harnack-local``: the Harnack quantity |grad f|^2 - alpha f_t with
  f = ln u is bounded over the cube by alpha n p/(4t)
  + c alpha^2 (alpha^2 p/(rho^2 (alpha-1)) + 1/t + rho1 + rho2)
  + alpha^2 n p rho1 / (2(alpha-1)) + (alpha n/2)(rho1+rho2) sqrt(pq).
* ``harnack-global``: global bound alpha n p/(4t)
  + alpha^2 n p rho1/(2(alpha-1)) + (alpha n/2)(rho1+rho2) sqrt(pq);
  with nonnegative Ricci a single rho gives alpha n p/(4t)
  + (alpha n/2) rho sqrt(pq), valid for all alpha >= 1.
* ``li-yau``: alpha = 1, p = q = 2 case, bound n/(2t) + n rho under
  0 <= Ric' <= rho g'.

The absolute constants are made operational from a shipped cutoff
certificate: c1, c2 certified by dense sampling, c3 = max(c1, c2),
c4 = n c3, c(n) = n c4.  The curvature scales rho1, rho2, rho3 are
always the measured suprema over the admissible cube (with slack), so
the hypotheses they enter hold by construction; the five that can fail
are u-upper-bound-A (an explicit A below sup u, log-gradient theorems),
alpha-greater-than-one (harnack-local), alpha-equals-one (li-yau),
ricci-nonnegative (li-yau and alpha = 1 harnack-global) and
ricci-upper-bound (an explicit ricci_upper below sup K, same two).
Reports carry the constants used, measured curvature bounds, and a
status from {holds, violated, hypothesis-violated}; a failed hypothesis
always suppresses judgement of the conclusion.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distance import geodesic_distance
from .flow import CurvatureBounds, FlowTrajectory, curvature_suprema
from .grids import field_values, finite_real
from .metric import DIM, grad_norm_sq

THEOREM_IDS = (
    "log-gradient-backward",
    "log-gradient-forward",
    "harnack-local",
    "harnack-global",
    "li-yau",
)

HOLDS = "holds"
VIOLATED = "violated"
HYPOTHESIS_VIOLATED = "hypothesis-violated"

A_SLACK = 1e-9  # default A = (1 + A_SLACK) * sup u
HYPOTHESIS_TOL = 1e-3  # curvature hypotheses checked to stencil noise
CUTOFF_SAFETY = 1.05  # margin on the sampled cutoff constants


class EstimateError(ValueError):
    pass


# --- cutoff profile -------------------------------------------------------


def _smoothstep(w):
    return w * w * w * (10.0 + w * (-15.0 + 6.0 * w))


def _smoothstep_d1(w):
    """psi'(s) at w = 2 - s, for 1 < s < 2."""
    return -30.0 * w * w * (1.0 - w) ** 2


def _smoothstep_d2(w):
    """psi''(s) at w = 2 - s, for 1 < s < 2."""
    return 60.0 * w * (1.0 - w) * (1.0 - 2.0 * w)


def cutoff_profile(s):
    """C^2 profile: 1 on [0,1], quintic smoothstep down to 0 at 2."""
    s = np.asarray(s, dtype=float)
    out = np.ones_like(s)
    mid = (s > 1.0) & (s < 2.0)
    out[mid] = _smoothstep(2.0 - s[mid])
    out[s >= 2.0] = 0.0
    return out


def _cutoff_d1(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 1.0) & (s < 2.0)
    out[mid] = _smoothstep_d1(2.0 - s[mid])
    return out


def _cutoff_d2(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 1.0) & (s < 2.0)
    out[mid] = _smoothstep_d2(2.0 - s[mid])
    return out


@dataclass
class CutoffCertificate:
    c1: float  # psi'' >= -c1
    c2: float  # (psi')^2 / psi <= c2 where psi > 0
    samples: int


def build_cutoff(samples: int = 1_000_000) -> CutoffCertificate:
    """Certify the shipped cutoff constants over a dense sample grid."""
    s = np.linspace(0.0, 2.0, samples)
    # off 1 < s < 2, psi' = psi'' = 0: only the samples inside can raise c1 and c2
    lo, hi = s.searchsorted(1.0, "right"), s.searchsorted(2.0)
    neg_d2 = ratio = 0.0
    for i in range(lo, hi, 65_536):  # slices bound the peak memory
        w = 2.0 - s[i:min(i + 65_536, hi)]
        neg_d2 = max(neg_d2, float(np.max(-_smoothstep_d2(w))))
        ratio = max(ratio, float(np.max(_smoothstep_d1(w) ** 2 / _smoothstep(w))))  # psi > 0 for 0 < w < 1
    return CutoffCertificate(neg_d2 * CUTOFF_SAFETY, ratio * CUTOFF_SAFETY, samples)


def operational_constants(cert: CutoffCertificate) -> dict:
    c3 = max(cert.c1, cert.c2)
    return {
        "c1": cert.c1,
        "c2": cert.c2,
        "c3": c3,
        "c4": DIM * c3,
        "c_n": DIM * DIM * c3,
    }


# --- parameters -----------------------------------------------------------


@dataclass
class EstimateParams:
    """Parameters shared by the inequality evaluators.

    alpha, p, q obey 1/p + 1/q = 1/alpha; rho is the geodesic-cube
    radius (admissible nodes satisfy d(x, center) <= 2 rho); A is the
    upper bound for u (computed from the data when omitted).
    """

    alpha: float = 1.0
    p: float = 2.0
    q: float = 2.0
    rho: float = 1.0
    center: tuple | int = 0
    A: float | None = None
    ricci_upper: float | None = None  # explicit rho for li-yau / nonneg-Ricci branch

    def __post_init__(self):
        if not (finite_real(self.alpha) and self.alpha >= 1.0):
            raise EstimateError(f"alpha must be a finite number of at least 1, got {self.alpha!r}")
        if not all(finite_real(x) and x > 0 for x in (self.p, self.q)):
            raise EstimateError(f"p and q must be finite numbers above 0, got {self.p!r} and {self.q!r}")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0 / self.alpha) > 1e-12:
            raise EstimateError(
                f"constraint 1/p + 1/q = 1/alpha violated: "
                f"1/{self.p} + 1/{self.q} != 1/{self.alpha}"
            )
        if not (finite_real(self.rho) and self.rho > 0):
            raise EstimateError(f"cube radius rho must be a finite number above 0, got {self.rho!r}")
        if self.A is not None and not (finite_real(self.A) and self.A > 0):
            raise EstimateError(f"A must be a finite number above 0, got {self.A!r}")
        rho_up = self.ricci_upper
        if rho_up is not None and not (finite_real(rho_up) and rho_up >= 0):
            raise EstimateError(f"ricci_upper must be a finite number of at least 0, got {rho_up!r}")


# --- pointwise quantities -------------------------------------------------


def log_density(u, A: float) -> np.ndarray:
    """f = ln(u/A); requires 0 < u <= A so that f <= 0 and 1 - f >= 1."""
    u = np.asarray(field_values(u), dtype=float)
    if np.any(u <= 0.0):
        raise EstimateError("u must be positive everywhere")
    if np.any(u > A):
        node = int(np.argmax(u))
        raise EstimateError(f"u exceeds A at node {node} (u = {u.flat[node]:.6g} > {A:.6g})")
    return np.log(u / A)


def phi_quantity(metric, f) -> np.ndarray:
    """phi = |grad f|^2 / (1 - f)^2 for f <= 0."""
    f = np.asarray(field_values(f), dtype=float)
    if np.any(f > 1e-12):
        raise EstimateError("phi is defined for f <= 0")
    return grad_norm_sq(metric, f) / (1.0 - f) ** 2


def time_derivative(times: np.ndarray, series: np.ndarray) -> np.ndarray:
    """d/dt of node samples along the trajectory time axis (axis 0).

    Centered on interior samples, one-sided second order at the ends,
    matching the solver's order of accuracy.
    """
    times = np.asarray(times, dtype=float)
    return np.gradient(series, times, axis=0, edge_order=2)


def harnack_quantity(metric, u, u_t, alpha: float, t: float) -> np.ndarray:
    """G = t (|grad f|^2 - alpha f_t) with f = ln u.

    Discretized so the chain rule is exact: |grad f|^2 := |grad u|^2/u^2
    and f_t := u_t/u, making G/t = |grad u|^2/u^2 - alpha u_t/u an
    algebraic identity.
    """
    u = np.asarray(field_values(u), dtype=float)
    if np.any(u <= 0.0):
        raise EstimateError("u must be positive everywhere")
    return _harnack(grad_norm_sq(metric, u) / u**2, u, u_t, alpha, t)


def _harnack(log_grad_sq, u, u_t, alpha, t):
    """G of :func:`harnack_quantity` from |grad u|^2/u^2."""
    return t * (log_grad_sq - alpha * (np.asarray(u_t, dtype=float) / u))


# --- right-hand sides -----------------------------------------------------


def bound_backward_thm(t, bounds: CurvatureBounds, rho, cert: CutoffCertificate, A, u):
    """Per-node RHS of the backward (conjugate-heat) log-gradient bound."""
    u = np.asarray(field_values(u), dtype=float)
    pref = (1.0 + np.log(A / u)) ** 2
    factor = (
        1.0 / t
        + cert.c2 * bounds.rho1
        + 4.0 * bounds.rho2
        + 2.0 * bounds.rho3
        + (rho * cert.c1 * np.sqrt(bounds.rho2) + cert.c2) / rho**2
    )
    return pref * factor


def bound_backward_thm_proof_variant(t, bounds: CurvatureBounds, rho, cert, A, u):
    """Variant with rho3 + sqrt(rho3) in place of 2 rho3 (recorded only)."""
    u = np.asarray(field_values(u), dtype=float)
    pref = (1.0 + np.log(A / u)) ** 2
    factor = (
        1.0 / t
        + cert.c2 * bounds.rho1
        + 4.0 * bounds.rho2
        + bounds.rho3
        + np.sqrt(bounds.rho3)
        + (rho * cert.c1 * np.sqrt(bounds.rho2) + cert.c2) / rho**2
    )
    return pref * factor


def bound_forward_thm(t, rho1, rho3, rho, cert: CutoffCertificate, A, u):
    """Per-node RHS of the forward (heat) log-gradient bound."""
    u = np.asarray(field_values(u), dtype=float)
    pref = (1.0 + np.log(A / u)) ** 2
    factor = 1.0 / t + cert.c2 * rho1 + 2.0 * rho3 + cert.c2 / rho**2
    return pref * factor


def bound_local_forward(t, bounds: CurvatureBounds, rho, alpha, p, q, c):
    """Scalar local Harnack bound over the geodesic cube."""
    if alpha <= 1.0:
        raise EstimateError("local Harnack bound requires alpha > 1")
    n = DIM
    r12 = bounds.rho1 + bounds.rho2
    return (
        alpha * n * p / (4.0 * t)
        + c * alpha**2 * (alpha**2 * p / (rho**2 * (alpha - 1.0)) + 1.0 / t + r12)
        + alpha**2 * n * p * bounds.rho1 / (2.0 * (alpha - 1.0))
        + 0.5 * alpha * n * r12 * np.sqrt(p * q)
    )


def bound_global_forward(t, rho1, rho2, alpha, p, q):
    """Scalar global Harnack bound; rho2 = None selects the
    nonnegative-Ricci branch with a single scale rho = rho1."""
    n = DIM
    if rho2 is None:
        return alpha * n * p / (4.0 * t) + 0.5 * alpha * n * rho1 * np.sqrt(p * q)
    if alpha <= 1.0:
        raise EstimateError("global Harnack bound requires alpha > 1 (use the nonnegative-Ricci branch for alpha = 1)")
    return (
        alpha * n * p / (4.0 * t)
        + alpha**2 * n * p * rho1 / (2.0 * (alpha - 1.0))
        + 0.5 * alpha * n * (rho1 + rho2) * np.sqrt(p * q)
    )


def bound_alpha_one(t, rho):
    """Li-Yau bound n/(2t) + n rho under 0 <= Ric' <= rho g'."""
    return DIM / (2.0 * t) + DIM * rho


# --- verification sweep ---------------------------------------------------


@dataclass
class EstimateReport:
    theorem: str
    status: str
    constants: dict
    measured_bounds: dict
    max_violation: float  # max over admissible points of LHS - RHS (<= 0 when holds)
    min_margin: float  # min of RHS - LHS
    margin_quantiles: dict
    violations: list  # (time index, node index, lhs, rhs) worst first
    failed_hypothesis: str | None = None
    admissible_points: int = 0
    extra: dict = field(default_factory=dict)


@dataclass
class _Sweep:
    """What ``verify`` reads of a trajectory for one (center, rho), whatever the theorem."""

    sup_u: float  # over the live samples
    measured: dict  # curvature_suprema over the cubes d <= 2 rho of the live samples
    judged: list  # (k, t, mask, u, u_t, |grad u|^2/u^2) where t > 0 and the cube is nonempty


def _sweep(trajectory: FlowTrajectory, center, rho: float) -> _Sweep:
    # samples past the heat horizon carry a frozen u with no meaningful
    # time derivative; only the live samples before it (a prefix) are
    # swept and measured
    horizon = trajectory.heat_valid_until
    t_hi = np.inf if horizon is None else horizon + 1e-12
    times = trajectory.times[trajectory.times <= t_hi]
    if len(times) < 3:
        raise EstimateError(f"u_t needs at least 3 live heat samples, the trajectory has {len(times)}")
    u = np.stack([f.values for f in trajectory.heat_fields[:len(times)]])
    if np.any(u <= 0.0):
        raise EstimateError("u must be positive everywhere")
    u_t = time_derivative(times, u)
    masks = []
    for m in trajectory.metrics[:len(times)]:  # nothing past the cube is read
        d = geodesic_distance(m, center, 2.0 * rho)
        masks.append(d.valid & (d.values <= 2.0 * rho))
    measured = curvature_suprema(trajectory, masks)  # builds the pack of each nonempty mask
    judged = [
        (k, t, mask, u[k], u_t[k], grad_norm_sq(metric, u[k], trajectory.curvature(k)) / u[k] ** 2)
        for k, (t, metric, mask) in enumerate(zip(times, trajectory.metrics, masks))
        if t > 0.0 and np.any(mask)
    ]
    return _Sweep(float(np.max(u)), measured, judged)


def verify(
    trajectory: FlowTrajectory,
    theorem: str,
    params: EstimateParams,
    cert: CutoffCertificate | None = None,
) -> EstimateReport:
    """Sweep one inequality over every admissible (node, time) pair.

    The curvature scales are the measured suprema over the admissible
    region (with slack), making the check property-based.  Hypothesis
    failures produce status ``hypothesis-violated`` and no conclusion
    judgement.  All that does not depend on the theorem (the live
    samples, u and u_t, the cube masks, the curvature suprema and
    |grad u|^2/u^2) is measured once per (center, rho) and cached in
    ``trajectory.sweeps``, so each further theorem only forms its bound
    and compares.
    """
    if theorem not in THEOREM_IDS:
        raise EstimateError(f"unknown theorem id {theorem!r}; choose from {THEOREM_IDS}")
    if trajectory.heat_fields is None:
        raise EstimateError("trajectory carries no heat field to verify")
    if cert is None:
        cert = build_cutoff(samples=100_001)

    key = (tuple(np.atleast_1d(params.center).tolist()), params.rho)
    if key not in trajectory.sweeps:
        trajectory.sweeps[key] = _sweep(trajectory, params.center, params.rho)
    sweep = trajectory.sweeps[key]
    measured = sweep.measured
    bounds = CurvatureBounds.from_suprema(measured)
    constants = operational_constants(cert)

    sup_u = sweep.sup_u
    A = params.A if params.A is not None else (1.0 + A_SLACK) * sup_u
    # rho of Ric' <= rho g' in li-yau and alpha = 1 harnack-global
    rho_up = params.ricci_upper
    if rho_up is None:
        rho_up = measured["ricci_eig_sup"] * (1.0 + 1e-9)
    # the report must carry every constant entering the RHS
    constants.update(A=A, rho1=bounds.rho1, rho2=bounds.rho2, rho3=bounds.rho3)

    failed = _check_hypotheses(theorem, params, measured, sup_u, A)
    if failed is not None:
        return EstimateReport(
            theorem, HYPOTHESIS_VIOLATED, constants, measured,
            np.nan, np.nan, {}, [], failed_hypothesis=failed,
        )

    admissible = 0
    worst = []
    margins = []
    extra = {"margin_by_time": []}
    if theorem == "log-gradient-backward":
        extra["rhs_proof_variant_min"] = np.inf
    alpha, p, q, rho = params.alpha, params.p, params.q, params.rho
    for k, t, mask, u, u_t, log_grad_sq in sweep.judged:
        if theorem.startswith("log-gradient"):
            lhs = log_grad_sq
        else:
            lhs = _harnack(log_grad_sq, u, u_t, alpha, t) / t
        if theorem == "log-gradient-backward":
            rhs = bound_backward_thm(t, bounds, rho, cert, A, u)
            variant = bound_backward_thm_proof_variant(t, bounds, rho, cert, A, u)
            extra["rhs_proof_variant_min"] = min(
                extra["rhs_proof_variant_min"], float(np.min(variant[mask]))
            )
        elif theorem == "log-gradient-forward":
            rhs = bound_forward_thm(t, bounds.rho1, bounds.rho3, rho, cert, A, u)
        elif theorem == "harnack-local":
            rhs = bound_local_forward(t, bounds, rho, alpha, p, q, constants["c3"])
        elif theorem == "harnack-global":  # alpha = 1 takes the nonnegative-Ricci branch
            rho1, rho2 = (bounds.rho1, bounds.rho2) if alpha > 1.0 else (rho_up, None)
            rhs = bound_global_forward(t, rho1, rho2, alpha, p, q)
        else:  # li-yau
            rhs = bound_alpha_one(t, rho_up)
        lhs = lhs[mask]
        rhs = np.broadcast_to(rhs, mask.shape)[mask]
        m = rhs - lhs
        if not np.all(np.isfinite(m)):
            # a NaN comparison is False, so it would silently count as a pass
            raise EstimateError(f"non-finite estimate bound or LHS at sample {k} (t = {t:.6g})")
        admissible += m.size
        margins.append(m)
        extra["margin_by_time"].append((float(t), float(np.min(m))))
        flat_idx = np.flatnonzero(mask)
        for j in np.flatnonzero(lhs > rhs):
            worst.append((k, int(flat_idx[j]), float(lhs[j]), float(rhs[j])))

    if admissible == 0:
        raise EstimateError("admissible set is empty (cube entirely masked)")
    margins = np.concatenate(margins)
    worst.sort(key=lambda rec: rec[3] - rec[2])
    quant = {
        "q00": float(np.min(margins)),
        "q25": float(np.quantile(margins, 0.25)),
        "q50": float(np.quantile(margins, 0.50)),
        "q75": float(np.quantile(margins, 0.75)),
        "q100": float(np.max(margins)),
    }
    status = VIOLATED if worst else HOLDS
    return EstimateReport(
        theorem, status, constants, measured,
        float(max(0.0, -np.min(margins))),
        float(np.min(margins)), quant, worst[:16],
        admissible_points=admissible, extra=extra,
    )


def _check_hypotheses(theorem, params, measured, sup_u, A):
    """The first failed hypothesis of ``theorem``, or None.  The
    curvature scales are measured, so only these five can fail."""
    if theorem.startswith("log-gradient") and sup_u > A:
        return "u-upper-bound-A"
    if theorem == "harnack-local" and params.alpha <= 1.0:
        return "alpha-greater-than-one"
    if theorem == "li-yau" and params.alpha != 1.0:
        return "alpha-equals-one"
    if theorem in ("li-yau", "harnack-global") and params.alpha <= 1.0:
        if measured["neg_ricci_eig_sup"] > HYPOTHESIS_TOL:
            return "ricci-nonnegative"
        rho_up = params.ricci_upper  # rho in Ric' <= rho g'
        if rho_up is not None and measured["ricci_eig_sup"] > rho_up + HYPOTHESIS_TOL:
            return "ricci-upper-bound"
    return None
