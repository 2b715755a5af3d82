import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nullflow.nullgeom import (
    DegenerateMetric,
    NullCurveFrame,
    NullStructureError,
    distinguished_parameter,
    frenet_functions,
    radical_check,
    radical_vector_field,
    screen_projection,
)
from nullflow.scenarios import flat_torus_metric, sphere_metric, torus_bump_metric


def _frames(k=201, t_end=1.0):
    return _frames_at(np.linspace(0.0, t_end, k))


def _frames_at(t):
    k = len(t)
    E = np.tile([1.0, 0.0, 0.0], (k, 1))
    W1 = np.tile([0.0, 1.0, 0.0], (k, 1))
    W2 = np.tile([0.0, 0.0, 1.0], (k, 1))
    return t, E, W1, W2


def _nonuniform_frames():
    # t = s + 0.3 s^2 is strictly increasing and its spacing grows 1.6-fold
    s = np.linspace(0.0, 1.0, 201)
    return _frames_at(s + 0.3 * s**2)


def test_block_matrix_layout():
    dm = DegenerateMetric(sphere_metric(1.0, 32))
    mat = dm.matrix()
    th = dm.leaf.grid.axes[0]
    assert np.max(np.abs(mat[..., 0, :])) == 0.0
    assert np.max(np.abs(mat[..., :, 0])) == 0.0
    assert np.allclose(mat[..., 1, 1], 1.0)
    assert np.allclose(mat[..., 2, 2], np.sin(th) ** 2)


@pytest.mark.parametrize(
    "metric", [sphere_metric(1.0, 32), flat_torus_metric(n=16), torus_bump_metric(0.2, 16)]
)
def test_rank_and_radical(metric):
    dm = DegenerateMetric(metric)
    assert np.all(dm.rank() == 2)
    E = radical_vector_field(dm)
    assert np.all(radical_check(dm, E))


def test_radical_check_rejects_screen_and_mixed_vectors():
    dm = DegenerateMetric(flat_torus_metric(n=16))
    W1 = np.zeros(dm.leaf.grid.shape + (3,))
    W1[..., 1] = 1.0
    assert not np.any(radical_check(dm, W1))
    mixed = radical_vector_field(dm) + 1e-6 * W1
    assert not np.any(radical_check(dm, mixed))


def test_screen_projection_idempotent():
    dm = DegenerateMetric(flat_torus_metric(n=16))
    v = np.zeros(dm.leaf.grid.shape + (3,))
    v[..., 0] = 1.0
    v[..., 1] = 2.0
    v[..., 2] = 3.0
    p = screen_projection(dm, v)
    assert np.all(p[..., 0] == 0.0)
    assert np.all(p[..., 1] == 2.0) and np.all(p[..., 2] == 3.0)
    assert np.array_equal(screen_projection(dm, p), p)
    E = radical_vector_field(dm)
    assert np.max(np.abs(screen_projection(dm, E))) == 0.0


def test_frenet_straight_null_line():
    t, E, W1, W2 = _frames()
    h, k1, k2, k3 = frenet_functions(NullCurveFrame(t, E, W1, W2))
    for arr in (h, k1, k2, k3):
        assert np.max(np.abs(arr)) < 1e-12


def test_frenet_exponentially_scaled_tangent():
    t, E, W1, W2 = _frames()
    frame = NullCurveFrame(t, np.exp(t)[:, None] * E, W1, W2)
    h, k1, k2, k3 = frenet_functions(frame)
    assert np.max(np.abs(h - 1.0)) < 1e-4
    assert np.max(np.abs(k1)) < 1e-12
    # analytic derivative callable removes the stencil error entirely
    h2, _, _, _ = frenet_functions(
        frame,
        derivative=lambda name, tt: (
            np.exp(tt)[:, None] * np.tile([1.0, 0, 0], (len(tt), 1))
            if name == "E"
            else np.zeros((len(tt), 3))
        ),
    )
    assert np.max(np.abs(h2 - 1.0)) < 1e-12


def test_frenet_rotating_screen_frame():
    omega = 2.0
    t, E, _, _ = _frames()
    W1 = np.stack([np.zeros_like(t), np.cos(omega * t), np.sin(omega * t)], axis=1)
    W2 = np.stack([np.zeros_like(t), -np.sin(omega * t), np.cos(omega * t)], axis=1)
    h, k1, k2, k3 = frenet_functions(NullCurveFrame(t, E, W1, W2))
    assert np.max(np.abs(k3 - omega)) < 1e-4
    assert np.max(np.abs(h)) < 1e-12
    assert np.max(np.abs(k1)) < 1e-12 and np.max(np.abs(k2)) < 1e-12


def test_frame_invariants_enforced():
    t, E, W1, W2 = _frames(k=21)
    with pytest.raises(NullStructureError):
        NullCurveFrame(t, W1, W1, W2)  # tangent not null
    with pytest.raises(NullStructureError):
        NullCurveFrame(t, E, 2.0 * W1, W2)  # not orthonormal


def test_distinguished_parameter_affine_case():
    ts = np.linspace(0.0, 1.0, 3001)
    r = distinguished_parameter(lambda s: 0.0 * s, ts, a=1.0, b=0.0)
    assert np.max(np.abs(r.t_of_tstar - ts)) < 1e-14
    assert r.residual < 1e-8
    assert np.all(np.diff(r.t_of_tstar) > 0)


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_distinguished_parameter_constant_htilde(c):
    ts = np.linspace(0.0, 1.0, 3001)
    r = distinguished_parameter(lambda s: c + 0.0 * s, ts)
    exact = (np.exp(c * ts) - 1.0) / c
    assert np.max(np.abs(r.t_of_tstar - exact)) < 1e-8
    assert r.residual < 1e-8
    assert r.quadrature_error < 1e-10


def test_distinguished_parameter_matches_ode_oracle():
    # independent high-order oracle for t'' = htilde*(t*) t' with htilde* = sin
    ts = np.linspace(0.0, 2.0, 4001)
    r = distinguished_parameter(np.sin, ts)

    sol = solve_ivp(
        lambda s, y: [y[1], np.sin(s) * y[1]],
        (0.0, 2.0),
        [0.0, 1.0],
        t_eval=ts,
        rtol=1e-12,
        atol=1e-14,
        method="DOP853",
    )
    assert np.max(np.abs(r.t_of_tstar - sol.y[0])) < 1e-8


def test_distinguished_parameter_rejects_degenerate_a():
    ts = np.linspace(0.0, 1.0, 101)
    with pytest.raises(NullStructureError):
        distinguished_parameter(lambda s: 0.0 * s, ts, a=0.0)


def test_distinguished_parameter_negative_a_monotone_decreasing():
    ts = np.linspace(0.0, 1.0, 2001)
    r = distinguished_parameter(lambda s: 0.5 + 0.0 * s, ts, a=-1.0, b=2.0)
    assert np.all(np.diff(r.t_of_tstar) < 0)
    assert r.residual < 1e-8


def test_reparametrized_curve_has_zero_htilde():
    # rebuild a Frenet frame in the distinguished parameter and refit htilde
    c = 0.8
    ts = np.linspace(0.0, 1.0, 3001)
    r = distinguished_parameter(lambda s: c + 0.0 * s, ts)
    p = r.p_of_tstar()
    # tangent in p: dt*/dp = exp(-c t*) for this htilde*; E(p) = (dt*/dp) d/dt*
    # with the original tangent e^{c t*}-scaled, i.e. E(p) is constant
    k = 801
    pi = np.linspace(p[0], p[-1], k)
    E = np.tile([1.0, 0.0, 0.0], (k, 1))
    W1 = np.tile([0.0, 1.0, 0.0], (k, 1))
    W2 = np.tile([0.0, 0.0, 1.0], (k, 1))
    h, _, _, _ = frenet_functions(NullCurveFrame(pi, E, W1, W2))
    assert np.max(np.abs(h)) < 1e-6


def test_frenet_quadratic_tangent_is_exact_on_nonuniform_samples():
    # E = (1 + t^2) e1: D_E E = 2t e1, so htilde = 2t / (1 + t^2); the
    # second-order rule is exact on a quadratic at every sample, ends included
    t, E, W1, W2 = _nonuniform_frames()
    h, k1, k2, k3 = frenet_functions(NullCurveFrame(t, (1.0 + t**2)[:, None] * E, W1, W2))
    assert np.max(np.abs(h - 2.0 * t / (1.0 + t**2))) < 1e-12
    for arr in (k1, k2, k3):
        assert np.max(np.abs(arr)) < 1e-12


def test_frenet_exponential_tangent_is_second_order_on_nonuniform_samples():
    t, E, W1, W2 = _nonuniform_frames()
    h, k1, k2, k3 = frenet_functions(NullCurveFrame(t, np.exp(t)[:, None] * E, W1, W2))
    assert np.max(np.abs(h - 1.0)) < 1e-4  # the end samples included
    for arr in (k1, k2, k3):
        assert np.max(np.abs(arr)) < 1e-12


def test_frame_needs_three_samples():
    t, E, W1, W2 = _frames(k=2)
    with pytest.raises(NullStructureError, match="at least 3"):
        NullCurveFrame(t, E, W1, W2)
    frenet_functions(NullCurveFrame(*_frames(k=3)))


def test_degenerate_basis_names_its_first_sample():
    t, E, W1, W2 = _nonuniform_frames()
    E[[7, 9]] = 0.0  # a zero tangent is null and orthogonal to the screen
    with pytest.raises(NullStructureError, match="degenerate frame at sample 7$"):
        frenet_functions(NullCurveFrame(t, E, W1, W2))
