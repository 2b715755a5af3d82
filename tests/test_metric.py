import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import node_major_reference as ref
import nullflow.metric as metric_module
from nullflow.grids import ScalarField, make_sphere_grid, make_torus_grid
from nullflow.metric import (
    LeafMetric,
    MetricError,
    SingularMetricError,
    _trace,
    bochner_residual,
    christoffel,
    curvature,
    gauss_curvature,
    grad_norm_sq,
    gradient,
    hessian,
    laplace_beltrami,
    ricci,
    ricci_identity_residual,
)
from nullflow.scenarios import (
    flat_torus_metric,
    sphere_metric,
    torus_bump_conformal_factor,
    torus_bump_metric,
)

BUMP_AMP = 0.2


def _bump_log_derivs(x, y, h=1e-3):
    """Independent oracle: 4th-order stencil on the closed-form factor."""

    def psi(xx, yy):
        return 0.5 * np.log(torus_bump_conformal_factor(BUMP_AMP, xx, yy))

    def d4(f, xx, yy, axis):
        if axis == 0:
            vals = [f(xx + k * h, yy) for k in (-2, -1, 1, 2)]
        else:
            vals = [f(xx, yy + k * h) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    px = d4(psi, x, y, 0)
    py = d4(psi, x, y, 1)
    pxx = d4(lambda a, b: d4(psi, a, b, 0), x, y, 0)
    pyy = d4(lambda a, b: d4(psi, a, b, 1), x, y, 1)
    return px, py, pxx, pyy


def torus_bump_gauss_oracle(x, y):
    """K = -e^{-2 psi} (psi_xx + psi_yy) for the conformal metric e^{2 psi} I."""
    _, _, pxx, pyy = _bump_log_derivs(x, y)
    factor = torus_bump_conformal_factor(BUMP_AMP, x, y)
    return -(pxx + pyy) / factor


@pytest.mark.parametrize("shape", [(8, 8, 2, 2), (8,), (8, 9), (9, 8)])
def test_a_metric_is_made_from_w_alone(shape):
    # components, or a w of another shape, are rejected; a metric's components come in
    # from outside only through the trajectory CSV, whose reader checks that they are w g_0
    with pytest.raises(MetricError, match=re.escape(f"metric shape {shape} invalid")):
        LeafMetric(make_torus_grid(8), np.ones(shape))


def _outcome(make):
    """None, or the class and message of what ``make()`` raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            make()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _kernel_case(case):
    """Metric and a smooth field: sphere n = 48, or torus bump n = 16 / 33, the latter
    optionally times the wave 1 + 0.2 sin(x + 2y), whose w no reflection of the grid keeps."""
    if case == "sphere-48":
        m = sphere_metric(1.3, 48)
        return m, 2.0 + np.cos(m.grid.axes[0])
    m = torus_bump_metric(0.3, int(case.split("-")[1]))
    x, y = m.grid.coordinate_fields()
    if case.endswith("wave"):
        m = LeafMetric(m.grid, m.w * (1.0 + 0.2 * np.sin(x + 2.0 * y)))
    return m, 2.0 + np.sin(x) * np.cos(2.0 * y)


def _assert_flat_laplacian(m, u, lap, christoffel_forms):
    """``lap``, the Laplacian of a metric w I, is gi (d_00 u + d_11 u) bit for
    bit, and each Christoffel form of it node by node within 4 eps of the
    scale gi (|d_00 u| + |d_11 u| + 2 |Gamma^0_00 d_0 u| + 2 |Gamma^1_11 d_1 u|)
    of the terms it rounds (so exactly where that scale is 0)."""
    grid = m.grid
    gi = ref.inverse(m)[..., 0, 0]
    d00, d11 = ref.second_deriv(grid, u, 0), ref.second_deriv(grid, u, 1)
    assert np.array_equal(lap, gi * (d00 + d11))
    gamma = ref.christoffel(m)
    p = gamma[..., 0, 0, 0] * ref.partial_deriv(grid, u, 0)
    q = gamma[..., 1, 1, 1] * ref.partial_deriv(grid, u, 1)
    scale = gi * (np.abs(d00) + np.abs(d11) + 2.0 * np.abs(p) + 2.0 * np.abs(q))
    for other in christoffel_forms:
        assert np.all(np.abs(lap - other) <= 4.0 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("case", ["sphere-48", "bump-16", "bump-16-wave", "bump-33", "bump-33-wave"])
def test_kernels_bit_identical_to_node_major_reference(case):
    m, u = _kernel_case(case)
    assert np.array_equal(m.inverse(), ref.inverse(m))
    assert np.array_equal(christoffel(m), ref.christoffel(m))
    assert np.array_equal(gauss_curvature(m), ref.gauss_curvature(m))
    assert np.array_equal(curvature(m).K, ref.gauss_curvature(m))
    assert np.array_equal(hessian(m, u), ref.hessian(m, u))
    lap = ref.laplace_beltrami(m, u)
    pack = curvature(m)
    for got in (laplace_beltrami(m, u), laplace_beltrami(m, u, pack)):
        if case.startswith("bump"):  # the torus takes the flat form
            _assert_flat_laplacian(m, u, got, [lap])
        else:
            assert np.array_equal(got, lap)


def _conformal_metric(n, scale, modes):
    """Torus metric w I, w = scale (1 + low modes), the modes within [-0.6, 0.6]."""
    grid = make_torus_grid(n)
    x, y = grid.coordinate_fields()
    w = np.ones(grid.shape)
    for kx, ky, a, b in modes:
        w += a * np.cos(kx * x + ky * y) + b * np.sin(kx * x + ky * y)
    return LeafMetric(grid, scale * w)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 40), scale=st.floats(0.25, 4.0),
       modes=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)), max_size=3))
@example(n=9, scale=1.0, modes=[])  # flat: K is an exact zero, so its sign counts
@example(n=33, scale=1.0, modes=[(1, 1, 0.0, 0.1), (0, 2, -0.1, 0.0)])
def test_conformal_kernels_are_bit_identical_to_the_christoffel_route(n, scale, modes):
    # K against the reference's full Christoffel / Ricci sum on the components w I
    m = _conformal_metric(n, scale, modes)
    w = m.w
    assert np.array_equal(w, m.comps[..., 0, 0])
    K = gauss_curvature(m)
    other = ref.gauss_curvature(m)
    assert np.array_equal(K, other)
    assert np.array_equal(np.signbit(K), np.signbit(other))
    pack = curvature(m)
    assert ricci(m).tobytes() == ricci(m, pack).tobytes() == (K * w).tobytes()
    x, y = m.grid.coordinate_fields()
    u = 2.0 + np.sin(x) * np.cos(2.0 * y) + 0.5 * np.cos(3.0 * x - y)
    lap = laplace_beltrami(m, u, pack)
    christoffel_form = _trace(pack.ginv, hessian(m, u, pack.christoffel))
    _assert_flat_laplacian(m, u, lap, [ref.laplace_beltrami(m, u), christoffel_form])


@pytest.mark.parametrize("n", [8, 17, 32, 64])
@pytest.mark.parametrize("case", ["bump", "random-w"])
def test_gauss_curvature_is_the_full_christoffel_sum_bit_for_bit(n, case):
    # the one K, on the torus bump and on a w with no smoothness, against the reference's
    # full sum on the components, bit for bit and with the sign of each zero
    m = torus_bump_metric(0.3, n)
    if case == "random-w":
        m = LeafMetric(m.grid, 1.0 + 0.5 * np.random.default_rng(n).uniform(-1.0, 1.0, m.grid.shape))
    K, want = gauss_curvature(m), ref.gauss_curvature(m)
    assert K.tobytes() == want.tobytes() and curvature(m).K.tobytes() == want.tobytes()


@pytest.mark.parametrize("w", [-0.5, 0.0, -1e-170])
def test_conformal_ricci_keeps_the_singular_metric_checks(w):
    # the conformal K and a pack's kernels check nothing, so the metric they
    # read must not be made: LeafMetric rejects it
    m = torus_bump_metric(0.3, 16)
    field = m.w.copy()
    field[3, 4] = w
    want = _outcome(lambda: ref.check_metric(m.grid, field))
    assert want[0] is SingularMetricError
    assert _outcome(lambda: LeafMetric(m.grid, field)) == want


@pytest.mark.parametrize("node", [(0, 0), (9, 4)])
@pytest.mark.parametrize("w", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, 1e-160, 1e155])
def test_conformal_checks_on_w_raise_what_the_metric_checks_raise(node, w):
    # on w I the smaller eigenvalue of each node is w: a finite w > 0 (5e-324,
    # 1e-160 and 1e155 too) is accepted, a w <= 0 is singular and a NaN or
    # +-inf is not finite, as the reference's checks find
    m = torus_bump_metric(0.3, 16)
    field = m.w.copy()
    field[node] = w

    def outcome(check):
        try:
            return float(check())
        except MetricError as exc:
            return type(exc), str(exc), exc.node

    want = outcome(lambda: ref.check_metric(m.grid, field).min())
    got = outcome(lambda: LeafMetric(m.grid, field).smallest_eigenvalue)
    if np.isfinite(w) and w > 0.0:
        assert got == want == field.min()
    else:
        assert got == want and got[2] == np.ravel_multi_index(node, m.grid.shape)
        assert got[0] is (SingularMetricError if np.isfinite(w) else MetricError)


_EDGE_W = (5e-324, 1e-160, 1e-150, 1e150, 1e154, -1.0, 0.0, -0.0, np.nan, np.inf, -np.inf)


@settings(max_examples=150, deadline=None)
@given(scale=st.floats(1e-160, 1e160), node=st.integers(0, 63),
       value=st.one_of(st.sampled_from(_EDGE_W), st.floats(), st.none()))
def test_the_smallest_eigenvalue_of_w_I_is_min_w_bit_for_bit(scale, node, value):
    # min w, bit for bit, when every w is finite and above 0; else a NaN or +-inf fails
    # as MetricError at its first node, then a w <= 0 as SingularMetricError at the
    # least w's node
    w = scale * torus_bump_metric(0.3, 8).w
    if value is not None:
        w.flat[node] = value
    grid, finite = make_torus_grid(8), np.isfinite(w)
    if finite.all() and w.min() > 0.0:
        assert np.float64(LeafMetric(grid, w).smallest_eigenvalue).tobytes() == w.min().tobytes()
        return
    error, at = ((MetricError, int(np.argmax(~finite))) if not finite.all()
                 else (SingularMetricError, int(np.argmin(w))))
    with pytest.raises(MetricError, match=rf"\(node {at}\b") as info:
        LeafMetric(grid, w)
    assert type(info.value) is error and info.value.node == at


def _holds_components(m):
    """Whether the metric ``m`` keeps an array of its grid's shape + (2, 2), or a view of one."""
    return any(isinstance(v, np.ndarray) and (v.shape == m.grid.shape + (2, 2) or v.base is not None)
               for v in vars(m).values())


@settings(max_examples=200, deadline=None)
@given(sphere=st.booleans(), scale=st.floats(1e-160, 1e160), node=st.integers(0, 63),
       value=st.one_of(st.sampled_from((5e-324, 1e308, 0.0, -0.0, np.nan, np.inf, -np.inf)),
                       st.floats(), st.none()))
def test_a_metric_made_from_w_has_the_reference_smallest_eigenvalue(sphere, scale, node, value):
    # LeafMetric(grid, w) on the torus and the sphere chart: the smallest eigenvalue w g11_0
    # of the reference, bit for bit, holding w alone, or the same error class, message and node
    grid = make_sphere_grid(64) if sphere else make_torus_grid(8)
    w = scale * (1.0 + 0.3 * np.cos(grid.coordinate_fields()[0]))
    if value is not None:
        w.flat[node] = value

    def outcome(make):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return make()
        except MetricError as exc:
            return type(exc), str(exc), exc.node

    got = outcome(lambda: LeafMetric(grid, w))
    want = outcome(lambda: ref.check_metric(grid, w).min())
    if isinstance(got, LeafMetric):
        assert np.float64(got.smallest_eigenvalue).tobytes() == np.float64(want).tobytes()
        assert not _holds_components(got)
    else:
        assert got == want


@pytest.mark.parametrize("case", ["sphere-48", "bump-16", "bump-16-wave"])
def test_a_w_g0_metric_holds_w_alone_and_builds_its_components_on_each_read(case):
    # comps (g00, g01, g10, g11) is w, +0.0, +0.0 and w g11_0 bit for bit
    m, _ = _kernel_case(case)
    comps = m.comps
    assert comps[..., 0, 0].tobytes() == m.w.tobytes()
    assert comps[..., 0, 1].tobytes() == comps[..., 1, 0].tobytes() == np.zeros_like(m.w).tobytes()
    assert comps[..., 1, 1].tobytes() == (m.w * m.grid.background_g11).tobytes()
    assert not _holds_components(m) and m.w.flags.c_contiguous
    again = m.comps
    assert again is not comps and again.tobytes() == comps.tobytes()


@pytest.mark.parametrize("case", ["sphere-48", "bump-16", "bump-33", "bump-33-wave"])
def test_ricci_is_k_times_the_metric_in_its_own_form(case):
    # Ric = K g as the factor K w of Ric = (K w) g_0, bit for bit, a fresh array each
    # call; K is read off a pack when given, and the pack's K is never written
    m, _ = _kernel_case(case)
    pack = curvature(m)
    K = pack.K
    kept = K.tobytes()
    want = K * m.w
    for got in (ricci(m), ricci(m, pack), ricci(m, pack)):
        assert got.tobytes() == want.tobytes() and got.shape == m.grid.shape
        assert not np.shares_memory(got, K) and not np.shares_memory(got, m.w)
    assert pack.K is K and K.tobytes() == kept


@pytest.mark.parametrize("case", ["sphere-48", "bump-16", "bump-16-wave"])
@pytest.mark.parametrize("with_K", [False, True])
def test_curvature_inverts_its_metric_once(monkeypatch, case, with_K):
    m, u = _kernel_case(case)
    calls = []
    inverse = LeafMetric.inverse
    monkeypatch.setattr(LeafMetric, "inverse", lambda self: calls.append(1) or inverse(self))
    pack = curvature(m)
    assert calls == []  # a pack inverts its metric when a reader first needs g^ab
    if with_K:  # K, computed on first use, and the kernels reuse the pack's inverse
        K = pack.K
        lap = laplace_beltrami(m, u, pack)
        pack.diffusion_rate
    # K, the Laplacian and the diffusion rate read w, and never g^ab
    assert calls == []
    assert ("K" in vars(pack)) == with_K
    pack.ginv
    grad_norm_sq(m, u, pack)
    # the first read of g^ab inverts once; verify's |grad f|^2 reads the pack's g^00 = w / (w w)
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(pack.ginv, m.inverse())
    assert np.array_equal(pack.christoffel, christoffel(m))
    if with_K:
        assert np.array_equal(K, gauss_curvature(m))
        assert pack.K is K
        assert np.array_equal(lap, laplace_beltrami(m, u))


@pytest.mark.parametrize("case", ["sphere-48", "bump-16", "bump-33", "bump-33-wave"])
def test_pack_stores_its_tensors_grid_axes_first_and_builds_gamma_once(monkeypatch, case):
    m, u = _kernel_case(case)
    calls = []
    build = metric_module.christoffel
    monkeypatch.setattr(metric_module, "christoffel", lambda g, *ginv: calls.append(1) or build(g, *ginv))
    pack = curvature(m)
    pack.K
    laplace_beltrami(m, u, pack)
    assert pack.christoffel is pack.christoffel
    assert calls == [1]
    for tensor, comps in ((pack.ginv, (2, 2)), (pack.christoffel, (2, 2, 2))):
        assert tensor.flags.c_contiguous
        assert tensor.shape == m.grid.shape + comps


_BAD_VALUES = (0.0, -0.0, -1.0, np.nan, np.inf, 5e-324, 1e-160, 1e155)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(["sphere-48", "bump-16", "bump-33-wave"]), node=st.integers(0, 33 * 33 - 1),
       value=st.sampled_from(_BAD_VALUES))
def test_a_metric_is_checked_where_it_is_made_as_the_reference_checks_it(case, node, value):
    # one bad node in the w of a torus bump or sphere metric: LeafMetric raises the class,
    # message and node of the reference's checks, in their order (shape, finiteness,
    # smallest eigenvalue), or accepts the metric with their eigenvalue
    m, _ = _kernel_case(case)
    w = m.w.copy()
    w.flat[node % w.size] = value
    want = _outcome(lambda: ref.check_metric(m.grid, w))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            made = LeafMetric(m.grid, w)
    except MetricError as exc:
        assert (type(exc), str(exc)) == want
        named = re.search(r"\(node (\d+)", str(exc))
        assert named is None or exc.node == int(named.group(1))
    else:
        assert want is None
        with np.errstate(over="ignore", invalid="ignore"):
            assert made.smallest_eigenvalue == ref.check_metric(m.grid, w).min()


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["bump-16", "bump-33", "random-w-17"]), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-200, 1e100]), zeros=st.booleans(), with_pack=st.booleans())
def test_grad_norm_sq_is_bit_identical_to_its_einsum(case, seed, scale, zeros, with_pack):
    # the written-out contraction pairs and orders its sums as
    # np.einsum("...ab,...a,...b->...") does, signed zeros and underflow included
    rng = np.random.default_rng(seed)
    if case == "random-w-17":  # a w with no smoothness
        grid = make_torus_grid(17)
        m = LeafMetric(grid, rng.uniform(0.5, 2.0, grid.shape))
    else:
        m, _ = _kernel_case(case)
    u = scale * rng.normal(size=m.grid.shape)
    if zeros:  # +-0.0 cells, whose differences can be -0.0
        u[rng.random(u.shape) < 0.5] = 0.0
        u[rng.random(u.shape) < 0.5] *= -1.0
    df = np.stack([ref.partial_deriv(m.grid, u, d) for d in range(2)], axis=-1)
    want = np.maximum(np.einsum("...ab,...a,...b->...", ref.inverse(m), df, df), 0.0)
    assert grad_norm_sq(m, u, curvature(m) if with_pack else None).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", ["sphere-48", "bump-16"])
def test_grad_norm_sq_is_nan_where_d_f_is_not_finite(monkeypatch, case, bad):
    # on w g_0 |grad f|^2 reads the pack's g^00 and g^11 alone, without inverting the metric;
    # the einsum's products by g^01 = +-0 are NaN where d f is NaN or inf, and so is it
    m, u = _kernel_case(case)
    u = u.copy()
    u.flat[[0, 7]] = bad
    ginv = np.zeros(m.grid.shape + (2, 2))
    ginv[..., 0, 0], ginv[..., 1, 1] = curvature(m).inverse_diagonal
    with np.errstate(invalid="ignore"):
        df = np.stack([ref.partial_deriv(m.grid, u, d) for d in range(2)], axis=-1)
        want = np.maximum(np.einsum("...ab,...a,...b->...", ginv, df, df), 0.0)
        monkeypatch.setattr(LeafMetric, "inverse", None)
        got = grad_norm_sq(m, u, curvature(m))
    assert (~np.isfinite(df).all(axis=-1)).sum() >= 2
    assert np.array_equal(np.isnan(got), ~np.isfinite(df).all(axis=-1))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()


@pytest.mark.parametrize("w", [1e-300, 1e-150, 1e150, 1e300])
@pytest.mark.parametrize("topology", ["torus", "sphere"])
def test_a_uniform_w_600_decades_apart_keeps_its_eigenvalue_and_curvature(topology, w):
    # a uniform w from 1e-300 to 1e300 is accepted with its smallest eigenvalue w min g11_0
    # rounded once from the exact product; its K is exactly 1 / w on the round chart, and
    # exactly 0 on the flat torus where w w, the determinant its K divides by, is normal
    grid = make_torus_grid(8) if topology == "torus" else make_sphere_grid(16)
    m = LeafMetric(grid, np.full(grid.shape, w))
    g11_0 = float(np.min(grid.background_g11))
    assert np.float64(m.smallest_eigenvalue).tobytes() == np.float64(float(Fraction(w) * Fraction(g11_0))).tobytes()
    if topology == "torus" and not 1e-154 < w < 1e154:
        return
    K = gauss_curvature(m)
    assert np.all(K == (0.0 if topology == "torus" else 1.0 / w))
    assert np.array_equal(curvature(m).K, K)
    if topology == "torus":
        assert K.tobytes() == ref.gauss_curvature(m).tobytes()


@pytest.mark.parametrize("w", [-1.0, -3.0, -2e-300])
def test_a_chart_node_whose_w_is_not_positive_names_its_least_eigenvalue(w):
    # a chart node's eigenvalues are w and w sin^2(theta), and LeafMetric checks the
    # latter: with w < 0 at nodes 0 and 7, the check names node 7, nearer the equator,
    # whose w sin^2(theta) is the least of those it checks, as the reference does
    m = sphere_metric(1.3, 16)
    field = m.w.copy()
    field[[0, 7]] = w
    lam = w * np.sin(m.grid.axes[0][7]) ** 2
    assert lam < w * np.sin(m.grid.axes[0][0]) ** 2 < 0.0
    want = _outcome(lambda: ref.check_metric(m.grid, field))
    with pytest.raises(SingularMetricError, match=re.escape(f"(node 7, eigenvalue {lam:.3e})") + "$") as info:
        LeafMetric(m.grid, field)
    assert info.value.node == 7 and (type(info.value), str(info.value)) == want


def test_positive_definiteness_reports_node():
    m = flat_torus_metric(n=8)
    w = m.w.copy()
    w[3, 4] = -1.0
    with pytest.raises(SingularMetricError) as exc:
        LeafMetric(m.grid, w)
    assert "node 28" in str(exc.value) and exc.value.node == 28


def test_positive_definiteness_rejects_nan():
    # NaN <= 0 is False, so a NaN must fail explicitly: as not finite, not as singular
    m = sphere_metric(1.0, 16)
    w = m.w.copy()
    w[4] = np.nan
    with pytest.raises(MetricError, match=r"not finite \(node 4\)") as info:
        LeafMetric(m.grid, w)
    assert type(info.value) is MetricError and info.value.node == 4


def test_inverse_closed_form():
    m = torus_bump_metric(BUMP_AMP, 16)
    ident = np.einsum("...ab,...bc->...ac", m.comps, m.inverse())
    eye = np.zeros_like(ident)
    eye[..., 0, 0] = eye[..., 1, 1] = 1.0
    assert np.max(np.abs(ident - eye)) < 1e-14


def test_flat_torus_christoffel_and_curvature_vanish():
    m = flat_torus_metric(n=16)
    assert np.max(np.abs(christoffel(m))) == 0.0
    pack = curvature(m)
    assert np.max(np.abs(ricci(m, pack))) == 0.0
    assert np.max(np.abs(pack.scal)) == 0.0


def test_sphere_christoffel_matches_symbols():
    n = 64
    m = sphere_metric(1.0, n)
    th = m.grid.axes[0]
    gamma = christoffel(m)
    h = np.pi / n
    assert np.max(np.abs(gamma[..., 0, 1, 1] + np.sin(th) * np.cos(th))) < 10 * h**2
    # cot(theta) blows up toward the poles; compare on the interior half
    mid = (th > np.pi / 4) & (th < 3 * np.pi / 4)
    assert np.max(np.abs(gamma[mid, 1, 0, 1] - 1.0 / np.tan(th[mid]))) < 10 * h**2


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_sphere_ricci_and_scal(radius):
    n = 64
    m = sphere_metric(radius, n)
    pack = curvature(m)
    K = 1.0 / radius**2
    assert np.max(np.abs(ricci(m, pack) - K * m.w)) < 5e-3 * max(1.0, radius**2)  # Ric = (K w) g_round
    assert np.max(np.abs(pack.scal - 2.0 * K)) < 5e-3


def test_curvature_pack_invariants():
    m = torus_bump_metric(BUMP_AMP, 32)
    pack = curvature(m)
    ric = pack.K[..., None, None] * m.comps
    assert np.max(np.abs(ric - np.swapaxes(ric, -2, -1))) == 0.0
    trace = np.einsum("...ab,...ab->...", m.inverse(), ric)
    assert np.max(np.abs(trace - pack.scal)) < 1e-12


def test_torus_bump_ricci_matches_fine_stencil_oracle():
    n = 64
    m = torus_bump_metric(BUMP_AMP, n)
    x, y = m.grid.coordinate_fields()
    K_oracle = torus_bump_gauss_oracle(x, y)
    h = 2 * np.pi / n
    assert np.max(np.abs(ricci(m) - K_oracle * m.w)) < 10 * h**2  # Ric = (K w) I


def test_torus_bump_christoffel_matches_oracle():
    n = 64
    m = torus_bump_metric(BUMP_AMP, n)
    x, y = m.grid.coordinate_fields()
    px, py, _, _ = _bump_log_derivs(x, y)
    gamma = christoffel(m)
    h = 2 * np.pi / n
    # conformal metric e^{2 psi} I: Gamma^x_xx = psi_x, Gamma^x_yy = -psi_x,
    # Gamma^x_xy = psi_y (and x<->y symmetric counterparts)
    assert np.max(np.abs(gamma[..., 0, 0, 0] - px)) < 10 * h**2
    assert np.max(np.abs(gamma[..., 0, 1, 1] + px)) < 10 * h**2
    assert np.max(np.abs(gamma[..., 0, 0, 1] - py)) < 10 * h**2
    assert np.max(np.abs(gamma[..., 1, 0, 0] + py)) < 10 * h**2


def test_gradient_and_norm():
    m = flat_torus_metric(n=64)
    x, y = m.grid.coordinate_fields()
    f = ScalarField(m.grid, np.sin(x))
    v = gradient(m, f)
    h = 2 * np.pi / 64
    assert np.max(np.abs(v[..., 0] - np.cos(x))) < 5 * h**2
    assert np.max(np.abs(grad_norm_sq(m, f) - np.cos(x) ** 2)) < 10 * h**2
    const = ScalarField(m.grid, np.full(m.grid.shape, 3.0))
    assert np.max(np.abs(gradient(m, const))) == 0.0


def test_sphere_gradient_norm():
    m = sphere_metric(1.0, 64)
    th = m.grid.axes[0]
    f = ScalarField(m.grid, np.cos(th))
    h = np.pi / 64
    assert np.max(np.abs(grad_norm_sq(m, f) - np.sin(th) ** 2)) < 10 * h**2


def test_laplace_beltrami_sphere_eigenfunction():
    # cos(theta) is the l=1 zonal harmonic: Delta cos = -2 cos on the unit sphere
    m = sphere_metric(1.0, 96)
    th = m.grid.axes[0]
    lap = laplace_beltrami(m, np.cos(th))
    assert np.max(np.abs(lap + 2.0 * np.cos(th))) < 5e-3


def test_laplace_beltrami_flat_mode():
    m = flat_torus_metric(n=64)
    x, y = m.grid.coordinate_fields()
    f = np.sin(x) * np.sin(y)
    lap = laplace_beltrami(m, f)
    h = 2 * np.pi / 64
    assert np.max(np.abs(lap + 2.0 * f)) < 20 * h**2


def test_hessian_trace_equals_laplacian():
    m = torus_bump_metric(BUMP_AMP, 32)
    x, y = m.grid.coordinate_fields()
    f = np.sin(x) + np.cos(y)
    hess = hessian(m, f)
    trace = np.einsum("...ab,...ab->...", m.inverse(), hess)
    assert np.max(np.abs(trace - laplace_beltrami(m, f))) < 1e-12


def test_bochner_residual_decays_at_second_order():
    errs = []
    for n in (32, 64):
        m = sphere_metric(1.0, n)
        th = m.grid.axes[0]
        errs.append(np.max(np.abs(bochner_residual(m, np.cos(th)))))
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_ricci_identity_residual_decays():
    errs = []
    for n in (32, 64):
        m = torus_bump_metric(BUMP_AMP, n)
        x, y = m.grid.coordinate_fields()
        errs.append(np.max(np.abs(ricci_identity_residual(m, np.sin(x) * np.sin(y)))))
    assert np.log2(errs[0] / errs[1]) > 1.8


