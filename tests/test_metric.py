import re
from fractions import Fraction

import mpmath
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
    _gauss_curvature_conformal,
    _gauss_curvature_generic,
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


def test_metric_requires_symmetry():
    g = make_torus_grid(8)
    comps = np.zeros(g.shape + (2, 2))
    comps[..., 0, 0] = comps[..., 1, 1] = 1.0
    comps[..., 0, 1] = 0.1
    with pytest.raises(MetricError):
        LeafMetric(g, comps)


def _outcome(make):
    """None, or the class and message of what ``make()`` raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            make()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("a, b", [
    (np.nan, np.nan), (np.nan, 1.0), (1.0, np.nan), (np.inf, np.inf), (-np.inf, -np.inf),
    (np.inf, -np.inf), (1.0, np.inf), (np.inf, 1.0), (-np.inf, 1.0), (0.0, -0.0),
    (1.0, 1.0 + 9e-6), (1.0, 1.0 + 2e-5), (0.0, 1e-14), (0.0, 2e-14), (1e-14, 0.0),
    (-3.0, -3.0 * (1 + 1e-5)), (1e300, -1e300),
])
def test_symmetry_check_agrees_with_allclose(a, b):
    # on a periodic grid, where a metric not w I is accepted, so the symmetry check decides
    grid = make_torus_grid(8)
    comps = np.zeros(grid.shape + (2, 2))
    comps[..., 0, 0] = comps[..., 1, 1] = 1.0
    comps[0, 3, 0, 1], comps[0, 3, 1, 0] = a, b
    if np.allclose(a, b, atol=1e-14):
        # symmetric, so positive definiteness decides: an inf pair or
        # |g01| >= 1 fails it at node 3, as the components' checks do
        want = _outcome(lambda: ref.check_metric(grid, comps))
        assert _outcome(lambda: LeafMetric(grid, comps)) == want
        assert (want is None) == (abs(a) < 1.0)
    else:  # a pair that fails on a NaN or inf names its node instead
        finite = np.isfinite(a) and np.isfinite(b)
        with pytest.raises(MetricError, match="not symmetric" if finite else r"not finite \(node 3\)"):
            LeafMetric(grid, comps)


def _kernel_case(case):
    """Metric and a smooth field: sphere n = 48 or torus bump n = 16 / 33,
    the latter optionally with a smooth off-diagonal g_01."""
    if case == "sphere-48":
        m = sphere_metric(1.3, 48)
        return m, 2.0 + np.cos(m.grid.axes[0])
    n = int(case.split("-")[1])
    m = torus_bump_metric(0.3, n)
    x, y = m.grid.coordinate_fields()
    if case.endswith("g01"):
        comps = m.comps.copy()
        comps[..., 0, 1] = comps[..., 1, 0] = 0.2 * np.sin(x + 2.0 * y)
        m = LeafMetric(m.grid, comps)
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


@pytest.mark.parametrize("case", ["sphere-48", "bump-16", "bump-16-g01", "bump-33", "bump-33-g01"])
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
        if case.startswith("bump") and m.w is not None:  # bump-16 and bump-33 take the flat form
            _assert_flat_laplacian(m, u, got, [lap])
        else:
            assert np.array_equal(got, lap)


def _fourier_metric(n, modes, skew):
    """Torus metric g_ab = base_ab + sum of its low modes a cos(k.x) + b sin(k.x);
    g_10 is g_01 scaled by 1 + skew, within LeafMetric's symmetry tolerance."""
    grid = make_torus_grid(n)
    x, y = grid.coordinate_fields()
    comps = np.empty(grid.shape + (2, 2))
    for (i, j), base in zip([(0, 0), (1, 1), (0, 1)], [1.0, 1.0, 0.15]):
        comps[..., i, j] = base
        for kx, ky, a, b in modes[(i, j)]:
            comps[..., i, j] += a * np.cos(kx * x + ky * y) + b * np.sin(kx * x + ky * y)
    comps[..., 1, 0] = comps[..., 0, 1] * (1.0 + skew)
    return LeafMetric(grid, comps)


def _modes(amp):
    wave, coef = st.integers(-3, 3), st.floats(-amp, amp)
    return st.lists(st.tuples(wave, wave, coef, coef), min_size=1, max_size=2)


_ASYMMETRIC = {(0, 0): [(1, 0, 0.1, 0.0)], (1, 1): [(0, 2, 0.0, -0.05)],
               (0, 1): [(1, -1, 0.05, 0.05), (2, 3, -0.05, 0.0)]}


# g_00, g_11 in [0.6, 1.4] and |g_01| <= 0.35 make g positive definite; the mean
# of g_01 is at least 0.05, as only a constant mode (k = 0) moves it
@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 24),
       modes=st.fixed_dictionaries({(0, 0): _modes(0.1), (1, 1): _modes(0.1), (0, 1): _modes(0.05)}),
       skew=st.sampled_from([0.0, 5e-6]))
@example(n=11, modes=_ASYMMETRIC, skew=5e-6)
def test_curvature_kernels_match_full_ricci_sum(n, modes, skew):
    # the kernels drop the m = n summand of the Ricci contraction, which
    # cancels exactly; the reference sums it, symmetric metric or not
    m = _fourier_metric(n, modes, skew)
    assert np.array_equal(christoffel(m), ref.christoffel(m))
    K = ref.gauss_curvature(m)
    assert np.array_equal(gauss_curvature(m), K)
    assert np.array_equal(curvature(m).K, K)


def _conformal_metric(n, scale, modes):
    """Torus metric w I, w = scale (1 + low modes), the modes within [-0.6, 0.6]."""
    grid = make_torus_grid(n)
    x, y = grid.coordinate_fields()
    w = np.ones(grid.shape)
    for kx, ky, a, b in modes:
        w += a * np.cos(kx * x + ky * y) + b * np.sin(kx * x + ky * y)
    comps = np.zeros(grid.shape + (2, 2))
    comps[..., 0, 0] = comps[..., 1, 1] = scale * w
    return LeafMetric(grid, comps)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 40), scale=st.floats(0.25, 4.0),
       modes=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)), max_size=3))
@example(n=9, scale=1.0, modes=[])  # flat: K is an exact zero, so its sign counts
@example(n=33, scale=1.0, modes=[(1, 1, 0.0, 0.1), (0, 2, -0.1, 0.0)])
def test_conformal_kernels_are_bit_identical_to_the_christoffel_route(n, scale, modes):
    m = _conformal_metric(n, scale, modes)
    w = m.w
    assert np.array_equal(w, m.comps[..., 0, 0])
    K = _gauss_curvature_conformal(m.grid, w)
    pack = curvature(m)
    for other in (_gauss_curvature_generic(pack), ref.gauss_curvature(m)):
        assert np.array_equal(K, other)
        assert np.array_equal(np.signbit(K), np.signbit(other))
    assert ricci(m).tobytes() == ricci(m, pack).tobytes() == (K * w).tobytes()
    x, y = m.grid.coordinate_fields()
    u = 2.0 + np.sin(x) * np.cos(2.0 * y) + 0.5 * np.cos(3.0 * x - y)
    assert m.w is not None
    lap = laplace_beltrami(m, u, pack)
    generic = _trace(pack.ginv, hessian(m, u, pack.christoffel))  # the branch of metrics not w I
    _assert_flat_laplacian(m, u, lap, [ref.laplace_beltrami(m, u), generic])


@pytest.mark.parametrize("node", [(0, 0), (5, 7), (15, 15)])
@pytest.mark.parametrize("change", ["g11 + 1 ulp", "g01 = g10 = 5e-324", "g01 = g10 = -5e-324"])
def test_a_metric_one_bit_off_w_I_takes_the_generic_route(monkeypatch, node, change):
    m = torus_bump_metric(0.3, 16)
    calls = []
    build = metric_module.christoffel
    monkeypatch.setattr(metric_module, "christoffel", lambda g, *ginv: calls.append(1) or build(g, *ginv))
    ricci(m)
    assert calls == [] and m.w is not None
    comps = m.comps.copy()
    if change == "g11 + 1 ulp":
        comps[node + (1, 1)] = np.nextafter(comps[node + (1, 1)], np.inf)
    else:
        comps[node + (0, 1)] = comps[node + (1, 0)] = float(change.split()[-1])
    off = LeafMetric(m.grid, comps)
    assert off.w is None
    calls.clear()
    ricci(off)
    assert calls == [1]


@pytest.mark.parametrize("w", [-0.5, 0.0, -1e-170])
def test_conformal_ricci_keeps_the_singular_metric_checks(monkeypatch, w):
    # the conformal K and a pack's kernels check nothing, so the metric they
    # read must not be made: LeafMetric rejects it, on w as on the components
    m = torus_bump_metric(0.3, 16)
    comps = m.comps.copy()
    comps[3, 4, 0, 0] = comps[3, 4, 1, 1] = w
    assert ref._conformal_factor(comps) is not None
    want = _outcome(lambda: ref.check_metric(m.grid, comps))
    assert want[0] is SingularMetricError
    assert _outcome(lambda: LeafMetric(m.grid, comps)) == want
    assert _outcome(lambda: LeafMetric(m.grid, comps[..., 0, 0].copy())) == want  # given w alone
    monkeypatch.setattr(metric_module, "_not_conformal", lambda comps, g11_0=1.0: np.ones(comps.shape[:-2], bool))
    assert _outcome(lambda: LeafMetric(m.grid, comps)) == want  # as on the generic route


@pytest.mark.parametrize("node", [(0, 0), (9, 4)])
@pytest.mark.parametrize("w", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, 1e-160, 1e155])
def test_conformal_checks_on_w_raise_what_the_metric_checks_raise(node, w):
    # on w I the smaller eigenvalue of each node is w: a finite w > 0 (5e-324,
    # 1e-160 and 1e155 too) is accepted, a w <= 0 is singular and a NaN or
    # +-inf is not finite, as the checks on the four components find
    m = torus_bump_metric(0.3, 16)
    comps = m.comps.copy()
    comps[node + (0, 0)] = comps[node + (1, 1)] = w

    def outcome(check):
        try:
            return float(check())
        except MetricError as exc:
            return type(exc), str(exc), exc.node

    want = outcome(lambda: ref.check_metric(m.grid, comps).min())  # on the four components
    got = outcome(lambda: LeafMetric(m.grid, comps).smallest_eigenvalue)
    if np.isfinite(w) and w > 0.0:
        field = m.w.copy()
        field[node] = w
        assert got == want == field.min()
    else:
        assert got[:2] == want[:2] and got[2] == np.ravel_multi_index(node, m.grid.shape)
        assert got[0] is (SingularMetricError if np.isfinite(w) else MetricError)
    if np.isnan(w):  # a NaN is not w I, so LeafMetric reads the components
        assert ref._conformal_factor(comps) is None
    else:
        assert LeafMetric(m.grid, m.comps).w is not None and ref._conformal_factor(comps) is not None


_EDGE_W = (5e-324, 1e-160, 1e-150, 1e150, 1e154, -1.0, 0.0, -0.0, np.nan, np.inf, -np.inf)


@settings(max_examples=150, deadline=None)
@given(scale=st.floats(1e-160, 1e160), node=st.integers(0, 63),
       value=st.one_of(st.sampled_from(_EDGE_W), st.floats(), st.none()))
def test_the_smallest_eigenvalue_of_w_I_is_min_w_bit_for_bit(scale, node, value):
    # given w or only the components w I: min w, bit for bit, when every w is finite
    # and above 0; else a NaN or +-inf fails as MetricError at its first node, then
    # a w <= 0 as SingularMetricError at the least w's node
    w = scale * torus_bump_metric(0.3, 8).w
    if value is not None:
        w.flat[node] = value
    comps = np.zeros(w.shape + (2, 2))
    comps[..., 0, 0] = comps[..., 1, 1] = w
    grid, finite = make_torus_grid(8), np.isfinite(w)
    for make in (lambda: LeafMetric(grid, comps), lambda: LeafMetric(grid, w)):
        if finite.all() and w.min() > 0.0:
            assert np.float64(make().smallest_eigenvalue).tobytes() == w.min().tobytes()
            continue
        error, at = ((MetricError, int(np.argmax(~finite))) if not finite.all()
                     else (SingularMetricError, int(np.argmin(w))))
        with pytest.raises(MetricError, match=rf"\(node {at}\b") as info:
            make()
        assert type(info.value) is error and info.value.node == at


def _holds_components(m):
    """Whether the metric ``m`` keeps an array of its grid's shape + (2, 2), or a view of one."""
    return any(isinstance(v, np.ndarray) and (v.shape == m.grid.shape + (2, 2) or v.base is not None)
               for v in vars(m).values())


@settings(max_examples=200, deadline=None)
@given(sphere=st.booleans(), scale=st.floats(1e-160, 1e160), node=st.integers(0, 63),
       value=st.one_of(st.sampled_from((5e-324, 1e308, 0.0, -0.0, np.nan, np.inf, -np.inf)),
                       st.floats(), st.none()))
def test_a_metric_made_from_w_is_the_metric_made_from_its_components_w_g0(sphere, scale, node, value):
    # LeafMetric(grid, w) and LeafMetric(grid, w g_0) on the torus and the sphere chart: the
    # same w and smallest eigenvalue bytes, neither holding components, or the same error
    # class, message and node
    grid = make_sphere_grid(64) if sphere else make_torus_grid(8)
    w = scale * (1.0 + 0.3 * np.cos(grid.coordinate_fields()[0]))
    if value is not None:
        w.flat[node] = value
    comps = np.zeros(w.shape + (2, 2))
    comps[..., 0, 0] = w
    comps[..., 1, 1] = w * grid.background_g11

    def outcome(values):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                made = LeafMetric(grid, values)
        except MetricError as exc:
            return type(exc), str(exc), exc.node
        return np.float64(made.smallest_eigenvalue).tobytes(), made.w.tobytes(), _holds_components(made)

    got = outcome(w)
    assert got == outcome(comps)
    assert got[0] in (MetricError, SingularMetricError) or got[2] is False


@pytest.mark.parametrize("case", ["sphere-48", "bump-16", "bump-16-g01"])
def test_a_w_g0_metric_holds_w_alone_and_builds_its_components_on_each_read(case):
    # entries (g00, g01, g11) are those of comps bit for bit, w, +0.0 and w g11_0 on w g_0
    m, _ = _kernel_case(case)
    comps = m.comps
    made = LeafMetric(m.grid, comps)
    for metric in (m, made):
        entries = [e.tobytes() for e in metric.entries]
        assert entries == [comps[..., a, b].tobytes() for a, b in ((0, 0), (0, 1), (1, 1))]
        if m.w is None:
            continue
        assert not _holds_components(metric) and not np.shares_memory(metric.w, comps)
        first, again = metric.comps, metric.comps
        assert first is not again and first.tobytes() == again.tobytes() == comps.tobytes()
        assert entries[0] == metric.w.tobytes() and not np.any(np.signbit(metric.entries[1]))
    assert made.w is None if m.w is None else made.w.tobytes() == m.w.tobytes() and made.w.flags.c_contiguous


def test_components_within_the_symmetry_tolerance_keep_their_mean():
    grid = make_torus_grid(8)
    comps = np.zeros(grid.shape + (2, 2))
    comps[..., 0, 0] = comps[..., 1, 1] = 2.0
    comps[..., 0, 1] = comps[..., 1, 0] = 0.5
    comps[3, 4, 1, 0] = 0.5 + 4e-6
    kept = comps.tobytes()
    m = LeafMetric(grid, comps)
    assert comps.tobytes() == kept  # the caller's array is not written
    assert np.array_equal(m.comps[..., 0, 1], m.comps[..., 1, 0])
    assert m.comps[3, 4, 0, 1] == 0.5 * (0.5 + (0.5 + 4e-6))
    same = comps.copy()
    same[3, 4, 1, 0] = 0.5
    assert LeafMetric(grid, same).comps.tobytes() == same.tobytes()  # nothing moves where g01 == g10
    # nor where g01 == g10 elsewhere: a diagonal of 1e308 stays finite, and a subnormal pair keeps its bits
    comps[0, 0] = [[1e308, 5e-324], [5e-324, 1e308]]
    m = LeafMetric(grid, comps)
    assert m.comps[0, 0].tobytes() == comps[0, 0].tobytes() and abs(m.smallest_eigenvalue - (1.5 - 2e-6)) < 1e-15


@pytest.mark.parametrize("case", ["sphere-48", "bump-16", "bump-33-g01"])
def test_ricci_is_k_times_the_metric_in_its_own_form(case):
    # Ric = K g: the factor K w on w g_0, else K g_ab, bit for bit, a fresh array each
    # call; K is read off a pack when given, and the pack's K is never written
    m, _ = _kernel_case(case)
    pack = curvature(m)
    K = pack.K
    kept = K.tobytes()
    want = (K * m.w) if m.w is not None else K[..., None, None] * m.comps
    assert want.shape == (m.grid.shape if m.w is not None else m.grid.shape + (2, 2))
    for got in (ricci(m), ricci(m, pack), ricci(m, pack)):
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert not np.shares_memory(got, K) and (m.w is None or not np.shares_memory(got, m.w))
    assert pack.K is K and K.tobytes() == kept


@pytest.mark.parametrize("case", ["sphere-48", "bump-16-g01"])
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
    # on w g_0 K, the Laplacian and the diffusion rate read w, and never g^ab
    assert len(calls) == (1 if with_K and case == "bump-16-g01" else 0)
    assert ("K" in vars(pack)) == with_K
    pack.ginv
    grad_norm_sq(m, u, pack)
    # the first read of g^ab inverts once; verify's |grad f|^2 reads it on the sheared metric
    # and the pack's g^00 = w / (w w) on the sphere
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(pack.ginv, m.inverse())
    assert np.array_equal(pack.christoffel, christoffel(m))
    if with_K:
        assert np.array_equal(K, gauss_curvature(m))
        assert pack.K is K
        assert np.array_equal(lap, laplace_beltrami(m, u))


@pytest.mark.parametrize("case", ["sphere-48", "bump-16", "bump-33-g01"])
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


def test_the_smallest_eigenvalue_is_that_of_the_symmetric_form():
    # g10 within the symmetry tolerance of g01: the metric keeps the mean form every kernel
    # reads, [[g00, c], [c, g11]] with c = (g01 + g10) / 2 = 1 - 4.5e-6, whose least
    # eigenvalue is 2 - c = 1.0000045; g01 alone would give 1.0, and g10 alone 1.000009
    grid = make_torus_grid(8)
    comps = np.zeros(grid.shape + (2, 2))
    comps[..., 0, 0] = comps[..., 1, 1] = 2.0
    comps[..., 0, 1], comps[..., 1, 0] = 1.0, 1.0 - 9e-6
    m = LeafMetric(grid, comps)
    c = 0.5 * (1.0 + (1.0 - 9e-6))
    assert np.all(m.comps[..., 0, 1] == c) and np.all(m.comps[..., 1, 0] == c)
    assert m.smallest_eigenvalue == np.linalg.eigvalsh([[2.0, c], [c, 2.0]]).min() == 2.0 - c


@settings(max_examples=100, deadline=None)
@given(low=st.floats(0.5, 1.0), gap=st.one_of(st.floats(1.0, 7.0), st.floats(1e-12, 1e-3), st.just(0.0)),
       angle=st.floats(0.0, np.pi), skew=st.floats(-5e-6, 5e-6), node=st.tuples(st.integers(0, 7), st.integers(0, 7)))
def test_smallest_eigenvalue_matches_eigvalsh_of_the_symmetric_form(low, gap, angle, skew, node):
    # eigenvalues low and low (1 + gap), apart, nearly equal or equal, rotated by
    # angle; g10 differs from g01 by at most 5e-6 of it, and the metric keeps their mean
    high = low * (1.0 + gap)
    c, s = np.cos(angle), np.sin(angle)
    g00, g01, g11 = low * c * c + high * s * s, (high - low) * c * s, low * s * s + high * c * c
    grid = make_torus_grid(8)
    comps = np.zeros(grid.shape + (2, 2))
    comps[..., 0, 0] = comps[..., 1, 1] = 8.0  # every other node's eigenvalues are 8
    comps[node] = [[g00, g01], [g01 * (1.0 + skew), g11]]
    mean = 0.5 * (g01 + g01 * (1.0 + skew))
    want = np.linalg.eigvalsh(np.array([[g00, mean], [mean, g11]])).min()
    assert abs(LeafMetric(grid, comps).smallest_eigenvalue - want) <= 1e-12 * want


def _smallest_eigenvalue_of(g00, g01, g11):
    """``smallest_eigenvalue`` of the metric [[g00, g01], [g01, g11]] at every node of an 8 x 8 torus."""
    grid = make_torus_grid(8)
    comps = np.empty(grid.shape + (2, 2))
    comps[...] = [[g00, g01], [g01, g11]]
    return LeafMetric(grid, comps).smallest_eigenvalue


def _exact_smallest_eigenvalue(g00, g01, g11):
    """The smaller eigenvalue of [[g00, g01], [g01, g11]] to 50 digits, det / lam_max of the
    exact entries, and (|g00 g11| + g01^2) / det, the condition of det."""
    with mpmath.workdps(50):
        a, b, c = mpmath.mpf(g00), mpmath.mpf(g11), mpmath.mpf(g01)
        det = a * b - c * c
        return det / ((a + b) / 2 + mpmath.sqrt(((a - b) / 2) ** 2 + c * c)), (abs(a * b) + c * c) / det


_EPS = float(np.finfo(float).eps)


@settings(max_examples=300, deadline=None)
@given(g00=st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e), g11=st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e),
       kind=st.sampled_from(["diagonal", "near-equal", "near-singular"]), size=st.floats(-12.0, -1.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_smallest_eigenvalue_is_its_50_digit_value_to_the_rounding_of_det(g00, g11, kind, size, sign):
    # g00 and g11 log-uniform over 1e-150..1e150; g01 exactly 0, 10^size of the diagonal
    # with g11 = g00 (near-equal eigenvalues), or (1 - 10^size) sqrt(g00 g11) (near-singular).
    # On the entries scaled by the largest |entry| (rounding u = eps / 2 each), the two
    # products and the difference give det within 3u (|ab| + c^2) + u |det|; lam_max, a sum
    # of halves and a hypot of positive terms, within 7u; the division and the rescale 2u.
    # So the relative error is at most 3u X + 10u <= 6.5 eps X, with X = (|ab| + c^2) / det >= 1
    if kind == "near-equal":
        g11, g01 = g00, sign * 10.0 ** size * g00
    else:
        g01 = 0.0 if kind == "diagonal" else sign * (1.0 - 10.0 ** size) * np.sqrt(g00 * g11)
    got = _smallest_eigenvalue_of(g00, g01, g11)
    if g01 == 0.0:
        assert np.float64(got).tobytes() == np.float64(min(g00, g11)).tobytes()
        return
    want, condition = _exact_smallest_eigenvalue(g00, g01, g11)
    assert abs(mpmath.mpf(got) - want) <= 6.5 * _EPS * condition * want


@pytest.mark.parametrize("g00, g11", [(1e8, 1e-9), (1e150, 1e-150), (1e154, 1e154), (1e-150, 1e150)])
def test_a_diagonal_metric_is_valid_with_its_smaller_entry_as_eigenvalue(g00, g11):
    # eigenvalues apart by 1e17 or 1e300, or an unscaled trace that squares past the largest float
    assert np.float64(_smallest_eigenvalue_of(g00, 0.0, g11)).tobytes() == np.float64(min(g00, g11)).tobytes()


@pytest.mark.parametrize("g01", [4.3284e-6, 1e-9])
def test_nearly_equal_eigenvalues_are_within_2_ulp_of_their_50_digit_value(g01):
    got = _smallest_eigenvalue_of(1.0, g01, 1.0)
    assert abs(mpmath.mpf(got) - _exact_smallest_eigenvalue(1.0, g01, 1.0)[0]) <= 2 * np.spacing(got)


@pytest.mark.parametrize("g00, g11", [(1e300, 1e-300), (1e-300, 1e300)])
def test_entries_600_decades_apart_keep_their_smallest_eigenvalue(g00, g11):
    # det = 1 - 1e-600 > 0 and lam_min is about 1e-300: scaled by the largest entry,
    # the small diagonal entry would underflow to 0 and the metric be rejected
    a, b, c = Fraction(g00), Fraction(g11), Fraction(1e-300)
    assert a * b - c * c > 0
    got = _smallest_eigenvalue_of(g00, 1e-300, g11)
    want, condition = _exact_smallest_eigenvalue(g00, 1e-300, g11)
    assert abs(mpmath.mpf(got) - want) <= 6.5 * _EPS * condition * want


_DECADES = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(g00=_DECADES, g11=_DECADES, g01=_DECADES, kind=st.sampled_from(["free", "near-singular"]),
       size=st.floats(-11.0, -1.0), signs=st.tuples(*[st.sampled_from([1.0, 1.0, 1.0, -1.0])] * 2),
       side=st.sampled_from([1.0, -1.0]))
def test_definiteness_is_decided_exactly_across_600_decades(g00, g11, g01, kind, size, signs, side):
    # entries log-uniform over 1e-300..1e300, g00 or g11 negative a quarter of the time each, and
    # g01 free or (1 +- 10^size) sqrt(g00 g11), just either side of a zero determinant.  Judged on
    # the exact entries: accepted where det > 1e-12 (ab + c^2), g00 > 0 and det / (a + b), a lower
    # bound on lam_min, is at least 1e-300; rejected where g00 <= 0 or det < -1e-12 (ab + c^2)
    g00, g11 = signs[0] * g00, signs[1] * g11
    if kind == "near-singular":
        g01 = side * (1.0 + side * 10.0 ** size) * np.sqrt(abs(g00)) * np.sqrt(abs(g11))
    a, b, c = Fraction(g00), Fraction(g11), Fraction(g01)
    det, tol = a * b - c * c, Fraction(1, 10**12) * (a * b + c * c)
    try:
        got = _smallest_eigenvalue_of(g00, g01, g11)
    except SingularMetricError:
        assert not (det > tol and a > 0 and det / (a + b) >= Fraction(1, 10**300))
        return
    assert not (a <= 0 or det < -tol)
    assert 0.0 < got <= min(g00, g11)
    if det > tol:
        want, condition = _exact_smallest_eigenvalue(g00, g01, g11)
        assert abs(mpmath.mpf(got) - want) <= 6.5 * _EPS * condition * want


@pytest.mark.parametrize("g00, g01, g11, eigenvalue", [
    (-1.0, 1.0, -1.0, "-2.000e+00"),  # eigenvalues 0 and -2: lam_max rounds to exactly 0
    (-3.0, 1.0, -3.0, "-4.000e+00"),  # eigenvalues -2 and -4: lam_max < 0
    (-1.0, -2e-300, -4.0, "-4.000e+00"),
])
def test_a_node_whose_largest_eigenvalue_is_not_positive_names_its_smallest(g00, g01, g11, eigenvalue):
    # det / lam_max is 0 / 0 or the larger eigenvalue there, so the smaller one is taken directly
    with pytest.raises(SingularMetricError, match=re.escape(f"(node 0, eigenvalue {eigenvalue})") + "$") as info:
        _smallest_eigenvalue_of(g00, g01, g11)
    assert info.value.node == 0


_BAD_VALUES = (0.0, -0.0, -1.0, np.nan, np.inf, 5e-324, 1e-160, 1e155)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(["sphere-48", "bump-16", "bump-33-g01"]), node=st.integers(0, 33 * 33 - 1),
       entry=st.sampled_from(["g00 and g11", "g00", "g11", "g01 and g10"]), value=st.sampled_from(_BAD_VALUES))
def test_a_metric_is_checked_where_it_is_made_as_its_components_are(case, node, entry, value):
    # one bad node in a w I (bump-16, with g00 and g11), sheared or sphere
    # metric: LeafMetric raises the class, message and node of the checks on
    # the four components, in their order (shape, symmetry, finiteness,
    # smallest eigenvalue, on the sphere w g_round), or accepts the metric with
    # their eigenvalue
    m, _ = _kernel_case(case)
    comps = m.comps.copy()
    at = np.unravel_index(node % comps[..., 0, 0].size, m.grid.shape)
    for ab in {"g00 and g11": [(0, 0), (1, 1)], "g00": [(0, 0)], "g11": [(1, 1)],
               "g01 and g10": [(0, 1), (1, 0)]}[entry]:
        comps[at + ab] = value
    want = _outcome(lambda: ref.check_metric(m.grid, comps))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            made = LeafMetric(m.grid, comps)
    except MetricError as exc:
        assert (type(exc), str(exc)) == want
        named = re.search(r"\(node (\d+)", str(exc))
        assert named is None or exc.node == int(named.group(1))
    else:
        assert want is None
        with np.errstate(over="ignore", invalid="ignore"):
            assert made.smallest_eigenvalue == ref.check_metric(m.grid, comps).min()
        conformal = entry == "g00 and g11" or (entry == "g01 and g10" and value == 0.0)
        assert (made.w is not None) == (case == "sphere-48" or (case == "bump-16" and conformal))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["bump-16", "bump-33-g01", "spd-17"]), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-200, 1e100]), zeros=st.booleans(), with_pack=st.booleans())
def test_grad_norm_sq_is_bit_identical_to_its_einsum(case, seed, scale, zeros, with_pack):
    # the written-out contraction pairs and orders its sums as
    # np.einsum("...ab,...a,...b->...") does, signed zeros and underflow included
    rng = np.random.default_rng(seed)
    if case == "spd-17":  # a random sheared positive-definite metric
        grid = make_torus_grid(17)
        a, b = rng.uniform(0.5, 2.0, (2,) + grid.shape)
        comps = np.empty(grid.shape + (2, 2))
        comps[..., 0, 0], comps[..., 1, 1] = a, b
        comps[..., 0, 1] = comps[..., 1, 0] = rng.uniform(-0.6, 0.6, grid.shape) * np.sqrt(a * b)
        m = LeafMetric(grid, comps)
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


@pytest.mark.parametrize("node", [0, 5, 15])
def test_a_sphere_metric_is_checked_diagonal_where_it_is_made(node):
    # every kernel reads a chart metric as w g_round: a g01 of any size, 1e-13 of the
    # largest entry as well as a plain 1e-6, is rejected, naming its node
    m = sphere_metric(1.3, 16)
    top = m.comps[..., 0, 0].max()
    for g01 in (2e-12 * top, -2e-12 * top, 1e-13 * top, 1e-6):
        comps = m.comps.copy()
        comps[node, 0, 1] = comps[node, 1, 0] = g01
        with pytest.raises(MetricError, match=rf"not w g_round: .*\(node {node}\)") as info:
            LeafMetric(m.grid, comps)
        assert type(info.value) is MetricError and info.value.node == node


@pytest.mark.parametrize("node", [0, 5, 15])
def test_a_sphere_metric_is_checked_w_g_round_where_it_is_made(node):
    # g11 one ulp off g00 sin^2(theta) is rejected, naming its node; g11 written
    # as g00 sin^2(theta) is accepted
    m = sphere_metric(1.3, 16)
    assert m.w is not None and np.array_equal(m.comps[..., 1, 1], m.w * np.sin(m.grid.axes[0]) ** 2)
    for up in (True, False):
        comps = m.comps.copy()
        comps[node, 1, 1] = np.nextafter(comps[node, 1, 1], np.inf if up else 0.0)
        with pytest.raises(MetricError, match=rf"not w g_round: .*\(node {node}\)") as info:
            LeafMetric(m.grid, comps)
        assert type(info.value) is MetricError and info.value.node == node
    comps = m.comps.copy()
    comps[node, 0, 0] = 2.0
    comps[node, 1, 1] = 2.0 * np.sin(m.grid.axes[0][node]) ** 2
    assert LeafMetric(m.grid, comps).w[node] == 2.0


def test_positive_definiteness_reports_node():
    m = flat_torus_metric(n=8)
    comps = m.comps.copy()
    comps[3, 4] = [[-1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(SingularMetricError) as exc:
        LeafMetric(m.grid, comps)
    assert "node 28" in str(exc.value) and exc.value.node == 28


def test_positive_definiteness_rejects_nan():
    # NaN <= 0 is False, so a NaN must fail explicitly: as not finite, not as singular
    m = sphere_metric(1.0, 16)
    comps = m.comps.copy()
    comps[4, 1, 1] = np.nan
    with pytest.raises(MetricError, match=r"not finite \(node 4\)") as info:
        LeafMetric(m.grid, comps)
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


def test_sheared_flat_torus_curvature_converges_to_zero():
    # the flat metric pulled back by the periodic shear
    # phi(x, y) = (x + 0.3 sin y, y + 0.3 sin x): g = Dphi^T Dphi has
    # g_01 != 0 and K = 0 exactly, so max |K| is the discretization error
    errs = []
    for n in (32, 64, 128):
        grid = make_torus_grid(n)
        x, y = grid.coordinate_fields()
        comps = np.empty(grid.shape + (2, 2))
        comps[..., 0, 0] = 1.0 + 0.09 * np.cos(x) ** 2
        comps[..., 1, 1] = 1.0 + 0.09 * np.cos(y) ** 2
        comps[..., 0, 1] = comps[..., 1, 0] = 0.3 * (np.cos(x) + np.cos(y))
        errs.append(np.max(np.abs(gauss_curvature(LeafMetric(grid, comps)))))
    assert errs[0] < 1e-4
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5


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


