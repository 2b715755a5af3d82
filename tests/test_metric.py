import re

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
    _conformal_factor,
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
    grid = make_sphere_grid(8)
    comps = np.zeros(grid.shape + (2, 2))
    comps[..., 0, 0] = comps[..., 1, 1] = 1.0
    comps[3, 0, 1], comps[3, 1, 0] = a, b
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
        if m.w is not None:  # bump-16 and bump-33 take the flat form
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
    w = _conformal_factor(m.comps)
    assert np.array_equal(w, m.comps[..., 0, 0])
    K = _gauss_curvature_conformal(m.grid, w)
    pack = curvature(m)
    for other in (_gauss_curvature_generic(pack), ref.gauss_curvature(m)):
        assert np.array_equal(K, other)
        assert np.array_equal(np.signbit(K), np.signbit(other))
    assert ricci(m).tobytes() == pack.ricci.tobytes()
    x, y = m.grid.coordinate_fields()
    u = 2.0 + np.sin(x) * np.cos(2.0 * y) + 0.5 * np.cos(3.0 * x - y)
    assert m.w is not None
    lap = laplace_beltrami(m, u, pack)
    generic = _trace(pack.ginv, hessian(m, u, pack.christoffel))  # the branch of metrics not w I
    _assert_flat_laplacian(m, u, lap, [ref.laplace_beltrami(m, u), generic])


@pytest.mark.parametrize("node", [(0, 0), (5, 7), (15, 15)])
@pytest.mark.parametrize("change", ["g11 + 1 ulp", "g01 = 5e-324", "g10 = 5e-324"])
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
        comps[node + ((0, 1) if change.startswith("g01") else (1, 0))] = 5e-324
    off = LeafMetric(m.grid, comps)
    assert _conformal_factor(off.comps) is None
    assert off.w is None
    calls.clear()
    ricci(off)
    assert calls == [1]


@pytest.mark.parametrize("w", [-0.5, 0.0, 1e-170])  # 1e-170 squared is 0.0
def test_conformal_ricci_keeps_the_singular_metric_checks(monkeypatch, w):
    # the conformal K and a pack's kernels check nothing, so the metric they
    # read must not be made: LeafMetric rejects it, on w as on the components
    m = torus_bump_metric(0.3, 16)
    comps = m.comps.copy()
    comps[3, 4, 0, 0] = comps[3, 4, 1, 1] = w
    assert _conformal_factor(comps) is not None
    want = _outcome(lambda: ref.check_metric(m.grid, comps))
    assert want[0] is SingularMetricError
    assert _outcome(lambda: LeafMetric(m.grid, comps)) == want
    monkeypatch.setattr(metric_module, "_conformal_factor", lambda comps: None)
    assert _outcome(lambda: LeafMetric(m.grid, comps)) == want  # as on the generic route


@pytest.mark.parametrize("node", [(0, 0), (9, 4)])
@pytest.mark.parametrize("w", [0.0, -0.0, -1.0, np.nan, np.inf, 5e-324, 1e-160, 1e155])
def test_conformal_checks_on_w_raise_what_the_metric_checks_raise(node, w):
    # on w I the trace is w + w and the determinant w w bit for bit; w = inf
    # passes w > 0 but fails as a NaN eigenvalue, and 4 (1e155)^2 overflows
    m = torus_bump_metric(0.3, 16)
    comps = m.comps.copy()
    comps[node + (0, 0)] = comps[node + (1, 1)] = w

    def outcome(check):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return float(check())
        except SingularMetricError as exc:
            return str(exc)

    want = outcome(lambda: ref.check_metric(m.grid, comps).min())  # on the four components
    assert outcome(lambda: LeafMetric(m.grid, comps).smallest_eigenvalue) == want
    if np.isnan(w):  # a NaN is not w I, so LeafMetric reads the components
        assert _conformal_factor(comps) is None
    else:
        assert LeafMetric(m.grid, m.comps).w is not None and _conformal_factor(comps) is not None


@pytest.mark.parametrize("case", ["sphere-48", "bump-16-g01"])
@pytest.mark.parametrize("with_K", [False, True])
def test_curvature_inverts_its_metric_once(monkeypatch, case, with_K):
    m, u = _kernel_case(case)
    calls = []
    inverse = LeafMetric.inverse
    monkeypatch.setattr(LeafMetric, "inverse", lambda self: calls.append(1) or inverse(self))
    pack = curvature(m)
    if with_K:  # K, computed on first use, and the kernels reuse the pack's inverse
        K = pack.K
        lap = laplace_beltrami(m, u, pack)
    assert len(calls) == 1
    assert ("K" in vars(pack)) == with_K
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


_BAD_VALUES = (0.0, -0.0, -1.0, np.nan, np.inf, 5e-324, 1e-160, 1e155)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(["sphere-48", "bump-16", "bump-33-g01"]), node=st.integers(0, 33 * 33 - 1),
       entry=st.sampled_from(["g00 and g11", "g00", "g11", "g01 and g10"]), value=st.sampled_from(_BAD_VALUES))
def test_a_metric_is_checked_where_it_is_made_as_its_components_are(case, node, entry, value):
    # one bad node in a w I (bump-16, with g00 and g11), sheared or sphere
    # metric: LeafMetric raises the class, message and node of the checks on
    # the four components, in their order (shape, symmetry, zero determinant,
    # smallest eigenvalue), or accepts the metric with their eigenvalue
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
        assert (made.w is not None) == (case == "bump-16" and conformal)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["sphere-48", "bump-16", "bump-33-g01", "spd-17"]), seed=st.integers(0, 2**32 - 1),
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


def test_sphere_curvature_requires_a_diagonal_metric():
    m = sphere_metric(1.0, 16)
    comps = m.comps.copy()
    comps[5, 0, 1] = comps[5, 1, 0] = 1e-6
    with pytest.raises(MetricError, match="diagonal"):
        gauss_curvature(LeafMetric(m.grid, comps))


def test_positive_definiteness_reports_node():
    m = flat_torus_metric(n=8)
    comps = m.comps.copy()
    comps[3, 4] = [[-1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(SingularMetricError) as exc:
        LeafMetric(m.grid, comps)
    assert "node 28" in str(exc.value) and exc.value.node == 28


def test_positive_definiteness_rejects_nan():
    # NaN <= 0 is False, so a NaN eigenvalue must fail the check explicitly
    m = sphere_metric(1.0, 16)
    comps = m.comps.copy()
    comps[4, 1, 1] = np.nan
    with pytest.raises(SingularMetricError, match="node 4"):
        LeafMetric(m.grid, comps)


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
    assert np.max(np.abs(pack.ricci)) == 0.0
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
    assert np.max(np.abs(pack.ricci - K * m.comps)) < 5e-3 * max(1.0, radius**2)
    assert np.max(np.abs(pack.scal - 2.0 * K)) < 5e-3


def test_curvature_pack_invariants():
    m = torus_bump_metric(BUMP_AMP, 32)
    pack = curvature(m)
    assert np.max(np.abs(pack.ricci - np.swapaxes(pack.ricci, -2, -1))) == 0.0
    trace = np.einsum("...ab,...ab->...", m.inverse(), pack.ricci)
    assert np.max(np.abs(trace - pack.scal)) < 1e-12


def test_torus_bump_ricci_matches_fine_stencil_oracle():
    n = 64
    m = torus_bump_metric(BUMP_AMP, n)
    x, y = m.grid.coordinate_fields()
    K_oracle = torus_bump_gauss_oracle(x, y)
    pack = curvature(m)
    h = 2 * np.pi / n
    assert np.max(np.abs(pack.ricci - K_oracle[..., None, None] * m.comps)) < 10 * h**2


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


def test_ricci_fast_path_matches_pack():
    m = torus_bump_metric(BUMP_AMP, 32)
    assert np.max(np.abs(ricci(m) - curvature(m).ricci)) == 0.0
