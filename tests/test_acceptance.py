"""End-to-end acceptance checks.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -s`` to see them live).
"""
import json
import time

import numpy as np

from nullflow.cli import main
from nullflow.estimates import EstimateParams, build_cutoff, verify
from nullflow.flow import FlowConfig, run_flow
from nullflow.grids import ScalarField, make_sphere_grid
from nullflow.metric import LeafMetric, bochner_residual, curvature, grad_norm_sq, ricci, ricci_identity_residual
from nullflow.nullgeom import (
    DegenerateMetric,
    distinguished_parameter,
    radical_check,
    radical_vector_field,
)
from nullflow.scenarios import (
    flat_torus_metric,
    sphere_metric,
    torus_bump_conformal_factor,
    torus_bump_metric,
)

CERT = build_cutoff()


def _report(num, ok, detail):
    print(f"[acceptance] criterion {num:2d}: {'pass' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_shrinking_sphere_accuracy():
    t0 = time.perf_counter()
    traj = run_flow(sphere_metric(1.0, 256), FlowConfig(t_end=0.45, dt_initial=1e-4, sample_every=500))
    elapsed = time.perf_counter() - t0
    mid = 128
    rel = 0.0
    for t, m in zip(traj.times, traj.metrics):
        r_exact = np.sqrt(1.0 - 2.0 * t)
        rel = max(rel, abs(np.sqrt(m.comps[mid, 0, 0]) - r_exact) / r_exact)
    ok = rel <= 1e-3 and elapsed <= 10.0
    _report(1, ok, f"max rel radius error {rel:.3g}, runtime {elapsed:.2f}s")


def test_criterion_02_singular_time_detection():
    # coarser grid than criterion 1: the pinned dt = 1e-4 stays inside the
    # explicit stability envelope all the way down to the collapse
    traj = run_flow(sphere_metric(1.0, 64), FlowConfig(t_end=1.0, dt_initial=1e-4))
    ok = traj.termination == "singular" and abs(traj.singular_time - 0.5) <= 1e-2
    _report(2, ok, f"termination {traj.termination} at t = {traj.singular_time:.6g}")


def test_criterion_03_flat_torus_stationary():
    m = flat_torus_metric(n=32)
    traj = run_flow(m, FlowConfig(t_end=1.0, dt_initial=1e-2, sample_every=10**9))
    drift = np.max(np.abs(traj.metrics[-1].comps - m.comps))
    _report(3, drift <= 1e-12, f"max-norm drift {drift:.3g}")


def _bump_log_derivs(amp, x, y, h=1e-3):
    # 4th-order stencil on the closed-form conformal factor, grid independent
    def psi(xx, yy):
        return 0.5 * np.log(torus_bump_conformal_factor(amp, xx, yy))

    def d4(f, xx, yy, axis):
        if axis == 0:
            vals = [f(xx + k * h, yy) for k in (-2, -1, 1, 2)]
        else:
            vals = [f(xx, yy + k * h) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    pxx = d4(lambda a, b: d4(psi, a, b, 0), x, y, 0)
    pyy = d4(lambda a, b: d4(psi, a, b, 1), x, y, 1)
    return pxx, pyy


def _perturbed_sphere_metric(radius, eps, n):
    """w g_round with w = r^2 (1 + eps cos(theta)), and its closed-form K."""
    grid = make_sphere_grid(n)
    c = np.cos(grid.axes[0])
    comps = np.zeros(grid.shape + (2, 2))
    comps[..., 0, 0] = radius**2 * (1.0 + eps * c)
    comps[..., 1, 1] = comps[..., 0, 0] * grid.background_g11
    K = (2.0 + 6.0 * eps * c + eps**2 * (1.0 + 3.0 * c * c)) / (2.0 * radius**2 * (1.0 + eps * c) ** 3)
    return LeafMetric(grid, comps), K


def test_criterion_04_ricci_convergence_order():
    # on the sphere, a non-round w: the round sphere's K is 1 / w to rounding, so the
    # log2 ratios of its errors would be noise
    orders = []
    for radius in (1.0, 2.0):
        errs = []
        for n in (32, 64, 128):
            m, K = _perturbed_sphere_metric(radius, 0.3, n)
            errs.append(np.max(np.abs(ricci(m) - K * m.w)))  # Ric = (K w) g_round
        orders += [np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])]
    amp = 0.2
    errs = []
    for n in (32, 64, 128):
        m = torus_bump_metric(amp, n)
        x, y = m.grid.coordinate_fields()
        pxx, pyy = _bump_log_derivs(amp, x, y)
        K = -(pxx + pyy) / torus_bump_conformal_factor(amp, x, y)
        errs.append(np.max(np.abs(ricci(m) - K * m.w)))  # Ric = (K w) I
    orders += [np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])]
    worst = min(orders)
    _report(4, worst >= 1.8, f"observed orders {[f'{o:.2f}' for o in orders]}")


def _seeded_field(grid, rng):
    coef = rng.uniform(-1.0, 1.0, size=6)
    if len(grid.shape) == 1 or grid.shape[1] == 1:
        th = grid.axes[0]
        return sum(coef[k] * np.cos((k + 1) * th) for k in range(3))
    x, y = grid.coordinate_fields()
    return (
        coef[0] * np.cos(x) + coef[1] * np.sin(y) + coef[2] * np.cos(x + y)
        + coef[3] * np.sin(2 * x) + coef[4] * np.cos(2 * y) + coef[5] * np.sin(x - y)
    )


def test_criterion_05_identity_residual_orders():
    builders = {
        "round-sphere": lambda n: sphere_metric(1.0, n),
        "flat-torus": lambda n: flat_torus_metric(n=n),
        "torus-bump": lambda n: torus_bump_metric(0.2, n),
    }
    worst = np.inf
    for name, build in builders.items():
        for seed in range(5):
            errs_b, errs_r = [], []
            for n in (32, 64):
                m = build(n)
                f = _seeded_field(m.grid, np.random.default_rng(seed))
                errs_b.append(np.max(np.abs(bochner_residual(m, f))))
                errs_r.append(np.max(np.abs(ricci_identity_residual(m, f))))
            worst = min(worst, np.log2(errs_b[0] / errs_b[1]), np.log2(errs_r[0] / errs_r[1]))
    _report(5, worst >= 1.8, f"worst residual decay order {worst:.2f}")


def test_criterion_06_li_yau_static_sphere():
    n = 256
    m = sphere_metric(1.0, n)
    th = m.grid.axes[0]
    rho = 1.0
    worst = -np.inf
    for t in np.linspace(0.05, 1.0, 20):
        u = 2.0 + np.exp(-2.0 * t) * np.cos(th)  # cos(theta) is a -2 eigenmode
        u_t = -2.0 * np.exp(-2.0 * t) * np.cos(th)
        lhs = grad_norm_sq(m, u) / u**2 - u_t / u
        worst = max(worst, np.max(lhs - 2.0 / (2.0 * t) - 2.0 * rho))
    _report(6, worst <= 1e-6, f"max inequality excess {worst:.3g}")


def test_criterion_07_flat_torus_classical():
    n = 128
    m = flat_torus_metric(n=n)
    x, _ = m.grid.coordinate_fields()
    min_margin = np.inf
    for t in np.linspace(0.05, 1.0, 20):
        u = 2.0 + np.exp(-t) * np.sin(x)
        u_t = -np.exp(-t) * np.sin(x)
        margin = 2.0 / (2.0 * t) - (grad_norm_sq(m, u) / u**2 - u_t / u)
        min_margin = min(min_margin, np.min(margin))
    # constant data: gradient and time derivative are exactly zero
    exact_ok = True
    for t in (0.1, 0.5, 1.0):
        u = np.full(m.grid.shape, 2.0)
        lhs = grad_norm_sq(m, u) / u**2 - 0.0 / u
        exact_ok &= np.all(2.0 / (2.0 * t) - lhs == 2.0 / (2.0 * t))
    ok = min_margin >= -1e-6 and exact_ok
    _report(7, ok, f"min margin {min_margin:.3g}, constant-data margin exact: {bool(exact_ok)}")


def test_criterion_08_gradient_estimate_sweeps():
    m = sphere_metric(1.0, 48)
    th = m.grid.axes[0]
    u0 = ScalarField(m.grid, 2.0 + np.cos(th))
    results = {}
    for direction, heat, theorem in (
        ("backward", "conjugate-heat", "log-gradient-backward"),
        ("forward", "heat", "log-gradient-forward"),
    ):
        traj = run_flow(
            m,
            FlowConfig(direction=direction, t_end=0.3, dt_initial=1e-3, heat=heat, sample_every=30),
            u0=u0,
        )
        rep = verify(traj, theorem, EstimateParams(rho=0.5, center=24), cert=CERT)
        constants_ok = all(
            k in rep.constants
            for k in ("c1", "c2", "c3", "c4", "c_n", "A", "rho1", "rho2", "rho3")
        )
        bounds_ok = all(
            k in rep.measured_bounds
            for k in ("neg_scal_sup", "neg_ricci_eig_sup", "grad_scal_sup", "ricci_eig_sup")
        )
        results[theorem] = (rep.status, rep.min_margin, constants_ok and bounds_ok)
    ok = all(s == "holds" and rec for s, _, rec in results.values())
    detail = ", ".join(f"{k}: {s} margin {mg:.3g}" for k, (s, mg, _) in results.items())
    _report(8, ok, detail)


def test_criterion_09_distinguished_parameter():
    ts = np.linspace(0.0, 1.0, 3001)
    worst_res, worst_quad = 0.0, 0.0
    for c in (0.0, 0.5, 1.0):
        r = distinguished_parameter(lambda s: c + 0.0 * s, ts)
        exact = ts if c == 0.0 else (np.exp(c * ts) - 1.0) / c
        worst_res = max(worst_res, r.residual)
        worst_quad = max(worst_quad, np.max(np.abs(r.t_of_tstar - exact)))
    ok = worst_res <= 1e-8 and worst_quad <= 1e-8
    _report(9, ok, f"max residual {worst_res:.3g}, max quadrature error {worst_quad:.3g}")


def test_criterion_10_degenerate_structure_and_golden_file(tmp_path):
    rank_ok = True
    for metric in (sphere_metric(1.0, 32), flat_torus_metric(n=16), torus_bump_metric(0.2, 16)):
        dm = DegenerateMetric(metric)
        rank_ok &= bool(np.all(dm.rank() == 2))
        rank_ok &= bool(np.all(radical_check(dm, radical_vector_field(dm))))

    import pathlib

    data = pathlib.Path(__file__).parent / "data"
    golden = (data / "golden_report.json").read_bytes()
    cfg = str(data / "golden_config.json")
    blobs = []
    for i in range(3):
        out = tmp_path / f"run{i}"
        code = main(["run", cfg, "--out", str(out)])
        blobs.append((code, (out / "report.json").read_bytes()))
    stable = all(code == 0 and blob == golden for code, blob in blobs)
    _report(10, rank_ok and stable,
            f"rank/radical ok: {rank_ok}, golden byte-stable over three runs: {stable}")
