import heapq
from pathlib import Path

import numpy as np
import pytest

from nullflow.config import parse_config
from nullflow.distance import _NEIGHBOR_STEPS, _periodic_mask, geodesic_distance
from nullflow.flow import run_flow
from nullflow.metric import LeafMetric
from nullflow.scenarios import flat_torus_metric, sphere_metric, torus_bump_metric


def test_sphere_arc_length():
    n = 64
    m = sphere_metric(2.0, n)
    th = m.grid.axes[0]
    center = n // 2
    d = geodesic_distance(m, center)
    exact = 2.0 * np.abs(th - th[center])
    assert np.max(np.abs(d.values - exact)) < 1e-10
    # antipode band masked
    assert not d.valid[-1]
    assert d.valid[center]


def _golden_run_metrics():
    cfg = parse_config((Path(__file__).parent / "data" / "golden_config.json").read_text())
    m = cfg.build_metric()
    return run_flow(m, cfg.flow, u0=cfg.build_heat_initial(m)).metrics


def _non_uniform_speed_metric():
    base = sphere_metric(1.0, 40)
    theta = base.grid.axes[0]
    comps = base.comps.copy()
    comps[..., 0, 0] = (1.0 + 0.5 * np.sin(3.0 * theta)) ** 2 + np.random.default_rng(3).random(40)
    return LeafMetric(base.grid, comps)


def test_sphere_arc_length_equals_scipy_trapezoid_bit_for_bit():
    from scipy.integrate import cumulative_trapezoid

    for m in _golden_run_metrics() + [_non_uniform_speed_metric()]:
        theta = m.grid.axes[0]
        arc = cumulative_trapezoid(np.sqrt(m.comps[..., 0, 0]), theta, initial=0.0)
        for center in (0, len(theta) // 3, len(theta) - 1):
            assert np.array_equal(geodesic_distance(m, center).values, np.abs(arc - arc[center]))


def test_flat_torus_min_image():
    m = flat_torus_metric(n=32)
    d = geodesic_distance(m, (0, 0))
    x, y = m.grid.coordinate_fields()
    dx = np.minimum(x, 2 * np.pi - x)
    dy = np.minimum(y, 2 * np.pi - y)
    exact = np.sqrt(dx**2 + dy**2)
    assert np.max(np.abs(d.values - exact)) < 1e-12
    assert not d.valid[16, 16]  # opposite corner is on the cut locus


def test_dijkstra_agrees_with_flat_closed_form():
    # constant metric through the varying-metric route: tiny amplitude bump
    m = torus_bump_metric(1e-12, 24)
    d = geodesic_distance(m, (0, 0))
    x, y = m.grid.coordinate_fields()
    dx = np.minimum(x, 2 * np.pi - x)
    dy = np.minimum(y, 2 * np.pi - y)
    exact = np.sqrt(dx**2 + dy**2)
    # 16-neighbour graph overestimates by a small metrication factor
    ok = d.valid
    assert np.all(d.values[ok] >= exact[ok] - 1e-9)
    assert np.max(d.values[ok] - exact[ok]) < 0.08 * np.max(exact)


def test_masked_values_are_nan():
    m = sphere_metric(1.0, 32)
    d = geodesic_distance(m, 0)
    masked = d.masked()
    assert np.isnan(masked[-1])
    assert np.isfinite(masked[0])


def _heap_dijkstra(metric, center):
    """Reference: textbook heapq Dijkstra over the same 16-neighbour graph."""
    nx, ny = metric.grid.shape
    hx, hy = metric.grid.spacings
    g = metric.comps
    dist = np.full((nx, ny), np.inf)
    dist[center] = 0.0
    heap = [(0.0, center)]
    done = np.zeros((nx, ny), dtype=bool)
    while heap:
        d0, (i, j) = heapq.heappop(heap)
        if done[i, j]:
            continue
        done[i, j] = True
        for di, dj in _NEIGHBOR_STEPS:
            ii, jj = (i + di) % nx, (j + dj) % ny
            if done[ii, jj]:
                continue
            vx, vy = di * hx, dj * hy
            gm = 0.5 * (g[i, j] + g[ii, jj])
            nd = d0 + np.sqrt(gm[0, 0] * vx * vx + 2.0 * gm[0, 1] * vx * vy + gm[1, 1] * vy * vy)
            if nd < dist[ii, jj]:
                dist[ii, jj] = nd
                heapq.heappush(heap, (nd, (ii, jj)))
    return dist


def _sheared_bump(amp, n, eps):
    """Torus bump plus a smooth symmetric perturbation with g01 != 0."""
    base = torus_bump_metric(amp, n)
    x, y = base.grid.coordinate_fields()
    comps = base.comps.copy()
    comps[..., 0, 0] += eps * np.cos(x + y)
    comps[..., 0, 1] += eps * np.sin(x) * np.cos(y)
    comps[..., 1, 0] = comps[..., 0, 1]
    comps[..., 1, 1] += eps * np.sin(y)
    return LeafMetric(base.grid, comps)


@pytest.mark.parametrize("eps, n", [(e, n) for e in (0.0, 0.2) for n in (8, 16, 33)] + [(0.2, 64)])
def test_library_dijkstra_matches_heap_reference(eps, n):
    m = _sheared_bump(0.3, n, eps)
    assert (np.max(np.abs(m.comps[..., 0, 1])) > 0.0) == (eps > 0.0)
    for center in [(0, 0), (n - 1, n - 1), (n // 3, n // 2)]:
        d = geodesic_distance(m, center)
        assert np.array_equal(d.values, _heap_dijkstra(m, center))
        assert np.array_equal(d.valid, _periodic_mask(m.grid, center))


@pytest.mark.parametrize("eps, n", [(e, n) for e in (0.0, 0.2) for n in (8, 16, 33)])
def test_bounded_dijkstra_equals_unbounded_inside_the_ball(eps, n):
    m = _sheared_bump(0.3, n, eps)
    for center in [(0, 0), (n - 1, n - 1), (n // 3, n // 2)]:
        full = geodesic_distance(m, center)
        # the limit is one node's exact distance, which must be kept
        limit = np.sort(full.values.ravel())[full.values.size // 5]
        bounded = geodesic_distance(m, center, limit)
        inside = full.values <= limit
        assert np.count_nonzero(inside) > full.values.size // 5
        assert np.array_equal(bounded.values[inside], full.values[inside])
        assert np.all(np.isinf(bounded.values[~inside]))
        assert np.array_equal(bounded.valid, full.valid)


def test_closed_form_routes_read_inf_beyond_the_limit():
    for m, center in ((sphere_metric(1.0, 32), 16), (flat_torus_metric(n=16), (3, 5))):
        full = geodesic_distance(m, center).values
        bounded = geodesic_distance(m, center, 0.5).values
        assert np.array_equal(bounded, np.where(full <= 0.5, full, np.inf))
