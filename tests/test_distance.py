import heapq
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    comps[..., 1, 1] = comps[..., 0, 0] * np.sin(theta) ** 2  # w g_round, as every chart metric is
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
    assert not d.valid[-1]
    assert d.valid[0] and np.isfinite(d.values[0])


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


@pytest.fixture
def graph_sizes(monkeypatch):
    """The node count of each graph handed to scipy's dijkstra, in call order."""
    import scipy.sparse.csgraph as csgraph

    sizes, dijkstra = [], csgraph.dijkstra

    def recording(graph, *args, **kwargs):
        sizes.append(graph.shape[0])
        return dijkstra(graph, *args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", recording)
    return sizes


def _assert_bounded_equals_unbounded(m, center, limit):
    full = geodesic_distance(m, center)
    bounded = geodesic_distance(m, center, limit)
    inside = full.values <= limit
    assert np.array_equal(bounded.values[inside], full.values[inside])
    assert np.all(np.isinf(bounded.values[~inside]))
    assert np.array_equal(bounded.valid, full.valid)
    return inside


@pytest.mark.parametrize("eps, n", [(e, n) for e in (0.0, 0.2) for n in (8, 16, 33, 64, 128)])
def test_bounded_dijkstra_equals_unbounded_inside_the_ball(eps, n, graph_sizes):
    m = _sheared_bump(0.3, n, eps)
    # the four corners put the window across both seams of the torus
    for center in [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 3, n // 2)]:
        full = geodesic_distance(m, center).values
        # the limit is one node's exact distance, which must be kept
        limit = np.sort(full.ravel())[full.size // 5]
        inside = _assert_bounded_equals_unbounded(m, center, limit)
        assert np.count_nonzero(inside) > full.size // 5
        # the unbounded calls weigh the whole torus; from n = 33 on, the bounded one
        # weighs only the window of nodes that can be within the limit
        assert graph_sizes[-3:-1] == [n * n, n * n]
        assert graph_sizes[-1] < n * n or n < 33


def _torus_config(name, seed):
    spec = importlib.util.spec_from_file_location(
        "nullbench_workloads", Path(__file__).parents[1] / "nullbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.torus_config(name, seed)


@pytest.mark.parametrize("name", ["torus-verify-64", "torus-backward-128"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_dijkstra_equals_unbounded_on_the_torus_workloads(name, seed, graph_sizes):
    # seeds 1 and 2 put the cube center near the seams, so the window wraps
    cfg = parse_config(json.dumps(_torus_config(name, seed)))
    m0 = cfg.build_metric()
    n = m0.grid.shape[0]
    for m in run_flow(m0, cfg.flow, u0=cfg.build_heat_initial(m0)).metrics:
        inside = _assert_bounded_equals_unbounded(m, cfg.estimates.center, 2.0 * cfg.estimates.rho)
        assert np.any(inside)
        assert graph_sizes[-2] == n * n > graph_sizes[-1]


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(0.0, 0.25), n=st.integers(8, 48), data=st.data())
def test_bounded_dijkstra_equals_unbounded_on_a_sheared_bump(eps, n, data):
    m = _sheared_bump(0.3, n, eps)
    center = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
    limit = data.draw(st.floats(0.0, 8.0) | st.just(np.inf))
    _assert_bounded_equals_unbounded(m, center, limit)


def test_closed_form_routes_read_inf_beyond_the_limit():
    for m, center in ((sphere_metric(1.0, 32), 16), (flat_torus_metric(n=16), (3, 5))):
        full = geodesic_distance(m, center).values
        bounded = geodesic_distance(m, center, 0.5).values
        assert np.array_equal(bounded, np.where(full <= 0.5, full, np.inf))


def test_dijkstra_rejects_a_negative_limit():
    with pytest.raises(ValueError, match="limit must be >= 0"):
        geodesic_distance(_sheared_bump(0.3, 64, 0.2), (3, 5), -1.0)
