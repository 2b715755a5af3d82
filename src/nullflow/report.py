"""Deterministic serialization: trajectory CSV, report JSON, SVG plots.

All float formatting goes through one shortest-round-trip formatter so
identical inputs produce byte-identical files regardless of platform
locale or thread count.  The JSON schema is versioned; SVG plots are
emitted directly (simple polyline documents) with no plotting library.
"""
from __future__ import annotations

import json

import numpy as np

from .flow import FlowTrajectory
from .grids import ScalarField
from .metric import LeafMetric

SCHEMA_VERSION = 1


def _fmt(x) -> str:
    if isinstance(x, float) and (np.isnan(x) or np.isinf(x)):
        return str(x)
    return repr(float(x))


# --- trajectory CSV -------------------------------------------------------


def write_trajectory_csv(path, trajectory: FlowTrajectory):
    """Long format: one row per (time sample, node) with the metric
    components and the heat field (empty when absent)."""
    lines = ["t,node,g11,g12,g22,u"]
    has_u = trajectory.heat_fields is not None
    for k, t in enumerate(trajectory.times):
        g = trajectory.metrics[k].comps.reshape(-1, 2, 2)
        u = trajectory.heat_fields[k].values.ravel() if has_u else None
        for node in range(g.shape[0]):
            row = [
                _fmt(t), str(node),
                _fmt(g[node, 0, 0]), _fmt(g[node, 0, 1]), _fmt(g[node, 1, 1]),
                _fmt(u[node]) if has_u else "",
            ]
            lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory_csv(path, grid) -> FlowTrajectory:
    """Rebuild a FlowTrajectory from CSV rows on a known grid."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,node,g11,g12,g22,u":
            raise ValueError(f"unexpected trajectory header {header!r}")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    n_nodes = int(np.prod(grid.shape))
    if len(rows) % n_nodes != 0:
        raise ValueError("trajectory row count does not match the grid")
    times = []
    metrics = []
    heats = []
    has_u = rows[0][5] != ""
    for start in range(0, len(rows), n_nodes):
        block = rows[start:start + n_nodes]
        times.append(float(block[0][0]))
        comps = np.zeros(grid.shape + (2, 2))
        flat = comps.reshape(-1, 2, 2)
        uvals = np.zeros(n_nodes)
        for row in block:
            node = int(row[1])
            flat[node, 0, 0] = float(row[2])
            flat[node, 0, 1] = flat[node, 1, 0] = float(row[3])
            flat[node, 1, 1] = float(row[4])
            if has_u:
                uvals[node] = float(row[5])
        metrics.append(LeafMetric(grid, comps))
        if has_u:
            heats.append(ScalarField(grid, uvals.reshape(grid.shape)))
    return FlowTrajectory(
        np.asarray(times), metrics, heats if has_u else None, "reached-t_end"
    )


# --- report JSON ----------------------------------------------------------


def _round_trip(obj):
    """Convert numpy scalars/arrays to plain JSON-stable Python values."""
    if isinstance(obj, dict):
        return {k: _round_trip(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_round_trip(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if (np.isnan(x) or np.isinf(x)) else x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round_trip(v) for v in obj.tolist()]
    return obj


def estimate_report_doc(report) -> dict:
    return {
        "theorem": report.theorem,
        "status": report.status,
        "constants": _round_trip(report.constants),
        "measured_bounds": _round_trip(report.measured_bounds),
        "max_violation": _round_trip(report.max_violation),
        "min_margin": _round_trip(report.min_margin),
        "margin_quantiles": _round_trip(report.margin_quantiles),
        "violations": _round_trip(report.violations),
        "failed_hypothesis": report.failed_hypothesis,
        "admissible_points": report.admissible_points,
        "extra": _round_trip(report.extra),
    }


def run_report_doc(trajectory: FlowTrajectory, reports, seed: int) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "termination": trajectory.termination,
        "singular_time": _round_trip(trajectory.singular_time),
        "num_samples": len(trajectory.times),
        "t_final": _round_trip(float(trajectory.times[-1])),
        "theorems": [estimate_report_doc(r) for r in reports],
    }
    return doc


def render_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- SVG plots ------------------------------------------------------------

_W, _H = 640, 420
_MARGIN = 52


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [(out_lo + (v - lo) / span * (out_hi - out_lo)) for v in values]


def _polyline(xs, ys, color, dash=""):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{extra} points="{pts}"/>'


def line_plot_svg(title, xlabel, ylabel, series) -> str:
    """Minimal deterministic line plot.

    ``series`` is a list of (label, x array, y array, color) tuples.
    """
    all_x = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    all_y = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x0, x1 = float(np.min(all_x)), float(np.max(all_x))
    y0, y1 = float(np.min(all_y)), float(np.max(all_y))
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - 16}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="28" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_H // 2})">{ylabel}</text>',
        f'<text x="{_MARGIN}" y="{_H - _MARGIN + 16}" font-size="10">{_fmt(x0)}</text>',
        f'<text x="{_W - 16}" y="{_H - _MARGIN + 16}" text-anchor="end" font-size="10">{_fmt(x1)}</text>',
        f'<text x="{_MARGIN - 4}" y="{_H - _MARGIN}" text-anchor="end" font-size="10">{_fmt(y0)}</text>',
        f'<text x="{_MARGIN - 4}" y="34" text-anchor="end" font-size="10">{_fmt(y1)}</text>',
    ]
    for i, (label, xs, ys, color) in enumerate(series):
        px = _scale(np.asarray(xs, dtype=float), x0, x1, _MARGIN, _W - 16)
        py = _scale(np.asarray(ys, dtype=float), y0, y1, _H - _MARGIN, 28)
        dash = "6,4" if i % 2 == 1 else ""
        parts.append(_polyline(px, py, color, dash))
        parts.append(
            f'<text x="{_W - 20}" y="{40 + 16 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def sphere_radius_plot(trajectory: FlowTrajectory, R0: float) -> str:
    """Numeric radius overlaid on the closed-form sqrt(R0^2 - 2t)."""
    times = trajectory.times
    mid = trajectory.grid.shape[0] // 2
    r_num = [float(np.sqrt(m.comps[mid, 0, 0])) for m in trajectory.metrics]
    r_exact = np.sqrt(np.maximum(R0**2 - 2.0 * times, 0.0))
    return line_plot_svg(
        "leaf radius under the flow", "t", "r(t)",
        [("numeric", times, r_num, "#1f77b4"),
         ("closed form", times, r_exact, "#d62728")],
    )


def margin_plot(report_times, margins_by_theorem) -> str:
    """Minimum estimate margin per sample time, one curve per theorem."""
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    series = [
        (tid, report_times, vals, colors[i % len(colors)])
        for i, (tid, vals) in enumerate(sorted(margins_by_theorem.items()))
    ]
    return line_plot_svg("estimate margin (RHS - LHS) minimum over nodes", "t", "margin", series)
