"""Deterministic serialization: trajectory CSV, report JSON, SVG plots.

All float formatting goes through one shortest-round-trip formatter so
identical inputs produce byte-identical files regardless of platform
locale or thread count.  The JSON schema is versioned; SVG plots are
emitted directly (simple polyline documents) with no plotting library.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from itertools import chain, islice, repeat, tee

import numpy as np

from .flow import REACHED_T_END, SINGULAR, STEP_UNDERFLOW, FlowTrajectory
from .grids import ScalarField
from .metric import LeafMetric, MetricError

SCHEMA_VERSION = 1
_CSV_HEADER = "t,node,g11,g12,g22,u"
_META_KEYS = ("termination", "singular_time", "heat_valid_until")
_SLICE_ROWS = 4096  # rows per write and floats per column formatted: only a slice is held
_SCAN_BYTES = 1 << 18  # bytes per slice of the reader's row scan


def _fmt(x) -> str:
    return repr(float(x))  # shortest round trip; 'nan', 'inf' and '-inf' too


# --- trajectory CSV -------------------------------------------------------


def _reprs(column):
    """The repr of each float of ``column``, which is _fmt, from a slice of
    Python floats at a time."""
    return chain.from_iterable(map(repr, column[i:i + _SLICE_ROWS].tolist())
                               for i in range(0, len(column), _SLICE_ROWS))


def _column_cells(columns) -> list:
    """Lazy text of each value column, keyed by its bytes (so +0.0 and -0.0
    differ): a constant column is one repr repeated, and a column bitwise
    equal to an earlier one shares that column's text through a tee."""
    cells, first = [], {}
    for c in columns:
        key = c.tobytes()
        if key == key[:c.itemsize] * len(c):
            cells.append(repeat(_fmt(c[0]), len(c)))
        elif key in first:
            i = first[key]
            cells[i], copy = tee(cells[i])
            cells.append(copy)
        else:
            first[key] = len(cells)
            cells.append(_reprs(c))
    return cells


def write_trajectory_csv(path, trajectory: FlowTrajectory):
    """A ``#`` JSON line with the metadata (termination, singular_time,
    heat_valid_until), then the long format: one row per (time sample,
    node) with the metric components and the heat field (empty when
    absent).  Rows are written in slices of ``_SLICE_ROWS``."""
    meta = {key: getattr(trajectory, key) for key in _META_KEYS}
    heats = trajectory.heat_fields
    n = int(np.prod(trajectory.grid.shape))
    nodes = list(map(str, range(n)))
    with open(path, "w") as fh:
        fh.write(f"# {json.dumps(_round_trip(meta))}\n{_CSV_HEADER}\n")
        for k, t in enumerate(trajectory.times):
            g = trajectory.metrics[k].comps.reshape(-1, 2, 2)
            columns = [g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]]
            if heats is not None:
                columns.append(heats[k].values.ravel())
            cells = _column_cells(columns)
            if heats is None:
                cells.append(repeat("", n))
            rows = map(",".join, zip(repeat(_fmt(t), n), nodes, *cells))
            while block := "\n".join(islice(rows, _SLICE_ROWS)):
                fh.write(block)
                fh.write("\n")


def _read_meta(line: str) -> dict:
    """The metadata of line 1; a missing or malformed line raises."""
    try:
        meta = json.loads(line[2:]) if line.startswith("# ") else None
        ok = (
            sorted(meta) == sorted(_META_KEYS)
            and meta["termination"] in (REACHED_T_END, SINGULAR, STEP_UNDERFLOW)
            and all(x is None or type(x) in (int, float) and np.isfinite(x)
                    for x in (meta["singular_time"], meta["heat_valid_until"]))
        )
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"line 1: expected '# ' and a JSON object with the keys {_META_KEYS}")
    return meta


def _scan_rows(fh):
    """Cells per row, and if it has 6 whether u is empty, of the rest of ``fh``; rows
    end in LF, CRLF or EOF.  The bytes are scanned a slice at a time, each behind the
    last two bytes of the slice before, where a row that ends early in it ends its u."""
    commas, tail, counts, empty_u = 0, b"", [np.zeros(0, int)], [np.zeros(0, bool)]  # counts: commas before row ends
    while True:
        chunk = fh.read(_SCAN_BYTES)
        if not chunk:
            if not tail or tail[-1] == ord("\n"):
                break
            chunk = b"\n"  # the last row ends at EOF
        buf = np.frombuffer(tail + chunk, dtype=np.uint8)
        ends = np.flatnonzero(buf[len(tail):] == ord("\n")) + len(tail)
        at = np.flatnonzero(buf[len(tail):] == ord(",")) + len(tail)
        counts.append(commas + np.searchsorted(at, ends))
        empty_u.append(buf[ends - 1 - (buf[ends - 1] == ord("\r"))] == ord(","))
        commas += len(at)
        tail = bytes(buf[-2:])
    return np.diff(np.concatenate(counts), prepend=0) + 1, np.concatenate(empty_u)


def read_trajectory_csv(path, grid) -> FlowTrajectory:
    """Rebuild a FlowTrajectory on a known grid from :func:`write_trajectory_csv`.

    Lines end in LF or CRLF, u is empty in every row or in none, and node ids are
    integers.  Raises ValueError naming the line on a missing or bad metadata line or
    header, a row without 6 cells, a u cell empty unlike line 3's, a non-finite number,
    a node id outside 0..n-1, a truncated block, a block whose rows disagree on the time
    or do not list the nodes 0..n-1 once each, block times that do not strictly
    increase, or a metric that LeafMetric rejects (the line of the node it names); a
    cell that is not a number raises numpy's ValueError.
    """
    with open(path, "rb") as fh:
        head = [fh.readline().decode().removesuffix("\n").removesuffix("\r") for _ in range(2)]
        cells, empty_u = _scan_rows(fh)
    meta = _read_meta(head[0])
    if head[1] != _CSV_HEADER:
        raise ValueError(f"line 2: expected the header {_CSV_HEADER!r}")
    n_nodes, n_rows = int(np.prod(grid.shape)), len(cells)

    def require(bad_rows, what):  # indices of the data rows that break a rule
        if len(bad_rows):
            raise ValueError(f"line {bad_rows[0] + 3}: {what}")

    require(np.flatnonzero(cells != 6), "expected 6 cells")
    if not n_rows or n_rows % n_nodes:
        raise ValueError(f"line {n_rows + 2}: expected blocks of {n_nodes} rows, got {n_rows} rows")
    has_u = not empty_u[0]
    require(np.flatnonzero(empty_u == has_u), f"u must be {'set' if has_u else 'empty'} as on line 3")
    # numpy's C reader rounds each cell correctly, so written reprs come back bit for bit
    values = np.loadtxt(path, delimiter=",", skiprows=2, usecols=range(6 if has_u else 5),
                        ndmin=2, comments=None).reshape(n_rows // n_nodes, n_nodes, -1)
    require(np.flatnonzero(~np.isfinite(values).all(axis=-1)), "non-finite number")
    nodes = values[..., 1]
    require(np.flatnonzero((nodes < 0) | (nodes >= n_nodes) | (nodes % 1 != 0)),
            f"node id is not an integer in 0..{n_nodes - 1}")
    require(np.flatnonzero(values[..., 0] != values[:, :1, 0]),
            "time differs from the first row of its block")
    require(n_nodes * (np.flatnonzero(np.diff(values[:, 0, 0]) <= 0.0) + 1),
            "block times must strictly increase")
    require(n_nodes * np.flatnonzero((np.sort(nodes, axis=1) != np.arange(n_nodes)).any(axis=1)),
            f"the block does not list the nodes 0..{n_nodes - 1} once each")
    # each block is a permutation of the nodes: scatter the rows into node order
    order = nodes.astype(int)
    values[np.arange(len(nodes))[:, None], order] = values.copy()
    # copies of the columns kept, so that the parsed rows are freed on return
    comps = values[..., [2, 3, 3, 4]].reshape((-1,) + grid.shape + (2, 2))
    metrics = []
    for k, c in enumerate(comps):
        try:
            metrics.append(LeafMetric(grid, c))
        except MetricError as err:
            require([k * n_nodes + int(np.argmax(order[k] == err.node))], err)
    heats = [ScalarField(grid, u) for u in values[..., 5].copy().reshape((-1,) + grid.shape)] if has_u else None
    return FlowTrajectory(values[:, 0, 0].copy(), metrics, heats, **meta)


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
    return _round_trip(asdict(report))


def run_report_doc(trajectory: FlowTrajectory, reports, seed: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "termination": trajectory.termination,
        "singular_time": _round_trip(trajectory.singular_time),
        "num_samples": len(trajectory.times),
        "t_final": _round_trip(float(trajectory.times[-1])),
        "theorems": [estimate_report_doc(r) for r in reports],
    }


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


def margin_plot(reports) -> str:
    """Minimum estimate margin per sample time, one curve per judged theorem."""
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    judged = {r.theorem: r.extra["margin_by_time"] for r in reports if "margin_by_time" in r.extra}
    series = [
        (tid, [t for t, _ in pairs], [m for _, m in pairs], colors[i % len(colors)])
        for i, (tid, pairs) in enumerate(sorted(judged.items()))
    ]
    return line_plot_svg("estimate margin (RHS - LHS) minimum over nodes", "t", "margin", series)
