import hashlib
import importlib.util
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullflow.cli import main
from nullflow.config import ConfigError, parse_config
from nullflow.estimates import THEOREM_IDS, EstimateError, build_cutoff, verify
from nullflow.flow import (
    REACHED_T_END,
    SINGULAR,
    FlowConfig,
    FlowTrajectory,
    run_flow,
)
from nullflow.grids import ScalarField, make_sphere_grid, make_torus_grid
from nullflow.metric import LeafMetric
import nullflow.report as report_module
from nullflow.report import (
    _scan_rows,
    estimate_report_doc,
    read_trajectory_csv,
    render_json,
    write_trajectory_csv,
)
from nullflow.scenarios import sphere_metric

GOLDEN_CONFIG = Path(__file__).parent / "data" / "golden_config.json"


def _base_doc(**overrides):
    doc = {
        "scenario": {"name": "round-sphere", "radius": 1.0, "resolution": 32},
        "flow": {"t_end": 0.2, "dt_initial": 1e-3, "heat": "heat", "sample_every": 20},
        "heat_initial": "cosine-mode",
        "estimates": {"rho": 0.7, "center": 16, "ricci_upper": 2.0},
        "theorems": ["li-yau"],
        "seed": 0,
    }
    doc.update(overrides)
    return doc


# --- parsing --------------------------------------------------------------


def test_parse_minimal_defaults():
    cfg = parse_config(json.dumps({"scenario": {"name": "flat-torus", "resolution": 16}}))
    assert cfg.flow.direction == "forward"
    assert cfg.flow.heat == "none"
    assert cfg.heat_initial is None
    assert cfg.theorems == ()
    assert cfg.seed == 0


def test_parse_exponent_constraint():
    doc = _base_doc()
    doc["estimates"] = {"alpha": 2.0, "p": 3.0, "q": 6.0, "rho": 0.7, "center": 16}
    parse_config(json.dumps(doc))  # 1/3 + 1/6 = 1/2 = 1/alpha
    doc["estimates"]["q"] = 5.0
    with pytest.raises(ConfigError, match="1/p \\+ 1/q"):
        parse_config(json.dumps(doc))


def test_parse_rejects_unknown_keys_at_each_level():
    with pytest.raises(ConfigError, match="document"):
        parse_config(json.dumps(_base_doc(extra=1)))
    doc = _base_doc()
    doc["scenario"]["amp"] = 0.1  # torus-bump key on a sphere scenario
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(json.dumps(doc))
    doc = _base_doc()
    doc["flow"]["dt_final"] = 1e-5
    with pytest.raises(ConfigError, match="flow"):
        parse_config(json.dumps(doc))
    doc = _base_doc()
    doc["estimates"]["radius"] = 2.0
    with pytest.raises(ConfigError, match="estimates"):
        parse_config(json.dumps(doc))


def test_parse_rejects_bad_ids_and_couplings():
    doc = _base_doc()
    doc["theorems"] = ["mean-value"]
    with pytest.raises(ConfigError, match="theorem"):
        parse_config(json.dumps(doc))
    doc = _base_doc()
    doc["heat_initial"] = "spike"
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))
    doc = _base_doc()
    del doc["heat_initial"]
    with pytest.raises(ConfigError, match="heat_initial"):
        parse_config(json.dumps(doc))
    doc = _base_doc(seed=-3)
    with pytest.raises(ConfigError, match="seed"):
        parse_config(json.dumps(doc))


def test_parse_malformed_json_reports_location():
    with pytest.raises(ConfigError, match="line"):
        parse_config("{\"scenario\": }")


@pytest.mark.parametrize(
    "section, key, value",
    [("estimates", "A", float("nan")), ("flow", "t_end", float("nan")),
     ("estimates", "rho", float("inf"))],
)
def test_parse_rejects_non_finite_numbers(section, key, value):
    # json accepts NaN / Infinity literals, and every `<= 0` guard is
    # False for NaN, so they must be refused at parse time
    doc = _base_doc()
    doc[section][key] = value
    constant = "NaN" if np.isnan(value) else "Infinity"
    with pytest.raises(ConfigError, match=f"non-finite number {constant}"):
        parse_config(json.dumps(doc))


_TORUS_DOC = {
    "scenario": {"name": "torus-bump", "amp": 0.3, "resolution": 16},
    "flow": {"t_end": 0.1, "dt_initial": 0.002, "heat": "heat", "heat_t_max": 0.05,
             "sample_every": 10},
    "heat_initial": "cosine-mode",
    "estimates": {"alpha": 2.0, "p": 4.0, "q": 4.0, "rho": 0.8, "center": [3, 12], "A": 3.5},
    "theorems": ["harnack-global"],
    "seed": 1,
}


@pytest.mark.parametrize("path, value, match", [
    (("scenario", "resolution"), 16.5, "resolution"),
    (("scenario", "resolution"), True, "resolution"),
    (("scenario", "resolution"), 0, "resolution"),
    (("flow", "sample_every"), 2.5, "sample_every"),
    (("flow", "heat_t_max"), -1.0, "heat_t_max"),
    (("flow", "heat_t_max"), 0.0, "heat_t_max"),
    (("estimates", "center"), [1], "center"),
    (("estimates", "center"), [1.5, 2], "center"),
    (("estimates", "center"), [16, 0], "center"),
    (("estimates", "center"), 3, "center"),
    (("scenario", "amp"), "x", "scenario"),
    (("flow",), None, "flow"),
    (("estimates",), 5, "estimates"),
    (("theorems",), 5, "theorems"),
    (("estimates", "A"), "x", "A must be"),
    (("estimates", "A"), -1, "A must be"),
    (("estimates", "A"), False, "A must be"),
    (("estimates", "ricci_upper"), -5, "ricci_upper must be"),
    (("estimates", "ricci_upper"), "x", "ricci_upper must be"),
    (("estimates", "rho"), True, "rho must be"),
    (("estimates", "rho"), "x", "rho must be"),
    (("estimates", "alpha"), True, "alpha must be"),
    (("estimates", "alpha"), None, "alpha must be"),
    (("estimates", "p"), False, "p and q must be"),
    (("estimates", "q"), "x", "p and q must be"),
    (("flow", "t_end"), True, "t_end must be"),
    (("flow", "t_end"), "1", "t_end must be"),
    (("flow", "dt_initial"), False, "dt_initial must be"),
    (("flow", "eps_singular_rel"), True, "eps_singular_rel must be"),
    (("flow", "heat_t_max"), True, "heat_t_max must be"),
    (("flow", "heat_t_max"), "x", "heat_t_max must be"),
    (("scenario", "amp"), True, "amplitude must be"),
    (("scenario", "amp"), "0.3", "amplitude must be"),
])
def test_parse_rejects_malformed_fields(path, value, match):
    doc = json.loads(json.dumps(_TORUS_DOC))
    parse_config(json.dumps(doc))
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with pytest.raises(ConfigError, match=match):
        parse_config(json.dumps(doc))


def _mutations(value):
    """Replacements of one field: other types, null, fractional, negative."""
    out = [None, "x", True, [value], {"v": value}]
    if isinstance(value, list):
        out += [[], value + value[:1]]
        if all(isinstance(v, int) for v in value):
            out += [[v + 0.5 for v in value], [-v - 1 for v in value], value[:1]]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [value + 0.5, -abs(value) - 1, -abs(value) - 0.5, 0]
    return out


def _fields(doc):
    """Paths to every field of a run document, the sections included."""
    for key, value in doc.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, sub) for sub in value)


_CONSTANTS = {
    "estimates": ("alpha", "p", "q", "rho", "A", "ricci_upper"),
    "flow": ("t_end", "dt_initial", "eps_singular_rel", "heat_t_max"),
    "scenario": ("radius", "side", "amp"),
}


def _valid_constant(path, value):
    """The numbers of a run document: alpha >= 1, |amp| < 1, ricci_upper >= 0
    and every other one > 0; only A, ricci_upper and heat_t_max may be null."""
    if len(path) != 2 or path[1] not in _CONSTANTS.get(path[0], ()):
        return True
    key = path[1]
    if value is None:
        return key in ("A", "ricci_upper", "heat_t_max")
    if type(value) not in (int, float):
        return False
    if key == "alpha":
        return value >= 1
    if key == "amp":
        return abs(value) < 1
    return value >= 0 if key == "ricci_upper" else value > 0


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_config_fuzz_raises_only_config_errors(data):
    # one field of a valid document is mutated: the result parses or
    # raises ConfigError, never another exception
    doc = json.loads(json.dumps(data.draw(st.sampled_from([_base_doc(), _TORUS_DOC]))))
    path = data.draw(st.sampled_from(list(_fields(doc))))
    section = doc
    for key in path[:-1]:
        section = section[key]
    value = data.draw(st.sampled_from(_mutations(section[path[-1]])))
    section[path[-1]] = value
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    assert _valid_constant(path, value), f"{path} = {value!r} was accepted"
    metric = cfg.build_metric()
    cfg.build_heat_initial(metric)


# --- trajectory CSV -------------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path):
    m = sphere_metric(1.0, 24)
    th = m.grid.axes[0]
    u0 = ScalarField(m.grid, 2.0 + np.cos(th))
    # a run that reaches t_end, and one that collapses (R^2 = 0.25 at
    # t = 0.125) with the heat stopped early
    for radius, heat_t_max in ((1.0, None), (0.5, 0.05)):
        m = sphere_metric(radius, 24)
        traj = run_flow(
            m,
            FlowConfig(t_end=0.2 if heat_t_max else 0.1, dt_initial=1e-3, heat="heat",
                       heat_t_max=heat_t_max, sample_every=20),
            u0=u0,
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        back = read_trajectory_csv(path, m.grid)
        assert np.array_equal(back.times, traj.times)
        for a, b in zip(back.metrics, traj.metrics):
            assert np.array_equal(a.comps, b.comps)
        for a, b in zip(back.heat_fields, traj.heat_fields):
            assert np.array_equal(a.values, b.values)
        assert back.termination == traj.termination
        assert back.singular_time == traj.singular_time
        assert back.heat_valid_until == traj.heat_valid_until
    assert (back.termination, back.heat_valid_until) == ("singular", 0.05)
    assert 0.12 < back.singular_time < 0.13


def _reference_csv(trajectory):
    """The trajectory CSV written one cell at a time (the per-row writer)."""
    def fmt(x):
        return str(x) if isinstance(x, float) and not np.isfinite(x) else repr(float(x))

    meta = {key: getattr(trajectory, key) for key in ("termination", "singular_time", "heat_valid_until")}
    lines = ["# " + json.dumps(dict(sorted(meta.items()))), "t,node,g11,g12,g22,u"]
    for k, t in enumerate(trajectory.times):
        g = trajectory.metrics[k].comps.reshape(-1, 2, 2)
        u = trajectory.heat_fields[k].values.ravel() if trajectory.heat_fields else None
        for node in range(g.shape[0]):
            row = [fmt(t), str(node), fmt(g[node, 0, 0]), fmt(g[node, 0, 1]), fmt(g[node, 1, 1]),
                   "" if u is None else fmt(u[node])]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_per_row_writer(tmp_path):
    from nullflow.scenarios import torus_bump_metric

    m = torus_bump_metric(0.3, 16)
    x, _ = m.grid.coordinate_fields()
    s = sphere_metric(0.5, 24)
    runs = [  # a torus-bump heat run, a run without heat, a collapsing run
        run_flow(m, FlowConfig(t_end=0.02, dt_initial=2e-3, heat="heat", sample_every=5),
                 u0=ScalarField(m.grid, 2.0 + np.sin(x))),
        run_flow(m, FlowConfig(t_end=0.02, dt_initial=2e-3, sample_every=5)),
        run_flow(s, FlowConfig(t_end=0.2, dt_initial=1e-3, heat="heat", heat_t_max=0.05,
                               sample_every=20), u0=ScalarField(s.grid, 2.0 + np.cos(s.grid.axes[0]))),
    ]
    assert runs[2].termination == "singular"
    for traj in runs:
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        assert path.read_text() == _reference_csv(traj)


@st.composite
def _trajectories(draw):
    """A trajectory of random cells on a torus (n = 8, 9, 16) or the sphere
    (n = 8), with or without heat, in each termination state: times in
    [0, 1e300]; u log-uniform over 5e-324..1e300 (both ends present in each
    field); a positive-definite metric s (a, c; c, b) with a node scale s
    log-uniform over 1e-300..1e300 (both ends present), a and b in [0.5, 2]
    and |c| <= 0.4 of either sign, and g12 = 5e-324 and -0.0 at two nodes; on
    the sphere, whose chart metric is w g_round, g22 = g11 sin^2(theta) and
    g12 = 0.0, -0.0 at two nodes."""
    kind, n = draw(st.sampled_from([("torus", 8), ("torus", 9), ("torus", 16), ("sphere", 8)]))
    grid = make_torus_grid(n) if kind == "torus" else make_sphere_grid(n)
    times = sorted(draw(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=3, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cells(low=5e-324, high=1e300):
        x = 10.0 ** rng.uniform(np.log10(low), np.log10(high), grid.shape)
        x.flat[rng.choice(x.size, 2, replace=False)] = (low, high)
        return x

    metrics = []
    for _ in times:
        # s^2 (ab - c^2) >= 0.09 s^2, and the eigenvalues differ by a factor below 5
        scale, comps = cells(1e-300, 1e300), np.empty(grid.shape + (2, 2))
        comps[..., 0, 0], comps[..., 1, 1] = (scale * rng.uniform(0.5, 2.0, grid.shape) for _ in range(2))
        g12 = scale * rng.uniform(-0.4, 0.4, grid.shape) * (0.0 if kind == "sphere" else 1.0)
        g12.flat[rng.choice(g12.size, 2, replace=False)] = (0.0 if kind == "sphere" else 5e-324, -0.0)
        comps[..., 0, 1] = comps[..., 1, 0] = g12
        if kind == "sphere":
            comps[..., 1, 1] = comps[..., 0, 0] * np.sin(grid.axes[0]) ** 2
        metrics.append(LeafMetric(grid, comps))
    heat = draw(st.booleans())
    termination = draw(st.sampled_from([REACHED_T_END, SINGULAR]))
    return FlowTrajectory(
        np.array(times), metrics, [ScalarField(grid, cells()) for _ in times] if heat else None,
        termination,
        singular_time=draw(st.floats(0.0, 1e300)) if termination == SINGULAR else None,
        heat_valid_until=draw(st.none() | st.floats(0.0, 1e300)) if heat else None,
    )


def test_trajectory_csv_round_trips_bit_for_bit(tmp_path):
    path = tmp_path / "traj.csv"

    @settings(max_examples=40, deadline=None)
    @given(traj=_trajectories())
    def check(traj):
        write_trajectory_csv(path, traj)
        text = path.read_bytes()
        crlf = text.replace(b"\n", b"\r\n")
        # as written, with "\r\n" line ends, and either without its last line end
        for variant in (text, crlf, text[:-1], crlf[:-2]):
            path.write_bytes(variant)
            back = read_trajectory_csv(path, traj.grid)
            assert back.times.tobytes() == traj.times.tobytes()
            assert [m.comps.tobytes() for m in back.metrics] == [m.comps.tobytes() for m in traj.metrics]
            if traj.heat_fields is None:
                assert back.heat_fields is None
            else:
                assert [u.values.tobytes() for u in back.heat_fields] == [
                    u.values.tobytes() for u in traj.heat_fields]
            assert (back.termination, back.singular_time, back.heat_valid_until) == (
                traj.termination, traj.singular_time, traj.heat_valid_until)

    check()


# per column g11, g12, g22, u: the range of fresh cells and the constants drawn
_COLUMN_KINDS = [(0.5, 2.0, [1.0]), (-0.4, 0.4, [0.0, -0.0]), (0.5, 2.0, [1.0]), (-2.0, 2.0, [0.0, -0.0, 1.0])]


@st.composite
def _related_column_trajectories(draw):
    """A torus trajectory (n = 8, 9 or 65, so that blocks of 4,225 rows cross
    a write slice) whose value columns g11, g12, g22 and u, per block, are
    fresh cells, a constant, a bitwise copy of an earlier column, or such a
    copy with the sign of one cell flipped (a -0.0 where the other has +0.0);
    u may be absent.  The metric stays positive definite: g11 and g22 are
    fresh or constant in [0.5, 2], or g22 a copy of g11, and g12 is fresh
    in [-0.4, 0.4] with a +0.0 and a -0.0 among them or a constant +0.0,
    -0.0 or other number there; u is any of the kinds, over [-2, 2]."""
    grid = make_torus_grid(draw(st.sampled_from([8, 9, 65])))
    size = grid.shape[0] * grid.shape[1]
    times = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    heat = draw(st.booleans())
    blocks = []
    for _ in times:
        cols = []
        for c in range(4 if heat else 3):
            related = [("copy", 0)] if c == 2 else [(how, j) for j in range(c) for how in ("copy", "flip")]
            kind = draw(st.sampled_from(["fresh", "const"] + (related if c >= 2 else [])))
            low, high, consts = _COLUMN_KINDS[c]
            if kind == "fresh":
                col = rng.uniform(low, high, size)
                if low < 0.0:
                    col[rng.choice(size, 2, replace=False)] = (0.0, -0.0)
            elif kind == "const":
                col = np.full(size, draw(st.sampled_from(consts + [float(rng.uniform(low, high))])))
            else:
                col = cols[kind[1]].copy()
                if kind[0] == "flip":
                    zeros = np.flatnonzero(col == 0.0)
                    i = zeros[0] if zeros.size else 0
                    col[i] = -col[i]
            cols.append(col)
        blocks.append([col.reshape(grid.shape) for col in cols])
    metrics = []
    for g11, g12, g22, *_ in blocks:
        comps = np.stack([np.stack([g11, g12], -1), np.stack([g12, g22], -1)], -2)
        metrics.append(LeafMetric(grid, comps))
    heats = [ScalarField(grid, cols[3]) for cols in blocks] if heat else None
    return FlowTrajectory(np.array(times), metrics, heats, REACHED_T_END)


def test_trajectory_csv_shares_text_only_between_bitwise_equal_columns(tmp_path):
    path = tmp_path / "traj.csv"

    @settings(max_examples=60, deadline=None)
    @given(traj=_related_column_trajectories())
    def check(traj):
        write_trajectory_csv(path, traj)
        assert path.read_text() == _reference_csv(traj)

    check()


@st.composite
def _pooled_trajectories(draw):
    """A torus trajectory whose cells g11, g12, g22 and u all come from one
    pool shared by nodes, columns and samples: +0.0, -0.0, 5e-324, 1.0 and
    two random numbers a and b in [2, 4].  n = 8 with 1-5 samples puts
    several samples in one chunk; n = 65 (4,225 rows) puts one sample in a
    chunk and crosses a write slice.  u may be absent.  The metric stays
    positive definite: g11 and g22 are 1.0, a or b, and g12 is +0.0, -0.0,
    5e-324, or 1.0 where g11 g22 > 1."""
    n = draw(st.sampled_from([8, 65]))
    grid = make_torus_grid(n)
    times = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5 if n == 8 else 2,
                                 unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([0.0, -0.0, 5e-324, 1.0, *rng.uniform(2.0, 4.0, 2)])

    def cells(choices):
        return pool[rng.choice(choices, grid.shape)]

    metrics = []
    for _ in times:
        g11, g22, g12 = cells([3, 4, 5]), cells([3, 4, 5]), cells([0, 1, 2, 3])
        g12[(g12 == 1.0) & (g11 * g22 <= 1.0)] = -0.0
        metrics.append(LeafMetric(grid, np.stack([np.stack([g11, g12], -1), np.stack([g12, g22], -1)], -2)))
    heats = [ScalarField(grid, cells(range(6))) for _ in times] if draw(st.booleans()) else None
    return FlowTrajectory(np.array(times), metrics, heats, REACHED_T_END)


def test_trajectory_csv_formats_values_shared_across_columns_and_samples(tmp_path):
    path = tmp_path / "traj.csv"

    @settings(max_examples=40, deadline=None)
    @given(traj=_pooled_trajectories())
    def check(traj):
        write_trajectory_csv(path, traj)
        assert path.read_text() == _reference_csv(traj)

    check()


def _count_reprs(monkeypatch):
    """Count the floats the report module formats from now on."""
    calls = []

    def counting_repr(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(report_module, "repr", counting_repr, raising=False)
    return calls


def test_trajectory_csv_formats_each_distinct_float_of_a_chunk_once(tmp_path, monkeypatch):
    from nullflow.scenarios import torus_bump_metric

    m = torus_bump_metric(0.3, 32)
    x, _ = m.grid.coordinate_fields()
    traj = run_flow(m, FlowConfig(t_end=0.02, dt_initial=1e-3, heat="heat", sample_every=4),
                    u0=ScalarField(m.grid, 2.0 + np.cos(x)))
    per_chunk = report_module._SLICE_ROWS // 32**2  # samples of 1,024 rows
    assert len(traj.times) > per_chunk  # more than one chunk
    distinct = 0
    for k0 in range(0, len(traj.times), per_chunk):
        ks = range(k0, min(k0 + per_chunk, len(traj.times)))
        values = [traj.metrics[k].comps[..., [0, 0, 1], [0, 1, 1]] for k in ks]
        values += [traj.heat_fields[k].values for k in ks]
        distinct += len(np.unique(np.concatenate([v.ravel() for v in values]).view(np.int64)))
    calls = _count_reprs(monkeypatch)
    write_trajectory_csv(tmp_path / "traj.csv", traj)
    # one repr per distinct bit pattern of each chunk, and one per sample time:
    # 2,766, where formatting each distinct column of a sample once made one
    # repr per w and per u cell (12,288), as the leaf and u are mirror-symmetric
    assert len(calls) == distinct + len(traj.times)
    assert len(calls) < 0.4 * 2 * traj.times.size * 32**2


def test_golden_trajectory_csv_formats_no_more_floats_than_one_per_distinct_column(
        tmp_path, monkeypatch):
    cfg = parse_config(GOLDEN_CONFIG.read_text())
    m = cfg.build_metric()
    traj = run_flow(m, cfg.flow, u0=cfg.build_heat_initial(m))
    calls = _count_reprs(monkeypatch)
    write_trajectory_csv(tmp_path / "traj.csv", traj)
    # a writer that formats each distinct column of a sample once makes
    # 1,403 value reprs here; the golden file holds 1,218 distinct floats
    assert len(calls) - len(traj.times) <= 1403


def test_write_trajectory_csv_holds_less_than_its_file(tmp_path):
    """Writing the seed-0 torus-verify-64 run (6 samples at n = 64, 1.95 MB)
    peaked at 1.46 MB (numpy 2.4, CPython 3.11): one chunk of samples is
    formatted at a time, its distinct floats once.  Holding the text of
    every row, or the cells of the whole file, peaks above the file size."""
    cfg = parse_config(json.dumps(_torus_workload_config("torus-verify-64")))
    m = cfg.build_metric()
    traj = run_flow(m, cfg.flow, u0=cfg.build_heat_initial(m))
    assert (len(traj.times), traj.grid.shape) == (6, (64, 64))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)  # first-call imports and caches are not the writer's
    tracemalloc.start()
    try:
        write_trajectory_csv(path, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_read_trajectory_csv_keeps_no_strings_per_row(tmp_path):
    """Reading a 6-sample torus n = 64 trajectory (24,576 rows, 2.07 MB)
    peaked at 2.6 times the file size (numpy 2.4, CPython 3.11); a reader
    that keeps a list of strings per row and per column peaked at 7.4 times."""
    grid = make_torus_grid(64)
    rng = np.random.default_rng(0)
    comps = 1.0 + 0.1 * rng.random((6,) + grid.shape + (2, 2))
    comps[..., 0, 1] -= 1.0  # positive definite
    comps[..., 1, 0] = comps[..., 0, 1]
    traj = FlowTrajectory(
        0.02 * np.arange(6), [LeafMetric(grid, c) for c in comps],
        [ScalarField(grid, 2.0 + rng.random(grid.shape)) for _ in range(6)], REACHED_T_END,
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    read_trajectory_csv(path, grid)  # first-call imports and caches are not the reader's
    tracemalloc.start()
    try:
        back = read_trajectory_csv(path, grid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size, (peak, path.stat().st_size)
    # what stays allocated is the metric components and u (0.98 MB), not the
    # parsed (rows x 6) array (1.18 MB) that a view into it keeps alive
    kept = sum(m.comps.nbytes for m in back.metrics) + sum(f.values.nbytes for f in back.heat_fields)
    assert held < kept + 16_384, (held, kept)


def _verify_doc(traj, theorem, params, cert):
    """The report document of one theorem, or the error it raised."""
    try:
        return render_json(estimate_report_doc(verify(traj, theorem, params, cert=cert)))
    except EstimateError as exc:
        return f"EstimateError: {exc}"


@pytest.mark.parametrize("doc", [
    json.loads(GOLDEN_CONFIG.read_text()),
    {
        "scenario": {"name": "torus-bump", "amp": 0.3, "resolution": 16},
        "flow": {"t_end": 0.1, "dt_initial": 0.002, "heat": "heat", "sample_every": 10},
        "heat_initial": "cosine-mode",
        "estimates": {"alpha": 2.0, "p": 4.0, "q": 4.0, "rho": 0.8, "center": [3, 12]},
    },
    {
        "scenario": {"name": "torus-bump", "amp": 0.3, "resolution": 16},
        "flow": {"direction": "backward", "t_end": 0.02, "dt_initial": 0.001,
                 "heat": "conjugate-heat", "sample_every": 5},
        "heat_initial": "cosine-mode",
        "estimates": {"alpha": 2.0, "p": 4.0, "q": 4.0, "rho": 0.8, "center": [15, 0]},
    },
], ids=["golden", "torus-heat", "torus-backward-conjugate"])
def test_verify_on_csv_reproduces_run_report(tmp_path, doc):
    cfg = parse_config(json.dumps(doc))
    metric = cfg.build_metric()
    traj = run_flow(metric, cfg.flow, u0=cfg.build_heat_initial(metric))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path, metric.grid)
    cert = build_cutoff()
    docs = [_verify_doc(traj, tid, cfg.estimates, cert) for tid in THEOREM_IDS]
    assert docs == [_verify_doc(back, tid, cfg.estimates, cert) for tid in THEOREM_IDS]
    assert sum('"status": "holds"' in d for d in docs) >= 1


# --- malformed trajectory CSVs ----------------------------------------------


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """One CLI run of the base config: its directory, config path and CSV lines."""
    root = tmp_path_factory.mktemp("stored")
    cfg = _write_cfg(root, _base_doc())
    assert main(["run", cfg, "--out", str(root / "out")]) == 0
    lines = (root / "out" / "trajectory.csv").read_text().splitlines()
    return root, cfg, lines


_N_NODES = 32  # _base_doc's resolution
_NUMERIC_CELLS = (0, 2, 3, 4, 5)  # t, g11, g12, g22, u


@st.composite
def _corruptions(draw, lines):
    """A copy of the CSV lines with one corruption that must fail closed."""
    lines = list(lines)
    rows = lines[2:]
    n_blocks = len(rows) // _N_NODES
    r = draw(st.integers(0, len(rows) - 1))
    cells = rows[r].split(",")
    kind = draw(st.sampled_from(
        ["non-finite", "time", "swap", "node", "truncate", "no-metadata", "bad-metadata", "empty-u"]
    ))
    if kind == "non-finite":
        cells[draw(st.sampled_from(_NUMERIC_CELLS))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif kind == "time":
        t = float(cells[0]) + draw(st.floats(-1.0, 1.0).filter(lambda d: abs(d) > 1e-6))
        cells[0] = repr(t)
    elif kind == "node":
        own = int(cells[1])
        cells[1] = str(draw(st.sampled_from(
            [-1, _N_NODES, _N_NODES + 7, (own + draw(st.integers(1, _N_NODES - 1))) % _N_NODES]
        )))
    elif kind == "empty-u":  # the run has heat: u is set in every other row
        cells[5] = ""
    if kind in ("non-finite", "time", "node", "empty-u"):
        rows[r] = ",".join(cells)
    elif kind == "swap":
        a, b = sorted(draw(st.lists(st.integers(0, n_blocks - 1), min_size=2, max_size=2,
                                    unique=True)))
        blocks = [rows[i * _N_NODES:(i + 1) * _N_NODES] for i in range(n_blocks)]
        blocks[a], blocks[b] = blocks[b], blocks[a]
        rows = [row for block in blocks for row in block]
    elif kind == "truncate":
        rows = rows[:-draw(st.integers(1, _N_NODES - 1))]
    if kind == "no-metadata":
        return lines[1:]
    if kind == "bad-metadata":
        meta = json.loads(lines[0][2:])
        key = draw(st.sampled_from(sorted(meta)))
        bad = draw(st.sampled_from([float("nan"), "later", [1.0], -float("inf")]))
        meta[key] = bad
        return ["# " + json.dumps(meta)] + lines[1:]
    return lines[:2] + rows


def test_cli_verify_fails_closed_on_malformed_trajectories(stored_run, capsys):
    root, cfg, lines = stored_run
    path = root / "corrupt.csv"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def check(data):
        path.write_text("\n".join(data.draw(_corruptions(lines))) + "\n")
        code = main(["verify", str(path), "--theorem", "li-yau", "--params", cfg])
        out, err = capsys.readouterr()
        assert code == 2, out
        assert out == "" and "error:" in err

    check()


def _scan_whole(body: bytes):
    """The row scan over the whole body at once: cells per row, and whether u is
    empty in each row of 6 cells."""
    body = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(body == ord("\n"))
    if body.size and body[-1] != ord("\n"):
        ends = np.append(ends, body.size)
    cells = np.diff(np.searchsorted(np.flatnonzero(body == ord(",")), ends), prepend=0) + 1
    return cells, body[ends - 1 - (body[ends - 1] == ord("\r"))] == ord(",")


@settings(max_examples=200, deadline=None)
@given(body=st.lists(st.sampled_from([b",", b"\n", b"\r", b"1", b"1,1,1,1,1,", b"1,1,1,1,1,1\r\n"]),
                     max_size=40).map(b"".join),
       slice_bytes=st.integers(1, 9))
def test_row_scan_in_slices_matches_the_whole_body(body, slice_bytes):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report_module, "_SCAN_BYTES", slice_bytes)
        cells, empty_u = _scan_rows(io.BytesIO(body))
    want_cells, want_empty_u = _scan_whole(body)
    assert cells.tolist() == want_cells.tolist()
    six = want_cells == 6  # the only rows whose u the reader reads
    assert empty_u[six].tolist() == want_empty_u[six].tolist()


@pytest.mark.parametrize("crlf", [False, True])
def test_read_trajectory_csv_names_a_bad_row_in_a_later_slice(tmp_path, crlf):
    grid = make_torus_grid(32)
    rng = np.random.default_rng(1)
    comps = 1.0 + 0.1 * rng.random((6,) + grid.shape + (2, 2))
    comps[..., 0, 1] -= 1.0  # positive definite
    comps[..., 1, 0] = comps[..., 0, 1]
    traj = FlowTrajectory(
        0.02 * np.arange(6), [LeafMetric(grid, c) for c in comps],
        [ScalarField(grid, 2.0 + rng.random(grid.shape)) for _ in range(6)], REACHED_T_END,
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    bad = len(lines) - 100  # a line index in a later slice than the first
    assert len("\n".join(lines[:bad])) > report_module._SCAN_BYTES

    def read(edit):
        rows = list(lines)
        rows[bad] = edit(rows[bad])
        path.write_bytes(("\r\n" if crlf else "\n").join(rows).encode() + b"\n")
        return read_trajectory_csv(path, grid)

    with pytest.raises(ValueError, match=f"line {bad + 1}: expected 6 cells"):
        read(lambda row: row + ",1.0")
    with pytest.raises(ValueError, match=f"line {bad + 1}: u must be set as on line 3"):
        read(lambda row: row[:row.rindex(",") + 1])
    back = read(lambda row: row)
    assert all(a.comps.tobytes() == b.comps.tobytes() for a, b in zip(back.metrics, traj.metrics))


def test_read_trajectory_csv_names_the_line(stored_run, tmp_path):
    _, _, lines = stored_run
    grid = sphere_metric(1.0, _N_NODES).grid
    path = tmp_path / "t.csv"

    def read(edit):
        rows = list(lines)
        edit(rows)
        path.write_text("\n".join(rows) + "\n")
        return read_trajectory_csv(path, grid)

    def set_cell(r, c, value):  # r counts lines from 0
        def edit(rows):
            cells = rows[r].split(",")
            cells[c] = value
            rows[r] = ",".join(cells)
        return edit

    with pytest.raises(ValueError, match="line 1: "):
        read(lambda rows: rows.pop(0))
    first = 2 + 3 * _N_NODES  # line index of the first row of block 3
    with pytest.raises(ValueError, match=f"line {first + 6}: time differs"):
        read(set_cell(first + 5, 0, "0.123"))
    with pytest.raises(ValueError, match=f"line {first + 5}: non-finite"):
        read(set_cell(first + 4, 4, "nan"))
    with pytest.raises(ValueError, match=f"line {first + 1}: the block does not list"):
        read(set_cell(first + 4, 1, "3"))

    def rewind_block(rows):  # block 3 now claims t = 0, before block 2
        for i in range(first, first + _N_NODES):
            rows[i] = "0.0" + rows[i][rows[i].index(","):]

    with pytest.raises(ValueError, match=f"line {first + 1}: block times must strictly"):
        read(rewind_block)
    with pytest.raises(ValueError, match=f"line {first + 3}: expected 6 cells"):
        read(set_cell(first + 2, 5, "1.0,1.0"))
    with pytest.raises(ValueError, match=f"line {len(lines) + 1}: expected 6 cells"):
        read(lambda rows: rows.append(""))  # a trailing blank line
    # node ids are integers in 0..n-1, although the reader parses them as floats
    for bad in ("3.5", "1e300", "-1", str(_N_NODES)):
        with pytest.raises(ValueError, match=f"line {first + 4}: node id is not an integer"):
            read(set_cell(first + 3, 1, bad))
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f"line {first + 4}: non-finite"):
            read(set_cell(first + 3, 1, bad))
    # u is all-or-none, and line 3 decides which
    with pytest.raises(ValueError, match=f"line {first + 8}: u must be set as on line 3"):
        read(set_cell(first + 7, 5, ""))
    with pytest.raises(ValueError, match="line 4: u must be empty as on line 3"):
        read(set_cell(2, 5, ""))


# --- CLI ------------------------------------------------------------------


def _write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=2))
    return str(p)


def test_cli_run_produces_outputs_and_exit_zero(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _base_doc())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "li-yau: holds" in captured
    assert (out / "trajectory.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "radius.svg").exists()
    assert (out / "margins.svg").exists()
    doc = json.loads((out / "report.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["theorems"][0]["status"] == "holds"


def test_golden_run_writes_the_pinned_trajectory(tmp_path, capsys):
    # report.json is pinned by golden_report.json; the CSV by its SHA-256, so a
    # changed last bit or sign of zero in any stored metric or u shows too
    out = tmp_path / "out"
    assert main(["run", str(GOLDEN_CONFIG), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == (GOLDEN_CONFIG.parent / "golden_trajectory.sha256").read_text().strip()


def _torus_workload_config(name):
    spec = importlib.util.spec_from_file_location(
        "nullbench_workloads", Path(__file__).parents[1] / "nullbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.torus_config(name, 0)


@pytest.mark.parametrize("name, files", [
    ("golden", ["radius.svg", "margins.svg"]),
    ("torus-verify-64", ["trajectory.csv"]),
    ("torus-backward-128", ["trajectory.csv"]),
])
def test_runs_write_the_pinned_outputs(tmp_path, capsys, name, files):
    # the reports are compared in full elsewhere; these digests show a changed
    # last bit of a stored torus u or metric, or of a plotted golden value
    if name == "golden":
        config = GOLDEN_CONFIG
    else:  # the seed-0 config of the benchmark workload
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_torus_workload_config(name)))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    for file in files:
        digest = hashlib.sha256((out / file).read_bytes()).hexdigest()
        pinned = GOLDEN_CONFIG.parent / f"{name}_{Path(file).stem}.sha256"
        assert digest == pinned.read_text().strip(), file


def test_cli_run_plots_one_margin_curve_per_judged_theorem(tmp_path, capsys):
    doc = json.loads(json.dumps(_TORUS_DOC))
    doc["theorems"] = ["harnack-global", "li-yau", "log-gradient-forward"]  # li-yau: alpha = 2
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    assert "li-yau: hypothesis-violated" in capsys.readouterr().out
    svg = (out / "margins.svg").read_text()
    assert svg.count("<polyline") == 2
    assert ">harnack-global</text>" in svg and ">log-gradient-forward</text>" in svg
    assert "li-yau" not in svg


def test_cli_exit_two_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"scenario\": {\"name\": \"klein-bottle\"}}")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", _write_cfg(tmp_path, _base_doc()), "--out", str(out), "--seed", "-5"]) == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert main(["run", _write_cfg(tmp_path, _base_doc()), "--out", str(out), "--seed", "5"]) == 0
    assert json.loads((out / "report.json").read_text())["seed"] == 5


@pytest.mark.parametrize("value", ["x", -1])
def test_cli_exit_two_on_bad_estimate_constant(tmp_path, capsys, value):
    doc = _base_doc(theorems=["log-gradient-forward", "li-yau"])
    doc["estimates"]["A"] = value
    assert main(["run", _write_cfg(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
    assert "A must be a finite number above 0" in capsys.readouterr().err


def test_cli_exit_two_on_too_few_live_heat_samples(tmp_path, capsys):
    # two stored samples give no second-order time derivative of u
    doc = {
        "scenario": {"name": "torus-bump", "amp": 0.3, "resolution": 16},
        "flow": {"t_end": 0.01, "heat": "heat", "sample_every": 100},
        "heat_initial": "cosine-mode",
        "estimates": {"alpha": 2.0, "p": 4.0, "q": 4.0, "rho": 0.8, "center": [3, 12]},
        "theorems": ["log-gradient-forward"],
    }
    assert main(["run", _write_cfg(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "at least 3 live heat samples, the trajectory has 2" in err
    assert "Shape of array too small" not in err


def test_cli_run_exits_two_on_a_nan_metric_where_a_collapse_ends_singular(tmp_path, capsys, monkeypatch):
    # the golden run ends singular on an eigenvalue of its last step: w = r^2 - 2t stays
    # uniform, and its stage 4 at t = 0.5 is a rounding below 0 at every node, whose least
    # eigenvalue w sin^2(theta) is at the node nearest the equator; a NaN put
    # into the third step's metric is no collapse: the run fails, naming its node,
    # and writes nothing
    import nullflow.flow as flow
    from nullflow.metric import MetricError

    step, steps, raised = flow.step_flow, [], []

    def recorded_step(metric, dt, pack=None):
        try:
            out = step(metric, dt, pack)
        except MetricError as exc:
            raised.append(str(exc))
            raise
        steps.append(1)
        if nan_at == len(steps):
            comps = out.comps.copy()
            comps[5, 1, 1] = np.nan
            return LeafMetric(out.grid, comps)
        return out

    monkeypatch.setattr(flow, "step_flow", recorded_step)
    nan_at = None
    assert main(["run", str(GOLDEN_CONFIG), "--out", str(tmp_path / "golden")]) == 0
    assert "termination: singular" in capsys.readouterr().out
    assert raised == ["metric not positive definite (node 23, eigenvalue -8.803e-16)"]
    nan_at, out = 3, tmp_path / "nan"
    steps.clear()
    assert main(["run", str(GOLDEN_CONFIG), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: metric components are not finite (node 5)\n"
    assert len(steps) == 3 and list(out.iterdir()) == []


_BACKWARD_FLOW = {"direction": "backward", "t_end": 0.1, "dt_initial": 1e-3,
                  "heat": "conjugate-heat", "sample_every": 20}


@pytest.mark.parametrize("flow", [
    {**_BACKWARD_FLOW, "heat_t_max": 0.02},
    {"t_end": 0.1, "dt_initial": 1e-3, "heat": "none", "heat_t_max": 0.02},
], ids=["backward", "no-heat"])
def test_heat_t_max_applies_only_to_a_forward_heat_run(tmp_path, capsys, flow):
    doc = _base_doc(flow=flow)
    with pytest.raises(ConfigError, match="heat_t_max applies only to a forward run with heat"):
        parse_config(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", _write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "heat_t_max applies only to a forward run with heat" in capsys.readouterr().err
    assert not out.exists()
    del doc["flow"]["heat_t_max"]
    parse_config(json.dumps(doc))


def test_cli_verify_subcommand_round_trip(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _base_doc())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["verify", str(out / "trajectory.csv"), "--theorem", "li-yau", "--params", cfg])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "holds"
    assert doc["min_margin"] > 0.0


def test_cli_verify_flags_corrupted_trajectory(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _base_doc())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "trajectory.csv").read_text().splitlines()
    # corrupt the heat value of one mid-trajectory row
    k = len(lines) // 2
    parts = lines[k].split(",")
    parts[-1] = repr(float(parts[-1]) * 3.0)
    lines[k] = ",".join(parts)
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
    code = main(["verify", str(out / "trajectory.csv"), "--theorem", "li-yau", "--params", cfg])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "violated"
    bad_node = int(parts[1])
    # violations rows are [sample index, node, lhs, rhs]
    assert any(v[1] == bad_node for v in doc["violations"])


@pytest.mark.parametrize("doc, theorem, node", [
    (json.loads(GOLDEN_CONFIG.read_text()), "li-yau", 24),
    ({"scenario": {"name": "torus-bump", "amp": 0.3, "resolution": 16},
      "flow": {"t_end": 0.1, "dt_initial": 0.002, "heat": "heat", "sample_every": 10},
      "heat_initial": "cosine-mode",
      "estimates": {"alpha": 2.0, "p": 4.0, "q": 4.0, "rho": 0.8, "center": [3, 12]}},
     "log-gradient-backward", 3 * 16 + 12),
], ids=["golden", "torus-bump-16"])
def test_cli_verify_rejects_a_metric_not_positive_definite(tmp_path, capsys, doc, theorem, node):
    # g11 = g22 = -0.5 at the cube's center in the third sample, which is
    # live: verify must fail closed, as the reader's LeafMetric rejects it
    cfg = _write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    n_nodes = int(np.prod(parse_config(json.dumps(doc)).build_metric().grid.shape))
    r = 2 + 2 * n_nodes + node
    cells = lines[r].split(",")
    assert int(cells[1]) == node and cells[5] != ""
    cells[2] = cells[4] = "-0.5"
    lines[r] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    code = main(["verify", str(path), "--theorem", theorem, "--params", cfg])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith(f"error: line {r + 1}: metric not positive definite (node {node}, ")


def test_cli_verify_rejects_a_frozen_sample_not_positive_definite_naming_its_line(tmp_path, capsys):
    # samples past heat_valid_until are never verified, but each is a metric:
    # g11 = -1 at one node of the last block, whose rows are listed in reverse
    cfg = _write_cfg(tmp_path, _TORUS_DOC)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    n_nodes = 16 * 16
    assert json.loads(lines[0][2:])["heat_valid_until"] < float(lines[-1].split(",")[0])
    lines[-n_nodes:] = lines[-n_nodes:][::-1]
    r = len(lines) - 1 - 37  # the row of node 37
    cells = lines[r].split(",")
    assert int(cells[1]) == 37
    cells[2] = "-1.0"
    lines[r] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["verify", str(path), "--theorem", "harnack-global", "--params", cfg])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith(f"error: line {r + 1}: metric not positive definite (node 37, ")



@pytest.mark.parametrize("sample", [2, -1], ids=["live", "frozen"])
def test_cli_verify_rejects_a_sheared_sphere_sample_naming_its_line(tmp_path, capsys, sample):
    # g12 = 1e-6, or g22 one ulp off g11 sin^2(theta), at node 24 of a golden sample: the
    # sphere chart's metric must be w g_round, so the reader rejects it, live or past
    # heat_valid_until
    cfg = str(GOLDEN_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    path = out / "trajectory.csv"
    written = path.read_text().splitlines()
    n_nodes = 48
    blocks = (len(written) - 2) // n_nodes
    k = sample % blocks
    heat_valid_until = json.loads(written[0][2:])["heat_valid_until"]
    r = 2 + k * n_nodes + 24
    for column, value in ((3, "1e-06"), (4, repr(float(np.nextafter(float(written[r].split(",")[4]), 1.0))))):
        lines = list(written)
        cells = lines[r].split(",")
        assert int(cells[1]) == 24 and (float(cells[0]) <= heat_valid_until) == (sample == 2)
        cells[column] = value
        lines[r] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["verify", str(path), "--theorem", "li-yau", "--params", cfg])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err == (f"error: line {r + 1}: sphere chart metric not w g_round: "
                                     "g12 != 0 or g22 != g11 sin^2(theta) (node 24)\n")


def test_cli_determinism_across_runs_and_threads(tmp_path):
    cfg = _write_cfg(tmp_path, _base_doc())
    blobs = []
    for i in range(3):
        out = tmp_path / f"out{i}"
        assert main(["run", cfg, "--out", str(out)]) == 0
        blobs.append(
            ((out / "report.json").read_bytes(), (out / "trajectory.csv").read_bytes())
        )
    assert blobs[0] == blobs[1] == blobs[2]
