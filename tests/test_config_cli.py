import json

import numpy as np
import pytest

from nullflow.cli import main
from nullflow.config import ConfigError, parse_config, render_config
from nullflow.flow import FlowConfig, run_flow
from nullflow.grids import ScalarField
from nullflow.report import read_trajectory_csv, write_trajectory_csv
from nullflow.scenarios import sphere_metric


def _base_doc(**overrides):
    doc = {
        "scenario": {"name": "round-sphere", "radius": 1.0, "resolution": 32},
        "flow": {"t_end": 0.2, "dt_initial": 1e-3, "heat": "heat", "sample_every": 20},
        "heat_initial": "cosine-mode",
        "estimates": {"rho": 0.7, "center": 16, "ricci_upper": 0.0},
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


def test_render_parse_round_trip():
    cfg = parse_config(json.dumps(_base_doc()))
    text = render_config(cfg)
    cfg2 = parse_config(text)
    assert render_config(cfg2) == text
    assert cfg2.scenario == cfg.scenario
    assert cfg2.flow == cfg.flow
    assert cfg2.estimates == cfg.estimates
    assert cfg2.theorems == cfg.theorems


# --- trajectory CSV -------------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path):
    m = sphere_metric(1.0, 24)
    th = m.grid.axes[0]
    traj = run_flow(
        m,
        FlowConfig(t_end=0.1, dt_initial=1e-3, heat="heat", sample_every=20),
        u0=ScalarField(m.grid, 2.0 + np.cos(th)),
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path, m.grid)
    assert np.array_equal(back.times, traj.times)
    for a, b in zip(back.metrics, traj.metrics):
        assert np.array_equal(a.comps, b.comps)
    for a, b in zip(back.heat_fields, traj.heat_fields):
        assert np.array_equal(a.values, b.values)


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


def test_cli_exit_two_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"scenario\": {\"name\": \"klein-bottle\"}}")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


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
