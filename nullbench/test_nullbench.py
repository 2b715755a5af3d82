"""Self-tests of the benchmark harness.

    python3 -m pytest nullbench/test_nullbench.py
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
from tracing import StageTimers  # noqa: E402
from workloads import THEOREM_IDS, WORKLOADS, golden_config_path, torus_config  # noqa: E402

SMALL_TORUS = {
    "scenario": {"name": "torus-bump", "amp": 0.3, "resolution": 16},
    "flow": {"t_end": 0.02, "dt_initial": 0.002, "heat": "heat", "sample_every": 5},
    "heat_initial": "cosine-mode",
    "estimates": {"alpha": 2.0, "p": 4.0, "q": 4.0, "rho": 0.8, "center": [3, 11]},
    "theorems": list(THEOREM_IDS),
    "seed": 0,
}


def _count_metrics():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in declared["per_layer"] if m["unit"] != "s"]


@pytest.fixture(params=["sphere-golden", "small-torus"])
def config(request, tmp_path):
    if request.param == "sphere-golden":
        path = golden_config_path(run.ROOT)
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SMALL_TORUS))
    return path, json.loads(path.read_text())["theorems"]


def test_traced_iterations_match_untraced_and_repeat_counts(config, tmp_path):
    cfg_path, theorems = config
    nullflow, _, _ = run._import_nullflow()
    timers = StageTimers(nullflow.cli, hostspeed.probe)
    try:
        plain = run.iterate(nullflow, timers, cfg_path, tmp_path / "plain", theorems, False)
        traced = [run.iterate(nullflow, timers, cfg_path, tmp_path / f"traced{i}", theorems, True)
                  for i in range(2)]
    finally:
        timers.uninstall()
    assert plain["run_code"] == 0 and plain["report"]
    for it in traced:
        assert it["run_code"] == 0
        assert it["report"] == plain["report"]
        assert it["verify_doc"] == plain["verify_doc"]
    counts = _count_metrics()
    first, second = (it["layers"] for it in traced)
    assert {k: first[k] for k in counts if k in first} == {k: second[k] for k in counts if k in second}
    # all wrappers were removed again
    assert nullflow.cli.verify is nullflow.estimates.verify
    assert nullflow.flow.ricci is nullflow.metric.ricci


@pytest.mark.parametrize("name", [w for w in WORKLOADS if w != "sphere-golden"])
def test_seed_generator_is_deterministic(name):
    docs = [torus_config(name, seed) for seed in range(20)]
    assert docs == [torus_config(name, seed) for seed in range(20)]
    assert len({json.dumps(d, sort_keys=True) for d in docs}) == len(docs)
    n = docs[0]["scenario"]["resolution"]
    for doc in docs:
        assert 0.2 <= doc["scenario"]["amp"] <= 0.35
        assert all(0 <= c < n for c in doc["estimates"]["center"])


def test_reference_comparison_tolerates_only_small_float_changes():
    ref = json.loads((run.HERE / "reference" / "torus-verify-64.json").read_text())
    same = json.loads(json.dumps(ref))
    same["theorems"][0]["min_margin"] *= 1.0 + 1e-12
    assert run.reference_diffs(same, ref, exact=True) == []
    moved = json.loads(json.dumps(ref))
    moved["theorems"][0]["min_margin"] *= 1.0 + 1e-6
    assert run.reference_diffs(moved, ref, exact=True)
    moved["theorems"][0]["admissible_points"] += 1
    assert run.reference_diffs(moved, ref, exact=False) == []
    moved["theorems"][-1]["status"] = "holds"
    assert run.reference_diffs(moved, ref, exact=False)


def test_normalized_sample_uses_the_probes_nearest_each_piece():
    ref = hostspeed.REFERENCE_S
    sample = {
        "run_s": 3.0, "reverify_s": 1.0,
        "probe_before": 0.02, "probe_mid": 0.02, "probe_after": 0.01,
        "run_calls": [("flow_s", 1.0, 0.01, 0.01), ("verify_s", 1.5, 0.02, 0.02)],
        "reverify_calls": [("verify_s", 0.5, None, None)],
    }
    n = run.normalized_sample(sample)
    assert n["flow_s"] == pytest.approx(1.0 * ref / 0.01)
    assert n["verify_s"] == pytest.approx(1.5 * ref / 0.02)
    assert n["csv_write_s"] == 0.0
    assert n["run_s"] == pytest.approx(n["flow_s"] + n["verify_s"] + 0.5 * ref / 0.02)
    assert n["reverify_s"] == pytest.approx(1.0 * ref / 0.015)
    kept = run.normalized_sample(sample, raw_stages=("flow_s",))
    assert kept["flow_s"] == 1.0
    assert kept["run_s"] == pytest.approx(1.0 + n["verify_s"] + 0.5 * ref / 0.02)
