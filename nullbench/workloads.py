"""Benchmark workloads and the seeded config generator.

Each workload is one `nullflow run` config plus the `nullflow verify`
that re-checks its first theorem on the written trajectory.  The
program only ever sees the generated config file; the seed stays with
the benchmark.

* ``sphere-golden`` is the committed golden config, unchanged and
  unseeded: tiny 1-D arrays, so per-call Python overhead dominates and
  heat substeps take most of the time.  Distance is the closed-form arc
  length and the CSV is small, so a distance, verify or CSV change
  should not move it.  Its report must match the golden file byte for
  byte.
* ``torus-verify-64`` checks all five theorems on a 64 x 64 torus-bump
  heat run.  Verification dominates (every theorem recomputes the
  Dijkstra distances of every sample), so this is the workload for
  distance and verify-layer work.
* ``torus-backward-128`` runs the backward flow with a conjugate heat
  solve on a 128 x 128 grid: 4x larger arrays (bandwidth-bound rather
  than overhead-bound), a curvature pack per heat substep, and the
  largest trajectory CSV.  It checks one theorem, because five theorems
  would repeat the n = 128 Dijkstra five times per sample.
"""
from __future__ import annotations

import json
import random

THEOREM_IDS = (
    "log-gradient-backward",
    "log-gradient-forward",
    "harnack-local",
    "harnack-global",
    "li-yau",
)

WORKLOADS = ("sphere-golden", "torus-verify-64", "torus-backward-128")

# seed whose report is kept under reference/ for the seeded workloads
DEFAULT_SEED = 0

_AMP_RANGE = (0.2, 0.35)

# alpha = 2 with p = q = 4 satisfies 1/p + 1/q = 1/alpha; li-yau needs
# alpha = 1, so it is hypothesis-gated on the torus workloads
_TORUS_ESTIMATES = {"alpha": 2.0, "p": 4.0, "q": 4.0, "rho": 0.8}


# Stages the host-speed probe does not track, reported in raw seconds.
# The n = 128 backward flow is array-bound: over 30 calls its time did not
# follow the probe (correlation -0.15), while every other stage of every
# workload did (0.5 to 0.8), so normalizing it only added the probe's noise.
RAW_STAGES = {"torus-backward-128": ("flow_s",)}


def golden_config_path(root):
    return root / "tests" / "data" / "golden_config.json"


def golden_report_path(root):
    return root / "tests" / "data" / "golden_report.json"


def _torus_draw(seed: int, n: int):
    """Bump amplitude in _AMP_RANGE and a cube center node, from the seed."""
    rng = random.Random(f"nullbench:{seed}")
    lo, hi = _AMP_RANGE
    amp = round(lo + (hi - lo) * rng.random(), 6)
    center = [int(rng.random() * n), int(rng.random() * n)]
    return amp, center


def torus_config(name: str, seed: int) -> dict:
    """The run document of a seeded torus workload."""
    if name == "torus-verify-64":
        n = 64
        flow = {"t_end": 0.1, "dt_initial": 0.002, "heat": "heat", "sample_every": 10}
        theorems = list(THEOREM_IDS)
    elif name == "torus-backward-128":
        n = 128
        flow = {
            "direction": "backward", "t_end": 0.02, "dt_initial": 0.001,
            "heat": "conjugate-heat", "sample_every": 10,
        }
        theorems = ["log-gradient-backward"]
    else:
        raise ValueError(f"{name!r} is not a seeded torus workload")
    amp, center = _torus_draw(seed, n)
    return {
        "scenario": {"name": "torus-bump", "amp": amp, "resolution": n},
        "flow": flow,
        "heat_initial": "cosine-mode",
        "estimates": dict(_TORUS_ESTIMATES, center=center),
        "theorems": theorems,
        "seed": seed,
    }


def write_config(name: str, seed: int, root, work):
    """Path of the config the program runs, and its parsed document.

    sphere-golden runs the committed golden config in place; the torus
    workloads get a generated file in the work directory.
    """
    if name == "sphere-golden":
        path = golden_config_path(root)
        return path, json.loads(path.read_text())
    doc = torus_config(name, seed)
    path = work / "config.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path, doc
