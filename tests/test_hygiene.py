"""Hygiene checks on the package: its sources and the modules a run imports."""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nullflow"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_detector():
    assert unused_imports("import os\nimport numpy as np\nfrom a import b, c\nnp.x(c)\n") == [
        "b (line 3)", "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_benchmark_call_sites_exist():
    # nullbench/tracing.py wraps these names in the namespace of their caller;
    # a renamed or dropped one breaks `nullbench/run.py --trace 1`
    path = SRC.parents[1] / "nullbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("nullbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, span in tracing._CALLSITES:
        caller = importlib.import_module(f"nullflow.{module}")
        defining, name = span.rsplit(".", 1)
        # the caller's name is the function the span is named after
        assert getattr(caller, attr) is getattr(importlib.import_module(f"nullflow.{defining}"), name)
    cli = importlib.import_module("nullflow.cli")
    assert cli.verify is importlib.import_module("nullflow.estimates").verify
    assert "__post_init__" in vars(importlib.import_module("nullflow.metric").LeafMetric)


_COLD_RUN = """
import sys
from pathlib import Path

import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import nullflow
from nullflow.cli import main

assert scipy_modules() == [], scipy_modules()
config, out = sys.argv[1:]
assert main(["run", config, "--out", out]) == 0
assert main(["verify", str(Path(out) / "trajectory.csv"), "--theorem", "li-yau", "--params", config]) == 0
assert scipy_modules() == [], scipy_modules()

# the reparametrization loads its scipy routines when called
tstar = np.linspace(0.0, 1.0, 3001)
res = nullflow.distinguished_parameter(lambda t: np.full_like(t, 0.5), tstar)
assert np.max(np.abs(res.t_of_tstar - (np.exp(0.5 * tstar) - 1.0) / 0.5)) < 1e-8
assert {"scipy.integrate", "scipy.interpolate"} <= set(scipy_modules())
"""


def test_cold_golden_run_and_verify_load_no_scipy(tmp_path):
    # a sphere run never calls scipy, so `nullflow run` and `nullflow verify`
    # must not pay for importing it
    config = SRC.parents[1] / "tests" / "data" / "golden_config.json"
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
