"""Hygiene checks on the package: its sources and the modules a run imports."""
import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
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
    # nullbench/setup_probe.py times these calls, by these names
    nullflow = importlib.import_module("nullflow")
    assert callable(nullflow.parse_config) and callable(nullflow.build_cutoff)
    run_config = importlib.import_module("nullflow.config").RunConfig
    assert list(inspect.signature(run_config.build_metric).parameters) == ["self"]
    assert list(inspect.signature(run_config.build_heat_initial).parameters) == ["self", "metric"]


def _raises(func, names) -> bool:
    """Whether a raise statement in ``func`` names one of the exceptions ``names``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in names:
                return True
    return False


def test_only_leaf_metric_raises_a_metric_error():
    # a metric is checked where it is made, so no kernel checks it again
    tree = ast.parse((SRC / "metric.py").read_text())
    funcs = [f for f in tree.body if isinstance(f, ast.FunctionDef)] + [
        f for c in tree.body if isinstance(c, ast.ClassDef) and c.name != "LeafMetric"
        for f in c.body if isinstance(f, ast.FunctionDef)]
    assert [f.name for f in funcs if f.name != "_min_eigenvalue"
            and _raises(f, {"MetricError", "SingularMetricError"})] == []


def test_run_and_verify_make_their_scenario_metric_once(tmp_path, monkeypatch):
    from nullflow import config
    from nullflow.cli import main

    made = []
    build = config.build_scenario_metric
    monkeypatch.setattr(config, "build_scenario_metric", lambda *a, **k: made.append(1) or build(*a, **k))
    golden = str(SRC.parents[1] / "tests" / "data" / "golden_config.json")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", golden, "--out", str(out)]) == 0
        assert len(made) == 1
        assert main(["verify", str(out / "trajectory.csv"), "--theorem", "li-yau", "--params", golden]) == 0
    assert len(made) == 2


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


_FAILING_HYPOTHESIS_TEST = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_fails_without_aborting_the_suite(tmp_path):
    # under the suite's warning filters: hypothesis imports libcst to report a
    # failing example, and the DeprecationWarning of that import must not turn
    # into a pytest INTERNALERROR (exit 3) that stops the tests after it
    (tmp_path / "test_a_fails.py").write_text(_FAILING_HYPOTHESIS_TEST)
    (tmp_path / "test_b_passes.py").write_text("def test_passes():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(SRC.parents[1] / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout and "INTERNALERROR" not in proc.stdout + proc.stderr


# Defined in the package but entered by no `nullflow run` or `nullflow verify`
# path, each with the reason it stays.  Everything else a CLI path does not
# reach is surface only tests use, and goes.
_UNREACHED_BY_DESIGN = {
    "nullgeom": "the null-structure layer of acceptance criteria 9 and 10",
    "metric.bochner_residual": "an identity residual of acceptance criterion 5",
    "metric.ricci_identity_residual": "an identity residual of acceptance criterion 5",
    "metric.gradient": "ricci_identity_residual's gradient",
    "metric.hessian": "the Hessian of both residuals",
    "metric._trace": "the trace of that Hessian in ricci_identity_residual",
    "grids.mixed_deriv": "hessian's mixed derivative, wrapped by nullbench/tracing.py",
    "metric.christoffel": "the Christoffel symbols of hessian, for both residuals, wrapped by "
                          "nullbench/tracing.py",
    "metric.CurvaturePack.christoffel": "a pack's cached christoffel, for both residuals",
    "metric.LeafMetric.inverse": "g^ab for the residuals; the kernels read g^00 and g^11 off a pack",
    "metric.LeafMetric.comps": "the 2x2 components, for christoffel, inverse and nullgeom; the CSV "
                               "writer and the distances read w",
    "metric.CurvaturePack.ginv": "a pack's cached inverse, for both residuals",
}

_TORUS = {
    "scenario": {"name": "torus-bump", "amp": 0.3, "resolution": 16},
    "flow": {"t_end": 0.1, "dt_initial": 0.002, "heat": "heat", "sample_every": 10},
    "heat_initial": "cosine-mode",
    "estimates": {"alpha": 2.0, "p": 4.0, "q": 4.0, "rho": 0.8, "center": [3, 12]},
    "theorems": ["log-gradient-backward", "log-gradient-forward", "harnack-local", "harnack-global", "li-yau"],
}
_FLAT_BACKWARD = dict(
    _TORUS,
    scenario={"name": "flat-torus", "resolution": 16},
    flow={"direction": "backward", "t_end": 0.02, "dt_initial": 0.001, "heat": "conjugate-heat",
          "sample_every": 10},
    theorems=["log-gradient-backward"],
)
_MALFORMED = '{"scenario": {"name": "round-sphere", "radius": NaN}}'


def defined_functions() -> dict:
    """Every function and method in the package's sources, as
    (file, first line of its code object) -> "module.Qual.name"."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in MODULES:
        visit(ast.parse(path.read_text()), path, "")
    return out


def test_every_function_is_reached_by_a_cli_path(tmp_path):
    from nullflow.cli import main

    runs = [(SRC.parents[1] / "tests" / "data" / "golden_config.json", "li-yau", 0)]
    for name, doc, code in (("torus", _TORUS, 0), ("flat", _FLAT_BACKWARD, 0), ("malformed", None, 2)):
        path = tmp_path / f"{name}.json"
        path.write_text(_MALFORMED if doc is None else json.dumps(doc))
        runs.append((path, "log-gradient-backward", code))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for config, theorem, code in runs:
            out = tmp_path / config.stem
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(["run", str(config), "--out", str(out)]) == code
                csv = str(out / "trajectory.csv")
                assert main(["verify", csv, "--theorem", theorem, "--params", str(config)]) == code
    finally:
        sys.setprofile(None)

    unreached = sorted(name for key, name in defined_functions().items() if key not in entered)
    exempt = [e for e in _UNREACHED_BY_DESIGN if e in unreached or any(n.startswith(e + ".") for n in unreached)]
    assert [n for n in unreached if not any(n == e or n.startswith(e + ".") for e in exempt)] == []
    # every entry still names code that exists and that no CLI path reaches
    assert exempt == list(_UNREACHED_BY_DESIGN)
