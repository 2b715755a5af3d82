"""nullflow benchmark: one workload as a closed loop in this process.

    python3 nullbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it finds the checkout from its own location and
imports nullflow from ``src/`` there.  Workloads are described in
``workloads.py``.  One iteration is ``nullflow run <config> --out DIR``
followed by ``nullflow verify DIR/trajectory.csv --theorem <first>``,
both called in process through ``nullflow.cli.main``; the next iteration
starts when the previous one has finished.  Iterations repeat until the
next one would overrun ``--seconds``, with at least one.  Afterwards the
other theorems are re-verified once, untimed, to count run/verify
mismatches.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over iterations.  ``setup_s`` is the median of several cold
set-ups, each in a fresh interpreter (``setup_probe.py``).  Every time
is host-normalized by the probes of ``hostspeed.py`` taken nearest to it
(``normalized_sample``): probes bracket each set-up, each command and
each call of run_flow, verify and write_trajectory_csv, and their own
time is not counted; stages listed in ``workloads.RAW_STAGES`` stay raw.
The raw medians are printed beside the normalized ones.  The process, its children and the probes stay on one CPU.  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics of BENCHMARK.json from the traced ones (``tracing.py``), in raw
seconds.

Every iteration checks the program's output: exit codes, the report
against the golden file (sphere-golden) or against ``reference/``
(torus workloads), and that repeated iterations write identical
reports.  After a change that legitimately alters a torus report, copy
``.nullbench_work/<workload>-s0-t0/out/report.json`` from a seed-0 run
over ``reference/<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (correctness checks) and
``metrics``.  Raw samples, the host and the spans of the last traced
iteration are written under ``.nullbench_work/`` in the checkout.
"""
import os

# single-threaded baseline: must be set before numpy loads OpenBLAS
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["NULLFLOW_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
from tracing import STENCILS, VALIDATE, VERIFY_PREFIX, StageTimers, Tracer
from workloads import (
    DEFAULT_SEED,
    RAW_STAGES,
    THEOREM_IDS,
    WORKLOADS,
    golden_config_path,
    golden_report_path,
    write_config,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".nullbench_work"

SETUP_REPEATS = 5
# stated tolerance for floats in the torus reference reports; values that
# are zero in the reference are compared against ABS_TOL instead
REL_TOL = 1e-9
ABS_TOL = 1e-12
STAGES = ("flow_s", "verify_s", "csv_write_s")
MODULES = ("config", "scenarios", "grids", "metric", "flow", "distance",
           "estimates", "report", "cli")


class BenchError(RuntimeError):
    pass


class Checks:
    """Correctness checks, counted against those attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _program_files():
    return [ROOT / "BENCHMARK.json", ROOT / "src" / "nullflow" / "__init__.py",
            golden_config_path(ROOT), golden_report_path(ROOT)]


def _import_nullflow():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import nullflow
    import nullflow.cli

    if Path(nullflow.__file__).resolve().parent != ROOT / "src" / "nullflow":
        raise BenchError(f"imported nullflow from {nullflow.__file__}, not from this checkout")
    return nullflow, numpy, scipy


def pin_to_one_cpu():
    """Keep this process, its set-up children and the host-speed probes on
    one CPU, so that a probe sees the same CPU as the work it brackets.
    Returns the CPUs that were available."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus


def host_info(numpy, scipy, cpus):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(cpus),
        "pinned_cpu": cpus[-1],
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "NULLFLOW_THREADS": os.environ["NULLFLOW_THREADS"],
    }


def measure_setup(config_path):
    """Cold set-ups, each in a fresh interpreter: raw seconds and the
    host-speed probe around each."""
    samples = []
    before = hostspeed.probe()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), str(config_path)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        after = hostspeed.probe()
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append({"setup_s": seconds, "probe_before": before, "probe_after": after})
        before = after
    return samples


# --- report comparison ------------------------------------------------------


def _diff(got, ref, path, out):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            out.append(f"{path}: keys differ")
            return
        for key in ref:
            _diff(got[key], ref[key], f"{path}.{key}", out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.append(f"{path}: lengths differ")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _diff(g, r, f"{path}[{i}]", out)
    elif isinstance(ref, float) and isinstance(got, float):
        if not math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"{path}: {got!r} != {ref!r}")
    elif type(got) is not type(ref) or got != ref:
        out.append(f"{path}: {got!r} != {ref!r}")


def _outline(doc):
    """The parts of a torus report that do not depend on the seed."""
    return {
        "termination": doc["termination"],
        "num_samples": doc["num_samples"],
        "t_final": doc["t_final"],
        "theorems": [[t["theorem"], t["status"], t["failed_hypothesis"]]
                     for t in doc["theorems"]],
    }


def reference_diffs(report, reference, exact):
    """Differences from the reference: every field when ``exact`` (the
    reference seed), otherwise the seed-independent outline.  Statuses,
    failed_hypothesis and integers compare exactly, floats to REL_TOL."""
    out = []
    if exact:
        _diff(report, reference, "report", out)
    else:
        _diff(_outline(report), _outline(reference), "report", out)
    return out


# --- one iteration ----------------------------------------------------------


def iterate(nullflow, timers, cfg_path, out, theorems, traced):
    """`nullflow run` then `nullflow verify` of the first theorem.

    A traced iteration records spans around every call site and adds its
    per-layer metrics under ``"layers"``.
    """
    cli = nullflow.cli
    if out.exists():
        shutil.rmtree(out)
    timers.clear()
    # probes inside a traced run would land in its spans
    timers.probing = not traced
    tracer = Tracer() if traced else None
    root = tracer.span if traced else (lambda name: contextlib.nullcontext())
    if traced:
        tracer.install(nullflow)
    try:
        with contextlib.redirect_stdout(io.StringIO()), root("cli.main.run") as run_root:
            t0 = perf_counter()
            run_code = cli.main(["run", str(cfg_path), "--out", str(out)])
            run_s = perf_counter() - t0
        run_calls, run_probe_s = timers.take()
        probe_mid = hostspeed.probe()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), root("cli.main.verify") as verify_root:
            t0 = perf_counter()
            verify_code = cli.main(["verify", str(out / "trajectory.csv"), "--theorem",
                                    theorems[0], "--params", str(cfg_path)])
            reverify_s = perf_counter() - t0
        reverify_calls, reverify_probe_s = timers.take()
    finally:
        if traced:
            tracer.uninstall()
    sample = {
        "run_s": run_s - run_probe_s,
        "reverify_s": reverify_s - reverify_probe_s,
        "run_calls": run_calls,
        "reverify_calls": reverify_calls,
        "probe_mid": probe_mid,
    }
    for key in STAGES:
        sample[key] = sum(seconds for name, seconds, _, _ in run_calls if name == key)
    path = out / "report.json"
    it = {
        "sample": sample,
        "run_code": run_code,
        "verify_code": verify_code,
        "verify_doc": printed.getvalue(),
        "report": path.read_bytes() if path.is_file() else b"",
    }
    if traced:
        if run_code != 0:
            raise BenchError(f"traced `nullflow run` exited {run_code}")
        it["tracer"] = tracer
        it["trajectory"] = timers.trajectory
        it["layers"] = layer_metrics(tracer, (run_root, verify_root), timers.trajectory, out,
                                     theorems, json.loads(it["report"]))
    timers.clear()
    return it


def normalized_sample(sample, raw_stages=()):
    """Host-normalized seconds of one iteration.  Each stage call counts at
    the speed of the probes bracketing it; the rest of a command at the
    speed of the probes around the command ("before" the run, "mid"
    between it and the re-verify, "after" the re-verify).  Calls of
    ``raw_stages`` keep their raw seconds."""

    def stage(call, outer):
        name, seconds, before, after = call
        if name in raw_stages:
            return seconds
        return hostspeed.normalize(seconds, outer if before is None else (before, after))

    def command(seconds, calls, outer):
        rest = seconds - sum(call[1] for call in calls)
        return sum(stage(c, outer) for c in calls) + hostspeed.normalize(rest, outer)

    run_outer = (sample["probe_before"], sample["probe_mid"])
    out = {
        "run_s": command(sample["run_s"], sample["run_calls"], run_outer),
        "reverify_s": command(sample["reverify_s"], sample["reverify_calls"],
                              (sample["probe_mid"], sample["probe_after"])),
    }
    for key in STAGES:
        out[key] = sum(stage(c, run_outer) for c in sample["run_calls"] if c[0] == key)
    return out


def check_iteration(checks, it, expected_report, reference, exact, first_report):
    checks.expect(it["run_code"] == 0, f"`nullflow run` exited {it['run_code']}, expected 0")
    checks.expect(it["verify_code"] == 0,
                  f"`nullflow verify` exited {it['verify_code']}, expected 0")
    blob = it["report"]
    if expected_report is not None:
        checks.expect(blob == expected_report, "report.json differs from the golden report")
    else:
        try:
            diffs = reference_diffs(json.loads(blob), reference, exact)
        except (ValueError, KeyError, TypeError) as exc:
            diffs = [f"unreadable report: {exc}"]
        checks.expect(not diffs, "report differs from reference: " + "; ".join(diffs[:5]))
    if first_report is not None:
        checks.expect(blob == first_report, "report.json changed between iterations")


def reverify_mismatches(cli, checks, cfg_path, out, theorems, it):
    """Theorems whose `nullflow verify` report differs from the `run` report
    of iteration ``it``, whose outputs are still in ``out``."""
    try:
        run_docs = {t["theorem"]: t for t in json.loads(it["report"])["theorems"]}
    except ValueError:
        run_docs = {}
    mismatches = 0
    for tid in theorems:
        if tid == theorems[0]:
            printed = it["verify_doc"]
        else:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", str(out / "trajectory.csv"), "--theorem", tid,
                                 "--params", str(cfg_path)])
            checks.expect(code == 0, f"`nullflow verify --theorem {tid}` exited {code}, expected 0")
            printed = buf.getvalue()
        try:
            same = json.loads(printed) == run_docs.get(tid)
        except ValueError:
            same = False
        mismatches += not same
    return mismatches


# --- per-layer metrics ------------------------------------------------------


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if hasattr(v, "nbytes"))


def trajectory_bytes(traj) -> int:
    """Stored metrics, heat fields and cached curvature packs."""
    parts = list(traj.metrics) + list(traj.heat_fields or []) + [
        p for p in traj.curvatures if p is not None]
    return sum(_array_bytes(p) for p in parts)


def layer_metrics(tracer, roots, traj, out, theorems, report):
    run_root, verify_root = roots
    calls, secs, self_s = tracer.aggregate(run_root)
    _, verify_secs, _ = tracer.aggregate(verify_root)
    csv = (out / "trajectory.csv").read_bytes()
    m = {
        "flow.step_flow.calls": calls["flow.step_flow"],
        "flow.step_flow.s": secs["flow.step_flow"],
        "flow.heat.laplace_calls": calls["metric.laplace_beltrami"],
        "flow.heat.laplace_s": secs["metric.laplace_beltrami"],
        "metric.christoffel.calls": calls["metric.christoffel"],
        "metric.christoffel.s": secs["metric.christoffel"],
        "metric.ricci.calls": calls["metric.ricci"],
        "metric.ricci.s": secs["metric.ricci"],
        "metric.leafmetric.constructed": calls[VALIDATE],
        "metric.leafmetric.validate_s": secs[VALIDATE],
        "flow.curvature_pack.calls": calls["metric.curvature"],
        "flow.curvature_pack.s": secs["metric.curvature"],
        "grids.stencil.calls": sum(calls[s] for s in STENCILS),
        "grids.stencil.s": sum(secs[s] for s in STENCILS),
        "grids.stencil.bytes_computed": tracer.stencil_bytes[run_root],
        "distance.geodesic_distance.calls": calls["distance.geodesic_distance"],
        "distance.geodesic_distance.s": secs["distance.geodesic_distance"],
        "distance.calls_per_sample": calls["distance.geodesic_distance"] / len(traj.times),
        "estimates.admissible_points": sum(t["admissible_points"] for t in report["theorems"]),
        "estimates.judged_ratio": sum(t["status"] != "hypothesis-violated"
                                      for t in report["theorems"]) / len(theorems),
        "estimates.build_cutoff.s": secs["estimates.build_cutoff"],
        "report.write_trajectory_csv.s": secs["report.write_trajectory_csv"],
        "report.csv_rows": csv.count(b"\n") - 1,
        "report.csv_bytes": len(csv),
        "report.read_trajectory_csv.s": verify_secs["report.read_trajectory_csv"],
        "config.parse_config.s": secs["config.parse_config"],
        "scenarios.build_scenario_metric.s": secs["scenarios.build_scenario_metric"],
        "flow.trajectory_bytes": trajectory_bytes(traj),
    }
    for tid in theorems:
        m[f"estimates.verify.{tid}.s"] = secs[VERIFY_PREFIX + tid]
    for module in MODULES:
        m[f"self.{module}.s"] = self_s[module]
    return m


def time_unrequested(nullflow, tracer, traj, cfg_path, theorems):
    """Verify seconds for theorems the workload does not request: one
    direct ``verify`` call each on the traced run's trajectory."""
    cfg = nullflow.parse_config(cfg_path.read_text())
    cert = nullflow.build_cutoff()
    tracer.install(nullflow)
    try:
        with tracer.span("unrequested") as root:
            for tid in THEOREM_IDS:
                if tid not in theorems:
                    nullflow.cli.verify(traj, tid, cfg.estimates, cert=cert)
    finally:
        tracer.uninstall()
    _, secs, _ = tracer.aggregate(root)
    return {f"estimates.verify.{tid}.s": secs[VERIFY_PREFIX + tid]
            for tid in THEOREM_IDS if tid not in theorems}


# --- the run ----------------------------------------------------------------


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bench(workload, seed, seconds, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    work = WORK / f"{workload}-s{seed}-t{int(trace)}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out = work / "out"

    cfg_path, cfg_doc = write_config(workload, seed, ROOT, work)
    theorems = list(cfg_doc["theorems"])
    exact = seed == DEFAULT_SEED
    golden = reference = None
    if workload == "sphere-golden":
        golden = golden_report_path(ROOT).read_bytes()
    else:
        reference = json.loads((HERE / "reference" / f"{workload}.json").read_text())

    cpus = pin_to_one_cpu()
    setup = [] if trace else measure_setup(cfg_path)
    nullflow, numpy, scipy = _import_nullflow()
    host = host_info(numpy, scipy, cpus)
    cli = nullflow.cli
    timers = StageTimers(cli, hostspeed.probe)
    checks = Checks()

    samples = {False: [], True: []}  # traced? -> per-iteration raw seconds
    layers = []
    first = last_traced = None
    peak_rss_mb = None
    start = perf_counter()
    longest = 0.0
    before = hostspeed.probe()
    while True:
        traced = trace and len(samples[True]) < len(samples[False])
        t0 = perf_counter()
        it = iterate(nullflow, timers, cfg_path, out, theorems, traced)
        after = hostspeed.probe()
        it["sample"].update(probe_before=before, probe_after=after)
        before = after
        longest = max(longest, perf_counter() - t0)
        check_iteration(checks, it, golden, reference, exact, first and first["report"])
        samples[traced].append(it["sample"])
        if traced:
            layers.append(it["layers"])
            last_traced = it
        if first is None:
            # one `nullflow run` per process is what a user sees
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first = it
        enough = samples[False] and (samples[True] or not trace)
        if enough and perf_counter() - start + longest > seconds:
            break
    elapsed = perf_counter() - start
    timers.uninstall()
    mismatches = reverify_mismatches(cli, checks, cfg_path, out, theorems, it)

    raw_stages = RAW_STAGES.get(workload, ())
    norm = {traced: [normalized_sample(r, raw_stages) for r in rows]
            for traced, rows in samples.items()}
    probes = [v for r in setup + samples[False] + samples[True]
              for k, v in r.items() if k.startswith("probe_")]
    series = {}
    raw = {}
    if trace:
        tracer = last_traced["tracer"]
        extra = time_unrequested(nullflow, tracer, last_traced["trajectory"], cfg_path, theorems)
        tracer.write(work / "spans.jsonl")
        for key in layers[0]:
            values = [lay[key] for lay in layers]
            if units[key] == "s":
                series[key] = values
            else:
                checks.expect(len(set(values)) == 1, f"{key} differs between traced iterations")
                series[key] = values[:1]
        for key, value in extra.items():
            series[key] = [value]
        series["reverify_mismatches"] = [mismatches]
        series["host.probe_s"] = probes
        series["trace.overhead_s"] = [
            statistics.median(n["run_s"] for n in norm[True])
            - statistics.median(n["run_s"] for n in norm[False])]
    else:
        series["setup_s"] = [hostspeed.normalize(r["setup_s"], (r["probe_before"], r["probe_after"]))
                             for r in setup]
        raw["setup_s"] = [r["setup_s"] for r in setup]
        for key in ("run_s", *STAGES, "reverify_s"):
            series[key] = [n[key] for n in norm[False]]
            raw[key] = [r[key] for r in samples[False]]
        series["peak_rss_mb"] = [peak_rss_mb]

    missing = sorted(set(units) ^ set(series))
    if missing:
        raise BenchError(f"metrics produced and declared in BENCHMARK.json differ: {missing}")
    metrics = {k: {"value": statistics.median(series[k]), "unit": units[k]} for k in units}

    host["probe_s"] = statistics.median(probes)
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"workload: {workload} seed {seed} ({len(samples[False])} untraced, "
          f"{len(samples[True])} traced iterations in {elapsed:.1f} s)")
    print("config: " + json.dumps(cfg_doc, sort_keys=True))
    if not trace:
        print(f"times are host-normalized seconds (hostspeed.py, reference probe "
              f"{hostspeed.REFERENCE_S} s), except raw {list(raw_stages)}; "
              f"raw medians in the last column")
    print(f"{'metric':40s} {'median':>14s} {'q1':>12s} {'q3':>12s}  n  unit  {'raw':>10s}")
    for key in units:
        q1, q3 = _quartiles(series[key])
        raw_median = f"{statistics.median(raw[key]):10.6g}" if key in raw else ""
        print(f"{key:40s} {metrics[key]['value']:14.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(series[key]):2d}  {units[key]:4s}  {raw_median}")
    if not trace:
        print(f"{'reverify_mismatches':40s} {mismatches:14d}{'':29s}  count")
    print(f"{'failed_checks':40s} {len(checks.failures):14d}{'':29s}  count "
          f"(of {checks.attempted} attempted)")
    for failure in checks.failures:
        print("FAILED: " + failure)
    (work / "result.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "trace": trace, "host": host,
        "config": cfg_doc, "setup": setup, "samples": samples, "series": series,
        "reverify_mismatches": mismatches, "failures": checks.failures,
    }, indent=1, default=str))
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in _program_files() if not p.is_file()]
    if missing:
        print(f"nullbench: not a nullflow checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"nullbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
