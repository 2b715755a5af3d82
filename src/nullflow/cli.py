"""Command-line entry point.

    nullflow run <config.json> [--out DIR] [--seed N] [--strict]
    nullflow verify <trajectory.csv> --theorem <id> --params <config.json>

Exit codes: 0 when every requested inequality holds or is hypothesis
gated, 1 on any violation, 2 on a runtime error.  The engine steps
sequentially, so repeated runs give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import ConfigError, parse_config
from .estimates import HYPOTHESIS_VIOLATED, VIOLATED, build_cutoff, verify
from .flow import run_flow
from .report import (
    estimate_report_doc,
    margin_plot,
    read_trajectory_csv,
    render_json,
    run_report_doc,
    sphere_radius_plot,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


def _cmd_run(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        cfg.seed = args.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    t_start = time.perf_counter()
    metric = cfg.build_metric()
    u0 = cfg.build_heat_initial(metric)
    trajectory = run_flow(metric, cfg.flow, u0=u0)
    t_flow = time.perf_counter() - t_start

    cert = build_cutoff()
    t_start = time.perf_counter()
    reports = [verify(trajectory, tid, cfg.estimates, cert=cert) for tid in cfg.theorems]
    t_verify = time.perf_counter() - t_start

    write_trajectory_csv(out_dir / "trajectory.csv", trajectory)
    doc = run_report_doc(trajectory, reports, cfg.seed)
    (out_dir / "report.json").write_text(render_json(doc))
    if cfg.scenario["name"] == "round-sphere":
        (out_dir / "radius.svg").write_text(
            sphere_radius_plot(trajectory, cfg.scenario.get("radius", 1.0))
        )
    if any(rep.status != HYPOTHESIS_VIOLATED for rep in reports):
        (out_dir / "margins.svg").write_text(margin_plot(reports))

    print(f"termination: {trajectory.termination}")
    if trajectory.singular_time is not None:
        print(f"singular time: {trajectory.singular_time:.6g}")
    for rep in reports:
        extra = f" (failed hypothesis: {rep.failed_hypothesis})" if rep.failed_hypothesis else ""
        margin = "" if rep.status == HYPOTHESIS_VIOLATED else f", min margin {rep.min_margin:.6g}"
        print(f"{rep.theorem}: {rep.status}{margin}{extra}")
    print(f"timings: flow {t_flow:.2f}s, verification {t_verify:.2f}s")

    bad = {VIOLATED}
    if args.strict:
        bad.add(HYPOTHESIS_VIOLATED)
    if any(rep.status in bad for rep in reports):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = parse_config(Path(args.params).read_text())
    if cfg.estimates is None:
        raise ConfigError("the params config needs an estimates section")
    trajectory = read_trajectory_csv(args.trajectory, cfg.build_metric().grid)
    rep = verify(trajectory, args.theorem, cfg.estimates, cert=build_cutoff())
    sys.stdout.write(render_json(estimate_report_doc(rep)))
    return EXIT_VIOLATION if rep.status == VIOLATED else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullflow",
        description="Degenerate Ricci-type flow simulator and gradient-estimate checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured flow and verify estimates")
    p_run.add_argument("config", help="path to a JSON run configuration")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--strict", action="store_true",
                       help="treat hypothesis-gated results as violations")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="verify one inequality on a stored trajectory")
    p_ver.add_argument("trajectory", help="trajectory CSV produced by `nullflow run`")
    p_ver.add_argument("--theorem", required=True, help="inequality id to check")
    p_ver.add_argument("--params", required=True,
                       help="config file providing scenario and estimate parameters")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except Exception as exc:  # runtime errors map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
