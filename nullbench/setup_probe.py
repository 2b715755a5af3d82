"""Time one cold set-up of nullflow in a fresh interpreter.

    python3 setup_probe.py <src dir> <config.json>

Set-up is what every `nullflow run` pays before its flow starts:
importing the package, parsing the config, building the scenario metric
and the initial heat field, and certifying the cutoff.  Prints one JSON
object ``{"setup_s": seconds}``.
"""
import json
import sys
from pathlib import Path
from time import perf_counter


def main(src: str, config: str) -> None:
    text = Path(config).read_text()
    t0 = perf_counter()
    sys.path.insert(0, src)
    from nullflow import build_cutoff, parse_config

    cfg = parse_config(text)
    metric = cfg.build_metric()
    cfg.build_heat_initial(metric)
    build_cutoff()
    print(json.dumps({"setup_s": perf_counter() - t0}))


if __name__ == "__main__":
    main(*sys.argv[1:])
