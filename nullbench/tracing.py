"""Timers and spans installed around nullflow's public functions.

Everything is measured from outside the program.  Modules import their
helpers by name (``from .metric import ricci``), so a wrapper is
installed in the namespace of the *caller* (``nullflow.flow.ricci``);
patching the defining module would miss those calls.  Every wrapper is
removed again by ``uninstall``.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (caller module, attribute, span name).  A span name is
# "<defining module>.<function>", so self time groups by module.
_CALLSITES = (
    ("cli", "parse_config", "config.parse_config"),
    ("cli", "run_flow", "flow.run_flow"),
    ("cli", "build_cutoff", "estimates.build_cutoff"),
    ("cli", "write_trajectory_csv", "report.write_trajectory_csv"),
    ("cli", "read_trajectory_csv", "report.read_trajectory_csv"),
    ("cli", "run_report_doc", "report.run_report_doc"),
    ("cli", "render_json", "report.render_json"),
    ("cli", "sphere_radius_plot", "report.sphere_radius_plot"),
    ("cli", "margin_plot", "report.margin_plot"),
    ("config", "build_scenario_metric", "scenarios.build_scenario_metric"),
    ("flow", "step_flow", "flow.step_flow"),
    ("flow", "ricci", "metric.ricci"),
    ("flow", "laplace_beltrami", "metric.laplace_beltrami"),
    ("flow", "curvature_pack", "metric.curvature"),
    ("metric", "christoffel", "metric.christoffel"),
    ("metric", "partial_deriv", "grids.partial_deriv"),
    ("metric", "second_deriv", "grids.second_deriv"),
    ("metric", "mixed_deriv", "grids.mixed_deriv"),
    ("estimates", "geodesic_distance", "distance.geodesic_distance"),
    ("estimates", "grad_norm_sq", "metric.grad_norm_sq"),
)

STENCILS = ("grids.partial_deriv", "grids.second_deriv", "grids.mixed_deriv")
VALIDATE = "metric.LeafMetric.__post_init__"
VERIFY_PREFIX = "estimates.verify."


def _stencil_bytes(args, kwargs, out) -> int:
    """Input plus output array bytes of one stencil call (computed, not measured)."""
    values = args[1] if len(args) > 1 else kwargs["values"]
    return np.asarray(values).nbytes + out.nbytes


def _verify_name(args, kwargs) -> str:
    theorem = args[1] if len(args) > 1 else kwargs["theorem"]
    return VERIFY_PREFIX + theorem


class StageTimers:
    """Wall time of each call to the three stages of `nullflow run`.

    Seven calls per run at most, so these stay installed during untraced
    iterations.  When ``probing`` is on, each call is bracketed by
    host-speed probes, recorded as ``(key, seconds, probe before, probe
    after)`` in ``calls``; ``probe_s`` is the wall time the probes took.
    The last trajectory returned by run_flow is kept until ``clear`` so
    that a traced iteration can size it.
    """

    NAMES = {"run_flow": "flow_s", "verify": "verify_s", "write_trajectory_csv": "csv_write_s"}

    def __init__(self, cli, probe):
        self.probing = True
        self.trajectory = None
        self._probe_fn = probe
        self._cli = cli
        self._saved = {}
        self.calls, self.probe_s = [], 0.0
        for attr, key in self.NAMES.items():
            fn = getattr(cli, attr)
            self._saved[attr] = fn
            setattr(cli, attr, self._timed(fn, key, attr == "run_flow"))

    def _probe(self):
        if not self.probing:
            return None
        t0 = perf_counter()
        value = self._probe_fn()
        self.probe_s += perf_counter() - t0
        return value

    def _timed(self, fn, key, keep):
        def wrapper(*args, **kwargs):
            before = self._probe()
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            seconds = perf_counter() - t0
            self.calls.append((key, seconds, before, self._probe()))
            if keep:
                self.trajectory = out
            return out

        return wrapper

    def take(self):
        """The calls and probe seconds recorded since the last take."""
        calls, probe_s = self.calls, self.probe_s
        self.calls, self.probe_s = [], 0.0
        return calls, probe_s

    def clear(self):
        self.take()
        self.trajectory = None

    def uninstall(self):
        for attr, fn in self._saved.items():
            setattr(self._cli, attr, fn)


class Tracer:
    """In-memory spans ``[id, name, start, end, parent id]`` plus byte counters."""

    def __init__(self):
        self.spans = []
        self.stencil_bytes = defaultdict(int)  # root span id -> computed bytes
        self._stack = []
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, 0.0, 0.0, parent]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[2] = perf_counter()
        return rec

    def _close(self, rec):
        rec[3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec[0]
        finally:
            self._close(rec)

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if rec[1] in STENCILS:
                self.stencil_bytes[self._root(rec[0])] += _stencil_bytes(args, kwargs, out)
            return out

        return wrapper

    def _root(self, sid):
        while self.spans[sid][4] is not None:
            sid = self.spans[sid][4]
        return sid

    def _patch(self, owner, attr, name):
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name))

    def install(self, nullflow):
        """Wrap every call site in ``_CALLSITES`` plus metric validation."""
        for module, attr, name in _CALLSITES:
            self._patch(getattr(nullflow, module), attr, name)
        self._patch(nullflow.cli, "verify", _verify_name)
        self._patch(nullflow.metric.LeafMetric, "__post_init__", VALIDATE)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def aggregate(self, root):
        """Calls and inclusive seconds per span name, and self seconds per
        module, over the spans under ``root`` (the root included)."""
        under = {root}
        calls = defaultdict(int)
        seconds = defaultdict(float)
        child_s = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            if sid != root and parent not in under:
                continue
            under.add(sid)
            calls[name] += 1
            seconds[name] += end - start
            if parent is not None:
                child_s[parent] += end - start
        self_s = defaultdict(float)
        for sid in under:
            _, name, start, end, _ = self.spans[sid]
            self_s[name.split(".")[0]] += end - start - child_s[sid]
        return calls, seconds, self_s

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
