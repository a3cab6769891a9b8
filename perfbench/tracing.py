"""Spans around the public calls of harmonic_ports, recorded from outside.

The benchmark times each layer without touching the program: it rebinds
the module attributes that name a public function to a wrapper that
records a span (name, start, end, parent span, run id).  A name must be
rebound in every module that imported it, because a module calls an
imported function through its own globals; `sim.run` reaches
`power_balance` as `harmonic_ports.sim.power_balance`, not through
`harmonic_ports.stokesdirac`.  Methods of `Metric` are rebound on the
class.  Spans stay in memory and are written out when the job ends.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (module, attribute, span name).  A span name is <module>.<function>;
# the Metric constructor is `metric.Metric`.
FUNCTIONS = [
    ("io", "read_mesh", "io.read_mesh"),
    ("io", "write_trace_csv", "io.write_trace_csv"),
    ("mesh", "validate_manifold", "mesh.validate_manifold"),
    ("mesh", "betti_numbers", "mesh.betti_numbers"),
    ("hodge", "harmonic_basis", "hodge.harmonic_basis"),
    ("hodge", "hodge_morrey_friedrichs", "hodge.hodge_morrey_friedrichs"),
    ("stokesdirac", "system_operators", "stokesdirac.system_operators"),
    ("stokesdirac", "power_balance", "stokesdirac.power_balance"),
    ("stokesdirac", "extended_power_balance", "stokesdirac.extended_power_balance"),
    ("stokesdirac", "harmonic_flow_identity", "stokesdirac.harmonic_flow_identity"),
    ("stokesdirac", "integrability_check", "stokesdirac.integrability_check"),
    ("sim", "run", "sim.run"),
    ("sim", "step_implicit_midpoint", "sim.step_implicit_midpoint"),
]
METRIC_METHODS = [
    ("__init__", "metric.Metric"),
    ("mass", "metric.mass"),
    ("wedge", "metric.wedge"),
]
SPAN_NAMES = ["cli.import"] + [s for _, _, s in FUNCTIONS] + [s for _, s in METRIC_METHODS]


class Tracer:
    """Records nested spans; a span's parent is the innermost open span."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self._open: list[int] = []

    def record(self, name: str, start: float, end: float):
        """Add a finished top-level span measured by the caller."""
        self.spans.append((name, start, end, -1, self.run_id))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._open.pop()
                self.spans[sid] = (name, start, end, parent, self.run_id)

        return traced

    def install(self, package):
        """Rebind every traced name in every loaded module of the package."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
        cls = sys.modules[f"{package.__name__}.metric"].Metric
        for attr, span in METRIC_METHODS:
            setattr(cls, attr, self.wrap(span, cls.__dict__[attr]))


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarize(spans: list) -> dict:
    """Per span name: self time, calls, first call, p50 and p99 of calls.

    Self time is a span's duration minus the time its direct children
    cover; children never overlap, since the program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "first_s": end - start, "durations": []})
        entry["self_s"] += (end - start) - child_time[i]
        entry["calls"] += 1
        entry["durations"].append(end - start)
    for entry in out.values():
        durations = sorted(entry.pop("durations"))
        entry["p50_ms"] = 1e3 * statistics.median(durations)
        entry["p99_ms"] = 1e3 * _percentile(durations, 0.99)
    return out


def covered_time(spans: list) -> float:
    """Time covered by top-level spans (they are sequential)."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
