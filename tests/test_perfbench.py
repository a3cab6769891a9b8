"""The benchmark's traced mode (perfbench/job.py --trace 1) against this library.

job.py reads the library's public return values to count array sizes;
this runs that count on every workload's smoke mesh, so an API change
that would break the traced benchmark fails here first.
"""

import math
import sys
from pathlib import Path

import pytest

import harmonic_ports as hp

from conftest import metric_for

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

sys.path.insert(0, PERFBENCH)  # job.py imports its sibling tracing.py
try:
    import job as perfbench_job
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", sorted(perfbench_job.WORKLOADS))
def test_traced_counts_on_smoke_meshes(name):
    spec = perfbench_job.workload_spec(name, smoke=True)
    metric = metric_for(spec["shape"], spec["resolution"])
    counts = perfbench_job.computed_counts(hp, spec, metric)
    assert counts
    assert all(math.isfinite(v) for v in counts.values())
