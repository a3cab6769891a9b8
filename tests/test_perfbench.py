"""The benchmark's jobs (perfbench/job.py) against this library.

Each workload's job runs in-process on its smoke mesh, generated as the
benchmark generates it, and every check it counts must pass; job.py's
traced mode also reads the library's public return values to count
array sizes.  A library change that would make a benchmark run fail or
count a failed check fails here first.
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
    import run as perfbench_run
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", sorted(perfbench_job.WORKLOADS))
def test_traced_counts_on_smoke_meshes(name):
    spec = perfbench_job.workload_spec(name, smoke=True)
    metric = metric_for(spec["shape"], spec["resolution"])
    counts = perfbench_job.computed_counts(hp, spec, metric)
    assert counts
    assert all(math.isfinite(v) for v in counts.values())


@pytest.mark.parametrize("name", sorted(perfbench_job.WORKLOADS))
def test_job_checks_pass_on_smoke_meshes(name, tmp_path):
    spec = perfbench_job.workload_spec(name, smoke=True)
    mesh = perfbench_run.make_inputs(hp, spec, 7, str(tmp_path))
    job = perfbench_job.Job()
    report, *_ = perfbench_job.JOBS[spec["kind"]](hp, spec, mesh, 7, str(tmp_path), job)
    assert job.checks
    job.check("report_finite", all(math.isfinite(x) for x in perfbench_job._floats(report)))
    assert [check for check, ok in job.checks if not ok] == []
