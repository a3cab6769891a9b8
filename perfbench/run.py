"""Benchmark of harmonic-ports: one workload per run, each job in a fresh process.

    python3 perfbench/run.py --workload simulate-torus20 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, default settings

Run from anywhere; the program is always imported from the `src/` tree
next to this directory (never from an installed copy).  The run
generates its inputs from --seed into a temporary directory under
`.bench_tmp/`, then launches jobs (perfbench/job.py) one after another
while the next one is expected to end within --seconds, and at least
MIN_JOBS.  Every job of a run gets the same inputs, so their report and
trace digests must agree byte for byte.

With --trace 0 it prints the end-to-end metrics (medians over the jobs);
with --trace 1 it alternates untraced and traced jobs and prints the
per-layer metrics, the tracing overhead and the share of wall time no
span covers.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from job import WORKLOADS, workload_spec
from tracing import SPAN_NAMES, clock, covered_time, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread per process, at most nproc.  On a 2-vCPU Xeon VM
# the first Metric() at 2 threads sometimes burned about a second of extra
# CPU; at 1 thread it did not.  Set before numpy loads, so the parent's
# BLAS threads do not spin either.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MIN_JOBS = 3  # untraced jobs per --trace 0 run; a --trace 1 run makes one pair at least
JOB_DEADLINE_S = 170.0  # a whole run must end within 180 s

FIRST_CALL = [
    "sim.step_implicit_midpoint", "hodge.hodge_morrey_friedrichs", "hodge.harmonic_basis",
    "stokesdirac.power_balance", "stokesdirac.extended_power_balance",
]
PER_CALL = ["stokesdirac.power_balance", "sim.step_implicit_midpoint", "stokesdirac.extended_power_balance"]
COUNT_UNITS = {
    "metric.mass.bytes": "bytes", "sim.operator.bytes": "bytes",
    "metric.mass.density": "ratio", "metric.wedge.density": "ratio",
}
GAUGES = [
    "hodge.harmonic_basis.gap_ratio_min", "stokesdirac.split_residual_rel.max",
    "sim.energy_drift_rel", "hodge.hmf.recon_rel.max",
]
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.s"] = "s"
        units[f"{span}.calls"] = "count"
    for span in FIRST_CALL:
        units[f"{span}.first_s"] = "s"
    for span in PER_CALL:
        units[f"{span}.p50_ms"] = "ms"
        units[f"{span}.p99_ms"] = "ms"
    units.update(COUNT_UNITS)
    units.update({g: "ratio" for g in GAUGES})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.uncovered_share": "ratio"})
    return units


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np),
        "scipy_openblas": blas(scipy),
    }


def make_inputs(hp, spec: dict, seed: int, directory: str) -> str:
    """Generate the workload mesh, moved rigidly by a seeded rotation and
    translation (which changes no result), and write it as a mesh file."""
    import numpy as np

    rng = np.random.default_rng([seed, 0x6870])
    cx = hp.gen_mesh(spec["shape"], spec["resolution"])
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    cx.vertices = cx.vertices @ q.T + rng.uniform(-1.0, 1.0, 3)
    path = os.path.join(directory, "mesh.json")
    hp.write_mesh(cx, path)
    return path


def launch(name, mesh, seed, traced, run_id, tmp, smoke, deadline) -> dict:
    """Run one job and return its result with launch instant and peak RSS."""
    result_path = os.path.join(tmp, f"job-{run_id}.json")
    cmd = [
        sys.executable, str(HERE / "job.py"), "--workload", name, "--mesh", mesh,
        "--seed", str(seed), "--trace", str(int(traced)),
        "--out", os.path.join(tmp, f"job-{run_id}"), "--result", result_path,
        "--run-id", str(run_id),
    ] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t_launch = clock()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr.fileno(), cwd=str(ROOT))
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if clock() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"job {run_id} did not end before the deadline")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"job {run_id} exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["traced"] = traced
    result["launch"] = t_launch
    # ru_maxrss of this child alone (Linux reports KiB).
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def end_to_end(jobs: list) -> dict:
    samples = {
        "setup_s": [j["t_first"] - j["launch"] for j in jobs],
        "wall_s": [j["t_done"] - j["launch"] for j in jobs],
        "steps_per_s": [j["steps_per_s"] for j in jobs if j["steps_per_s"]],
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
    }
    return {name: (statistics.median(v) if v else 0.0, v) for name, v in samples.items()}


def per_layer(traced: list, untraced: list) -> dict:
    """Per layer figure, the (low) median over the traced jobs, so a count
    stays a count; zero where the workload never enters the layer."""
    stats = [summarize([tuple(s) for s in j.get("spans", [])]) for j in traced]
    values: dict = {}

    def put(key, per_job):
        values[key] = statistics.median_low(per_job)

    for span in SPAN_NAMES:
        put(f"{span}.s", [s.get(span, {}).get("self_s", 0.0) for s in stats])
        put(f"{span}.calls", [s.get(span, {}).get("calls", 0) for s in stats])
    for span in FIRST_CALL:
        put(f"{span}.first_s", [s.get(span, {}).get("first_s", 0.0) for s in stats])
    for span in PER_CALL:
        put(f"{span}.p50_ms", [s.get(span, {}).get("p50_ms", 0.0) for s in stats])
        put(f"{span}.p99_ms", [s.get(span, {}).get("p99_ms", 0.0) for s in stats])
    for key in COUNT_UNITS:
        put(key, [j.get("counts", {}).get(key, 0) for j in traced])
    for key in GAUGES:
        put(key, [j["gauges"].get(key, 0.0) for j in traced])
    traced_wall = end_to_end(traced)["wall_s"][0]
    put("trace.wall_s", [traced_wall])
    put("trace.overhead_s", [traced_wall - end_to_end(untraced)["wall_s"][0]])
    put("trace.uncovered_share", [
        1.0 - covered_time(j.get("spans", [])) / (j["t_done"] - j["launch"]) for j in traced
    ])
    return values


def bench_workload(hp, name: str, seed: int, seconds: float, trace: bool, smoke: bool, tmp: str):
    spec = workload_spec(name, smoke)
    mesh = make_inputs(hp, spec, seed, tmp)
    start = clock()
    deadline = start + JOB_DEADLINE_S
    jobs: list = []
    # A job is launched only when it is expected to end within --seconds
    # (a traced run counts in (untraced, traced) pairs), so a run lasts
    # about --seconds whatever the machine's speed.
    group = 2 if trace else 1
    minimum = 2 if trace else MIN_JOBS
    while True:
        if len(jobs) >= minimum:
            per_group = group * (clock() - start) / len(jobs)
            if clock() - start + per_group > seconds:
                break
        for _ in range(group):
            traced = trace and len(jobs) % 2 == 1
            jobs.append(launch(name, mesh, seed, traced, len(jobs), tmp, smoke, deadline))

    checks = [ok for j in jobs for _, ok in j["checks"]]
    digests = {(j["report_digest"], j["trace_digest"]) for j in jobs}
    deterministic = len(digests) == 1 and jobs[0]["report_digest"] is not None
    attempted = len(checks) + 1
    failed = checks.count(False) + (0 if deterministic else 1)
    untraced = [j for j in jobs if not j["traced"]]
    summary = {
        "workload": name, "seed": seed, "spec": spec, "jobs": len(jobs),
        "traced_jobs": sum(j["traced"] for j in jobs), "simplices": jobs[0]["simplices"],
        "attempted": attempted, "failed": failed,
        "errors": sorted({j["error"] for j in jobs if j["error"]}),
        "report_digest": jobs[0]["report_digest"], "trace_digest": jobs[0]["trace_digest"],
        "deterministic": deterministic,
        "end_to_end": end_to_end(untraced),
    }
    if trace:
        summary["per_layer"] = per_layer([j for j in jobs if j["traced"]], untraced)
    return summary


def print_summary(s: dict, env: dict, trace: bool) -> dict:
    """Print the human-readable table; return the metrics of the JSON line."""
    out = sys.stdout
    spec = " ".join(f"{k}={v}" for k, v in s["spec"].items())
    print(f"== {s['workload']}  seed {s['seed']}  jobs {s['jobs']} ({s['traced_jobs']} traced)  "
          f"simplices per degree {'/'.join(map(str, s['simplices']))}  ({spec})", file=out)
    print("   env " + " ".join(f"{k}={v}" for k, v in env.items()), file=out)
    print(f"   report sha256 {s['report_digest']}  trace sha256 {s['trace_digest']}  "
          f"identical across jobs: {s['deterministic']}", file=out)
    for err in s["errors"]:
        print(f"   error: {err}", file=out)
    share = s["failed"] / s["attempted"]
    print(f"   {'failed_share':28s} {share:12.6g} ratio  ({s['failed']} of {s['attempted']} checks)", file=out)
    metrics = {}
    if not trace:
        for name, (value, samples) in s["end_to_end"].items():
            unit = END_TO_END_UNITS[name]
            jobs = " ".join(f"{x:.4g}" for x in samples)
            print(f"   {name:28s} {value:12.6g} {unit:6s} (median of {len(samples)}: {jobs})", file=out)
            metrics[name] = {"value": value, "unit": unit}
        return metrics
    units = per_layer_units()
    layers = s["per_layer"]
    spans = sorted(SPAN_NAMES, key=lambda sp: -layers[f"{sp}.s"])
    print(f"   top layer by self time: {spans[0]}", file=out)
    for span in spans:
        keys = [k for k in units if k.startswith(span + ".")]
        print(f"   {span:36s} " + "  ".join(f"{k[len(span) + 1:]}={layers[k]:.6g}" for k in keys), file=out)
    for key in units:
        if not any(key.startswith(sp + ".") for sp in SPAN_NAMES):
            print(f"   {key:36s} {layers[key]:.6g} {units[key]}", file=out)
    return {k: {"value": layers[k], "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="acceptance-size meshes and short jobs (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "harmonic_ports" / "__init__.py").is_file():
        print(f"error: no harmonic_ports sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    import harmonic_ports as hp

    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    for name in names:
        tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
        try:
            s = bench_workload(hp, name, args.seed, args.seconds, bool(args.trace), args.smoke, tmp)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        metrics = print_summary(s, env, bool(args.trace))
        line = {"correct": s["failed"] == 0, "attempted": s["attempted"],
                "failed": s["failed"], "metrics": metrics}
        print(json.dumps(line), flush=True)
    try:
        scratch.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
