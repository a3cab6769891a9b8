"""Smoke test of the benchmark at the acceptance sizes (torus:5, ball:2).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with --smoke and checks
that the last output line names every metric of BENCHMARK.json with its
unit, that end-to-end values are positive and that no check failed.  It
also checks that the benchmark exits non-zero, printing no result, when
the program sources are missing.  Takes a few seconds; it is not part of
the tier-1 test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from job import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from job.WORKLOADS")

    for name in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "0",
                             "--trace", str(trace), "--smoke")
            result = last_json(proc.stdout)
            tag = f"{name} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                diff = sorted(set(got.items()) ^ set(expected[trace].items()))
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: {diff}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: failed {result['failed']} of {result['attempted']}")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
                if zero:
                    problems.append(f"{tag}: non-positive end-to-end metrics {zero}")
            print(f"ok   {tag}: {len(got)} metrics, {result['attempted']} checks", flush=True)

    # Without the program sources the benchmark must fail and print no result.
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-selftest-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(bare), "--workload", next(iter(WORKLOADS)), "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            problems.append("without src/ the benchmark did not fail cleanly")
        else:
            print(f"ok   without src/: exit {proc.returncode}, no result", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
