"""One benchmark job, run in a fresh child process by run.py.

The job makes the calls the matching `harmonic_ports.cli.cmd_*` makes,
through the public API only, on a mesh file and a seed it is given.  It
checks every output, writes the report and trace digests, and records
three instants on the system-wide monotonic clock: before `import
harmonic_ports`, when the workload's first result exists, and when the
job is done and checked.  run.py subtracts its own launch instant.

    python3 perfbench/job.py --workload NAME --mesh FILE --seed N \
        --trace 0|1 --out DIR --result FILE [--run-id K] [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from tracing import Tracer, clock

# Workload parameters.  `smoke` replaces them with the acceptance sizes of
# tests/conftest.py (torus:5, ball:2) for the self-test.
WORKLOADS = {
    "simulate-torus20": {
        "kind": "simulate", "shape": "torus", "resolution": 20,
        "p": 1, "q": 2, "dt": 0.01, "steps": 250,
        "smoke": {"resolution": 5, "steps": 20},
    },
    "verify-ball5": {
        "kind": "verify", "shape": "ball", "resolution": 5,
        "p": 2, "q": 2, "states": 20,
        "smoke": {"resolution": 2, "states": 3},
    },
    "analyze-torus25": {
        "kind": "analyze", "shape": "torus", "resolution": 25,
        "smoke": {"resolution": 5},
    },
}

# The sd-verify and decompose tolerances of the CLI, and the closed-mesh
# simulate tolerances, at HARMONIC_PORTS_TOL_SCALE=1.
TOL = {
    "split": 1e-10,
    "boundary_split_sum": 1e-8,
    "flow_identity": 1e-10,
    "hmf": 1e-8,
    "closed_energy_drift": 1e-10,
    "harmonic_drift": 1e-8,
}


def workload_spec(name: str, smoke: bool) -> dict:
    spec = {k: v for k, v in WORKLOADS[name].items() if k != "smoke"}
    if smoke:
        spec.update(WORKLOADS[name]["smoke"])
    return spec


class Job:
    """Checks, marks and gauges of one job; every check is one operation."""

    def __init__(self):
        self.checks: list = []
        self.marks: dict = {}
        self.gauges: dict = {}

    def check(self, name: str, ok):
        self.checks.append([name, bool(ok)])

    def gauge_max(self, name: str, value: float):
        self.gauges[name] = max(self.gauges.get(name, 0.0), float(value))


def _rel(value: float, floor: float) -> float:
    return abs(value) / max(floor, 1e-30)


def simulate(hp, spec, mesh, seed, out_dir, job):
    import numpy as np

    p, q, dt, steps = spec["p"], spec["q"], spec["dt"], spec["steps"]
    cx = hp.read_mesh(mesh)
    metric = hp.Metric(cx)
    alpha_p, alpha_q = hp.initial_state(metric, p, q, "random", seed)
    system = hp.StokesDiracSystem(metric, p, q, alpha_p, alpha_q)
    for k in (p, q):
        hp.harmonic_basis(metric, k, "neumann")
    pb = hp.power_balance(hp.step_implicit_midpoint(system, dt))
    job.marks["first"] = clock()

    config = hp.SimulationConfig(dt=dt, steps=steps, init="random", seed=seed)
    start = clock()
    trace = hp.run(system, config)
    job.marks["steps_per_s"] = steps / (clock() - start)
    csv_path = os.path.join(out_dir, "trace.csv")
    hp.write_trace_csv(trace, csv_path)

    rows = np.asarray(trace.rows)
    H = rows[:, 1]
    drift = float(np.max(np.abs(H - H[0]))) / max(abs(H[0]), 1e-30)
    harm = rows[:, 4:]
    harm_drift = float(np.max(np.abs(harm - harm[0]))) if harm.shape[1] else 0.0
    split = _rel(pb.split_residual, pb.scale)
    job.check("closed_mesh", metric.boundary_complex.num_simplices(0) == 0)
    job.check("first_step_split", split <= TOL["split"])
    job.check("energy_drift", drift <= TOL["closed_energy_drift"])
    job.check("harmonic_drift", harm_drift <= TOL["harmonic_drift"])
    job.check("trace_rows", len(trace.rows) == steps + 1)
    job.gauge_max("stokesdirac.split_residual_rel.max", split)
    job.gauge_max("sim.energy_drift_rel", drift)
    with open(csv_path, "rb") as fh:
        trace_digest = hashlib.sha256(fh.read()).hexdigest()
    report = {
        "p": p, "q": q, "dt": dt, "steps": steps, "rows": len(trace.rows),
        "H_initial": float(H[0]), "H_final": float(H[-1]),
        "relative_energy_drift": drift, "max_abs_harmonic_drift": harm_drift,
        "first_step_split_relative": split,
        "spectral_radius_estimate": float(trace.spectral_radius_estimate),
    }
    bases = [(p, "neumann"), (q, "neumann")]
    return report, trace_digest, metric, bases


def verify(hp, spec, mesh, seed, out_dir, job):
    import numpy as np

    p, q = spec["p"], spec["q"]
    cx = hp.read_mesh(mesh)
    metric = hp.Metric(cx)
    closed = metric.boundary_complex.num_simplices(0) == 0
    rng = np.random.default_rng(seed)
    states = [
        (hp.random_cochain(cx, p, rng), hp.random_cochain(cx, q, rng))
        for _ in range(spec["states"])
    ]
    state_reports = []
    for i, (alpha_p, alpha_q) in enumerate(states):
        system = hp.StokesDiracSystem(metric, p, q, alpha_p, alpha_q)
        ext = hp.extended_power_balance(system)
        split = _rel(ext.split_residual, ext.scale)
        bilin = _rel(ext.bilinearity_residual, max(abs(ext.boundary_term), ext.scale))
        job.check("split", split <= TOL["split"])
        job.check("boundary_split_sum", bilin <= TOL["boundary_split_sum"])
        job.gauge_max("stokesdirac.split_residual_rel.max", split)
        identities = []
        for row in hp.harmonic_flow_identity(system):
            rel = _rel(
                row["residual"],
                max(abs(row["flow_pairing"]), abs(row["boundary_pairing"]),
                    row["flow_norm"], row["state_norm"]),
            )
            job.check("flow_identity", rel <= TOL["flow_identity"])
            identities.append(rel)
        state_reports.append({
            "dH_dt": ext.dH_dt, "boundary_term": ext.boundary_term,
            "split_residual_relative": split,
            "boundary_split_residual_relative": bilin,
            "flow_identity_relative": identities,
        })
        if i == 0:
            job.marks["first"] = clock()
    job.marks["steps_per_s"] = (len(states) - 1) / (clock() - job.marks["first"])

    e0 = hp.random_cochain(cx, p - 1, rng)
    f_ok = hp.exterior_derivative(metric, e0)
    psi = None if closed else hp.tangential_trace(metric, e0)
    spot = [hp.integrability_check(metric, f_ok, psi).solvable]
    job.check("constructed_exact_solvable", spot[0])
    obstruction = hp.harmonic_basis(metric, p, "dirichlet")
    if obstruction.dim:
        spot.append(hp.integrability_check(metric, f_ok + obstruction.element(0), psi).solvable)
        job.check("harmonic_obstruction_unsolvable", not spot[1])

    hmf = []
    for k in range(cx.dimension + 1):
        c = hp.random_cochain(cx, k, rng)
        dec = hp.hodge_morrey_friedrichs(metric, c)
        parts = [dec.d_alpha, dec.delta_beta, dec.lambda_T, dec.delta_gamma]
        in_norm = hp.norm(metric, c)
        recon = _rel(hp.norm(metric, c - (parts[0] + parts[1] + parts[2] + parts[3])), in_norm)
        orth = max(
            _rel(hp.inner_product(metric, parts[i], parts[j]), in_norm * in_norm)
            for i in range(4) for j in range(4) if i != j
        )
        job.check("hmf_reconstruction", recon <= TOL["hmf"])
        job.check("hmf_orthogonality", orth <= TOL["hmf"])
        job.gauge_max("hodge.hmf.recon_rel.max", recon)
        hmf.append({"degree": k, "reconstruction": recon, "orthogonality": orth,
                    "norms": [hp.norm(metric, x) for x in parts]})
    report = {"p": p, "q": q, "closed": closed, "states": state_reports,
              "spot_checks_solvable": spot, "hmf": hmf}
    bases = [(k, "dirichlet") for k in range(cx.dimension + 1)]
    return report, None, metric, bases


def analyze(hp, spec, mesh, seed, out_dir, job):
    cx = hp.read_mesh(mesh, strict=False)
    validation = hp.validate_manifold(cx)
    betti = hp.betti_numbers(cx)
    job.marks["first"] = clock()
    job.check("manifold_orientable", validation["manifold"] and validation["orientable"])
    job.check("torus_betti", list(betti) == [1, 2, 1])

    metric = hp.Metric(cx)
    n = cx.dimension
    start = clock()
    neumann = [hp.harmonic_basis(metric, k, "neumann").dim for k in range(n + 1)]
    dirichlet = [hp.harmonic_basis(metric, k, "dirichlet").dim for k in range(n + 1)]
    job.marks["steps_per_s"] = 2 * (n + 1) / (clock() - start)
    job.check("neumann_matches_betti", neumann == list(betti))
    job.check("dirichlet_matches_reversed_betti", dirichlet == list(betti)[::-1])
    report = {"validation": validation, "betti": list(betti),
              "harmonic_dimensions": {"neumann": neumann, "dirichlet": dirichlet}}
    bases = [(k, c) for c in ("neumann", "dirichlet") for k in range(n + 1)]
    return report, None, metric, bases


JOBS = {"simulate": simulate, "verify": verify, "analyze": analyze}


def _floats(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _floats(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _floats(v)
    elif isinstance(obj, float):
        yield obj


def _gap_ratio_min(hp, metric, bases) -> float:
    """Smallest first-non-kernel over last-kernel eigenvalue ratio."""
    ratios = []
    for k, condition in bases:
        b = hp.harmonic_basis(metric, k, condition)
        if b.dim and b.last_kernel_eigenvalue and math.isfinite(b.first_nonkernel_eigenvalue):
            ratios.append(b.first_nonkernel_eigenvalue / abs(b.last_kernel_eigenvalue))
    return min(ratios, default=0.0)


def computed_counts(hp, spec, metric) -> dict:
    """Array sizes and densities taken from public return values.

    Bytes are computed from array sizes (dense float64), not measured.
    `sim.operator.bytes` adds to the system operators the two dense
    (n_p + n_q)^2 matrices the midpoint step holds: the LU factor of
    I - dt/2 A and I + dt/2 A.
    """
    import numpy as np

    cx = metric.complex
    n = cx.dimension
    out = {}
    masses = [metric.mass(k) for k in range(n + 1)]
    wedges = [metric.wedge(a, n - a) for a in range(n + 1)]
    out["metric.mass.bytes"] = sum(m.nbytes for m in masses)
    out["metric.mass.density"] = sum(np.count_nonzero(m) for m in masses) / sum(m.size for m in masses)
    out["metric.wedge.density"] = sum(np.count_nonzero(w) for w in wedges) / sum(w.size for w in wedges)
    op_bytes = 0
    if spec["kind"] in ("simulate", "verify"):
        ops = hp.system_operators(metric, spec["p"], spec["q"])
        op_bytes = sum(v.nbytes for v in ops.values() if isinstance(v, np.ndarray))
        if spec["kind"] == "simulate":
            size = cx.num_simplices(spec["p"]) + cx.num_simplices(spec["q"])
            op_bytes += 2 * size * size * 8
    out["sim.operator.bytes"] = op_bytes
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mesh", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for job outputs")
    parser.add_argument("--result", required=True, help="result JSON path")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    t_import = clock()
    import harmonic_ports as hp

    tracer = Tracer(args.run_id)
    if args.trace:
        tracer.record("cli.import", t_import, clock())
        tracer.install(hp)

    spec = workload_spec(args.workload, args.smoke)
    os.makedirs(args.out, exist_ok=True)
    job = Job()
    report, trace_digest, metric, error = {}, None, None, None
    try:
        report, trace_digest, metric, bases = JOBS[spec["kind"]](
            hp, spec, args.mesh, args.seed, args.out, job
        )
        job.check("report_finite", all(math.isfinite(x) for x in _floats(report)))
        report_digest = hashlib.sha256(hp.io.dumps_report(report).encode()).hexdigest()
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
        job.check("exception", False)
        report_digest = None
    t_done = clock()
    n_spans = len(tracer.spans)

    result = {
        "t_first": job.marks.get("first", t_done),
        "t_done": t_done,
        "steps_per_s": job.marks.get("steps_per_s"),
        "checks": job.checks,
        "error": error,
        "report_digest": report_digest,
        "trace_digest": trace_digest,
        "gauges": job.gauges,
        "simplices": [] if metric is None else [
            metric.complex.num_simplices(k) for k in range(metric.complex.dimension + 1)
        ],
    }
    if args.trace and metric is not None:
        result["gauges"]["hodge.harmonic_basis.gap_ratio_min"] = _gap_ratio_min(hp, metric, bases)
        result["counts"] = computed_counts(hp, spec, metric)
        result["spans"] = tracer.spans[:n_spans]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
