"""Command-line interface.

Subcommands: gen, analyze, decompose, sd-verify, simulate.  Every
command prints a JSON report (sorted keys, deterministic for a fixed
seed) and echoes the seed.  Exit codes: 0 all checks passed, 1
validation or identity failure, 2 numerical failure, 3 I/O or usage
error.  The environment variable HARMONIC_PORTS_TOL_SCALE (default 1)
multiplies the reporting tolerances; it exists for diagnostics and does
not change any computation.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as hio
from .errors import (
    AmbiguousKernel,
    DegreeMismatch,
    DegreeOutOfRange,
    ComplexMismatch,
    FactorizationFailure,
    HarmonicPortsError,
    InvalidDegrees,
    OverflowInExactArithmetic,
    SolverFailure,
    UnsupportedResolution,
    WrongDimension,
)
from .generators import SHAPES, gen_mesh
from .hodge import (
    decompose_vector_field_3d,
    harmonic_basis,
    hodge_morrey_friedrichs,
)
from .mesh import betti_numbers, euler_characteristic, validate_manifold
from .metric import (
    Metric,
    exterior_derivative,
    inner_product,
    norm,
    random_cochain,
    tangential_trace,
)
from .sim import SimulationConfig, initial_state, run
from .stokesdirac import (
    StokesDiracSystem,
    extended_power_balance,
    harmonic_flow_identity,
    integrability_check,
    power_balance,
)

__all__ = ["main", "sd_verify_main"]

NUMERICAL_ERRORS = (
    FactorizationFailure,
    AmbiguousKernel,
    OverflowInExactArithmetic,
    SolverFailure,
)
USAGE_ERRORS = (
    DegreeMismatch,
    ComplexMismatch,
    DegreeOutOfRange,
    InvalidDegrees,
    UnsupportedResolution,
    WrongDimension,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _tol_scale() -> float:
    raw = os.environ.get("HARMONIC_PORTS_TOL_SCALE", "1")
    scale = float(raw)
    if not (scale > 0 and np.isfinite(scale)):
        raise ValueError(f"HARMONIC_PORTS_TOL_SCALE must be positive, got {raw!r}")
    return scale


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _emit(report: dict):
    sys.stdout.write(hio.dumps_report(_jsonable(report)))


def _rel(value: float, floor: float) -> float:
    return abs(value) / max(floor, 1e-30)


# -- commands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    cx = gen_mesh(args.shape, args.resolution)
    hio.write_mesh(cx, args.out)
    report = {
        "command": "gen",
        "seed": args.seed,
        "shape": args.shape,
        "resolution": args.resolution,
        "out": args.out,
        "dimension": cx.dimension,
        "counts": {str(k): cx.num_simplices(k) for k in range(cx.dimension + 1)},
        "euler_characteristic": euler_characteristic(cx),
    }
    _emit(report)
    return 0


def cmd_analyze(args) -> int:
    cx = hio.read_mesh(args.mesh, strict=False)
    validation = validate_manifold(cx)
    betti = betti_numbers(cx)
    report = {
        "command": "analyze",
        "seed": args.seed,
        "mesh": args.mesh,
        "tolerance_scale": _tol_scale(),
        "dimension": cx.dimension,
        "counts": {str(k): cx.num_simplices(k) for k in range(cx.dimension + 1)},
        "validation": validation,
        "betti": list(betti),
        "euler_characteristic": euler_characteristic(cx),
    }
    if not (validation["manifold"] and validation["orientable"]):
        report["harmonic_dimensions"] = None
        report["hodge_isomorphism"] = None
        report["passed"] = False
        _emit(report)
        return 1

    metric = Metric(cx)
    n = cx.dimension
    neumann = [harmonic_basis(metric, k, "neumann").dim for k in range(n + 1)]
    dirichlet = [harmonic_basis(metric, k, "dirichlet").dim for k in range(n + 1)]
    iso = {
        "neumann_matches_betti": list(neumann) == list(betti),
        "dirichlet_matches_reversed_betti": list(dirichlet) == list(betti[::-1]),
    }
    report["harmonic_dimensions"] = {"neumann": neumann, "dirichlet": dirichlet}
    report["hodge_isomorphism"] = iso
    report["passed"] = all(iso.values())
    _emit(report)
    return 0 if report["passed"] else 1


def cmd_decompose(args) -> int:
    tol = 1e-8 * _tol_scale()
    cx = hio.read_mesh(args.mesh)
    metric = Metric(cx)
    obj = hio.load_json(args.input)

    if hio.is_field_obj(obj):
        field_type, vectors = hio.field_from_obj(obj)
        result = decompose_vector_field_3d(metric, vectors, field_type)
        omega = result["cochain"]
        recon = omega - result["knot_part"] - result["gradient_part"]
        residual = _rel(norm(metric, recon), norm(metric, omega))
        report = {
            "command": "decompose",
            "seed": args.seed,
            "mesh": args.mesh,
            "input": args.input,
            "tolerance_scale": _tol_scale(),
            "kind": "vector_field",
            "field_type": field_type,
            "knot_part": hio.cochain_to_obj(result["knot_part"]),
            "gradient_part": hio.cochain_to_obj(result["gradient_part"]),
            "knot_norm": result["knot_norm"],
            "gradient_norm": result["gradient_norm"],
            "dim_harmonic_knots": result["knot_dim"],
            "dim_harmonic_gradients": result["gradient_dim"],
            "reconstruction_residual": residual,
            "passed": residual <= tol,
        }
        _emit(report)
        return 0 if report["passed"] else 1

    c = hio.cochain_from_obj(obj, cx)
    dec = hodge_morrey_friedrichs(metric, c)
    parts = [
        ("d_alpha", dec.d_alpha),
        ("delta_beta", dec.delta_beta),
        ("lambda_T", dec.lambda_T),
        ("delta_gamma", dec.delta_gamma),
    ]
    total = dec.d_alpha + dec.delta_beta + dec.lambda_T + dec.delta_gamma
    in_norm = norm(metric, c)
    recon = _rel(norm(metric, c - total), in_norm)
    gram = [
        [inner_product(metric, a, b) for _, b in parts] for _, a in parts
    ]
    orth = max(
        (
            _rel(gram[i][j], in_norm * in_norm)
            for i in range(4)
            for j in range(4)
            if i != j
        ),
        default=0.0,
    )
    report = {
        "command": "decompose",
        "seed": args.seed,
        "mesh": args.mesh,
        "input": args.input,
        "tolerance_scale": _tol_scale(),
        "kind": "cochain",
        "degree": c.degree,
        "components": {name: hio.cochain_to_obj(part) for name, part in parts},
        "component_norms": {name: norm(metric, part) for name, part in parts},
        "gram": gram,
        "reconstruction_residual": recon,
        "orthogonality_residual": orth,
        "passed": recon <= tol and orth <= tol,
    }
    _emit(report)
    return 0 if report["passed"] else 1


def _sd_states(args, metric, p, q):
    if args.state is not None:
        alpha_p, alpha_q = hio.read_state(args.state, metric.complex, p, q)
        return [("file", alpha_p, alpha_q)], np.random.default_rng(args.seed)
    count = args.random_states if args.random_states is not None else 10
    if count < 1:
        raise ValueError("--random-states must be positive")
    rng = np.random.default_rng(args.seed)
    states = []
    for i in range(count):
        states.append(
            (
                f"random[{i}]",
                random_cochain(metric.complex, p, rng),
                random_cochain(metric.complex, q, rng),
            )
        )
    return states, rng


def cmd_sd_verify(args) -> int:
    scale = _tol_scale()
    tols = {
        "closed_dH_dt": 1e-12 * scale,
        "split": 1e-10 * scale,
        "boundary_split_sum": 1e-8 * scale,
        "flow_identity": 1e-10 * scale,
    }
    cx = hio.read_mesh(args.mesh)
    metric = Metric(cx)
    p, q = args.p, args.q
    closed = metric.boundary_complex.num_simplices(0) == 0
    states, rng = _sd_states(args, metric, p, q)

    passed = True
    state_reports = []
    for label, alpha_p, alpha_q in states:
        system = StokesDiracSystem(metric, p, q, alpha_p, alpha_q)
        ext = extended_power_balance(system)
        split_rel = _rel(ext.split_residual, ext.scale)
        bilin_rel = _rel(
            ext.bilinearity_residual, max(abs(ext.boundary_term), ext.scale)
        )
        entry = {
            "state": label,
            "dH_dt": ext.dH_dt,
            "internal_term": ext.internal_term,
            "boundary_term": ext.boundary_term,
            "split_residual_relative": split_rel,
            "harmonic_boundary_part": ext.harmonic_boundary_part,
            "exact_boundary_part": ext.exact_boundary_part,
            "boundary_split_residual_relative": bilin_rel,
            "state_harmonic_coefficients": ext.state_harmonic_coefficients,
            "flow_harmonic_coefficients": ext.flow_harmonic_coefficients,
            "flow_closedness": ext.flow_closedness,
        }
        ok = split_rel <= tols["split"] and bilin_rel <= tols["boundary_split_sum"]
        if closed:
            dh_rel = _rel(ext.dH_dt, ext.scale)
            entry["closed_dH_dt_relative"] = dh_rel
            ok = ok and dh_rel <= tols["closed_dH_dt"]
        identities = []
        for row in harmonic_flow_identity(system):
            rel = _rel(
                row["residual"],
                max(
                    abs(row["flow_pairing"]),
                    abs(row["boundary_pairing"]),
                    row["flow_norm"],
                    row["state_norm"],
                ),
            )
            row = dict(row)
            row["residual_relative"] = rel
            identities.append(row)
            ok = ok and rel <= tols["flow_identity"]
        entry["harmonic_flow_identities"] = identities
        entry["passed"] = ok
        passed = passed and ok
        state_reports.append(entry)

    spot_checks = []
    e0 = random_cochain(cx, p - 1, rng)
    f_ok = exterior_derivative(metric, e0)
    psi = None if closed else tangential_trace(metric, e0)
    rep = integrability_check(metric, f_ok, psi)
    spot_checks.append(
        {
            "case": "constructed_exact",
            "expected_solvable": True,
            "solvable": rep.solvable,
            "witness_residual": rep.witness_residual,
        }
    )
    passed = passed and rep.solvable
    obstruction = harmonic_basis(metric, p, "dirichlet")
    if obstruction.dim:
        rep2 = integrability_check(
            metric, f_ok + obstruction.element(0), psi
        )
        spot_checks.append(
            {
                "case": "harmonic_obstruction",
                "expected_solvable": False,
                "solvable": rep2.solvable,
                "harmonic_residual": rep2.harmonic_residual,
            }
        )
        passed = passed and not rep2.solvable

    report = {
        "command": "sd-verify",
        "seed": args.seed,
        "mesh": args.mesh,
        "p": p,
        "q": q,
        "closed": closed,
        "tolerance_scale": scale,
        "tolerances": tols,
        "states": state_reports,
        "integrability_spot_checks": spot_checks,
        "passed": passed,
    }
    _emit(report)
    return 0 if passed else 1


def cmd_simulate(args) -> int:
    scale = _tol_scale()
    cx = hio.read_mesh(args.mesh)
    metric = Metric(cx)
    p, q = args.p, args.q
    config = SimulationConfig(
        dt=args.dt, steps=args.steps, init=args.init, seed=args.seed,
        stride=args.stride,
    )
    if args.state is not None:
        alpha_p, alpha_q = hio.read_state(args.state, cx, p, q)
    else:
        alpha_p, alpha_q = initial_state(metric, p, q, config.init, config.seed)
    system = StokesDiracSystem(metric, p, q, alpha_p, alpha_q)
    trace = run(system, config)
    hio.write_trace_csv(trace, args.out)
    snapshot_dir = None
    if config.stride:
        root, _ = os.path.splitext(args.out)
        snapshot_dir = root + "_snapshots"
        hio.write_snapshots(trace, snapshot_dir)

    closed = metric.boundary_complex.num_simplices(0) == 0
    rows = np.asarray(trace.rows)
    H = rows[:, 1]
    h0 = max(abs(H[0]), 1e-30)
    drift = float(np.max(np.abs(H - H[0]))) / h0
    harm = rows[:, 4:]
    harm_drift = (
        float(np.max(np.abs(harm - harm[0]))) if harm.shape[1] else 0.0
    )
    # relative to |dH/dt|, floored by H/dt: the rounding scale of the
    # finite difference, in the same units, so the check is unit-free
    balance = 0.0
    for k in range(1, rows.shape[0]):
        dh = (H[k] - H[k - 1]) / config.dt
        floor = max(abs(dh), H[k - 1] / config.dt, np.finfo(float).tiny)
        balance = max(balance, abs(dh - rows[k, 3]) / floor)
    tols = {
        "closed_energy_drift": 1e-10 * scale,
        "harmonic_drift": 1e-8 * scale,
        "step_balance": 1e-8 * scale,
    }
    if closed:
        passed = drift <= tols["closed_energy_drift"] and (
            harm_drift <= tols["harmonic_drift"]
        )
    else:
        passed = balance <= tols["step_balance"]
    report = {
        "command": "simulate",
        "seed": args.seed,
        "mesh": args.mesh,
        "p": p,
        "q": q,
        "closed": closed,
        "dt": config.dt,
        "steps": config.steps,
        "init": config.init if args.state is None else f"state:{args.state}",
        "stride": config.stride,
        "out": args.out,
        "snapshot_dir": snapshot_dir,
        "tolerance_scale": scale,
        "tolerances": tols,
        "rows": len(trace.rows),
        "H_initial": float(H[0]),
        "H_final": float(H[-1]),
        "relative_energy_drift": drift,
        "max_abs_harmonic_drift": harm_drift,
        "max_step_balance_residual": balance,
        "max_dHdt_residual": float(np.max(rows[:, 2])),
        "spectral_radius_estimate": trace.spectral_radius_estimate,
        "dt_spectral_radius": trace.dt_spectral_radius,
        "passed": passed,
    }
    _emit(report)
    return 0 if passed else 1


# -- wiring ------------------------------------------------------------------


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (echoed)")


def _add_pair(parser):
    parser.add_argument("--p", type=int, required=True, help="first state degree")
    parser.add_argument("--q", type=int, required=True, help="second state degree")


def _add_sd_verify_args(parser):
    parser.add_argument("mesh", help="mesh JSON path")
    _add_pair(parser)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--state", help="state JSON path")
    group.add_argument(
        "--random-states", type=int, help="number of random states (default 10)"
    )
    _add_seed(parser)


def build_parser() -> _Parser:
    parser = _Parser(prog="harmonic-ports", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[], help="generate a mesh")
    g.add_argument("--shape", required=True, choices=sorted(SHAPES))
    g.add_argument("--resolution", type=int, required=True)
    g.add_argument("--out", required=True, help="mesh JSON output path")
    _add_seed(g)
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("analyze", help="validate and report topology")
    a.add_argument("mesh", help="mesh JSON path")
    _add_seed(a)
    a.set_defaults(func=cmd_analyze)

    d = sub.add_parser("decompose", help="orthogonal decomposition of an input")
    d.add_argument("mesh", help="mesh JSON path")
    d.add_argument("input", help="cochain or vector field JSON path")
    _add_seed(d)
    d.set_defaults(func=cmd_decompose)

    v = sub.add_parser("sd-verify", help="verify power balance identities")
    _add_sd_verify_args(v)
    v.set_defaults(func=cmd_sd_verify)

    s = sub.add_parser("simulate", help="integrate the dynamics")
    s.add_argument("mesh", help="mesh JSON path")
    _add_pair(s)
    s.add_argument("--out", required=True, help="trace CSV output path")
    s.add_argument("--dt", type=float, default=0.01)
    s.add_argument("--steps", type=int, default=1000)
    s.add_argument("--init", default="random",
                   help="random | harmonic:DEG:IDX:AMP | gaussian:VERTEX:WIDTH")
    s.add_argument("--state", help="state JSON path overriding --init")
    s.add_argument("--stride", type=int, default=0,
                   help="snapshot stride (0 disables)")
    _add_seed(s)
    s.set_defaults(func=cmd_simulate)
    return parser


def _dispatch(func, args) -> int:
    try:
        return func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HarmonicPortsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _dispatch(args.func, args)


def sd_verify_main(argv=None) -> int:
    parser = _Parser(prog="sd-verify", description="verify power balance identities")
    _add_sd_verify_args(parser)
    args = parser.parse_args(argv)
    return _dispatch(cmd_sd_verify, args)


if __name__ == "__main__":
    sys.exit(main())
