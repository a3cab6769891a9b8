"""Time integration of the Stokes-Dirac dynamics d(alpha)/dt = flow.

The dynamics are linear, x' = A x on the stacked state x = (alpha_p,
alpha_q), with A the cross-coupled flow operator.  The one scheme is the
implicit midpoint rule, whose step is a Cayley transform of A; it
conserves every quadratic invariant with skew generator, so the energy
drift on closed meshes and the drift of the harmonic coefficients
measure rounding, not scheme error.  Flows are exact cochains, hence
M-orthogonal to the Neumann-harmonic spaces; the trace records those
coefficients per step as the conserved topological content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import FactorizationFailure
from .hodge import harmonic_basis
from .metric import Cochain, Metric
from .stokesdirac import (
    StokesDiracSystem,
    hamiltonian,
    power_balance,
    system_operators,
)

__all__ = [
    "SimulationConfig",
    "Trace",
    "initial_state",
    "step_implicit_midpoint",
    "run",
]


@dataclass
class SimulationConfig:
    """Run parameters; the init spec is one of
    "random", "harmonic:DEG:IDX:AMP", or "gaussian:VERTEX:WIDTH"."""

    dt: float = 0.01
    steps: int = 1000
    init: str = "random"
    seed: int = 0
    stride: int = 0

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if self.stride < 0:
            raise ValueError("stride must be nonnegative (0 disables snapshots)")


@dataclass
class Trace:
    """Per-step diagnostics plus state snapshots at the configured stride."""

    header: list[str]
    rows: list[list[float]]
    snapshots: list[tuple[int, Cochain, Cochain]] = field(default_factory=list)
    spectral_radius_estimate: float = 0.0
    dt_spectral_radius: float = 0.0

    def csv_lines(self) -> list[str]:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(repr(float(v)) for v in row))
        return lines


def initial_state(metric: Metric, p: int, q: int, spec: str, seed: int = 0):
    """Build (alpha_p, alpha_q) from an init spec string."""
    cx = metric.complex
    np_, nq_ = cx.num_simplices(p), cx.num_simplices(q)
    if spec == "random":
        rng = np.random.default_rng(seed)
        return (
            Cochain(cx, p, rng.standard_normal(np_)),
            Cochain(cx, q, rng.standard_normal(nq_)),
        )
    parts = spec.split(":")
    if parts[0] == "harmonic":
        if len(parts) != 4:
            raise ValueError("harmonic init spec is harmonic:DEG:IDX:AMP")
        deg, idx, amp = int(parts[1]), int(parts[2]), float(parts[3])
        if deg not in (p, q):
            raise ValueError(f"harmonic init degree {deg} is neither p nor q")
        basis = harmonic_basis(metric, deg, "neumann")
        if not (0 <= idx < basis.dim):
            raise ValueError(
                f"harmonic basis at degree {deg} has {basis.dim} elements"
            )
        alpha_p = Cochain(cx, p, np.zeros(np_))
        alpha_q = Cochain(cx, q, np.zeros(nq_))
        target = alpha_p if deg == p else alpha_q
        target.values += amp * basis.element(idx).values
        return alpha_p, alpha_q
    if parts[0] == "gaussian":
        if len(parts) != 3:
            raise ValueError("gaussian init spec is gaussian:VERTEX:WIDTH")
        vertex, width = int(parts[1]), float(parts[2])
        if not (0 <= vertex < cx.num_simplices(0)):
            raise ValueError(f"vertex index {vertex} out of range")
        if not (width > 0):
            raise ValueError("gaussian width must be positive")
        center = cx.vertices[vertex]
        values = np.empty(np_)
        for i, simplex in enumerate(cx.simplices[p]):
            bary = cx.vertices[list(simplex)].mean(axis=0)
            d2 = float(np.sum((bary - center) ** 2))
            values[i] = np.exp(-d2 / (2.0 * width**2))
        return Cochain(cx, p, values), Cochain(cx, q, np.zeros(nq_))
    raise ValueError(f"unknown init spec {spec!r}")


def _block_generator(metric: Metric, p: int, q: int) -> np.ndarray:
    ops = system_operators(metric, p, q)
    np_ = metric.complex.num_simplices(p)
    nq_ = metric.complex.num_simplices(q)
    A = np.zeros((np_ + nq_, np_ + nq_))
    A[:np_, np_:] = ops["flow_p"]
    A[np_:, :np_] = ops["flow_q"]
    return A


def _midpoint_factors(metric: Metric, p: int, q: int, dt: float):
    """(I - dt/2 A) LU factors and (I + dt/2 A), assembled once per dt."""

    def build():
        A = _block_generator(metric, p, q)
        eye = np.eye(A.shape[0])
        try:
            lu = sla.lu_factor(eye - 0.5 * dt * A)
        except sla.LinAlgError as exc:
            raise FactorizationFailure("midpoint operator is singular") from exc
        return lu, eye + 0.5 * dt * A

    return metric.cached(("midpoint", p, q, float(dt)), build)


def step_implicit_midpoint(sys: StokesDiracSystem, dt: float) -> StokesDiracSystem:
    """One midpoint step; dt may be negative (the exact inverse step)."""
    m = sys.metric
    lu, plus = _midpoint_factors(m, sys.p, sys.q, dt)
    np_ = m.complex.num_simplices(sys.p)
    x = np.concatenate([sys.alpha_p.values, sys.alpha_q.values])
    y = sla.lu_solve(lu, plus @ x)
    return sys.with_state(
        Cochain(m.complex, sys.p, y[:np_]), Cochain(m.complex, sys.q, y[np_:])
    )


def _spectral_radius_estimate(A: np.ndarray, iters: int = 30) -> float:
    """Largest singular value by power iteration on A^T A (deterministic)."""
    if A.shape[0] == 0:
        return 0.0
    v = np.ones(A.shape[1]) / np.sqrt(A.shape[1])
    s = 0.0
    for _ in range(iters):
        w = A.T @ (A @ v)
        s = float(np.linalg.norm(w))
        if s == 0.0:
            return 0.0
        v = w / s
    return float(np.sqrt(s))


def run(sys: StokesDiracSystem, config: SimulationConfig) -> Trace:
    """Integrate from the system's current state; steps+1 trace rows."""
    m = sys.metric
    basis_p = harmonic_basis(m, sys.p, "neumann")
    basis_q = harmonic_basis(m, sys.q, "neumann")
    header = ["t", "H", "dHdt_residual", "boundary_power"]
    header += [f"harm_p_{i}" for i in range(basis_p.dim)]
    header += [f"harm_q_{i}" for i in range(basis_q.dim)]

    def coeffs(state: StokesDiracSystem) -> list[float]:
        out = []
        for basis, alpha in ((basis_p, state.alpha_p), (basis_q, state.alpha_q)):
            out.extend(
                float(c)
                for c in basis.vectors.T @ (m.mass(alpha.degree) @ alpha.values)
            )
        return out

    A = _block_generator(m, sys.p, sys.q)
    rho = _spectral_radius_estimate(A)
    trace = Trace(
        header=header,
        rows=[],
        spectral_radius_estimate=rho,
        dt_spectral_radius=config.dt * rho,
    )

    state = sys
    H_prev = hamiltonian(state)
    trace.rows.append(
        [0.0, H_prev, 0.0, power_balance(state).boundary_term] + coeffs(state)
    )
    if config.stride:
        trace.snapshots.append((0, state.alpha_p.copy(), state.alpha_q.copy()))

    for k in range(1, config.steps + 1):
        new = step_implicit_midpoint(state, config.dt)
        mid = state.with_state(
            0.5 * (state.alpha_p + new.alpha_p), 0.5 * (state.alpha_q + new.alpha_q)
        )
        pb = power_balance(mid)
        H_new = hamiltonian(new)
        residual = abs((H_new - H_prev) / config.dt - pb.dH_dt)
        trace.rows.append(
            [k * config.dt, H_new, residual, pb.boundary_term] + coeffs(new)
        )
        if config.stride and k % config.stride == 0:
            trace.snapshots.append((k, new.alpha_p.copy(), new.alpha_q.copy()))
        state, H_prev = new, H_new
    return trace
