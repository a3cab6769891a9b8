"""Time integration of the Stokes-Dirac dynamics d(alpha)/dt = flow.

The dynamics are linear, x' = A x on the stacked state x = (alpha_p,
alpha_q), with A the cross-coupled flow operator.  The one scheme is the
implicit midpoint rule, whose step is the Cayley transform
(I - dt/2 A)^-1 (I + dt/2 A) x = 2 (I - dt/2 A)^-1 x - x; it
conserves every quadratic invariant with skew generator, so the energy
drift on closed meshes and the drift of the harmonic coefficients
measure rounding, not scheme error.  Flows are exact cochains, hence
M-orthogonal to the Neumann-harmonic spaces; the trace records those
coefficients per step as the conserved topological content.

A is the one dense operator left: its flow blocks are built once per
pair from the port action's delta_c kernel, coupling and mass LUs, and
the spectral radius estimate reads them.  A = [[0, F_p], [F_q, 0]] is
block off-diagonal, so with h = dt/2 the step eliminates one slot: on
the slot s with fewer simplices (l the other) the Schur complement
S = I - h^2 F_s F_l has det S = det(I - h A), and one dense LU of S per
|dt| makes every step two products with the blocks and a pair of
triangular solves of size n_s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import FactorizationFailure
from .hodge import harmonic_basis
from .metric import Cochain, Metric, _deltac
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
        if not (0 < self.dt < np.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
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
        bary = cx.vertices[cx._simplex_rows[p]].mean(axis=1)
        d2 = np.sum((bary - cx.vertices[vertex]) ** 2, axis=1)
        values = np.exp(-d2 / (2.0 * width**2))
        return Cochain(cx, p, values), Cochain(cx, q, np.zeros(nq_))
    raise ValueError(f"unknown init spec {spec!r}")


def _generator(metric: Metric, p: int, q: int):
    """Dense blocks (flow_p, flow_q) of A = [[0, flow_p], [flow_q, 0]],
    once per pair, from the dense delta_c matrices (sparse d^T M, then
    the interior mass solve).  flow_p applies the sparse coupling, a mass
    solve and d_{p-1} to the columns of delta_c_q; flow_q is one dense
    product, d_{q-1} M_{q-1}^-1 (W d)^T times delta_c_p, so no
    n_{q-1} x n_p effort block is formed."""

    def build():
        ops = system_operators(metric, p, q)
        sigma, tau, Wd = ops["sigma"], ops["tau"], ops["coupling"]
        lu, d = metric.mass_lu, metric.complex.exterior_derivative_matrix
        flow_p = sigma * tau * (d(p - 1) @ lu(p - 1).solve(Wd @ _deltac(metric, q)))
        z_to_flow_q = -sigma * tau * (d(q - 1) @ lu(q - 1).solve(Wd.T.toarray()))
        return flow_p, z_to_flow_q @ _deltac(metric, p)

    return metric.cached(("generator", p, q), build)


def _small_slot(metric: Metric, p: int, q: int) -> int:
    """0 for the p slot, 1 for the q slot: the one with fewer simplices
    (q on a tie), on which the midpoint step solves."""
    size = metric.complex.num_simplices
    return 1 if size(q) <= size(p) else 0


def _midpoint_factors(metric: Metric, p: int, q: int, dt: float):
    """LU factors of S = I - h^2 F_s F_l, h = dt/2, on the smaller slot s
    (see `_small_slot`).  S depends on h^2 alone, so one factor per |dt|
    serves both directions, and a reversed run factors once.  S is
    singular exactly when I - h A is (det S = det(I - h A)), so a zero
    pivot still raises."""

    def build():
        blocks, s = _generator(metric, p, q), _small_slot(metric, p, q)
        h = 0.5 * dt
        S = blocks[s] @ blocks[1 - s]
        S *= -(h * h)
        S.flat[:: len(S) + 1] += 1.0
        # LAPACK getrf directly: lu_factor only warns on an exactly zero pivot
        (getrf,) = sla.get_lapack_funcs(("getrf",), (S,))
        lu, piv, info = getrf(S, overwrite_a=True)
        if info > 0:
            raise FactorizationFailure("midpoint operator is singular")
        return lu, piv

    return metric.cached(("midpoint", p, q, abs(float(dt))), build)


def step_implicit_midpoint(sys: StokesDiracSystem, dt: float) -> StokesDiracSystem:
    """One midpoint step; dt may be negative (the exact inverse step).

    The Cayley step 2 w - a, w = (I - h A)^-1 a, h = dt/2, by block
    elimination onto the smaller slot s: w_s = S^-1 (a_s + h F_s a_l),
    then w_l = a_l + h F_l w_s.  A negative dt reuses the factor of |dt|.
    """
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    m, p, q, h = sys.metric, sys.p, sys.q, 0.5 * dt
    blocks, s = _generator(m, p, q), _small_slot(m, p, q)
    lu = _midpoint_factors(m, p, q, dt)
    a = (sys.alpha_p.values, sys.alpha_q.values)
    w = [None, None]
    w[s] = sla.lu_solve(lu, a[s] + h * (blocks[s] @ a[1 - s]))
    w[1 - s] = a[1 - s] + h * (blocks[1 - s] @ w[s])
    return sys.with_state(
        Cochain(m.complex, p, 2.0 * w[0] - a[0]), Cochain(m.complex, q, 2.0 * w[1] - a[1])
    )


def _spectral_radius_estimate(flow_p: np.ndarray, flow_q: np.ndarray) -> float:
    """Largest singular value of A = [[0, flow_p], [flow_q, 0]]: the square
    root of the largest eigenvalue of A^T A = diag(flow_q^T flow_q,
    flow_p^T flow_p), each block by Lanczos (eigsh, tolerance 1e-6) from
    a seeded start vector, so the estimate is deterministic."""
    top = 0.0
    for F in (flow_q, flow_p):
        if not F.any():
            continue  # an empty or zero block adds nothing (and stops ARPACK)
        size = F.shape[1]
        gram = spla.LinearOperator(
            (size, size), matvec=lambda v, F=F: F.T @ (F @ v), dtype=float
        )
        v0 = np.random.default_rng(0).standard_normal(size)
        try:
            lam = spla.eigsh(
                gram, k=1, which="LA", v0=v0, tol=1e-6, return_eigenvectors=False
            )[0]
        except RuntimeError as exc:
            raise FactorizationFailure("spectral radius estimate failed") from exc
        top = max(top, float(lam))
    return float(np.sqrt(top))


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
                for c in basis.vectors.T @ (m.mass_csr(alpha.degree) @ alpha.values)
            )
        return out

    rho = _spectral_radius_estimate(*_generator(m, sys.p, sys.q))
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
