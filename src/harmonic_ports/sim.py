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

A is never formed: with h = dt/2 the midpoint w = (I - h A)^-1 a is
one solve of a sparse block system K(|h|) (`_midpoint_operator`) in w and
the port action y = (z, e) at w; w is eliminated exactly, y's Schur
complement factored once per |dt| and the solve refined to rounding
against K by `metric._refine`.  J = diag(I, -I) has J A J = -A, so a
step back solves K(|h|) against J a and applies J to the unknowns.  run
reads each row's power terms from a port action (`_power_rate`) and
checks the solve's flows against an independent port action at step 1
and at every snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationFailure, SolverFailure
from .hodge import harmonic_basis
from .metric import Cochain, Metric, _delta, _delta_transpose, _refine, _splu, norm
from .stokesdirac import (
    StokesDiracSystem,
    _port,
    _port_action,
    _power_rate,
    system_operators,
)

__all__ = [
    "SimulationConfig",
    "Trace",
    "initial_state",
    "step_implicit_midpoint",
    "run",
]

# Bound of a midpoint solve's flows against an independent port action.
FLOW_CHECK_TOL = 1e-8


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


def _midpoint_operator(metric: Metric, p: int, q: int, h: float) -> sp.csr_matrix:
    """K(h) in (w_p, w_q, z_p, z_q, e_p, e_q), z = delta_c w on the interior
    (p-1)/(q-1) simplices (rows R, interior mass block L), W d the coupling:

        w_p - h sigma d_{p-1} e_q = a_p      L_{p-1} z_p - R B_p M_p w_p = 0
        w_q - h d_{q-1} e_p = a_q            L_{q-1} z_q - R B_q M_q w_q = 0
        M_{q-1} e_p + sigma tau (W d)^T R^T z_p = 0
        M_{p-1} e_q - tau (W d) R^T z_q = 0
    """
    ops = system_operators(metric, p, q)
    sigma, tau, Wd = ops["sigma"], ops["tau"], ops["coupling"]
    cx, M = metric.complex, metric.mass_csr
    d, B, eye = cx.exterior_derivative_matrix, cx.boundary_matrix, sp.identity
    ip, iq = metric.free_indices(p - 1, "dirichlet"), metric.free_indices(q - 1, "dirichlet")
    blocks = [
        [eye(cx.num_simplices(p)), None, None, None, None, -h * sigma * d(p - 1)],
        [None, eye(cx.num_simplices(q)), None, None, -h * d(q - 1), None],
        [-(B(p) @ M(p))[ip], None, M(p - 1)[ip][:, ip], None, None, None],
        [None, -(B(q) @ M(q))[iq], None, M(q - 1)[iq][:, iq], None, None],
        [None, None, sigma * tau * Wd.T[:, ip], None, M(q - 1), None],
        [None, None, None, -tau * Wd[:, iq], None, M(p - 1)],
    ]
    return sp.bmat(blocks, format="csr")


def _midpoint_factors(metric: Metric, p: int, q: int, dt: float):
    """(K, |K|, lu, solve) at h = |dt|/2, once per |dt|: with K = [[I,
    K_wy], [K_yw, K_yy]] in w and y = (z, e), lu factors K_yy - K_yw K_wy
    (mass diagonal blocks, `_splu`'s symmetric mode), solve applies K^-1
    exactly and K, |K| serve the refinement (`metric._refine`)."""

    def build():
        K = _midpoint_operator(metric, p, q, 0.5 * abs(dt))
        nw = metric.complex.num_simplices(p) + metric.complex.num_simplices(q)
        K_wy, K_yw = K[:nw, nw:], K[nw:, :nw]
        lu = _splu(K[nw:, nw:] - K_yw @ K_wy, "midpoint operator")

        def solve(r):
            y = lu.solve(r[nw:] - K_yw @ r[:nw])
            return np.concatenate([r[:nw] - K_wy @ y, y])

        return K, abs(K), lu, solve

    return metric.cached(("midpoint", p, q, abs(float(dt))), build)


def _midpoint(sys: StokesDiracSystem, dt: float):
    """(new, mid, port): the step 2 w - a, the midpoint w = (I - dt/2 A)^-1 a
    and the port action at w, the slot records of
    `stokesdirac._port_action`, from one refined solve."""
    m, p, q = sys.metric, sys.p, sys.q
    K, abs_K, _, solve = _midpoint_factors(m, p, q, dt)
    ip, iq = m.free_indices(p - 1, "dirichlet"), m.free_indices(q - 1, "dirichlet")
    n = m.complex.num_simplices
    cuts = np.cumsum([0, n(p), n(q), len(ip), len(iq), n(q - 1), n(p - 1)])
    sign = -1.0 if dt < 0 else 1.0  # J on the right-hand side and the unknowns
    b = np.zeros(cuts[-1])
    b[: cuts[1]], b[cuts[1] : cuts[2]] = sys.alpha_p.values, sign * sys.alpha_q.values
    x = _refine(solve(b), lambda x: b - K @ x, solve, abs_K, np.abs(b), "midpoint solve")
    w_p, w_q, zi_p, zi_q, e_p, e_q = (x[i:j] for i, j in zip(cuts, cuts[1:]))
    w_q, zi_q, e_q = sign * w_q, sign * zi_q, sign * e_q
    z_p, z_q = np.zeros(n(p - 1)), np.zeros(n(q - 1))
    z_p[ip], z_q[iq] = zi_p, zi_q
    mid = sys.with_state(Cochain(m.complex, p, w_p), Cochain(m.complex, q, w_q))
    new = sys.with_state(2.0 * mid.alpha_p - sys.alpha_p, 2.0 * mid.alpha_q - sys.alpha_q)
    return new, mid, _port(mid, z_p, z_q, e_p, e_q)


def step_implicit_midpoint(sys: StokesDiracSystem, dt: float) -> StokesDiracSystem:
    """One midpoint step; dt may be negative (the exact inverse step).

    The Cayley step 2 w - a, w = (I - h A)^-1 a, h = dt/2, by one refined
    solve of K(|h|); a negative dt reuses the factor of |dt|.

    Raises:
        FactorizationFailure: K's Schur complement in (z, e) is singular.
        SolverFailure: Refinement (`metric._refine`) missed its bound.
    """
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    return _midpoint(sys, dt)[0]


def _check_flows(mid: StokesDiracSystem, port, rho: float):
    """Raise SolverFailure unless the solve's flows match an independent
    port action of the midpoint to FLOW_CHECK_TOL, relative to rho |w| +
    |f| in the Whitney norm (rho the spectral radius estimate)."""
    m, ref = mid.metric, _port_action(mid)
    err = sum(norm(m, got.flow - want.flow) for got, want in zip(port, ref))
    scale = rho * (norm(m, mid.alpha_p) + norm(m, mid.alpha_q))
    if not err <= FLOW_CHECK_TOL * (scale + sum(norm(m, s.flow) for s in ref)):
        raise SolverFailure(f"midpoint flows differ from the port action by {err:.3e}")


def _spectral_radius_estimate(metric: Metric, p: int, q: int) -> float:
    """Largest singular value of A = [[0, F_p], [F_q, 0]]: the square
    root of the largest eigenvalue of A^T A = diag(F_q^T F_q, F_p^T F_p),
    each block by Lanczos (eigsh, tolerance 1e-6) from a seeded start
    vector, so the estimate is deterministic.  Up to sign, the block from
    degree k is F = d_j M_j^-1 C delta_c, applied by the sparse products
    and solves of the port action; F^T by their transposes, delta_c and
    its transpose by the metric's Dirichlet codifferential kernels
    (`_delta`, `_delta_transpose`)."""
    Wd, cx = system_operators(metric, p, q)["coupling"], metric.complex
    top = 0.0
    # F_p maps degree q through efforts at p-1; F_q maps degree p through q-1
    for k, j, C in ((q, p - 1, Wd), (p, q - 1, Wd.T)):
        d, lu = cx.exterior_derivative_matrix(j), metric.mass_lu(j)

        def gram(v, k=k, C=C, d=d, lu=lu):
            z = _delta(metric, k, v, "dirichlet")
            y = C.T @ lu.solve(d.T @ (d @ lu.solve(C @ z)), trans="T")
            return _delta_transpose(metric, k, y, "dirichlet")

        size = cx.num_simplices(k)
        v0 = np.random.default_rng(0).standard_normal(size)
        if not gram(v0).any():
            continue  # an empty or zero block adds nothing (and stops ARPACK)
        op = spla.LinearOperator((size, size), matvec=gram, dtype=float)
        try:
            lam = spla.eigsh(
                op, k=1, which="LA", v0=v0, tol=1e-6, return_eigenvectors=False
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

    def diagnostics(state: StokesDiracSystem):  # H and harmonic coefficients
        energy, coeffs = [], []
        for basis, alpha in ((basis_p, state.alpha_p), (basis_q, state.alpha_q)):
            M_alpha = m.mass_csr(alpha.degree) @ alpha.values
            energy.append(float(alpha.values @ M_alpha))
            coeffs.extend(float(c) for c in basis.vectors.T @ M_alpha)
        return 0.5 * (energy[0] + energy[1]), coeffs

    rho = m.cached(
        ("spectral_radius", sys.p, sys.q),
        lambda: _spectral_radius_estimate(m, sys.p, sys.q),
    )
    trace = Trace(
        header=header,
        rows=[],
        spectral_radius_estimate=rho,
        dt_spectral_radius=config.dt * rho,
    )

    state = sys
    H_prev, coeffs = diagnostics(state)
    trace.rows.append([0.0, H_prev, 0.0, _power_rate(m, _port_action(state))[1]] + coeffs)
    if config.stride:
        trace.snapshots.append((0, state.alpha_p.copy(), state.alpha_q.copy()))

    for k in range(1, config.steps + 1):
        new, mid, port = _midpoint(state, config.dt)
        snapshot = config.stride and k % config.stride == 0
        if k == 1 or snapshot:
            _check_flows(mid, port, rho)
        dH_dt, boundary_term = _power_rate(m, port)
        H_new, coeffs = diagnostics(new)
        residual = abs((H_new - H_prev) / config.dt - dH_dt)
        trace.rows.append([k * config.dt, H_new, residual, boundary_term] + coeffs)
        if snapshot:
            trace.snapshots.append((k, new.alpha_p.copy(), new.alpha_q.copy()))
        state, H_prev = new, H_new
    return trace
