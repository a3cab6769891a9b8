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
one solve of a sparse block system K(h) (`_midpoint_operator`) in w and
the port action y = (z, e) at w; w is eliminated exactly, y's Schur
complement factored once per dt and the solve refined to rounding
against K by `metric._refine`.  K, the spectral radius and run read the
port map and stacked layout of `stokesdirac.system_operators`; this
module keeps K's refined system (`metric._refined_system`) per dt, a step
back (dt < 0) included.  A step of run costs that one solve and four more
sparse products on the stacked state (flows, dH/dt, boundary, H); one
`stokesdirac._power_rate` sums the power terms of every row, and cochains
are built only for snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationFailure, SolverFailure
from .hodge import harmonic_basis
from .metric import Cochain, Metric, _delta, _delta_transpose, _refine, _refined_system, _splu
from .stokesdirac import StokesDiracSystem, _norms, _port_action, _power_rate, system_operators

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
        return Cochain(cx, p, rng.standard_normal(np_)), Cochain(cx, q, rng.standard_normal(nq_))
    parts = spec.split(":")
    if parts[0] == "harmonic":
        if len(parts) != 4:
            raise ValueError("harmonic init spec is harmonic:DEG:IDX:AMP")
        deg, idx, amp = int(parts[1]), int(parts[2]), float(parts[3])
        if not np.isfinite(amp):
            raise ValueError(f"harmonic init amplitude must be finite, got {parts[3]!r}")
        if deg not in (p, q):
            raise ValueError(f"harmonic init degree {deg} is neither p nor q")
        basis = harmonic_basis(metric, deg, "neumann")
        if not (0 <= idx < basis.dim):
            raise ValueError(
                f"harmonic basis at degree {deg} has {basis.dim} elements"
            )
        values = [np.zeros(np_), np.zeros(nq_)]
        values[deg != p] += amp * basis.element(idx).values
        return Cochain(cx, p, values[0]), Cochain(cx, q, values[1])
    if parts[0] == "gaussian":
        if len(parts) != 3:
            raise ValueError("gaussian init spec is gaussian:VERTEX:WIDTH")
        vertex, width = int(parts[1]), float(parts[2])
        if not (0 <= vertex < cx.num_simplices(0)):
            raise ValueError(f"vertex index {vertex} out of range")
        try:
            square = width**2 if width > 0 else 0.0
        except OverflowError:
            square = np.inf
        if not 0 < square < np.inf:
            raise ValueError(f"gaussian width {parts[2]} must be positive with a finite nonzero square")
        bary = cx.vertices[cx._simplex_rows[p]].mean(axis=1)
        d2 = np.sum((bary - cx.vertices[vertex]) ** 2, axis=1)
        values = np.exp(-d2 / (2.0 * square))
        return Cochain(cx, p, values), Cochain(cx, q, np.zeros(nq_))
    raise ValueError(f"unknown init spec {spec!r}")


def _midpoint_operator(metric: Metric, p: int, q: int, h: float) -> sp.csr_matrix:
    """K(h) in (w_p, w_q, z_p, z_q, e_p, e_q), by slot j of the port map
    (`system_operators`) and its other slot k: z_j = delta_c w_j on the
    interior (degree_j - 1)-simplices (rows R, interior mass block L) and
    e_j the effort z_j drives, slot k's (so e_p drives slot q):

        w_j - h sign_j d e_k = a_j
        L z_j - R B_j M_j w_j = 0
        M e_j - factor_k C_k R^T z_j = 0
    """
    slots = system_operators(metric, p, q)["layout"].slots
    cx, M = metric.complex, metric.mass_csr
    d, B = cx.exterior_derivative_matrix, cx.boundary_matrix
    blocks = [[None] * 6 for _ in range(6)]
    for j, (s, other) in enumerate(zip(slots, slots[::-1])):
        blocks[j][j] = sp.identity(cx.num_simplices(s.degree))
        blocks[j][5 - j] = -h * s.sign * d(s.degree - 1)
        blocks[2 + j][j] = -(B(s.degree) @ M(s.degree))[s.free]
        blocks[2 + j][2 + j] = M(s.degree - 1)[s.free][:, s.free]
        blocks[4 + j][2 + j] = -other.factor * other.coupling[:, s.free]
        blocks[4 + j][4 + j] = M(other.degree - 1)
    return sp.bmat(blocks, format="csr")


def _midpoint_factors(metric: Metric, p: int, q: int, dt: float):
    """The refined system of K(dt/2) (`metric._refined_system`) and the
    layout's flow map D, once per dt: with K = [[I, K_wy], [K_yw, K_yy]]
    in w and y = (z, e), lu factors K_yy - K_yw K_wy (mass diagonal
    blocks, `_splu`'s symmetric mode) and solve applies K^-1 exactly."""

    def build():
        K = _midpoint_operator(metric, p, q, 0.5 * dt)
        D = system_operators(metric, p, q)["layout"].D
        nw = D.shape[0]
        K_wy, K_yw = K[:nw, nw:], K[nw:, :nw]
        lu = _splu(K[nw:, nw:] - K_yw @ K_wy, "midpoint operator")

        def solve(r):
            y = lu.solve(r[nw:] - K_yw @ r[:nw])
            return np.concatenate([r[:nw] - K_wy @ y, y])

        return _refined_system(K, lu, solve), D

    return metric.cached(("midpoint", p, q, float(dt)), build)


def _midpoint(metric: Metric, p: int, q: int, a: np.ndarray, dt: float):
    """(new, w, z, e, f) of a stacked state a: the step 2 w - a, the
    midpoint w = (I - dt/2 A)^-1 a and its port action, z (free rows) and
    e in K's order and f = D e, from one refined solve and one product."""
    system, D = _midpoint_factors(metric, p, q, dt)
    b = np.zeros(system.S.shape[0])
    b[: len(a)] = a
    x = _refine(system, system.solve(b), b, np.abs(b), "midpoint solve")
    w, z, e = np.split(x, [len(a), len(x) - D.shape[1]])
    return 2.0 * w - a, w, z, e, D @ e


def _cochains(sys: StokesDiracSystem, v: np.ndarray):
    """The slot cochains (degrees p, q) of a stacked vector, as views."""
    cx, n_p = sys.metric.complex, sys.metric.complex.num_simplices(sys.p)
    return Cochain(cx, sys.p, v[:n_p]), Cochain(cx, sys.q, v[n_p:])


def step_implicit_midpoint(sys: StokesDiracSystem, dt: float) -> StokesDiracSystem:
    """One midpoint step; dt may be negative (the exact inverse step).

    The Cayley step 2 w - a, w = (I - h A)^-1 a, h = dt/2, by one refined
    solve of K(h) and the flow product (`_midpoint`).  The new cochains
    are its only objects.

    Raises:
        FactorizationFailure: K's Schur complement in (z, e) is singular.
        SolverFailure: Refinement (`metric._refine`) missed its bound.
    """
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    a = np.concatenate([sys.alpha_p.values, sys.alpha_q.values])
    return sys.with_state(*_cochains(sys, _midpoint(sys.metric, sys.p, sys.q, a, dt)[0]))


def _check_flows(metric: Metric, p: int, q: int, w: np.ndarray, f: np.ndarray, rho: float):
    """Raise SolverFailure unless the solve's flows f match those of an
    independent port action of the midpoint w to FLOW_CHECK_TOL, relative
    to rho |w| + |f| in the Whitney norm (rho the spectral radius estimate)."""
    layout, ref = system_operators(metric, p, q)["layout"], _port_action(metric, p, q, w)[2]
    err, size_w, size_ref = (sum(_norms(layout, v, layout.mass @ v)) for v in (f - ref, w, ref))
    if not err <= FLOW_CHECK_TOL * (rho * size_w + size_ref):
        raise SolverFailure(f"midpoint flows differ from the port action by {err:.3e}")


def _spectral_radius_estimate(metric: Metric, p: int, q: int) -> float:
    """Largest singular value of A = [[0, F_p], [F_q, 0]]: the square
    root of the largest eigenvalue of A^T A = diag(F_q^T F_q, F_p^T F_p),
    each block by Lanczos (eigsh, tolerance 1e-6) from a seeded start
    vector, so the estimate is deterministic.  Up to sign, a slot's block
    F = d M^-1 C delta_c (its port map) takes the other slot's state to its
    flow by the products and solves of the port action; F^T by their
    transposes, delta_c and its transpose by the metric's Dirichlet
    codifferential kernels (`_delta`, `_delta_transpose`)."""
    slots, cx = system_operators(metric, p, q)["layout"].slots, metric.complex
    top = 0.0
    for s, other in zip(slots, slots[::-1]):
        d, lu = cx.exterior_derivative_matrix(s.degree - 1), metric.mass_lu(s.degree - 1)

        def gram(v, k=other.degree, C=s.coupling, d=d, lu=lu):
            z = _delta(metric, k, v, "dirichlet")
            y = C.T @ lu.solve(d.T @ (d @ lu.solve(C @ z)), trans="T")
            return _delta_transpose(metric, k, y, "dirichlet")

        size = cx.num_simplices(other.degree)
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
    """Integrate from the system's current state; steps+1 trace rows.  A
    step is one refined solve and four more sparse products on the stacked
    state; cochains are built only for snapshots."""
    m, p, q, dt = sys.metric, sys.p, sys.q, config.dt
    layout = system_operators(m, p, q)["layout"]
    bases = [harmonic_basis(m, k, "neumann") for k in (p, q)]
    header = ["t", "H", "dHdt_residual", "boundary_power"]
    header += [f"harm_{slot}_{i}" for slot, b in zip("pq", bases) for i in range(b.dim)]

    def diagnostics(a):  # H and harmonic coefficients of a stacked state
        Ma = layout.mass @ a
        energy = [float(a[s.a] @ Ma[s.a]) for s in layout.slots]
        coeffs = [c for b, s in zip(bases, layout.slots) for c in (b.vectors.T @ Ma[s.a]).tolist()]
        return 0.5 * (energy[0] + energy[1]), coeffs

    rho = m.cached(("spectral_radius", p, q), lambda: _spectral_radius_estimate(m, p, q))
    trace = Trace(header, [], spectral_radius_estimate=rho, dt_spectral_radius=dt * rho)

    a = np.concatenate([sys.alpha_p.values, sys.alpha_q.values])
    H_prev, coeffs = diagnostics(a)
    z, e, f = _port_action(m, p, q, a)
    boundary_term = _power_rate(layout, a, e, layout.mass @ f, layout.mass_z @ z)[1]
    trace.rows.append([0.0, H_prev, 0.0, boundary_term] + coeffs)
    if config.stride:
        trace.snapshots.append((0, *_cochains(sys, a)))

    for k in range(1, config.steps + 1):
        a, w, z, e, f = _midpoint(m, p, q, a, dt)
        snap = config.stride and k % config.stride == 0
        if k == 1 or snap:
            _check_flows(m, p, q, w, f, rho)
        dH_dt, boundary_term = _power_rate(layout, w, e, layout.mass @ f, layout.mass_z @ z)
        H, coeffs = diagnostics(a)
        trace.rows.append([k * dt, H, abs((H - H_prev) / dt - dH_dt), boundary_term] + coeffs)
        if snap:
            trace.snapshots.append((k, *_cochains(sys, a)))
        H_prev = H
    return trace
