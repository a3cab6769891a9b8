"""Stokes-Dirac port systems on a complementary degree pair.

A system carries two states (alpha_p, alpha_q) at degrees p + q = n + 1
and the quadratic Hamiltonian H = (|alpha_p|^2 + |alpha_q|^2) / 2 in the
Whitney metric.  The efforts are cross-coupled through the wedge pairing

    e_q = tau * M_{p-1}^-1 W_{p-1,q} d_{q-1} (delta_c alpha_q)
    e_p = -sigma * tau * M_{q-1}^-1 d_{q-1}^T W_{p-1,q}^T (delta_c alpha_p)

with sigma = (-1)^(pq+1), tau = (-1)^(q(n-q)), and delta_c the zero-trace
constrained codifferential; the flows f_p = sigma d e_q, f_q = d e_p are
exact cochains.  The transpose coupling makes the interior d/delta
pairing cancel identically, so the energy rate equals the constrained
Green-defect boundary term on every mesh and vanishes on closed ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    ComplexMismatch,
    DegreeMismatch,
    SolverFailure,
)
from .hodge import (
    _exact_range_solver,
    harmonic_basis,
    harmonic_projection,
    validate_degree_pair,
)
from .metric import (
    Cochain,
    Metric,
    _check_metric,
    codifferential_constrained,
    extend_by_zero,
    exterior_derivative,
    green_defect_constrained,
    inner_product,
    norm,
    same_complex,
    tangential_trace,
)

__all__ = [
    "StokesDiracSystem",
    "system_operators",
    "hamiltonian",
    "efforts",
    "flows",
    "boundary_port",
    "PowerBalance",
    "power_balance",
    "ExtendedPowerBalance",
    "extended_power_balance",
    "harmonic_flow_identity",
    "IntegrabilityReport",
    "integrability_check",
]

CONDITION_TOL = 1e-9
WITNESS_TOL = 1e-8


@dataclass
class StokesDiracSystem:
    """States at the complementary degrees of one Stokes-Dirac structure."""

    metric: Metric
    p: int
    q: int
    alpha_p: Cochain
    alpha_q: Cochain

    def __post_init__(self):
        validate_degree_pair(self.metric.complex.dimension, self.p, self.q)
        _check_metric(self.metric, self.alpha_p)
        _check_metric(self.metric, self.alpha_q)
        if self.alpha_p.degree != self.p or self.alpha_q.degree != self.q:
            raise DegreeMismatch(
                f"states must have degrees ({self.p}, {self.q}), got "
                f"({self.alpha_p.degree}, {self.alpha_q.degree})"
            )

    def with_state(self, alpha_p: Cochain, alpha_q: Cochain) -> "StokesDiracSystem":
        return StokesDiracSystem(self.metric, self.p, self.q, alpha_p, alpha_q)


def system_operators(metric: Metric, p: int, q: int) -> dict:
    """Cached state-to-effort and state-to-flow matrices for one pair."""
    validate_degree_pair(metric.complex.dimension, p, q)
    return metric.cached(("sd_ops", p, q), lambda: _build_system_operators(metric, p, q))


def _build_system_operators(metric: Metric, p: int, q: int) -> dict:
    n = metric.complex.dimension
    sigma = -1 if (p * q + 1) % 2 else 1
    tau = -1 if (q * (n - q)) % 2 else 1
    W = metric.wedge(p - 1, q)
    effort_q = tau * sla.cho_solve(
        (metric.mass_cholesky(p - 1), True), W @ metric.d_matrix(q - 1)
    ) @ metric.deltac_matrix(q)
    effort_p = (
        -sigma
        * tau
        * sla.cho_solve(
            (metric.mass_cholesky(q - 1), True), metric.d_matrix(q - 1).T @ W.T
        )
        @ metric.deltac_matrix(p)
    )
    return {
        "sigma": sigma,
        "tau": tau,
        "effort_q": effort_q,  # alpha_q -> e_q at degree p-1
        "effort_p": effort_p,  # alpha_p -> e_p at degree q-1
        "flow_p": sigma * (metric.d_matrix(p - 1) @ effort_q),  # alpha_q -> f_p
        "flow_q": metric.d_matrix(q - 1) @ effort_p,  # alpha_p -> f_q
    }


def hamiltonian(sys: StokesDiracSystem) -> float:
    return 0.5 * (
        inner_product(sys.metric, sys.alpha_p, sys.alpha_p)
        + inner_product(sys.metric, sys.alpha_q, sys.alpha_q)
    )


def efforts(sys: StokesDiracSystem):
    """(e_p, e_q) at degrees (q-1, p-1)."""
    ops = system_operators(sys.metric, sys.p, sys.q)
    cx = sys.metric.complex
    e_p = Cochain(cx, sys.q - 1, ops["effort_p"] @ sys.alpha_p.values)
    e_q = Cochain(cx, sys.p - 1, ops["effort_q"] @ sys.alpha_q.values)
    return e_p, e_q


def flows(sys: StokesDiracSystem):
    """(f_p, f_q) at degrees (p, q); exact cochains by construction."""
    ops = system_operators(sys.metric, sys.p, sys.q)
    cx = sys.metric.complex
    f_p = Cochain(cx, sys.p, ops["flow_p"] @ sys.alpha_q.values)
    f_q = Cochain(cx, sys.q, ops["flow_q"] @ sys.alpha_p.values)
    return f_p, f_q


def boundary_port(sys: StokesDiracSystem):
    """Boundary port pair (f_b, e_b) = (trace e_p, (-1)^p trace e_q)."""
    e_p, e_q = efforts(sys)
    f_b = tangential_trace(sys.metric, e_p)
    e_b = (-1) ** sys.p * tangential_trace(sys.metric, e_q)
    return f_b, e_b


@dataclass
class PowerBalance:
    """Exact split of the energy rate.

    dH_dt equals internal_term + boundary_term up to rounding; the
    internal term is the antisymmetric d/delta pairing and cancels
    identically, so on closed meshes dH_dt itself is zero to rounding.
    """

    dH_dt: float
    internal_term: float
    boundary_term: float
    split_residual: float
    scale: float


def _power_pieces(sys: StokesDiracSystem):
    m = sys.metric
    sigma = system_operators(m, sys.p, sys.q)["sigma"]
    e_p, e_q = efforts(sys)
    f_p, f_q = flows(sys)
    dH = inner_product(m, sys.alpha_p, f_p) + inner_product(m, sys.alpha_q, f_q)
    dc_p = codifferential_constrained(m, sys.alpha_p)
    dc_q = codifferential_constrained(m, sys.alpha_q)
    internal = sigma * inner_product(m, e_q, dc_p) + inner_product(m, e_p, dc_q)
    boundary = sigma * green_defect_constrained(m, e_q, sys.alpha_p) + (
        green_defect_constrained(m, e_p, sys.alpha_q)
    )
    # Every term is a fixed linear image of the state, so rounding scales
    # with the state even when the flows cancel to zero; floor the scale
    # with the squared state norm so residual ratios stay meaningful.
    state_norm = norm(m, sys.alpha_p) + norm(m, sys.alpha_q)
    flow_norm = norm(m, f_p) + norm(m, f_q)
    scale = max(state_norm * flow_norm, state_norm * state_norm, 1e-30)
    return e_p, e_q, f_p, f_q, dH, internal, boundary, scale, sigma


def power_balance(sys: StokesDiracSystem) -> PowerBalance:
    _, _, _, _, dH, internal, boundary, scale, _ = _power_pieces(sys)
    return PowerBalance(
        dH_dt=dH,
        internal_term=internal,
        boundary_term=boundary,
        split_residual=abs(dH - internal - boundary),
        scale=scale,
    )


@dataclass
class ExtendedPowerBalance:
    """Power balance with the boundary term split along the
    Dirichlet-harmonic projections of the states.

    The harmonic part collects the pairings against the topologically
    informative projections (state degrees 1..n-1); the exact part is the
    rest.  Flow diagnostics record how each flow sits against the same
    harmonic spaces and how exactly it is closed.
    """

    dH_dt: float
    internal_term: float
    boundary_term: float
    split_residual: float
    scale: float
    harmonic_boundary_part: float
    exact_boundary_part: float
    bilinearity_residual: float
    state_harmonic_coefficients: dict
    flow_harmonic_coefficients: dict
    flow_closedness: dict


def extended_power_balance(sys: StokesDiracSystem) -> ExtendedPowerBalance:
    m = sys.metric
    n = m.complex.dimension
    e_p, e_q, f_p, f_q, dH, internal, boundary, scale, sigma = _power_pieces(sys)

    state_coeffs: dict = {}
    flow_coeffs: dict = {}
    closedness: dict = {}
    harmonic_part = 0.0
    exact_part = 0.0
    slots = [
        ("p", sys.p, sys.alpha_p, e_q, f_p, float(sigma)),
        ("q", sys.q, sys.alpha_q, e_p, f_q, 1.0),
    ]
    for name, deg, alpha, effort, flow, sgn in slots:
        basis = harmonic_basis(m, deg, "dirichlet")
        coeffs, proj = harmonic_projection(basis, alpha)
        state_coeffs[name] = coeffs
        fc, _ = harmonic_projection(basis, flow)
        flow_coeffs[name] = fc
        closedness[name] = (
            norm(m, exterior_derivative(m, flow)) if deg < n else 0.0
        )
        if 1 <= deg <= n - 1:
            harmonic_part += sgn * green_defect_constrained(m, effort, proj)
            exact_part += sgn * green_defect_constrained(m, effort, alpha - proj)
        else:
            exact_part += sgn * green_defect_constrained(m, effort, alpha)

    return ExtendedPowerBalance(
        dH_dt=dH,
        internal_term=internal,
        boundary_term=boundary,
        split_residual=abs(dH - internal - boundary),
        scale=scale,
        harmonic_boundary_part=harmonic_part,
        exact_boundary_part=exact_part,
        bilinearity_residual=abs(boundary - harmonic_part - exact_part),
        state_harmonic_coefficients=state_coeffs,
        flow_harmonic_coefficients=flow_coeffs,
        flow_closedness=closedness,
    )


def harmonic_flow_identity(sys: StokesDiracSystem) -> list[dict]:
    """Pair each flow with the Dirichlet-harmonic basis of its degree and
    compare against the boundary pairing of the matching effort.

    Since delta_c annihilates Dirichlet-harmonic fields, the interior
    term drops and <<f, lambda>> must equal the constrained Green defect
    of the driving effort against lambda, for any state.
    """
    m = sys.metric
    sigma = system_operators(m, sys.p, sys.q)["sigma"]
    e_p, e_q = efforts(sys)
    f_p, f_q = flows(sys)
    state_norm = norm(m, sys.alpha_p) + norm(m, sys.alpha_q)
    rows = []
    for name, deg, effort, flow, sgn in (
        ("p", sys.p, e_q, f_p, float(sigma)),
        ("q", sys.q, e_p, f_q, 1.0),
    ):
        basis = harmonic_basis(m, deg, "dirichlet")
        flow_norm = norm(m, flow)
        for i in range(basis.dim):
            lam = basis.element(i)
            fp = inner_product(m, flow, lam)
            bp = sgn * green_defect_constrained(m, effort, lam)
            rows.append(
                {
                    "slot": name,
                    "degree": deg,
                    "index": i,
                    "flow_pairing": fp,
                    "boundary_pairing": bp,
                    "residual": abs(fp - bp),
                    "flow_norm": flow_norm,
                    "state_norm": state_norm,
                }
            )
    return rows


# -- integrability ------------------------------------------------------------


@dataclass
class IntegrabilityReport:
    """Solvability of de = f with te = psi.

    The verdict comes from three residuals (closedness of f, trace
    compatibility with psi, and pairing against the Dirichlet-harmonic
    obstructions); a witness potential is produced only when solvable.
    """

    solvable: bool
    closedness_residual: float
    trace_residual: float
    harmonic_residual: float
    scale: float
    witness: Cochain | None = None
    witness_residual: float | None = None


def integrability_check(
    metric: Metric, f: Cochain, psi: Cochain | None = None
) -> IntegrabilityReport:
    """Decide whether f = de for some e with tangential trace psi.

    Args:
        f: Target cochain, degree 1..n.
        psi: Prescribed boundary trace at degree k-1, on the boundary
            complex; None means zero trace (and is the only option on a
            closed mesh).
    """
    _check_metric(metric, f)
    k = f.degree
    if k == 0:
        raise DegreeMismatch("a 0-cochain is not an exterior derivative")
    n = metric.complex.dimension
    bc = metric.boundary_complex
    closed = bc.num_simplices(0) == 0

    if psi is None:
        psi = Cochain(bc, k - 1, np.zeros(bc.num_simplices(k - 1)))
    if not same_complex(psi.complex, bc):
        raise ComplexMismatch("psi must live on the boundary complex")
    if psi.degree != k - 1:
        raise DegreeMismatch(f"psi must have degree {k - 1}")

    ext = extend_by_zero(metric, psi)
    d_ext = exterior_derivative(metric, ext)
    scale = max(norm(metric, f), norm(metric, d_ext), 1e-30)

    closed_res = (
        norm(metric, exterior_derivative(metric, f)) / scale if k < n else 0.0
    )

    if k <= n - 1 and not closed:
        bm = metric.boundary_metric()
        mismatch = tangential_trace(metric, f) - exterior_derivative(bm, psi)
        trace_res = norm(bm, mismatch) / scale
    else:
        trace_res = 0.0

    basis = harmonic_basis(metric, k, "dirichlet")
    harm_res = 0.0
    for i in range(basis.dim):
        lam = basis.element(i)
        harm_res = max(
            harm_res,
            abs(inner_product(metric, f, lam) - inner_product(metric, d_ext, lam))
            / scale,
        )

    solvable = max(closed_res, trace_res, harm_res) <= CONDITION_TOL
    report = IntegrabilityReport(
        solvable=solvable,
        closedness_residual=closed_res,
        trace_residual=trace_res,
        harmonic_residual=harm_res,
        scale=scale,
    )
    if not solvable:
        return report

    _, solver = _exact_range_solver(metric, k)
    g = f.values - d_ext.values
    u = solver(metric.mass_cholesky(k).T @ g)
    e_vals = ext.values.copy()
    idx = metric.interior_indices(k - 1)
    e_vals[idx] += u
    witness = Cochain(metric.complex, k - 1, e_vals)
    resid = norm(metric, exterior_derivative(metric, witness) - f) / scale
    if resid > WITNESS_TOL:
        raise SolverFailure(
            f"integrable by the conditions but the witness residual is {resid:.3e}"
        )
    report.witness = witness
    report.witness_residual = resid
    return report
