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

These maps are applied by sparse solves, never formed: efforts, flows
and every balance read one port action, which solves delta_c alpha once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexMismatch,
    DegreeMismatch,
    SolverFailure,
)
from .hodge import (
    _mixed_potential,
    harmonic_basis,
    harmonic_projection,
    validate_degree_pair,
)
from .metric import (
    Cochain,
    Metric,
    _check_metric,
    _deltac,
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
    """Cached signs sigma, tau and the sparse wedge coupling W_{p-1,q}
    d_{q-1} of one pair, the product of the metric's wedge_csr(p-1, q)
    and the coboundary; no effort or flow matrix is formed."""
    validate_degree_pair(metric.complex.dimension, p, q)

    def build():
        n = metric.complex.dimension
        return {
            "sigma": -1 if (p * q + 1) % 2 else 1,
            "tau": -1 if (q * (n - q)) % 2 else 1,
            "coupling": metric.wedge_csr(p - 1, q)
            @ metric.complex.exterior_derivative_matrix(q - 1),
        }

    return metric.cached(("sd_ops", p, q), build)


def _port_action(sys: StokesDiracSystem) -> list[Cochain]:
    """[z_p, z_q, e_p, e_q, f_p, f_q]: z = delta_c alpha per slot (one
    interior-mass solve each), the efforts (one mass solve each against
    the coupling) and the flows f_p = sigma d e_q, f_q = d e_p."""
    m, p, q = sys.metric, sys.p, sys.q
    ops = system_operators(m, p, q)
    sigma, tau, Wd = ops["sigma"], ops["tau"], ops["coupling"]
    d = m.complex.exterior_derivative_matrix
    z_p = _deltac(m, p, sys.alpha_p.values)
    z_q = _deltac(m, q, sys.alpha_q.values)
    e_q = tau * m.mass_lu(p - 1).solve(Wd @ z_q)
    e_p = -sigma * tau * m.mass_lu(q - 1).solve(Wd.T @ z_p)
    values = (z_p, z_q, e_p, e_q, sigma * (d(p - 1) @ e_q), d(q - 1) @ e_p)
    degrees = (p - 1, q - 1, q - 1, p - 1, p, q)
    return [Cochain(m.complex, k, v) for k, v in zip(degrees, values)]


def hamiltonian(sys: StokesDiracSystem) -> float:
    return 0.5 * (
        inner_product(sys.metric, sys.alpha_p, sys.alpha_p)
        + inner_product(sys.metric, sys.alpha_q, sys.alpha_q)
    )


def efforts(sys: StokesDiracSystem):
    """(e_p, e_q) at degrees (q-1, p-1)."""
    return tuple(_port_action(sys)[2:4])


def flows(sys: StokesDiracSystem):
    """(f_p, f_q) at degrees (p, q); exact cochains by construction."""
    return tuple(_port_action(sys)[4:])


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


def _defect(m: Metric, effort: Cochain, alpha: Cochain, z: Cochain) -> float:
    """green_defect_constrained(m, effort, alpha), given z = delta_c alpha."""
    de = exterior_derivative(m, effort)
    return inner_product(m, de, alpha) - inner_product(m, effort, z)


def _power_pieces(sys: StokesDiracSystem):
    """The port action and the PowerBalance fields of one state."""
    m = sys.metric
    sigma = system_operators(m, sys.p, sys.q)["sigma"]
    port = z_p, z_q, e_p, e_q, f_p, f_q = _port_action(sys)
    dH = inner_product(m, sys.alpha_p, f_p) + inner_product(m, sys.alpha_q, f_q)
    internal = sigma * inner_product(m, e_q, z_p) + inner_product(m, e_p, z_q)
    boundary = sigma * _defect(m, e_q, sys.alpha_p, z_p) + _defect(m, e_p, sys.alpha_q, z_q)
    # Every term is a fixed linear image of the state, so rounding scales
    # with the state even when the flows cancel to zero; floor the scale
    # with the squared state norm so residual ratios stay meaningful.
    state_norm = norm(m, sys.alpha_p) + norm(m, sys.alpha_q)
    flow_norm = norm(m, f_p) + norm(m, f_q)
    scale = max(state_norm * flow_norm, state_norm * state_norm, 1e-30)
    fields = dict(
        dH_dt=dH,
        internal_term=internal,
        boundary_term=boundary,
        split_residual=abs(dH - internal - boundary),
        scale=scale,
    )
    return port, sigma, fields


def power_balance(sys: StokesDiracSystem) -> PowerBalance:
    return PowerBalance(**_power_pieces(sys)[2])


@dataclass
class ExtendedPowerBalance(PowerBalance):
    """Power balance with the boundary term split along the
    Dirichlet-harmonic projections of the states.

    The harmonic part collects the pairings against the topologically
    informative projections (state degrees 1..n-1); the exact part is the
    rest.  Flow diagnostics record how each flow sits against the same
    harmonic spaces and how exactly it is closed.
    """

    harmonic_boundary_part: float
    exact_boundary_part: float
    bilinearity_residual: float
    state_harmonic_coefficients: dict
    flow_harmonic_coefficients: dict
    flow_closedness: dict


def extended_power_balance(sys: StokesDiracSystem) -> ExtendedPowerBalance:
    m = sys.metric
    n = m.complex.dimension
    (z_p, z_q, e_p, e_q, f_p, f_q), sigma, fields = _power_pieces(sys)

    state_coeffs: dict = {}
    flow_coeffs: dict = {}
    closedness: dict = {}
    harmonic_part = 0.0
    exact_part = 0.0
    slots = [
        ("p", sys.p, sys.alpha_p, z_p, e_q, f_p, float(sigma)),
        ("q", sys.q, sys.alpha_q, z_q, e_p, f_q, 1.0),
    ]
    for name, deg, alpha, z, effort, flow, sgn in slots:
        basis = harmonic_basis(m, deg, "dirichlet")
        state_coeffs[name], proj = harmonic_projection(basis, alpha)
        flow_coeffs[name] = harmonic_projection(basis, flow)[0]
        closedness[name] = norm(m, exterior_derivative(m, flow)) if deg < n else 0.0
        if 1 <= deg <= n - 1:
            harmonic_part += sgn * green_defect_constrained(m, effort, proj)
            exact_part += sgn * green_defect_constrained(m, effort, alpha - proj)
        else:
            exact_part += sgn * _defect(m, effort, alpha, z)

    return ExtendedPowerBalance(
        **fields,
        harmonic_boundary_part=harmonic_part,
        exact_boundary_part=exact_part,
        bilinearity_residual=abs(fields["boundary_term"] - harmonic_part - exact_part),
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
    _, _, e_p, e_q, f_p, f_q = _port_action(sys)
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

    sigma = _mixed_potential(metric, k, "dirichlet", f.values - d_ext.values)
    witness = ext + Cochain(metric.complex, k - 1, sigma)
    resid = norm(metric, exterior_derivative(metric, witness) - f) / scale
    if resid > WITNESS_TOL:
        raise SolverFailure(
            f"integrable by the conditions but the witness residual is {resid:.3e}"
        )
    report.witness = witness
    report.witness_residual = resid
    return report
