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

These maps are applied by sparse solves, never formed.  Efforts, flows,
every balance and the flow identity read one port action per state: a
record per slot (`_Slot`) that pairs the slot with its effort once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComplexMismatch, DegreeMismatch, SolverFailure
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
    _delta,
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


@dataclass
class _Slot:
    """One slot of a port action: the state alpha at `degree`, z = delta_c
    alpha, the effort that drives the slot (degree - 1), its flow
    f = sign d(effort) and that sign (sigma for slot p, 1 for slot q)."""

    degree: int
    alpha: Cochain
    z: Cochain
    effort: Cochain
    flow: Cochain
    sign: int

    def interior(self, m: Metric) -> float:
        """sign <<effort, z>>, the slot's share of the internal term."""
        return self.sign * inner_product(m, self.effort, self.z)


def _port_action(sys: StokesDiracSystem) -> tuple[_Slot, _Slot]:
    """The slot records (p, q) of one state: z = delta_c alpha per slot
    (one interior-mass solve each), the efforts (one mass solve each
    against the coupling) and their flows (`_port`)."""
    m, p, q = sys.metric, sys.p, sys.q
    ops = system_operators(m, p, q)
    sigma, tau, Wd = ops["sigma"], ops["tau"], ops["coupling"]
    z_p = _delta(m, p, sys.alpha_p.values, "dirichlet")
    z_q = _delta(m, q, sys.alpha_q.values, "dirichlet")
    e_q = tau * m.mass_lu(p - 1).solve(Wd @ z_q)
    e_p = -sigma * tau * m.mass_lu(q - 1).solve(Wd.T @ z_p)
    return _port(sys, z_p, z_q, e_p, e_q)


def _port(sys: StokesDiracSystem, z_p, z_q, e_p, e_q) -> tuple[_Slot, _Slot]:
    """The slot records of a state from z and the efforts: slot p is driven
    by e_q with sign sigma, slot q by e_p with sign 1."""
    cx = sys.metric.complex
    sigma = system_operators(sys.metric, sys.p, sys.q)["sigma"]

    def slot(k, alpha, z, e, sign):
        f = sign * (cx.exterior_derivative_matrix(k - 1) @ e)
        return _Slot(k, alpha, Cochain(cx, k - 1, z), Cochain(cx, k - 1, e), Cochain(cx, k, f), sign)

    return slot(sys.p, sys.alpha_p, z_p, e_q, sigma), slot(sys.q, sys.alpha_q, z_q, e_p, 1)


def hamiltonian(sys: StokesDiracSystem) -> float:
    return 0.5 * (
        inner_product(sys.metric, sys.alpha_p, sys.alpha_p)
        + inner_product(sys.metric, sys.alpha_q, sys.alpha_q)
    )


def efforts(sys: StokesDiracSystem):
    """(e_p, e_q) at degrees (q-1, p-1)."""
    slot_p, slot_q = _port_action(sys)
    return slot_q.effort, slot_p.effort


def flows(sys: StokesDiracSystem):
    """(f_p, f_q) at degrees (p, q); exact cochains by construction."""
    return tuple(s.flow for s in _port_action(sys))


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


def _power_rate(m: Metric, port) -> tuple[float, float]:
    """(dH/dt, boundary term) of one state from its slot records.  The
    boundary term, the sum of <<f, alpha>> - sign <<effort, z>> (sign times
    a constrained Green defect), is dH/dt minus the internal term."""
    dH = sum(inner_product(m, s.alpha, s.flow) for s in port)
    return dH, dH - sum(s.interior(m) for s in port)


def _balance(m: Metric, port) -> PowerBalance:
    """The PowerBalance of one state from its slot records."""
    dH, boundary = _power_rate(m, port)
    internal = dH - boundary
    # Every term is a fixed linear image of the state, so rounding scales
    # with the state even when the flows cancel to zero; floor the scale
    # with the squared state norm so residual ratios stay meaningful.
    state_norm = norm(m, port[0].alpha) + norm(m, port[1].alpha)
    flow_norm = norm(m, port[0].flow) + norm(m, port[1].flow)
    return PowerBalance(
        dH_dt=dH,
        internal_term=internal,
        boundary_term=boundary,
        split_residual=abs(dH - internal - boundary),
        scale=max(state_norm * flow_norm, state_norm * state_norm, 1e-30),
    )


def power_balance(sys: StokesDiracSystem) -> PowerBalance:
    return _balance(sys.metric, _port_action(sys))


def _flow_identity(m: Metric, port) -> tuple[dict, list[dict]]:
    """The flows' Dirichlet-harmonic coefficients per slot, and one row
    per slot and basis element lambda: the flow pairing <<f, lambda>> (a
    coefficient) against the boundary pairing, sign times the constrained
    Green defect of the effort against lambda, <<f, lambda>> - sign
    <<effort, delta_c lambda>> since f = sign d(effort); delta_c of the
    whole basis is one block solve."""
    state_norm = norm(m, port[0].alpha) + norm(m, port[1].alpha)
    coeffs, rows = {}, []
    for name, s in zip("pq", port):
        basis = harmonic_basis(m, s.degree, "dirichlet")
        coeffs[name] = pairing = harmonic_projection(basis, s.flow)[0]
        if not basis.dim:
            continue
        dV = _delta(m, s.degree, basis.vectors, "dirichlet")
        boundary = pairing - s.sign * (dV.T @ (m.mass_csr(s.degree - 1) @ s.effort.values))
        common = {"slot": name, "degree": s.degree, "flow_norm": norm(m, s.flow), "state_norm": state_norm}
        rows += [
            {**common, "index": i, "flow_pairing": fp, "boundary_pairing": bp, "residual": abs(fp - bp)}
            for i, (fp, bp) in enumerate(zip(pairing.tolist(), boundary.tolist()))
        ]
    return coeffs, rows


@dataclass
class ExtendedPowerBalance(PowerBalance):
    """Power balance with the boundary term split along the
    Dirichlet-harmonic projections of the states, from one port action.

    The harmonic part collects the pairings against the topologically
    informative projections (state degrees 1..n-1): the state
    coefficients times the boundary pairings of flow_identity_rows.  The
    exact part is the rest, a constrained Green defect against alpha -
    proj by a fresh delta_c solve, so the bilinearity residual compares
    separately solved codifferentials.  Flow diagnostics record how each
    flow sits against the same harmonic spaces and how exactly it is
    closed; flow_identity_rows are the rows `harmonic_flow_identity`
    returns.
    """

    harmonic_boundary_part: float
    exact_boundary_part: float
    bilinearity_residual: float
    state_harmonic_coefficients: dict
    flow_harmonic_coefficients: dict
    flow_closedness: dict
    flow_identity_rows: list


def extended_power_balance(sys: StokesDiracSystem) -> ExtendedPowerBalance:
    m = sys.metric
    n = m.complex.dimension
    port = _port_action(sys)
    balance = _balance(m, port)
    flow_coeffs, rows = _flow_identity(m, port)

    state_coeffs, closedness, exact_part = {}, {}, 0.0
    for name, s in zip("pq", port):
        basis = harmonic_basis(m, s.degree, "dirichlet")
        state_coeffs[name], proj = harmonic_projection(basis, s.alpha)
        closedness[name] = norm(m, exterior_derivative(m, s.flow)) if s.degree < n else 0.0
        if s.degree < n:
            exact_part += s.sign * green_defect_constrained(m, s.effort, s.alpha - proj)
        else:
            exact_part += inner_product(m, s.flow, s.alpha) - s.interior(m)
    harmonic_part = float(sum(
        (state_coeffs[r["slot"]][r["index"]] * r["boundary_pairing"] for r in rows if r["degree"] < n),
        0.0,
    ))

    return ExtendedPowerBalance(
        **vars(balance),
        harmonic_boundary_part=harmonic_part,
        exact_boundary_part=exact_part,
        bilinearity_residual=abs(balance.boundary_term - harmonic_part - exact_part),
        state_harmonic_coefficients=state_coeffs,
        flow_harmonic_coefficients=flow_coeffs,
        flow_closedness=closedness,
        flow_identity_rows=rows,
    )


def harmonic_flow_identity(sys: StokesDiracSystem) -> list[dict]:
    """Pair each flow with the Dirichlet-harmonic basis of its degree and
    compare against the boundary pairing of the matching effort, from one
    port action; the rows of ExtendedPowerBalance.flow_identity_rows.

    Since delta_c annihilates Dirichlet-harmonic fields, the interior
    term drops and <<f, lambda>> must equal the constrained Green defect
    of the driving effort against lambda, for any state.
    """
    return _flow_identity(sys.metric, _port_action(sys))[1]


# -- integrability ------------------------------------------------------------


@dataclass
class IntegrabilityReport:
    """Solvability of de = f with te = psi.

    The verdict comes from three residuals (closedness of f, trace
    compatibility with psi, and pairing against the Dirichlet-harmonic
    obstructions), each relative to a size in its own degree and complex,
    so that no unit enters; a witness potential is produced only when
    solvable.
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

    if psi is None:
        psi = Cochain(bc, k - 1, np.zeros(bc.num_simplices(k - 1)))
    if not same_complex(psi.complex, bc):
        raise ComplexMismatch("psi must live on the boundary complex")
    if psi.degree != k - 1:
        raise DegreeMismatch(f"psi must have degree {k - 1}")

    ext = extend_by_zero(metric, psi)
    d_ext = exterior_derivative(metric, ext)
    scale = max(norm(metric, f), norm(metric, d_ext), 1e-30)

    # closedness and trace mismatch are measured in their own degree and
    # complex, against the cancellation-free size of the same terms
    closed_res = 0.0
    if k < n:
        d = metric.complex.exterior_derivative_matrix(k)
        df, size = (Cochain(f.complex, k + 1, x) for x in (d @ f.values, abs(d) @ abs(f.values)))
        closed_res = norm(metric, df) / max(norm(metric, size), 1e-300)

    if k <= n - 1 and not metric.closed:
        bm = metric.boundary_metric()
        tf, dpsi = tangential_trace(metric, f), exterior_derivative(bm, psi)
        trace_res = norm(bm, tf - dpsi) / max(norm(bm, tf) + norm(bm, dpsi), 1e-300)
    else:
        trace_res = 0.0

    obstruction = harmonic_projection(harmonic_basis(metric, k, "dirichlet"), f - d_ext)[0]
    harm_res = float(np.abs(obstruction).max(initial=0.0)) / scale

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
