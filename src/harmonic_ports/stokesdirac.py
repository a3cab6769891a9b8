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

These maps and the stacked layout of (alpha_p, alpha_q) are decided once,
per slot (`system_operators`), and applied by sparse solves, never formed.
Each midpoint step reads the arrays of `_port_action`; efforts, flows,
every balance and the flow identity read one record per state, `_port`:
that port action with its block products and slot norms.  One
`_power_rate` sums the power terms; cochains are built for public results.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ComplexMismatch, DegreeMismatch, SolverFailure
from .hodge import _mixed_potential, harmonic_basis, harmonic_projection, validate_degree_pair
from .metric import (
    Cochain,
    Metric,
    _check_metric,
    _delta,
    extend_by_zero,
    exterior_derivative,
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


_SlotMap = namedtuple("_SlotMap", "degree sign factor coupling free a mz e")  # see system_operators
_Layout = namedtuple("_Layout", "slots D mass mass_z")  # see system_operators


def system_operators(metric: Metric, p: int, q: int) -> dict:
    """Cached signs sigma, tau, the sparse coupling W d = wedge_csr(p-1, q)
    d_{q-1} and the port map with its stacked layout ("layout", a `_Layout`):
    per slot a `_SlotMap`, (p, sigma, tau, W d) and (q, 1, -sigma tau, (W d)^T),
    whose effort, at degree - 1, is factor M^-1 coupling z with z = delta_c of
    the other slot's state, its flow sign d(effort); its free (interior)
    (degree - 1)-rows and its slices of a = (alpha_p, alpha_q), M z and
    e = (e_p, e_q).  D e = (f_p, f_q); mass, mass_z: the block masses of a, z."""
    validate_degree_pair(metric.complex.dimension, p, q)

    def build():
        cx, M = metric.complex, metric.mass_csr
        n, (na, nz, ne) = cx.dimension, (cx.num_simplices(k) for k in (p, p - 1, q - 1))
        sigma, tau = (-1) ** (p * q + 1), (-1) ** (q * (n - q))
        Wd = metric.wedge_csr(p - 1, q) @ cx.exterior_derivative_matrix(q - 1)
        fp, fq = (metric.free_indices(k - 1, "dirichlet") for k in (p, q))
        slots = (
            _SlotMap(p, sigma, tau, Wd, fp, slice(0, na), slice(0, nz), slice(ne, None)),
            _SlotMap(q, 1, -sigma * tau, Wd.T, fq, slice(na, None), slice(nz, None), slice(0, ne)),
        )
        d = [s.sign * cx.exterior_derivative_matrix(s.degree - 1) for s in slots]
        layout = _Layout(
            slots,
            D=sp.bmat([[None, d[0]], [d[1], None]], format="csr"),
            mass=sp.block_diag([M(s.degree) for s in slots], format="csr"),
            mass_z=sp.block_diag([M(s.degree - 1)[:, s.free] for s in slots], format="csr"),
        )
        return {"sigma": sigma, "tau": tau, "coupling": Wd, "layout": layout}

    return metric.cached(("sd_ops", p, q), build)


def _port_action(metric: Metric, p: int, q: int, a: np.ndarray):
    """(z, e, f) of a stacked state a, in the midpoint unknowns' order:
    z = delta_c alpha per slot on its free rows (one interior-mass solve
    each), e = (e_p, e_q), each slot's effort from the other's z (one mass
    solve each against its coupling), and the flows f = D e."""
    layout = system_operators(metric, p, q)["layout"]
    z = [_delta(metric, s.degree, a[s.a], "dirichlet") for s in layout.slots]
    e = np.concatenate([s.factor * metric.mass_lu(s.degree - 1).solve(s.coupling @ z_o)
                        for s, z_o in zip(layout.slots[::-1], z)])
    return np.concatenate([z_s[s.free] for s, z_s in zip(layout.slots, z)]), e, layout.D @ e


_Port = namedtuple("_Port", "metric layout a z e f Ma Mf Mz state_norms flow_norms")  # see _port


def _port(sys: StokesDiracSystem) -> _Port:
    """The record of a state: a = (alpha_p, alpha_q), its port action (z, e,
    f), the block products M a, M f, M_z z and the slot norms of a and f."""
    m, layout = sys.metric, system_operators(sys.metric, sys.p, sys.q)["layout"]
    a = np.concatenate([sys.alpha_p.values, sys.alpha_q.values])
    z, e, f = _port_action(m, sys.p, sys.q, a)
    Ma, Mf, Mz = layout.mass @ a, layout.mass @ f, layout.mass_z @ z
    return _Port(m, layout, a, z, e, f, Ma, Mf, Mz, _norms(layout, a, Ma), _norms(layout, f, Mf))


def _norms(layout: _Layout, v: np.ndarray, Mv: np.ndarray) -> list[float]:
    """The Whitney norms of v's slots (degrees p, q); Mv = layout.mass @ v."""
    return [math.sqrt(max(float(v[s.a] @ Mv[s.a]), 0.0)) for s in layout.slots]


def hamiltonian(sys: StokesDiracSystem) -> float:
    return 0.5 * sum(inner_product(sys.metric, a, a) for a in (sys.alpha_p, sys.alpha_q))


def efforts(sys: StokesDiracSystem):
    """(e_p, e_q) at degrees (q-1, p-1): the efforts of slots q and p."""
    r = _port(sys)
    return tuple(Cochain(r.metric.complex, s.degree - 1, r.e[s.e]) for s in r.layout.slots[::-1])


def flows(sys: StokesDiracSystem):
    """(f_p, f_q) at degrees (p, q); exact cochains by construction."""
    r = _port(sys)
    return tuple(Cochain(r.metric.complex, s.degree, r.f[s.a]) for s in r.layout.slots)


@dataclass
class PowerBalance:
    """Exact split of the energy rate.

    dH_dt equals internal_term + boundary_term up to rounding; the
    internal term is the antisymmetric d/delta pairing and cancels
    identically, so on closed meshes dH_dt itself is zero to rounding.
    boundary_term is dH_dt minus the internal term; split_residual
    compares it with sum sign (<<d e_b, alpha>> - <<e_b, z>>) over the
    slots, e_b the effort zeroed on the free simplices, which reads the
    efforts' traces alone and agrees only if z = delta_c alpha.
    """

    dH_dt: float
    internal_term: float
    boundary_term: float
    split_residual: float
    scale: float


def _power_rate(layout: _Layout, a, e, Mf, Mz) -> tuple[float, float]:
    """(dH/dt, boundary term) of a stacked state a from its port action's
    e, Mf = layout.mass @ f and Mz = layout.mass_z @ z.  The boundary term,
    sum of <<f, alpha>> - sign <<effort, z>> over the slots, is dH/dt minus
    the internal term."""
    dH = sum(float(a[s.a] @ Mf[s.a]) for s in layout.slots)
    return dH, dH - sum(s.sign * float(e[s.e] @ Mz[s.mz]) for s in layout.slots)


def _balance(r: _Port) -> PowerBalance:
    """The PowerBalance of a state's record."""
    dH, boundary = _power_rate(r.layout, r.a, r.e, r.Mf, r.Mz)
    internal, traced = dH - boundary, 0.0
    for s in r.layout.slots:
        e_b = r.e[s.e].copy()
        e_b[s.free] = 0.0
        d_e_b = r.metric.complex.exterior_derivative_matrix(s.degree - 1) @ e_b
        traced += s.sign * (float(d_e_b @ r.Ma[s.a]) - float(e_b @ r.Mz[s.mz]))
    # Every term is a fixed linear image of the state, so rounding scales
    # with the state even when the flows cancel to zero; floor the scale
    # with the squared state norm so residual ratios stay meaningful.
    state_norm, flow_norm = sum(r.state_norms), sum(r.flow_norms)
    return PowerBalance(
        dH_dt=dH,
        internal_term=internal,
        boundary_term=boundary,
        split_residual=abs(dH - internal - traced),
        scale=max(state_norm * flow_norm, state_norm * state_norm, 1e-30),
    )


def power_balance(sys: StokesDiracSystem) -> PowerBalance:
    return _balance(_port(sys))


def _flow_identity(r: _Port) -> tuple[dict, list[dict]]:
    """The flows' Dirichlet-harmonic coefficients per slot, and one row
    per slot and basis element lambda: the flow pairing <<f, lambda>> (a
    coefficient) against the boundary pairing, sign times the constrained
    Green defect of the effort against lambda, <<f, lambda>> - sign
    <<effort, delta_c lambda>> since f = sign d(effort); delta_c of the
    whole basis is one block solve."""
    m, state_norm, coeffs, rows = r.metric, sum(r.state_norms), {}, []
    for name, s, flow_norm in zip("pq", r.layout.slots, r.flow_norms):
        basis = harmonic_basis(m, s.degree, "dirichlet")
        coeffs[name] = pairing = basis.vectors.T @ r.Mf[s.a]
        if not basis.dim:
            continue
        dV = _delta(m, s.degree, basis.vectors, "dirichlet")
        boundary = pairing - s.sign * (dV.T @ (m.mass_csr(s.degree - 1) @ r.e[s.e]))
        common = {"slot": name, "degree": s.degree, "flow_norm": flow_norm, "state_norm": state_norm}
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
    proj: a fresh delta_c solve where proj is non-zero, so the bilinearity
    residual compares separately solved codifferentials; with an empty
    Dirichlet basis it would be bitwise the port action's z, read instead.
    Flow diagnostics record how each flow sits against the same harmonic
    spaces and how exactly it is closed; flow_identity_rows are the rows
    `harmonic_flow_identity` returns.
    """

    harmonic_boundary_part: float
    exact_boundary_part: float
    bilinearity_residual: float
    state_harmonic_coefficients: dict
    flow_harmonic_coefficients: dict
    flow_closedness: dict
    flow_identity_rows: list


def extended_power_balance(sys: StokesDiracSystem) -> ExtendedPowerBalance:
    r = _port(sys)
    m, cx, balance, (flow_coeffs, rows) = r.metric, r.metric.complex, _balance(r), _flow_identity(r)
    n, state_coeffs, closedness, exact_part = cx.dimension, {}, {}, 0.0
    for name, s in zip("pq", r.layout.slots):
        basis, e, f, Ma = harmonic_basis(m, s.degree, "dirichlet"), r.e[s.e], r.f[s.a], r.Ma[s.a]
        state_coeffs[name] = coeffs = basis.vectors.T @ Ma
        if s.degree == n:
            closedness[name] = 0.0
            exact_part += float(f @ Ma) - s.sign * float(e @ r.Mz[s.mz])
            continue
        closedness[name] = norm(m, exterior_derivative(m, Cochain(cx, s.degree, f)))
        Mb, Mdb = Ma, r.Mz[s.mz]  # M b and M delta_c b of b = alpha - proj
        if basis.dim:
            b = r.a[s.a] - basis.vectors @ coeffs
            Mb = m.mass_csr(s.degree) @ b
            Mdb = m.mass_csr(s.degree - 1) @ _delta(m, s.degree, b, "dirichlet")
        d_e = cx.exterior_derivative_matrix(s.degree - 1) @ e
        exact_part += s.sign * (float(d_e @ Mb) - float(e @ Mdb))
    harmonic_part = float(sum((state_coeffs[row["slot"]][row["index"]] * row["boundary_pairing"]
                               for row in rows if row["degree"] < n), 0.0))

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
    return _flow_identity(_port(sys))[1]


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

    # the witness solve runs first, so the Dirichlet basis it needs is
    # built on the saddle factor its record keeps
    sigma = _mixed_potential(metric, k, "dirichlet", f.values - d_ext.values)
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

    witness = ext + Cochain(metric.complex, k - 1, sigma)
    resid = norm(metric, exterior_derivative(metric, witness) - f) / scale
    if resid > WITNESS_TOL:
        raise SolverFailure(
            f"integrable by the conditions but the witness residual is {resid:.3e}"
        )
    report.witness = witness
    report.witness_residual = resid
    return report
