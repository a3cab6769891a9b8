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
per slot (`system_operators`); this module alone states the port map, by
sparse solves and products, never formed: as one record per state (`_port`:
block products over both slots, one solve call per mass factor), read by
the efforts, flows, balances (d(effort) is sign f), flow identity and the
simulation's checks; and as rows (`_port_rows`), from which the midpoint
operator is assembled and the spectral radius's Gram is read.  One
`_power_rate` sums the power terms.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ComplexMismatch, DegreeMismatch, FactorizationFailure, SolverFailure
from .hodge import (_basis_with_factor, _mixed_potential, harmonic_basis, harmonic_projection,
                    validate_degree_pair)
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
_Layout = namedtuple("_Layout", "slots D mass mass_fz boundary")  # see system_operators


def system_operators(metric: Metric, p: int, q: int) -> dict:
    """Cached signs sigma, tau, the sparse coupling W d = wedge_csr(p-1, q)
    d_{q-1} and the port map with its stacked layout ("layout", a `_Layout`):
    per slot a `_SlotMap`, (p, sigma, tau, W d) and (q, 1, -sigma tau, (W d)^T),
    whose effort, at degree - 1, is factor M^-1 coupling z with z = delta_c of
    the other slot's state, its flow sign d(effort); its free (interior)
    (degree - 1)-rows and its slices of a = (alpha_p, alpha_q), M z and
    e = (e_p, e_q).  D e = (f_p, f_q); mass, mass_fz: the block masses of a
    and of (f, z); boundary: each slot's B_degree on its free rows."""
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
        mass = sp.block_diag([M(s.degree) for s in slots], format="csr")
        mass_z = sp.block_diag([M(s.degree - 1)[:, s.free] for s in slots], format="csr")
        boundary = sp.block_diag([cx.boundary_matrix(s.degree)[s.free] for s in slots], format="csr")
        D = sp.bmat([[None, d[0]], [d[1], None]], format="csr")
        layout = _Layout(slots, D, mass, sp.block_diag([mass, mass_z], format="csr"), boundary)
        return {"sigma": sigma, "tau": tau, "coupling": Wd, "layout": layout}

    return metric.cached(("sd_ops", p, q), build)


_Port = namedtuple("_Port", "metric layout a z e f Ma Mf Mz state_norms flow_norms")  # see _port


def _port(metric: Metric, p: int, q: int, a: np.ndarray) -> _Port:
    """The record of a stacked state a = (alpha_p, alpha_q): its port action
    in the midpoint unknowns' order, z = delta_c alpha per slot (free rows)
    from B (M a), e = (e_p, e_q) from the other slot's z by the couplings,
    f = D e; M a, [M f; M_z z] and the slot norms of a and f.  Each mass
    factor solves once: two solve calls (2-column) when p = q, else four."""
    layout = system_operators(metric, p, q)["layout"]
    slots, Ma = layout.slots, layout.mass @ a
    z = _solve_slots([metric.mass_lu(s.degree - 1, "dirichlet") for s in slots],
                     np.split(layout.boundary @ Ma, [len(slots[0].free)]))
    z_full = [np.zeros(metric.complex.num_simplices(s.degree - 1)) for s in slots]
    for s, z_s, part in zip(slots, z_full, z):
        z_s[s.free] = part
    e = _solve_slots([metric.mass_lu(s.degree - 1) for s in slots[::-1]],
                     [s.coupling @ z_o for s, z_o in zip(slots[::-1], z_full)])
    e = np.concatenate([s.factor * e_s for s, e_s in zip(slots[::-1], e)])
    z, f = np.concatenate(z), layout.D @ e
    Mf, Mz = np.split(layout.mass_fz @ np.concatenate([f, z]), [len(a)])
    return _Port(metric, layout, a, z, e, f, Ma, Mf, Mz, _norms(layout, a, Ma), _norms(layout, f, Mf))


def _solve_slots(lus, rhs) -> list:
    """Each slot's rhs solved by its factor; one 2-column solve if shared (p = q)."""
    if lus[0] is lus[1]:
        return list(lus[0].solve(np.column_stack(rhs)).T)
    return [lu.solve(b) for lu, b in zip(lus, rhs)]


def _record(sys: StokesDiracSystem) -> _Port:
    """The record of a system's state."""
    return _port(sys.metric, sys.p, sys.q, np.concatenate([sys.alpha_p.values, sys.alpha_q.values]))


def _port_rows(metric: Metric, p: int, q: int):
    """(G, L, E, M_e), block-diagonal over the slots: (z, e) of `_port`
    solves G a + L z = 0, E z + M_e e = 0, so f = D M_e^-1 E L^-1 G a
    (K(h) and the spectral radius's Gram are read off these rows).  Per
    slot j, with free rows R and other slot k, whose effort e_j is the one
    z_j drives:

        L z_j - R B_j M_j a_j = 0,   M e_j - factor_k C_k R^T z_j = 0
    """
    slots, M = system_operators(metric, p, q)["layout"].slots, metric.mass_csr
    B = metric.complex.boundary_matrix
    G = sp.block_diag([-(B(s.degree) @ M(s.degree))[s.free] for s in slots])
    L = sp.block_diag([M(s.degree - 1)[s.free][:, s.free] for s in slots])
    E = sp.block_diag([-o.factor * o.coupling[:, s.free] for s, o in zip(slots, slots[::-1])])
    return G, L, E, sp.block_diag([M(o.degree - 1) for o in slots[::-1]])


def _spectral_radius_estimate(metric: Metric, p: int, q: int) -> float:
    """Largest singular value of the port map A = D M_e^-1 E L^-1 G
    (`_port_rows`): the square root of the top eigenvalue of A^T A over the
    stacked state, by one seeded Lanczos (eigsh, tolerance 1e-6), so it is
    deterministic.  Its solves use `_port`'s factors, A^T's too, as every
    mass block is exactly symmetric."""
    layout, (G, E) = system_operators(metric, p, q)["layout"], _port_rows(metric, p, q)[::2]
    z_lus = [metric.mass_lu(s.degree - 1, "dirichlet") for s in layout.slots]
    e_lus = [metric.mass_lu(s.degree - 1) for s in layout.slots[::-1]]

    def solve(lus, rhs):
        return np.concatenate(_solve_slots(lus, np.split(rhs, [lus[0].shape[0]])))

    def gram(v):
        f = layout.D @ solve(e_lus, E @ solve(z_lus, G @ v))
        return G.T @ solve(z_lus, E.T @ solve(e_lus, layout.D.T @ f))

    size = G.shape[1]
    v0 = np.random.default_rng(0).standard_normal(size)
    if not gram(v0).any():
        return 0.0  # A = 0 (solid_torus (2, 2)), from which ARPACK cannot start
    op = spla.LinearOperator((size, size), matvec=gram, dtype=float)
    try:
        lam = spla.eigsh(op, k=1, which="LA", v0=v0, tol=1e-6, return_eigenvectors=False)[0]
    except RuntimeError as exc:
        raise FactorizationFailure("spectral radius estimate failed") from exc
    return float(np.sqrt(lam))


def _norms(layout: _Layout, v: np.ndarray, Mv: np.ndarray) -> list[float]:
    """The Whitney norms of v's slots (degrees p, q); Mv = layout.mass @ v."""
    return [math.sqrt(max(float(v[s.a] @ Mv[s.a]), 0.0)) for s in layout.slots]


def hamiltonian(sys: StokesDiracSystem) -> float:
    return 0.5 * sum(inner_product(sys.metric, a, a) for a in (sys.alpha_p, sys.alpha_q))


def efforts(sys: StokesDiracSystem):
    """(e_p, e_q) at degrees (q-1, p-1): the efforts of slots q and p."""
    r = _record(sys)
    return tuple(Cochain(r.metric.complex, s.degree - 1, r.e[s.e]) for s in r.layout.slots[::-1])


def flows(sys: StokesDiracSystem):
    """(f_p, f_q) at degrees (p, q); exact cochains by construction."""
    r = _record(sys)
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
    e and (Mf, Mz) = layout.mass_fz @ (f, z).  The boundary term,
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
    return _balance(_record(sys))


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
    r = _record(sys)
    m, cx, balance, (flow_coeffs, rows) = r.metric, r.metric.complex, _balance(r), _flow_identity(r)
    n, state_coeffs, closedness, exact_part = cx.dimension, {}, {}, 0.0
    for name, s in zip("pq", r.layout.slots):
        basis, e, f, Ma = harmonic_basis(m, s.degree, "dirichlet"), r.e[s.e], r.f[s.a], r.Ma[s.a]
        state_coeffs[name] = coeffs = basis.vectors.T @ Ma
        closedness[name], Mb, Mdb = 0.0, Ma, r.Mz[s.mz]  # M b, M delta_c b of b = alpha - proj
        if s.degree < n:  # a top-degree f is closed, its proj outside the harmonic part
            df = cx.exterior_derivative_matrix(s.degree) @ f
            closedness[name] = math.sqrt(max(float(df @ (m.mass_csr(s.degree + 1) @ df)), 0.0))
            if basis.dim:
                b = r.a[s.a] - basis.vectors @ coeffs
                Mb = m.mass_csr(s.degree) @ b
                Mdb = m.mass_csr(s.degree - 1) @ _delta(m, s.degree, b, "dirichlet")
        exact_part += s.sign * (float((s.sign * f) @ Mb) - float(e @ Mdb))  # d(effort) = sign f
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
    return _flow_identity(_record(sys))[1]


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

    # the witness solve runs only on solvable input, on the saddle factor
    # that a Dirichlet basis built here was built on
    basis, lu = _basis_with_factor(metric, k, "dirichlet")
    obstruction = harmonic_projection(basis, f - d_ext)[0]
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

    sigma = _mixed_potential(metric, k, "dirichlet", f.values - d_ext.values, None, lu)
    witness = ext + Cochain(metric.complex, k - 1, sigma)
    resid = norm(metric, exterior_derivative(metric, witness) - f) / scale
    if resid > WITNESS_TOL:
        raise SolverFailure(
            f"integrable by the conditions but the witness residual is {resid:.3e}"
        )
    report.witness = witness
    report.witness_residual = resid
    return report
