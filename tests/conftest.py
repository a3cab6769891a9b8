import dataclasses
import functools
import itertools
import math

import numpy as np
import scipy.sparse.linalg as spla

from harmonic_ports import Metric, gen_mesh
from harmonic_ports.mesh import _subsets

# Shapes at the resolutions the acceptance checks run at, and smaller
# twins for unit tests.  Caches are shared per session so harmonic bases
# and factorizations are computed once.
ACCEPTANCE = {
    "sphere": 2,
    "torus": 5,
    "disk": 3,
    "annulus": 3,
    "ball": 2,
    "solid_torus": 5,
}
SMALL = {
    "sphere": 1,
    "torus": 4,
    "disk": 2,
    "annulus": 2,
    "ball": 1,
    "solid_torus": 3,
}
CLOSED = {"sphere", "torus"}


@functools.lru_cache(maxsize=None)
def complex_for(shape, resolution):
    return gen_mesh(shape, resolution)


@functools.lru_cache(maxsize=None)
def metric_for(shape, resolution):
    return Metric(complex_for(shape, resolution))


def valid_pairs(n):
    return [(p, n + 1 - p) for p in range(1, n + 1)]


def _dense_pair(metric, p, q, K, scale, symmetric=False):
    """Dense (N_p, N_q) Whitney pairing: every element's local block,
    averaged with its transpose when symmetric, scattered by np.add.at
    into an array of zeros at the element's face positions."""
    n = metric.complex.dimension
    faces_p = list(itertools.combinations(range(n + 1), p + 1))
    faces_q = list(itertools.combinations(range(n + 1), q + 1))
    pos_p = {s: i for i, s in enumerate(itertools.combinations(range(n + 1), p))}
    pos_q = {t: j for j, t in enumerate(itertools.combinations(range(n + 1), q))}
    coef = np.zeros((len(pos_p), len(pos_q), len(faces_p), len(faces_q)))
    for (si, s), (ti, t) in itertools.product(enumerate(faces_p), enumerate(faces_q)):
        for i, j in itertools.product(range(p + 1), range(q + 1)):
            rs, rt = pos_p[s[:i] + s[i + 1 :]], pos_q[t[:j] + t[j + 1 :]]
            coef[rs, rt, si, ti] += (-1) ** (i + j) * (1 + (s[i] == t[j]))
    local = scale[:, None, None] * np.einsum("eab,abst->est", K, coef)
    if symmetric:
        local = (local + local.transpose(0, 2, 1)) / 2
    out = np.zeros((metric.complex.num_simplices(p), metric.complex.num_simplices(q)))
    faces = metric.complex._face_positions
    np.add.at(out, (faces[p][:, :, None], faces[q][:, None, :]), local)
    return out


def dense_mass(metric, k):
    """Dense Whitney mass matrix at degree k, for small meshes only."""
    n = metric.complex.dimension
    grads = metric._gradients
    sub = _subsets(n + 1, k)
    gram = grads @ grads.transpose(0, 2, 1)
    K = np.linalg.det(gram[:, sub[:, None, :, None], sub[None, :, None, :]])
    scale = math.factorial(k) ** 2 / ((n + 1) * (n + 2)) * np.abs(metric._vols_signed)
    return _dense_pair(metric, k, k, K, scale, symmetric=True)


def dense_wedge(metric, a, b):
    """Dense wedge pairing of degrees a + b = n, for small meshes only."""
    n = metric.complex.dimension
    sa, sb = _subsets(n + 1, a), _subsets(n + 1, b)
    rows = np.array([s + t for s in sa.tolist() for t in sb.tolist()])
    K = np.linalg.det(metric._gradients[:, rows.reshape(len(sa), len(sb), n)])
    o = metric.complex.orientation
    scale = math.factorial(a) * math.factorial(b) / ((n + 1) * (n + 2)) * o * metric._vols_signed
    if n in (a, b):
        scale = scale * o
    return _dense_pair(metric, a, b, K, scale)


def dense_deltac(metric, k):
    """Dense constrained codifferential from degree k: the interior rows
    solve the dense interior mass block against d^T M_k; boundary rows
    are zero."""
    d = metric.complex.exterior_derivative_matrix(k - 1).toarray()
    rhs = d.T @ metric.mass(k)
    idx = metric.interior_indices(k - 1)
    out = np.zeros_like(rhs)
    out[idx] = np.linalg.solve(metric.mass(k - 1)[np.ix_(idx, idx)], rhs[idx])
    return out


def dense_port_operators(metric, p, q):
    """The module formulas of stokesdirac as dense matrices: sigma and the
    state-to-effort and state-to-flow maps."""
    n = metric.complex.dimension
    sigma = (-1) ** (p * q + 1)
    tau = (-1) ** (q * (n - q))
    d = [metric.complex.exterior_derivative_matrix(k).toarray() for k in range(n)]
    Wd = metric.wedge(p - 1, q) @ d[q - 1]
    effort_q = tau * np.linalg.solve(metric.mass(p - 1), Wd) @ dense_deltac(metric, q)
    effort_p = -sigma * tau * np.linalg.solve(metric.mass(q - 1), Wd.T) @ dense_deltac(
        metric, p
    )
    return {
        "sigma": sigma,
        "effort_q": effort_q,  # alpha_q -> e_q at degree p-1
        "effort_p": effort_p,  # alpha_p -> e_p at degree q-1
        "flow_p": sigma * d[p - 1] @ effort_q,  # alpha_q -> f_p
        "flow_q": d[q - 1] @ effort_p,  # alpha_p -> f_q
    }


def memo_arrays(value, kind=np.ndarray):
    """Every ndarray (or instance of kind) in a memo value, through dicts,
    sequences and dataclasses."""
    if isinstance(value, kind):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from memo_arrays(v, kind)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from memo_arrays(v, kind)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from memo_arrays(getattr(value, f.name), kind)


def factored_keys(metric):
    """Memo keys whose value is, or holds, a SuperLU factor."""
    return {key for key, value in metric._memo.items() if any(memo_arrays(value, spla.SuperLU))}


def reference_run(sys, config):
    """The record-based run loop that sim.run replaced, as a test oracle:
    each row's power terms are sums over per-slot port records (sign,
    state, z = delta_c state, the effort driving the slot, its flow
    sign d effort), by public inner products of cochains.  Row 0's records
    come from codifferential and mass solves of the state, each step's
    from the refined midpoint solve unpacked into cochains; snapshots are
    copies.  It runs no flow check, which changes no output."""
    from harmonic_ports.hodge import harmonic_basis
    from harmonic_ports.metric import Cochain, _refine, codifferential_constrained, inner_product
    from harmonic_ports.sim import Trace, _midpoint_factors
    from harmonic_ports.stokesdirac import _spectral_radius_estimate, system_operators

    m, p, q, dt = sys.metric, sys.p, sys.q, config.dt
    cx, n = m.complex, m.complex.num_simplices
    slots = system_operators(m, p, q)["layout"].slots
    free = [m.free_indices(s.degree - 1, "dirichlet") for s in slots]
    sizes = [n(s.degree) for s in slots] + [len(f) for f in free]
    cuts = np.cumsum([0] + sizes + [n(s.degree - 1) for s in slots[::-1]])

    def records(alphas, z, e):  # e[j] is the effort driving slot j
        d = cx.exterior_derivative_matrix
        return [
            (s.sign, a, Cochain(cx, s.degree - 1, z_s), Cochain(cx, s.degree - 1, e_s),
             Cochain(cx, s.degree, s.sign * (d(s.degree - 1) @ e_s)))
            for s, a, z_s, e_s in zip(slots, alphas, z, e)
        ]

    def power(port):  # (dH/dt, boundary term) of one state's records
        dH = sum(inner_product(m, alpha, flow) for _, alpha, _, _, flow in port)
        return dH, dH - sum(sign * inner_product(m, effort, z) for sign, _, z, effort, _ in port)

    def port_action(state):
        alphas = (state.alpha_p, state.alpha_q)
        z = [codifferential_constrained(m, alpha).values for alpha in alphas]
        e = [s.factor * m.mass_lu(s.degree - 1).solve(s.coupling @ z_o)
             for s, z_o in zip(slots, z[::-1])]
        return records(alphas, z, e)

    def midpoint(state):
        system, _ = _midpoint_factors(m, p, q, dt)
        b = np.zeros(cuts[-1])
        b[: cuts[2]] = np.concatenate([state.alpha_p.values, state.alpha_q.values])
        x = _refine(system, system.solve(b), b, np.abs(b), "midpoint solve")
        parts = [x[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        w, z_free, e = parts[:2], parts[2:4], parts[4:]
        z = [np.zeros(n(s.degree - 1)) for s in slots]
        for z_j, f, part in zip(z, free, z_free):
            z_j[f] = part
        mid = state.with_state(*(Cochain(cx, s.degree, w_j) for s, w_j in zip(slots, w)))
        new = state.with_state(2.0 * mid.alpha_p - state.alpha_p, 2.0 * mid.alpha_q - state.alpha_q)
        return new, records((mid.alpha_p, mid.alpha_q), z, e[::-1])  # e_j drives the other slot

    bases = [harmonic_basis(m, k, "neumann") for k in (p, q)]
    header = ["t", "H", "dHdt_residual", "boundary_power"]
    header += [f"harm_{slot}_{i}" for slot, b in zip("pq", bases) for i in range(b.dim)]

    def diagnostics(state):
        energy, coeffs = [], []
        for basis, alpha in zip(bases, (state.alpha_p, state.alpha_q)):
            M_alpha = m.mass_csr(alpha.degree) @ alpha.values
            energy.append(float(alpha.values @ M_alpha))
            coeffs.extend(float(c) for c in basis.vectors.T @ M_alpha)
        return 0.5 * (energy[0] + energy[1]), coeffs

    rho = _spectral_radius_estimate(m, p, q)
    trace = Trace(header, [], spectral_radius_estimate=rho, dt_spectral_radius=dt * rho)
    state = sys
    H_prev, coeffs = diagnostics(state)
    trace.rows.append([0.0, H_prev, 0.0, power(port_action(state))[1]] + coeffs)
    if config.stride:
        trace.snapshots.append((0, state.alpha_p.copy(), state.alpha_q.copy()))
    for k in range(1, config.steps + 1):
        new, port = midpoint(state)
        dH_dt, boundary_term = power(port)
        H_new, coeffs = diagnostics(new)
        residual = abs((H_new - H_prev) / dt - dH_dt)
        trace.rows.append([k * dt, H_new, residual, boundary_term] + coeffs)
        if config.stride and k % config.stride == 0:
            trace.snapshots.append((k, new.alpha_p.copy(), new.alpha_q.copy()))
        state, H_prev = new, H_new
    return trace
