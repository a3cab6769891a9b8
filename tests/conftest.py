import functools

import numpy as np

from harmonic_ports import Metric, gen_mesh

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
