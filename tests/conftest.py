import dataclasses
import functools
import itertools
import math

import numpy as np

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


def memo_arrays(value):
    """Every ndarray in a memo value, through dicts, sequences and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from memo_arrays(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from memo_arrays(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from memo_arrays(getattr(value, f.name))
