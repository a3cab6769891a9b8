"""Harmonic field bases and the Hodge-Morrey-Friedrichs decomposition.

Harmonic bases are kernels of degree-k Hodge Laplacians, computed as the
near-zero eigenspace of a generalized symmetric eigenproblem against the
Whitney mass matrix.  Two boundary conditions are supported: "neumann"
(no constraint; dimension = k-th Betti number) and "dirichlet" (zero
tangential trace; dimension = (n-k)-th Betti number).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    AmbiguousKernel,
    DegreeOutOfRange,
    FactorizationFailure,
    InvalidDegrees,
    NotInHarmonicComplement,
    WrongDimension,
)
from .mesh import betti_numbers, euler_characteristic
from .metric import (
    Cochain,
    Metric,
    _check_metric,
    norm,
)

__all__ = [
    "HarmonicBasis",
    "harmonic_basis",
    "harmonic_projection",
    "HMFDecomposition",
    "hodge_morrey_friedrichs",
    "potential_for_exact",
    "cohomology_report",
    "stokes_dirac_cohomology",
    "validate_degree_pair",
    "decompose_vector_field_3d",
]

# Relative eigenvalue cutoff separating the kernel from the rest, and the
# minimum ratio required between the first non-kernel eigenvalue and the
# last kernel eigenvalue.
KERNEL_CUTOFF = 1e-9
KERNEL_GAP_FACTOR = 10.0


@dataclass
class HarmonicBasis:
    """M-orthonormal basis of a discrete harmonic space.

    Attributes:
        metric: The metric the basis is orthonormal against.
        degree: Cochain degree k.
        condition: "neumann" or "dirichlet".
        vectors: (N_k, dim) array of basis cochain values.
        last_kernel_eigenvalue: Largest eigenvalue counted into the kernel
            (0.0 when the kernel is empty).
        first_nonkernel_eigenvalue: Smallest eigenvalue above the cutoff
            (inf when everything is kernel).
    """

    metric: Metric
    degree: int
    condition: str
    vectors: np.ndarray
    last_kernel_eigenvalue: float
    first_nonkernel_eigenvalue: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def element(self, i: int) -> Cochain:
        return Cochain(self.metric.complex, self.degree, self.vectors[:, i].copy())


def _split_kernel(evals: np.ndarray) -> int:
    """Number of leading eigenvalues forming the kernel, with a gap check."""
    if len(evals) == 0:
        return 0
    mu_max = float(np.abs(evals).max())
    if mu_max == 0.0:
        return len(evals)
    cut = KERNEL_CUTOFF * mu_max
    m = int(np.sum(evals < cut))
    if 0 < m < len(evals):
        last_kernel = max(float(evals[m - 1]), 0.0)
        first_non = float(evals[m])
        if last_kernel > 0.0 and first_non / last_kernel < KERNEL_GAP_FACTOR:
            raise AmbiguousKernel(
                f"eigenvalues {last_kernel:.3e} and {first_non:.3e} do not "
                f"separate by a factor of {KERNEL_GAP_FACTOR}"
            )
    return m


def harmonic_basis(metric: Metric, k: int, condition: str = "neumann") -> HarmonicBasis:
    """M-orthonormal harmonic basis at degree k.

    Raises:
        AmbiguousKernel: The spectral gap below the kernel cutoff is too
            small to count harmonic fields reliably.
        FactorizationFailure: The eigensolver failed.
    """
    if condition not in ("neumann", "dirichlet"):
        raise ValueError(f"unknown boundary condition {condition!r}")
    n = metric.complex.dimension
    if not 0 <= k <= n:
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    return metric.cached(
        ("harmonic", k, condition), lambda: _build_harmonic_basis(metric, k, condition)
    )


def _build_harmonic_basis(metric: Metric, k: int, condition: str) -> HarmonicBasis:
    n = metric.complex.dimension
    if condition == "neumann":
        idx = np.arange(metric.complex.num_simplices(k))
    else:
        idx = metric.interior_indices(k)
    nk = len(idx)
    if nk == 0:
        return HarmonicBasis(
            metric, k, condition,
            np.zeros((metric.complex.num_simplices(k), 0)), 0.0, math.inf,
        )

    M = metric.mass(k)[np.ix_(idx, idx)]
    A = np.zeros((nk, nk))
    if k < n:
        D = metric.d_matrix(k)[:, idx]
        A += D.T @ metric.mass(k + 1) @ D
    if k > 0:
        if condition == "neumann":
            B = metric.d_matrix(k - 1).T @ metric.mass(k)
            A += B.T @ sla.cho_solve((metric.mass_cholesky(k - 1), True), B)
        else:
            low = metric.interior_indices(k - 1)
            C = (metric.mass(k) @ metric.d_matrix(k - 1))[np.ix_(idx, low)]
            A += C @ sla.cho_solve((metric.interior_mass_cholesky(k - 1), True), C.T)
    try:
        evals, evecs = sla.eigh(A, M)
    except sla.LinAlgError as exc:
        raise FactorizationFailure(f"harmonic eigenproblem at degree {k}") from exc

    m = _split_kernel(evals)
    vectors = np.zeros((metric.complex.num_simplices(k), m))
    vectors[idx, :] = evecs[:, :m]
    return HarmonicBasis(
        metric,
        k,
        condition,
        vectors,
        float(evals[m - 1]) if m else 0.0,
        float(evals[m]) if m < len(evals) else math.inf,
    )


def harmonic_projection(basis: HarmonicBasis, c: Cochain):
    """Coefficients and M-orthogonal projection of c onto the basis span."""
    metric = basis.metric
    _check_metric(metric, c)
    if c.degree != basis.degree:
        raise DegreeOutOfRange(
            f"cochain degree {c.degree} against basis degree {basis.degree}"
        )
    coeffs = basis.vectors.T @ (metric.mass(c.degree) @ c.values)
    proj = Cochain(c.complex, c.degree, basis.vectors @ coeffs)
    return coeffs, proj


# -- Hodge-Morrey-Friedrichs -------------------------------------------------


@dataclass
class HMFDecomposition:
    """Four mutually M-orthogonal pieces summing to the input:

    d_alpha:    exact piece with a zero-trace potential,
    delta_beta: coexact piece (adjoint-codifferential image),
    lambda_T:   Dirichlet-harmonic piece,
    delta_gamma: the remaining harmonic piece.
    """

    input: Cochain
    d_alpha: Cochain
    delta_beta: Cochain
    lambda_T: Cochain
    delta_gamma: Cochain

    @property
    def harmonic(self) -> Cochain:
        return self.lambda_T + self.delta_gamma


def _pinv_applier(A: np.ndarray):
    """Least-squares solver x -> argmin |A x - rhs| from a thin SVD."""
    if A.shape[1] == 0:
        return lambda rhs: np.zeros(0)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    tol = (s[0] if len(s) else 0.0) * max(A.shape) * np.finfo(float).eps
    keep = s > tol
    ui, si, vi = u[:, keep], s[keep], vt[keep]

    def solve(rhs):
        return vi.T @ ((ui.T @ rhs) / si)

    return solve


def _exact_range_solver(metric: Metric, k: int):
    """Cached whitened least-squares machinery for im(d on zero-trace)."""

    def build():
        if k == 0:
            W = np.zeros((metric.complex.num_simplices(0), 0))
        else:
            W = metric.d_matrix(k - 1)[:, metric.interior_indices(k - 1)]
        return W, _pinv_applier(metric.mass_cholesky(k).T @ W)

    return metric.cached(("exact_solver", k), build)


def _coexact_range_solver(metric: Metric, k: int):
    """Cached whitened least-squares machinery for im(delta)."""

    def build():
        n = metric.complex.dimension
        if k == n:
            B = np.zeros((metric.complex.num_simplices(n), 0))
        else:
            L = metric.mass_cholesky(k)
            B = sla.solve_triangular(
                L, metric.d_matrix(k).T @ metric.mass(k + 1), lower=True
            )
        return B, _pinv_applier(B)

    return metric.cached(("coexact_solver", k), build)


def hodge_morrey_friedrichs(metric: Metric, omega: Cochain) -> HMFDecomposition:
    """Decompose a k-cochain into exact, coexact, and harmonic pieces.

    The exact piece uses zero-trace potentials, the coexact piece the
    plain adjoint codifferential, and the harmonic remainder is split a
    second time along the Dirichlet-harmonic subspace.  At degree 0 the
    exact piece is zero, at the top degree the coexact piece is zero.
    """
    _check_metric(metric, omega)
    k = omega.degree
    N = metric.complex.num_simplices(k)
    L = metric.mass_cholesky(k)
    white = L.T @ omega.values

    W, solve_e = _exact_range_solver(metric, k)
    d_alpha = Cochain(omega.complex, k, W @ solve_e(white) if W.shape[1] else np.zeros(N))

    B, solve_c = _coexact_range_solver(metric, k)
    if B.shape[1]:
        z = solve_c(white)
        delta_beta = Cochain(
            omega.complex, k, sla.solve_triangular(L.T, B @ z, lower=False)
        )
    else:
        delta_beta = Cochain(omega.complex, k, np.zeros(N))

    h = omega - d_alpha - delta_beta
    basis = harmonic_basis(metric, k, "dirichlet")
    _, lambda_T = harmonic_projection(basis, h)
    delta_gamma = h - lambda_T
    return HMFDecomposition(omega, d_alpha, delta_beta, lambda_T, delta_gamma)


def potential_for_exact(
    metric: Metric, c: Cochain, zero_trace: bool = True
) -> Cochain:
    """A potential u with du = c, for c in the exact range.

    Raises:
        NotInHarmonicComplement: c has a component (relative tolerance
            1e-8) outside the requested exact range.
    """
    _check_metric(metric, c)
    k = c.degree
    if k == 0:
        raise DegreeOutOfRange("0-cochains have no potential one degree down")
    L = metric.mass_cholesky(k)
    n_low = metric.complex.num_simplices(k - 1)
    if zero_trace:
        low = metric.interior_indices(k - 1)
    else:
        low = np.arange(n_low)
    W = metric.d_matrix(k - 1)[:, low]
    u_low = _pinv_applier(L.T @ W)(L.T @ c.values)
    vals = np.zeros(n_low)
    vals[low] = u_low
    u = Cochain(c.complex, k - 1, vals)
    resid = norm(metric, Cochain(c.complex, k, W @ u_low - c.values))
    scale = max(norm(metric, c), 1e-300)
    if resid > 1e-8 * scale:
        raise NotInHarmonicComplement(
            f"relative residual {resid / scale:.3e} outside the exact range"
        )
    return u


# -- reports -----------------------------------------------------------------


def cohomology_report(metric: Metric) -> dict:
    """Harmonic dimensions under both boundary conditions, with the exact
    Betti numbers for comparison."""
    cx = metric.complex
    n = cx.dimension
    betti = betti_numbers(cx)
    neumann = [harmonic_basis(metric, k, "neumann").dim for k in range(n + 1)]
    dirichlet = [harmonic_basis(metric, k, "dirichlet").dim for k in range(n + 1)]
    return {
        "dimension": n,
        "betti": betti,
        "euler_characteristic": euler_characteristic(cx),
        "neumann_dims": neumann,
        "dirichlet_dims": dirichlet,
        "neumann_matches_betti": neumann == betti,
        "dirichlet_matches_reversed_betti": dirichlet == betti[::-1],
    }


def validate_degree_pair(n: int, p: int, q: int):
    """Check p + q = n + 1 with 1 <= p, q <= n."""
    if p + q != n + 1 or not (1 <= p <= n) or not (1 <= q <= n):
        raise InvalidDegrees(
            f"(p, q) = ({p}, {q}) needs p + q = {n + 1} and 1 <= p, q <= {n}"
        )


def stokes_dirac_cohomology(metric: Metric, p: int, q: int) -> dict:
    """Dimensions of the four harmonic spaces attached to a degree pair."""
    validate_degree_pair(metric.complex.dimension, p, q)
    return {
        "H_N_p": harmonic_basis(metric, p, "neumann").dim,
        "H_T_p": harmonic_basis(metric, p, "dirichlet").dim,
        "H_N_q": harmonic_basis(metric, q, "neumann").dim,
        "H_T_q": harmonic_basis(metric, q, "dirichlet").dim,
    }


# -- vector field decomposition ---------------------------------------------


def decompose_vector_field_3d(
    metric: Metric, vectors: np.ndarray, field_type: str = "vertex"
) -> dict:
    """Split a sampled 3-d vector field into knot and gradient parts.

    The field is flattened to a 1-cochain by edge sampling (midpoint value
    dotted with the edge vector).  The knot part collects the coexact
    piece plus the Neumann-harmonic piece (circulations); the gradient
    part is the remainder.

    Args:
        vectors: (num_vertices, 3) for field_type "vertex", or
            (num_tops, 3) for field_type "cell".
    """
    cx = metric.complex
    if cx.dimension != 3:
        raise WrongDimension("vector field decomposition needs a 3-d complex")
    vectors = np.asarray(vectors, dtype=float)
    if field_type == "vertex":
        if vectors.shape != (cx.num_simplices(0), 3):
            raise WrongDimension("expected one 3-vector per vertex")
        edge_vecs = [
            0.5 * (vectors[a] + vectors[b]) for a, b in cx.simplices[1]
        ]
    elif field_type == "cell":
        if vectors.shape != (cx.num_simplices(3), 3):
            raise WrongDimension("expected one 3-vector per top simplex")
        incident = [[] for _ in cx.simplices[1]]
        for t_idx, top in enumerate(cx.simplices[3]):
            for i in range(4):
                for j in range(i + 1, 4):
                    incident[cx.index[1][(top[i], top[j])]].append(t_idx)
        edge_vecs = [vectors[ids].mean(axis=0) for ids in incident]
    else:
        raise ValueError(f"unknown field_type {field_type!r}")

    vals = np.array(
        [
            ev @ (cx.vertices[b] - cx.vertices[a])
            for ev, (a, b) in zip(edge_vecs, cx.simplices[1])
        ]
    )
    omega = Cochain(cx, 1, vals)
    dec = hodge_morrey_friedrichs(metric, omega)
    nb = harmonic_basis(metric, 1, "neumann")
    _, circ = harmonic_projection(nb, dec.harmonic)
    knot = dec.delta_beta + circ
    gradient = omega - knot
    return {
        "cochain": omega,
        "knot_part": knot,
        "gradient_part": gradient,
        "knot_dim": nb.dim,
        "gradient_dim": harmonic_basis(metric, 2, "neumann").dim,
        "knot_norm": norm(metric, knot),
        "gradient_norm": norm(metric, gradient),
    }
