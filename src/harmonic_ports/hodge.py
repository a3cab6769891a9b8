"""Harmonic field bases and the Hodge-Morrey-Friedrichs decomposition.

Harmonic bases are kernels of degree-k Hodge Laplacians A u = mu M u
against the Whitney mass matrix.  Two boundary conditions are supported:
"neumann" (no constraint; dimension = k-th Betti number) and "dirichlet"
(zero tangential trace; dimension = (n-k)-th Betti number).  The
Laplacian is never formed: A = K + B^T M_l^-1 B is kept as sparse blocks
(the mixed, saddle-point form) and its smallest eigenpairs come from
shift-invert Lanczos, shifted just below zero relative to the largest
eigenvalue mu_max, itself from Lanczos.  Spaces too small for ARPACK are
solved densely from the same blocks.  The kernel is counted from the
spectrum alone, never from the Betti numbers.  On a closed mesh both
conditions give one operator, so the Dirichlet bases reuse the Neumann
ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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

    The eigenvalues below are Rayleigh quotients of shift-invert Lanczos
    vectors (dense eigenvalues on spaces too small for ARPACK).  The
    kernel holds the eigenvalues below KERNEL_CUTOFF * mu_max, with mu_max
    the largest eigenvalue, and must be separated from the rest by
    KERNEL_GAP_FACTOR.  On a closed mesh the Dirichlet basis carries the
    Neumann vectors and eigenvalues.

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
        FactorizationFailure: A factorization or the eigensolver failed.
    """
    if condition not in ("neumann", "dirichlet"):
        raise ValueError(f"unknown boundary condition {condition!r}")
    n = metric.complex.dimension
    if not 0 <= k <= n:
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    return _cached_basis(metric, k, condition)


def _cached_basis(metric: Metric, k: int, condition: str) -> HarmonicBasis:
    return metric.cached(
        ("harmonic", k, condition), lambda: _build_harmonic_basis(metric, k, condition)
    )


def _build_harmonic_basis(metric: Metric, k: int, condition: str) -> HarmonicBasis:
    if condition == "dirichlet" and metric.boundary_complex.num_simplices(0) == 0:
        # closed mesh: both conditions give the same operator
        return replace(_cached_basis(metric, k, "neumann"), condition="dirichlet")
    cx = metric.complex
    N = cx.num_simplices(k)
    if condition == "neumann":
        idx, low = np.arange(N), np.arange(cx.num_simplices(k - 1) if k else 0)
    else:
        idx = metric.interior_indices(k)
        low = metric.interior_indices(k - 1) if k else np.arange(0)
    if len(idx) == 0:
        return HarmonicBasis(metric, k, condition, np.zeros((N, 0)), 0.0, math.inf)
    c, blocks = _laplacian_blocks(metric, k, idx, low)
    try:
        evals, kernel = _lanczos_pairs(*blocks) or _dense_pairs(*blocks)
    except (RuntimeError, sla.LinAlgError) as exc:
        raise FactorizationFailure(f"harmonic eigenproblem at degree {k}") from exc
    m = kernel.shape[1]
    vectors = np.zeros((N, m))
    vectors[idx, :] = kernel / math.sqrt(c)
    return HarmonicBasis(
        metric,
        k,
        condition,
        vectors,
        float(evals[m - 1]) if m else 0.0,
        float(evals[m]) if m < len(evals) else math.inf,
    )


def _laplacian_blocks(metric: Metric, k: int, idx: np.ndarray, low: np.ndarray):
    """The mass scale c and the equilibrated sparse blocks (M, K, B, M_l) of
    the degree-k Hodge Laplacian A = K + B^T M_l^-1 B, A u = mu M u, on the
    free k-simplices idx and the free (k-1)-simplices low.

    K = D^T M_(k+1) D and B = d_(k-1)^T M_k, restricted to those simplices.
    Dividing M and K by c, M_l by c_l and B by sqrt(c c_l) (each c the
    mean of its mass diagonal) leaves the eigenvalues unchanged and makes
    the blocks unit-free; kernel vectors scale back by 1/sqrt(c).
    """
    cx = metric.complex
    M = metric.mass_csr(k)[idx][:, idx]
    c = M.diagonal().mean()
    if k < cx.dimension:
        D = cx.exterior_derivative_matrix(k)[:, idx]
        K = (D.T @ metric.mass_csr(k + 1) @ D).tocsr()
    else:
        K = sp.csr_matrix((len(idx), len(idx)))
    if len(low):
        B = (cx.boundary_matrix(k) @ metric.mass_csr(k))[low][:, idx]
        M_l = metric.mass_csr(k - 1)[low][:, low]
        c_l = M_l.diagonal().mean()
    else:
        B, M_l, c_l = sp.csr_matrix((0, len(idx))), sp.csr_matrix((0, 0)), 1.0
    return c, (M / c, K / c, B / math.sqrt(c * c_l), M_l / c_l)


def _lanczos_pairs(M, K, B, M_l):
    """Ascending smallest eigenvalues of A u = mu M u, A = K + B^T M_l^-1 B,
    and the M-orthonormal kernel vectors, by shift-invert Lanczos at
    s = -KERNEL_CUTOFF * mu_max.  None once the request reaches ARPACK's
    limit j < N - 1 (or when A = 0): _dense_pairs then solves the space.

    mu_max comes from Lanczos on A (tolerance 1e-8: it only places the
    cutoff).  (A - s M)^-1 is applied through one sparse LU of the
    saddle-point block [[K - s M, B^T], [B, -M_l]], whose Schur complement
    is A - s M.  The request starts at j = 4 pairs and doubles while every
    pair is kernel.  Eigenvalues are the Rayleigh quotients of the Ritz
    vectors; the values handed to _split_kernel end with mu_max.
    """
    nk, nl = M.shape[0], M_l.shape[0]
    j = 4
    if j >= nk - 1:
        return None
    v0 = np.random.default_rng(0).standard_normal(nk)
    solve_l = spla.splu(M_l.tocsc()).solve if nl else (lambda r: r)
    A = spla.LinearOperator(
        (nk, nk), matvec=lambda u: K @ u + B.T @ solve_l(B @ u), dtype=float
    )
    Minv = spla.LinearOperator((nk, nk), matvec=spla.splu(M.tocsc()).solve, dtype=float)
    mu_max = spla.eigsh(
        A, k=1, M=M, Minv=Minv, which="LA", v0=v0, tol=1e-8, return_eigenvectors=False
    )[0]
    if mu_max <= 0:
        return None
    s = -KERNEL_CUTOFF * mu_max
    saddle = sp.bmat([[K - s * M, B.T], [B, -M_l]]) if nl else K - s * M
    lu = spla.splu(saddle.tocsc())
    pad = np.zeros(nl)
    OPinv = spla.LinearOperator(
        (nk, nk),
        matvec=lambda f: lu.solve(np.concatenate([np.ravel(f), pad]))[:nk],
        dtype=float,
    )
    while j < nk - 1:
        _, V = spla.eigsh(A, k=j, M=M, sigma=s, OPinv=OPinv, v0=v0)
        rayleigh = np.sum(V * (A @ V), axis=0) / np.sum(V * (M @ V), axis=0)
        order = np.argsort(rayleigh)
        evals = np.append(rayleigh[order], mu_max)
        m = _split_kernel(evals)
        if m < j:
            return evals, _orthonormalize(V[:, order[:m]], M)
        j *= 2
    return None


def _dense_pairs(M, K, B, M_l):
    """All eigenvalues and the kernel vectors from sla.eigh on the same
    blocks, densified."""
    A = K.toarray()
    if M_l.shape[0]:
        Bd = B.toarray()
        A += Bd.T @ sla.solve(M_l.toarray(), Bd, assume_a="pos")
    evals, evecs = sla.eigh(A, M.toarray())
    m = _split_kernel(evals)
    return evals, _orthonormalize(evecs[:, :m], M)


def _orthonormalize(V: np.ndarray, M) -> np.ndarray:
    """V with its columns made M-orthonormal by a Cholesky of V^T M V."""
    if V.shape[1] == 0:
        return V
    L = sla.cholesky(V.T @ (M @ V), lower=True)
    return sla.solve_triangular(L, V.T, lower=True).T


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
