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

The same blocks, bordered by the harmonic basis, give every projection
onto an exact or coexact range: one sparse LU per degree and condition
serves the HMF split, potentials of exact cochains and the integrability
witness (see _mixed_potential).  Mass solves use the metric's one LU per
mass block.
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
    SolverFailure,
    WrongDimension,
)
from .metric import (
    Cochain,
    Metric,
    _check_metric,
    _splu,
    exterior_derivative,
    norm,
)

__all__ = [
    "HarmonicBasis",
    "harmonic_basis",
    "harmonic_projection",
    "HMFDecomposition",
    "hodge_morrey_friedrichs",
    "potential_for_exact",
    "validate_degree_pair",
    "decompose_vector_field_3d",
]

# Relative eigenvalue cutoff separating the kernel from the rest, and the
# minimum ratio required between the first non-kernel eigenvalue and the
# last kernel eigenvalue.
KERNEL_CUTOFF = 1e-9
KERNEL_GAP_FACTOR = 10.0
# Largest M-inner product between two HMF pieces, relative to |omega|_M^2
# (the bound of the integrability witness residual).
HMF_ORTHOGONALITY_TOL = 1e-8


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
    N = metric.complex.num_simplices(k)
    idx, low, c, c_l, blocks = _laplacian_blocks(metric, k, condition)
    if len(idx) == 0:
        return HarmonicBasis(metric, k, condition, np.zeros((N, 0)), 0.0, math.inf)
    mass_lu = metric.mass_lu if condition == "neumann" else metric.interior_mass_lu
    try:
        lu = mass_lu(k)
        lu_l = mass_lu(k - 1) if len(low) else None
        solve = lambda r: c * lu.solve(r)
        solve_l = (lambda r: c_l * lu_l.solve(r)) if len(low) else (lambda r: r)
        pairs = _lanczos_pairs(*blocks, solve, solve_l)
        evals, kernel = pairs or _dense_pairs(*blocks, solve, solve_l)
    except (RuntimeError, sla.LinAlgError, FactorizationFailure) as exc:
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


def _laplacian_blocks(metric: Metric, k: int, condition: str):
    """The free simplices idx (degree k) and low (degree k-1) of the
    condition, the mass scales c, c_l and the equilibrated sparse blocks
    (M, K, B, M_l) of the degree-k Hodge Laplacian A = K + B^T M_l^-1 B,
    A u = mu M u, on those simplices.

    "neumann" leaves every simplex free, "dirichlet" the interior ones.
    K = D^T M_(k+1) D and B = d_(k-1)^T M_k, restricted to the free
    simplices.  Dividing M and K by c, M_l by c_l and B by sqrt(c c_l)
    (each c the mean of its mass diagonal) leaves the eigenvalues
    unchanged and makes the blocks unit-free; kernel vectors scale back by
    1/sqrt(c).
    """
    cx = metric.complex
    if condition == "neumann":
        idx = np.arange(cx.num_simplices(k))
        low = np.arange(cx.num_simplices(k - 1) if k else 0)
    else:
        idx = metric.interior_indices(k)
        low = metric.interior_indices(k - 1) if k else np.arange(0)
    M = metric.mass_csr(k)[idx][:, idx]
    c = M.diagonal().mean() if len(idx) else 1.0
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
    return idx, low, c, c_l, (M / c, K / c, B / math.sqrt(c * c_l), M_l / c_l)


def _lanczos_pairs(M, K, B, M_l, solve, solve_l):
    """Ascending smallest eigenvalues of A u = mu M u, A = K + B^T M_l^-1 B,
    and the M-orthonormal kernel vectors, by shift-invert Lanczos at
    s = -KERNEL_CUTOFF * mu_max.  None once the request reaches ARPACK's
    limit j < N - 1 (or when A = 0): _dense_pairs then solves the space.

    mu_max comes from Lanczos on A (tolerance 1e-8: it only places the
    cutoff), with M^-1 and M_l^-1 applied by the mass solves.
    (A - s M)^-1 is applied through one sparse LU of the
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
    A = spla.LinearOperator(
        (nk, nk), matvec=lambda u: K @ u + B.T @ solve_l(B @ u), dtype=float
    )
    Minv = spla.LinearOperator((nk, nk), matvec=solve, dtype=float)
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


def _dense_pairs(M, K, B, M_l, solve, solve_l):
    """All eigenvalues and the kernel vectors from sla.eigh on the same
    blocks, densified."""
    A = K.toarray()
    if M_l.shape[0]:
        Bd = B.toarray()
        A += Bd.T @ solve_l(Bd)
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
    coeffs = basis.vectors.T @ (metric.mass_csr(c.degree) @ c.values)
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


def _mixed_potential(metric: Metric, k: int, condition: str, f: np.ndarray) -> np.ndarray:
    """The (k-1)-block sigma of the bordered mixed Hodge-Laplacian system

        [[K, B^T, M V], [B, -M_l, 0], [V^T M, 0, 0]] (u, sigma, p) = (M f, 0, 0)

    on the simplices the condition leaves free (_laplacian_blocks), with V
    the harmonic basis of (k, condition); sigma is zero elsewhere.  The
    second row makes sigma the codifferential of u (constrained to zero
    trace for "dirichlet"), and the first, tested against exact fields,
    makes d sigma the M-orthogonal projection of f onto d of the free
    (k-1)-cochains.  The bordering pins the harmonic part of u, so the
    system is nonsingular; it is factored once per (k, condition).
    """

    def build():
        idx, low, c, c_l, (M, K, B, M_l) = _laplacian_blocks(metric, k, condition)
        if len(idx) == 0 or len(low) == 0:
            return idx, low, c, c_l, None
        V = harmonic_basis(metric, k, condition).vectors[idx] * math.sqrt(c)
        MV = sp.csr_matrix(M @ V)
        saddle = sp.bmat([[K, B.T, MV], [B, -M_l, None], [MV.T, None, None]])
        return idx, low, c, c_l, _splu(saddle, f"mixed Hodge Laplacian at degree {k}")

    idx, low, c, c_l, lu = metric.cached(("mixed", k, condition), build)
    sigma = np.zeros(metric.complex.num_simplices(k - 1))
    if lu is not None:
        rhs = np.zeros(lu.shape[0])
        rhs[: len(idx)] = (metric.mass_csr(k) @ f)[idx] / c
        sigma[low] = lu.solve(rhs)[len(idx) : len(idx) + len(low)] * math.sqrt(c / c_l)
    return sigma


def hodge_morrey_friedrichs(metric: Metric, omega: Cochain) -> HMFDecomposition:
    """Decompose a k-cochain into exact, coexact, and harmonic pieces.

    The exact piece uses zero-trace potentials, the coexact piece the
    plain adjoint codifferential, and the harmonic remainder is split a
    second time along the Dirichlet-harmonic subspace.  At degree 0 the
    exact piece is zero, at the top degree the coexact piece is zero.
    The exact piece is d sigma of the Dirichlet mixed solve at degree k
    with right-hand side omega; the coexact piece is sigma of the Neumann
    mixed solve at degree k+1 with right-hand side d omega, so degrees
    k < n also need the Neumann harmonic basis at k+1.

    Raises:
        SolverFailure: Two pieces have an M-inner product above
            HMF_ORTHOGONALITY_TOL * |omega|_M^2, as when a harmonic basis
            holds a non-harmonic vector.
    """
    _check_metric(metric, omega)
    cx = metric.complex
    k = omega.degree
    d_alpha = delta_beta = Cochain(cx, k, np.zeros(cx.num_simplices(k)))
    if k > 0:
        sigma = _mixed_potential(metric, k, "dirichlet", omega.values)
        d_alpha = exterior_derivative(metric, Cochain(cx, k - 1, sigma))
    if k < cx.dimension:
        d_omega = exterior_derivative(metric, omega).values
        delta_beta = Cochain(cx, k, _mixed_potential(metric, k + 1, "neumann", d_omega))

    h = omega - d_alpha - delta_beta
    basis = harmonic_basis(metric, k, "dirichlet")
    _, lambda_T = harmonic_projection(basis, h)
    delta_gamma = h - lambda_T
    M = metric.mass_csr(k)
    pieces = np.column_stack(
        [x.values for x in (d_alpha, delta_beta, lambda_T, delta_gamma)]
    )
    overlap = np.abs(np.triu(pieces.T @ (M @ pieces), 1)).max()
    scale = omega.values @ (M @ omega.values)
    if overlap > HMF_ORTHOGONALITY_TOL * scale:
        raise SolverFailure(
            f"HMF pieces overlap by {overlap / scale:.3e} of |omega|^2"
            " (a harmonic basis of the wrong dimension?)"
        )
    return HMFDecomposition(omega, d_alpha, delta_beta, lambda_T, delta_gamma)


def potential_for_exact(
    metric: Metric, c: Cochain, zero_trace: bool = True
) -> Cochain:
    """A potential u with du = c, for c in the exact range.

    u is the coexact potential of the mixed solve (_mixed_potential),
    with zero trace unless zero_trace is False.

    Raises:
        NotInHarmonicComplement: c has a component (relative tolerance
            1e-8) outside the requested exact range.
    """
    _check_metric(metric, c)
    k = c.degree
    if k == 0:
        raise DegreeOutOfRange("0-cochains have no potential one degree down")
    condition = "dirichlet" if zero_trace else "neumann"
    u = Cochain(c.complex, k - 1, _mixed_potential(metric, k, condition, c.values))
    resid = norm(metric, exterior_derivative(metric, u) - c)
    scale = max(norm(metric, c), 1e-300)
    if resid > 1e-8 * scale:
        raise NotInHarmonicComplement(
            f"relative residual {resid / scale:.3e} outside the exact range"
        )
    return u


# -- degree pairs ------------------------------------------------------------


def validate_degree_pair(n: int, p: int, q: int):
    """Check p + q = n + 1 with 1 <= p, q <= n."""
    if p + q != n + 1 or not (1 <= p <= n) or not (1 <= q <= n):
        raise InvalidDegrees(
            f"(p, q) = ({p}, {q}) needs p + q = {n + 1} and 1 <= p, q <= {n}"
        )


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
    a, b = cx._simplex_rows[1].T
    if field_type == "vertex":
        if vectors.shape != (cx.num_simplices(0), 3):
            raise WrongDimension("expected one 3-vector per vertex")
        edge_vecs = 0.5 * (vectors[a] + vectors[b])
    elif field_type == "cell":
        if vectors.shape != (cx.num_simplices(3), 3):
            raise WrongDimension("expected one 3-vector per top simplex")
        # Each edge takes the mean over its tetrahedra, summed in top order.
        edges = cx._face_positions[1].ravel()
        sums = np.zeros((cx.num_simplices(1), 3))
        np.add.at(sums, edges, np.repeat(vectors, 6, axis=0))
        edge_vecs = sums / np.bincount(edges)[:, None]
    else:
        raise ValueError(f"unknown field_type {field_type!r}")

    vals = (edge_vecs[:, None, :] @ (cx.vertices[b] - cx.vertices[a])[:, :, None]).ravel()
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
