"""Harmonic field bases and the Hodge-Morrey-Friedrichs decomposition.

Harmonic bases are kernels of degree-k Hodge Laplacians A u = mu M u
against the Whitney mass matrix.  Two boundary conditions are supported:
"neumann" (no constraint; dimension = k-th Betti number) and "dirichlet"
(zero tangential trace; dimension = (n-k)-th Betti number).  A = K + B^T
M_l^-1 B is never formed.  Its largest eigenvalue mu_max comes from
Lanczos, its smallest eigenpairs from shift-invert Lanczos just below
zero, through a factor of the saddle-point form of A - s M (spaces too
small for ARPACK are solved densely).  The kernel is counted from the
spectrum alone, never from the Betti numbers.  On a closed mesh both
conditions give one operator, so the Dirichlet bases and saddles are the
Neumann ones.  Refinement on such a factor (`metric._refine`), the
harmonic part projected out, solves the mixed system behind every
projection onto an exact or coexact range (_mixed_potential, which keeps
its factor; a basis build borrows that factor or drops its own): the HMF
split, potentials of exact cochains and the integrability witness.  The
metric decides what a condition means: its free simplices
(`Metric.free_indices`) and the one mass factor of each (k, condition)
(`Metric.mass_lu`) are read here, never re-derived.
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
    _refine,
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
# Pairs the first shift-invert Lanczos request asks for (_lanczos_pairs).
FIRST_REQUEST = 4


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
        ValueError: An unknown condition (Metric.free_indices).
    """
    n = metric.complex.dimension
    if not 0 <= k <= n:
        raise DegreeOutOfRange(f"degree {k} outside 0..{n}")
    return metric.cached(
        ("harmonic", k, condition), lambda: _build_harmonic_basis(metric, k, condition)
    )


def _build_harmonic_basis(metric: Metric, k: int, condition: str) -> HarmonicBasis:
    if condition == "dirichlet" and metric.closed:
        # closed mesh: both conditions give the same operator
        return replace(harmonic_basis(metric, k, "neumann"), condition="dirichlet")
    N = metric.complex.num_simplices(k)
    sd = _saddle(metric, k, condition)
    if len(sd.idx) == 0:
        return HarmonicBasis(metric, k, condition, np.zeros((N, 0)), 0.0, math.inf)
    kept = metric._memo.get(("saddle_lu", sd.k, sd.condition))
    try:
        evals, kernel = _lanczos_pairs(sd, kept) or _dense_pairs(sd)
    except (RuntimeError, sla.LinAlgError, FactorizationFailure) as exc:
        raise FactorizationFailure(f"harmonic eigenproblem at degree {k}: {exc}") from exc
    m = kernel.shape[1]
    vectors = np.zeros((N, m))
    vectors[sd.idx, :] = kernel / math.sqrt(sd.c)
    last = float(evals[m - 1]) if m else 0.0
    first = float(evals[m]) if m < len(evals) else math.inf
    return HarmonicBasis(metric, k, condition, vectors, last, first)


@dataclass
class _Saddle:
    """The Hodge Laplacian A = K + B^T M_l^-1 B, A u = mu M u, of degree k
    under condition on the free simplices idx (degree k) and low (degree
    k-1): M and S = [[K, B^T], [B, -M_l]] (S = K if low is empty), the
    blocks divided by the mean mass diagonals (c for M and K, c_l for M_l,
    sqrt(c c_l) for B; the eigenvalues stay, the blocks become unit-free
    and kernel vectors scale back by 1/sqrt(c)), A as an operator through
    S alone and its largest eigenvalue mu_max (0 for an empty space)."""

    k: int
    condition: str
    idx: np.ndarray
    low: np.ndarray
    c: float
    c_l: float
    M: sp.csr_matrix
    S: sp.csr_matrix
    A: spla.LinearOperator | None = None
    mu_max: float = 0.0

    def factor(self) -> spla.SuperLU:
        """A new SuperLU of S - s blkdiag(M, 0), s = -KERNEL_CUTOFF * mu_max:
        symmetric quasi-definite for s < 0, so `_splu` factors it stably."""
        nl, what = len(self.low), f"{self.condition} shift-invert saddle at degree {self.k}"
        shift = sp.block_diag((KERNEL_CUTOFF * self.mu_max * self.M, sp.csr_matrix((nl, nl))))
        return _splu(self.S + shift, what)


def _saddle(metric: Metric, k: int, condition: str) -> _Saddle:
    """The saddle of (k, condition), cached under ("saddle", k, condition)
    (FactorizationFailure if a mass factor or the mu_max eigensolve
    fails).  idx and low are the metric's free indices of the condition
    and A's mass solves use its factors of (k, condition); K = D^T M_(k+1)
    D and B = d_(k-1)^T M_k.  On a closed mesh the Dirichlet saddle is the
    Neumann object."""
    condition = "neumann" if condition == "dirichlet" and metric.closed else condition

    def build():
        cx = metric.complex
        idx = metric.free_indices(k, condition)
        low = metric.free_indices(k - 1, condition) if k else np.arange(0)
        nk, nl = len(idx), len(low)
        M = metric.mass_csr(k)[idx][:, idx]
        c = M.diagonal().mean() if nk else 1.0
        K = sp.csr_matrix((nk, nk))
        if k < cx.dimension:
            D = cx.exterior_derivative_matrix(k)[:, idx]
            K = (D.T @ metric.mass_csr(k + 1) @ D).tocsr()
        B, M_l, c_l = sp.csr_matrix((0, nk)), sp.csr_matrix((0, 0)), 1.0
        if nl:
            B = (cx.boundary_matrix(k) @ metric.mass_csr(k))[low][:, idx]
            M_l = metric.mass_csr(k - 1)[low][:, low]
            c_l = M_l.diagonal().mean()
        M, K, B, M_l = M / c, K / c, B / math.sqrt(c * c_l), M_l / c_l
        S = sp.bmat([[K, B.T], [B, -M_l]], format="csr") if nl else K
        sd = _Saddle(k, condition, idx, low, c, c_l, M, S)
        if nk == 0:
            return sd
        lu, lu_l = metric.mass_lu(k, condition), metric.mass_lu(k - 1, condition) if nl else None

        def apply(u):  # S (u, 0) = (K u, B u), then K u + B^T M_l^-1 B u
            ku, bu = np.split(S @ np.concatenate([np.ravel(u), np.zeros(nl)]), [nk])
            return ku + (S @ np.concatenate([np.zeros(nk), c_l * lu_l.solve(bu)]))[:nk] if nl else ku

        sd.A = spla.LinearOperator((nk, nk), matvec=apply, dtype=float)
        if nk - 1 > FIRST_REQUEST:  # tolerance 1e-3: mu_max only places the cutoff
            Minv = spla.LinearOperator((nk, nk), matvec=lambda r: c * lu.solve(r), dtype=float)
            v0 = np.random.default_rng(0).standard_normal(nk)
            sd.mu_max = spla.eigsh(
                sd.A, k=1, M=M, Minv=Minv, which="LA", v0=v0, tol=1e-3,
                return_eigenvectors=False,
            )[0]
        else:
            sd.mu_max = sla.eigvalsh(sd.A @ np.eye(nk), M.toarray())[-1]
        return sd

    try:
        return metric.cached(("saddle", k, condition), build)
    except (RuntimeError, sla.LinAlgError, FactorizationFailure) as exc:
        raise FactorizationFailure(f"harmonic eigenproblem at degree {k}: {exc}") from exc


def _lanczos_pairs(sd: _Saddle, lu: spla.SuperLU | None = None):
    """Ascending smallest eigenvalues of A u = mu M u and the M-orthonormal
    kernel vectors, by shift-invert Lanczos at s = -KERNEL_CUTOFF *
    mu_max, (A - s M)^-1 applied by lu, or by a new saddle factor dropped
    on return.  None once the request reaches ARPACK's limit j < N - 1
    (or when A = 0): _dense_pairs then solves the space.  The request
    starts at j = FIRST_REQUEST pairs and doubles while every pair is
    kernel.  Eigenvalues are the Rayleigh quotients of the Ritz vectors;
    the values handed to _split_kernel end with mu_max.
    """
    nk, j, A, M, pad = len(sd.idx), FIRST_REQUEST, sd.A, sd.M, np.zeros(len(sd.low))
    if j >= nk - 1 or not sd.mu_max > 0:
        return None
    lu = sd.factor() if lu is None else lu
    solve = lambda f: lu.solve(np.concatenate([np.ravel(f), pad]))[:nk]
    OPinv = spla.LinearOperator((nk, nk), matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(nk)
    while j < nk - 1:
        _, V = spla.eigsh(A, k=j, M=M, sigma=-KERNEL_CUTOFF * sd.mu_max, OPinv=OPinv, v0=v0)
        rayleigh = np.sum(V * (A @ V), axis=0) / np.sum(V * (M @ V), axis=0)
        order = np.argsort(rayleigh)
        evals = np.append(rayleigh[order], sd.mu_max)
        m = _split_kernel(evals)
        if m < j:
            return evals, _orthonormalize(V[:, order[:m]], M)
        j *= 2
    return None


def _dense_pairs(sd: _Saddle):
    """All eigenvalues and the kernel vectors from sla.eigh on A and M,
    densified."""
    evals, evecs = sla.eigh(sd.A @ np.eye(len(sd.idx)), sd.M.toarray())
    m = _split_kernel(evals)
    return evals, _orthonormalize(evecs[:, :m], sd.M)


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
    """sigma of the mixed Hodge-Laplacian system of (k, condition) (_saddle)

        S (u, sigma) = (M f_0, 0),   f_0 = f - V V^T M f,

    V the harmonic basis and u M-orthogonal to V; sigma is zero off the
    free simplices.  The second row makes sigma the codifferential of u
    (constrained to zero trace for "dirichlet"), and the first, tested
    against exact fields, makes d sigma the M-orthogonal projection of f
    onto d of the free (k-1)-cochains.  S is singular on the harmonic
    space, so it is solved by refinement on the saddle factor (`_refine`),
    the harmonic part projected out of every residual and correction: the
    error contracts by |s| / (lambda_1 + |s|) < 1/2 per solve (lambda_1
    the first non-kernel eigenvalue), until the componentwise backward
    error, against the size of M f, reaches its bound.  The factor is kept
    as ("saddle_lu", k, condition) and the basis borrows it.  sigma = 0
    when f_0 = 0, low is empty or A = 0.

    Raises:
        SolverFailure: The bound is not reached, as when the basis holds
            a non-harmonic vector.
    """
    sd = _saddle(metric, k, condition)
    sigma = np.zeros(metric.complex.num_simplices(k - 1))
    if len(sd.low) == 0 or not sd.mu_max > 0:
        return sigma
    lu = metric.cached(("saddle_lu", sd.k, sd.condition), sd.factor)
    basis = harmonic_basis(metric, k, condition)
    nk = len(sd.idx)
    V = basis.vectors[sd.idx] * math.sqrt(sd.c)
    MV = sd.M @ V

    def deflate(y, P, Q):  # y[:nk] minus P Q^T y[:nk]
        y[:nk] -= P @ (Q.T @ y[:nk])
        return y

    b = np.zeros(sd.S.shape[0])
    b[:nk] = (metric.mass_csr(k) @ f)[sd.idx] / sd.c
    b_abs, b = np.abs(b), deflate(b, MV, V)
    x = _refine(
        np.zeros_like(b),
        lambda x: deflate(b - sd.S @ x, MV, V),
        lambda r: deflate(lu.solve(r), V, MV),
        abs(sd.S), b_abs, f"mixed solve at degree {k}",
    )
    sigma[sd.low] = x[nk:] * math.sqrt(sd.c / sd.c_l)
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
        SolverFailure: A mixed solve misses its backward-error bound, or
            two pieces have an M-inner product above
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
