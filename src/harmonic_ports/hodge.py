"""Harmonic field bases and the Hodge-Morrey-Friedrichs decomposition.

Harmonic bases are kernels of degree-k Hodge Laplacians A u = mu M u
against the Whitney mass matrix.  Two boundary conditions are supported:
"neumann" (no constraint; dimension = k-th Betti number) and "dirichlet"
(zero tangential trace; dimension = (n-k)-th Betti number).  At degrees
0 and n the kernel is known in closed form, one vector per connected
component (`Metric.components`): the constant at degree 0 and the
constant density at degree n, with the components that touch the
boundary left out of H^0_D and H^n_N.  The top degree takes it only
where every (n-1)-face has at most two cofaces, oriented oppositely
where it has two; elsewhere, and at every degree in between, the kernel
is counted from the spectrum alone, never from the Betti numbers.
A = K + B^T M_l^-1 B is never formed.  Its scale comes from the diagonals
of its saddle-point form (`_Saddle`), its kernel from one Rayleigh-Ritz
step through A on shift-invert Lanczos vectors just below zero, through a
factor of that form (on the whole space once the request reaches ARPACK's
limit, and at once on a space at most twice the first Krylov space), fixed
to a basis of the span alone.  Lanczos converges only to LANCZOS_TOL: it
supplies the search space, the step the eigenvalues.  On a closed mesh
both conditions give one operator, so the Dirichlet bases and saddles are
the Neumann ones.  Each mixed solve behind a projection onto an exact or
coexact range (_mixed_potential: the HMF split, potentials of exact
cochains, the integrability witness) refines (`metric._refined_system`,
the harmonic part projected out) on a saddle factor that lives for the
call alone; a basis built then borrows it, else drops its own or hands it
on (_basis_with_factor).  The metric decides what a condition means: its
free simplices (`Metric.free_indices`) and the one mass factor of each
(k, condition) (`Metric.mass_lu`) are read here, never re-derived.
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
    DegreeMismatch,
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
    _abs,
    _check_metric,
    _refine,
    _refined_system,
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

# Eigenvalue cutoff separating the kernel from the rest, relative to the
# saddle's scale (_Saddle), and the minimum ratio required between the
# first non-kernel eigenvalue and the last kernel eigenvalue.
KERNEL_CUTOFF = 1e-9
KERNEL_GAP_FACTOR = 10.0
# Largest M-inner product between two HMF pieces, relative to |omega|_M^2
# (the bound of the integrability witness residual).
HMF_ORTHOGONALITY_TOL = 1e-8
# Pairs the first shift-invert Lanczos request asks for (_ritz_pairs only).
FIRST_REQUEST = 4
# ARPACK's relative residual test for those pairs: Lanczos only supplies
# the search space, and a Rayleigh quotient's error is quadratic in its
# vector's, so the Ritz values through A land near LANCZOS_TOL^2.
LANCZOS_TOL = 1e-6


@dataclass
class HarmonicBasis:
    """M-orthonormal basis of a discrete harmonic space.

    The eigenvalues below are the Ritz values of one Rayleigh-Ritz step
    through A (`_ritz_pairs`) on shift-invert Lanczos vectors, converged
    only to LANCZOS_TOL, or on the whole space.  The kernel holds the
    eigenvalues below KERNEL_CUTOFF * scale (`_Saddle`), separated from the
    rest by KERNEL_GAP_FACTOR; its vectors are seeded random vectors
    projected onto it, so they depend on its span alone.  A basis built in
    closed form (degrees 0 and n) computes no eigenvalue: its gap fields
    read 0.0 and nan.  On a closed mesh the Dirichlet basis carries the
    Neumann vectors and eigenvalues.

    Attributes:
        metric: The metric the basis is orthonormal against.
        degree: Cochain degree k.
        condition: "neumann" or "dirichlet".
        vectors: (N_k, dim) array of basis cochain values.
        last_kernel_eigenvalue: Largest eigenvalue counted into the kernel
            (0.0 when the kernel is empty or the basis is in closed form).
        first_nonkernel_eigenvalue: Smallest eigenvalue above the cutoff
            (inf when everything is kernel, nan when the basis is in
            closed form: not computed).
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


def _split_kernel(evals: np.ndarray, scale: float) -> int:
    """Number of leading eigenvalues below KERNEL_CUTOFF * scale (all of
    them for scale 0, where A = 0), with a gap check."""
    if scale == 0.0:
        return len(evals)
    m = int(np.sum(evals < KERNEL_CUTOFF * scale))
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
    return metric.cached(("harmonic", k, condition),
                         lambda: _build_harmonic_basis(metric, k, condition))


def _basis_with_factor(metric: Metric, k: int, condition: str):
    """harmonic_basis(metric, k, condition) and, if built here (keyed as in
    _mixed_system), the saddle factor its Lanczos search ran on, else None."""
    sd, lent = _saddle(metric, k, condition), []
    metric.cached(("harmonic", k, sd.condition), lambda: _build_harmonic_basis(
        metric, k, sd.condition, lambda: lent.append(sd.factor()) or lent[0]))
    return harmonic_basis(metric, k, condition), lent[0] if lent else None


def _build_harmonic_basis(metric: Metric, k: int, condition: str, factor=None) -> HarmonicBasis:
    if condition == "dirichlet" and metric.closed:
        # closed mesh: both conditions give the same operator
        return replace(harmonic_basis(metric, k, "neumann"), condition="dirichlet")
    if k == 0 or (k == metric.complex.dimension and _tops_pair_up(metric.complex)):
        return _component_basis(metric, k, condition)
    N = metric.complex.num_simplices(k)
    sd = _saddle(metric, k, condition)
    if len(sd.idx) == 0:
        return HarmonicBasis(metric, k, condition, np.zeros((N, 0)), 0.0, math.inf)
    try:
        evals, V = _ritz_pairs(sd, factor)
        m = _split_kernel(evals, sd.scale)
        V = V[:, :m]
        R = np.random.default_rng(0).standard_normal(V.shape)  # span(V) alone picks the basis
        kernel = _orthonormalize(V @ (V.T @ (sd.M @ R)), sd.M)
    except (RuntimeError, sla.LinAlgError, FactorizationFailure) as exc:
        raise FactorizationFailure(f"harmonic eigenproblem at degree {k}: {exc}") from exc
    vectors = np.zeros((N, m))
    vectors[sd.idx, :] = kernel / math.sqrt(sd.c)
    last = float(evals[m - 1]) if m else 0.0
    first = float(evals[m]) if m < len(evals) else math.inf
    return HarmonicBasis(metric, k, condition, vectors, last, first)


def _tops_pair_up(cx) -> bool:
    """True when every (n-1)-face has at most two cofaces, oriented
    oppositely where it has two: the top-degree kernel is then constant
    density on each component (_component_basis)."""
    top = cx.boundary[cx.dimension]
    cofaces = np.diff(top.indptr)
    sums = np.asarray(top.sum(axis=1)).ravel()
    return bool((cofaces <= 2).all() and (sums[cofaces == 2] == 0).all())


def _component_basis(metric: Metric, k: int, condition: str) -> HarmonicBasis:
    """The harmonic basis at k = 0 or n in closed form, one vector per
    component of `Metric.components`, each M-normalised by one mass
    product: the constant at degree 0, and at degree n the constant
    density M_n^-1 1 of the diagonal M_n.  That is the |vol| cochain as
    the assembled M_n sees it; on squashed elements its diagonal differs
    from 1/|vol| in the eighth digit, and only its own inverse is a kernel
    vector to rounding.  Components with boundary drop out of H^0_D and
    H^n_N, where the constant would have to vanish on the boundary."""
    labels, has_boundary = metric.components(k)
    kept = ~has_boundary if (k == 0) == (condition == "dirichlet") else np.ones_like(has_boundary)
    column = np.cumsum(kept) - 1
    rows = np.flatnonzero(kept[labels])
    M = metric.mass_csr(k)
    vectors = np.zeros((len(labels), int(kept.sum())))
    vectors[rows, column[labels[rows]]] = 1.0 if k == 0 else 1.0 / M.diagonal()[rows]
    vectors /= np.sqrt(np.sum(vectors * (M @ vectors), axis=0))
    return HarmonicBasis(metric, k, condition, vectors, 0.0, math.nan)


@dataclass
class _Saddle:
    """The Hodge Laplacian A = K + B^T M_l^-1 B, A u = mu M u, of degree k
    under condition on the free simplices idx (degree k) and low (degree
    k-1): M and S = [[K, B^T], [B, -M_l]] (S = K if low is empty), the
    blocks divided by the mean mass diagonals (c for M and K, c_l for M_l,
    sqrt(c c_l) for B; the eigenvalues stay, the blocks become unit-free
    and kernel vectors scale back by 1/sqrt(c)), A as an operator through
    S alone, and the scale max_i (K_ii + |B e_i|^2 / |M_l|_inf) / M_ii that
    places the kernel cutoff and the shift: A's largest diagonal Rayleigh
    quotient with M_l's top eigenvalue bounded by its largest absolute row
    sum (Gershgorin), so at most A's largest eigenvalue, and 0 exactly when
    A = 0 or the space is empty."""

    k: int
    condition: str
    idx: np.ndarray
    low: np.ndarray
    c: float
    c_l: float
    M: sp.csr_matrix
    S: sp.csr_matrix
    A: spla.LinearOperator | None = None
    scale: float = 0.0

    def factor(self) -> spla.SuperLU:
        """A new SuperLU of S - s blkdiag(M, 0), s = -KERNEL_CUTOFF * scale:
        symmetric quasi-definite for s < 0, so `_splu` factors it stably."""
        nl, what = len(self.low), f"{self.condition} shift-invert saddle at degree {self.k}"
        shift = sp.block_diag((KERNEL_CUTOFF * self.scale * self.M, sp.csr_matrix((nl, nl))))
        return _splu(self.S + shift, what)


def _saddle(metric: Metric, k: int, condition: str) -> _Saddle:
    """The saddle of (k, condition), cached under ("saddle", k, condition).
    idx and low are the metric's free indices of the condition; A's mass
    solves factor (k-1, condition) on A's first application, so a saddle
    serving only mixed solves factors no mass block, and a failed factor
    surfaces in the harmonic basis as FactorizationFailure("harmonic
    eigenproblem at degree k: ...").  K = D^T M_(k+1) D and B = d_(k-1)^T
    M_k.  On a closed mesh the Dirichlet saddle is the Neumann object."""
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
        rows = abs(M_l).sum(axis=1).max() if nl else 1.0  # |M_l|_inf
        diag = K.diagonal() + np.ravel(B.multiply(B).sum(axis=0)) / rows
        sd.scale = float((diag / M.diagonal()).max())

        def apply(u):  # S (u, 0) = (K u, B u), then K u + B^T M_l^-1 B u
            ku, bu = np.split(S @ np.concatenate([np.ravel(u), np.zeros(nl)]), [nk])
            lu_l = metric.mass_lu(k - 1, condition) if nl else None  # factored on first use
            return ku + (S @ np.concatenate([np.zeros(nk), c_l * lu_l.solve(bu)]))[:nk] if nl else ku

        sd.A = spla.LinearOperator((nk, nk), matvec=apply, dtype=float)
        return sd

    return metric.cached(("saddle", k, condition), build)


def _ritz_pairs(sd: _Saddle, factor=None):
    """Ascending Ritz values and M-orthonormal Ritz vectors of A u = mu M u
    from one Rayleigh-Ritz step, eigh(Q^T A Q, Q^T M Q), on a search space
    Q: the j shift-invert Lanczos vectors at s = -KERNEL_CUTOFF * scale,
    (A - s M)^-1 applied by factor(), by default a new factor dropped on return,
    where j starts at FIRST_REQUEST and doubles while every Ritz value is
    kernel; or the whole free space, Q = I, once j reaches ARPACK's limit
    j < N - 1, and at once when A = 0 or the first request's Krylov space
    would span half the space (as cheap, and exact where ARPACK may split a
    clustered pair or fail to restart).  ARPACK stops at LANCZOS_TOL with
    min(2j + 2, N - 1) Krylov vectors; the step through A sets the values."""
    nk, A, M = len(sd.idx), sd.A, sd.M
    j = FIRST_REQUEST if sd.scale > 0 and 2 * (2 * FIRST_REQUEST + 2) < nk else nk
    if j < nk - 1:
        lu, pad = (factor or sd.factor)(), np.zeros(len(sd.low))
        OPinv = spla.LinearOperator((nk, nk), dtype=float, matvec=lambda f: lu.solve(
            np.concatenate([np.ravel(f), pad]))[:nk])
        v0 = np.random.default_rng(0).standard_normal(nk)
    while True:
        whole = j >= nk - 1
        Q = np.eye(nk) if whole else spla.eigsh(
            A, k=j, M=M, sigma=-KERNEL_CUTOFF * sd.scale, OPinv=OPinv, v0=v0,
            ncv=min(2 * j + 2, nk - 1), tol=LANCZOS_TOL)[1]
        evals, Y = sla.eigh(Q.T @ (A @ Q), Q.T @ (M @ Q))
        if whole or _split_kernel(evals, sd.scale) < j:
            return evals, Q @ Y
        j *= 2


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
        raise DegreeMismatch(
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
    delta_gamma: the remaining harmonic piece,

    and gram, the 4 x 4 matrix of their M-inner products in that order.
    """

    input: Cochain
    d_alpha: Cochain
    delta_beta: Cochain
    lambda_T: Cochain
    delta_gamma: Cochain
    gram: np.ndarray

    @property
    def harmonic(self) -> Cochain:
        return self.lambda_T + self.delta_gamma


def _mixed_potential(metric: Metric, k: int, condition: str, f: np.ndarray,
                     omega: np.ndarray | None = None, lu: spla.SuperLU | None = None) -> np.ndarray:
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
    error reaches its bound.  It is measured against the size of M f, and
    for f = d omega (omega given, at degree k-1) against the size of its
    data too, max(|M f|, |M| |d| |omega|): still an Oettli-Prager backward
    error (Higham, Accuracy and Stability of Numerical Algorithms, 7.1),
    which does not stall when f is rounding noise, as d omega is for an
    exact omega.  sigma = 0 when f_0 = 0, low is empty or A = 0.  Its
    record (_mixed_system, on lu if given) lives for the call alone.

    Raises:
        SolverFailure: The bound is not reached, as when the basis holds
            a non-harmonic vector.
    """
    sd = _saddle(metric, k, condition)
    sigma = np.zeros(metric.complex.num_simplices(k - 1))
    if len(sd.low) == 0 or not sd.scale > 0:
        return sigma
    system = _mixed_system(metric, sd, lu)
    nk = len(sd.idx)
    b = np.zeros(sd.S.shape[0])
    b[:nk] = (metric.mass_csr(k) @ f)[sd.idx] / sd.c
    b_abs, b = np.abs(b), system.project(b)
    if omega is not None:  # free rows of |M_k| and |d_(k-1)| (`_abs`) size f = d omega
        abs_M = _abs(metric.mass_csr(k)[sd.idx])
        abs_d = _abs(metric.complex.exterior_derivative_matrix(k - 1))
        b_abs[:nk] = np.maximum(b_abs[:nk], (abs_M @ (abs_d @ np.abs(omega))) / sd.c)
    x = _refine(system, np.zeros_like(b), b, b_abs, f"mixed solve at degree {k}")
    sigma[sd.low] = x[nk:] * math.sqrt(sd.c / sd.c_l)
    return sigma


def _mixed_system(metric: Metric, sd: _Saddle, lu: spla.SuperLU | None = None):
    """The refined system of one mixed solve, kept by no memo: on lu if
    given, else on a new saddle factor (lent to the basis if built here),
    the harmonic part V V^T M projected out of every residual and correction."""
    lu = sd.factor() if lu is None else lu
    basis = metric.cached(("harmonic", sd.k, sd.condition),
                          lambda: _build_harmonic_basis(metric, sd.k, sd.condition, lambda: lu))
    nk = len(sd.idx)
    V = basis.vectors[sd.idx] * math.sqrt(sd.c)
    MV = sd.M @ V

    def deflate(y, P, Q):  # y[:nk] minus P Q^T y[:nk]
        y[:nk] -= P @ (Q.T @ y[:nk])
        return y

    return _refined_system(
        sd.S, lu, lambda r: deflate(lu.solve(r), V, MV), lambda y: deflate(y, MV, V))


def hodge_morrey_friedrichs(metric: Metric, omega: Cochain) -> HMFDecomposition:
    """Decompose a k-cochain into exact, coexact, and harmonic pieces.

    The exact piece uses zero-trace potentials, the coexact piece the
    plain adjoint codifferential, and the harmonic remainder is split a
    second time along the Dirichlet-harmonic subspace.  At degree 0 the
    exact piece is zero, at the top degree the coexact piece is zero.
    The exact piece is d sigma of the Dirichlet mixed solve at degree k
    with right-hand side omega; the coexact piece is sigma of the Neumann
    mixed solve at degree k+1 with right-hand side d omega, its backward
    error measured against the size |d| |omega| of its data too, so
    degrees k < n also need the Neumann harmonic basis at k+1.

    Raises:
        SolverFailure: A mixed solve misses its backward-error bound, or
            two pieces have an M-inner product above
            HMF_ORTHOGONALITY_TOL * |omega|_M^2, named with the degree and
            the solve or basis each piece of the largest came from.
    """
    _check_metric(metric, omega)
    cx = metric.complex
    k = omega.degree
    d_alpha = delta_beta = Cochain(cx, k, np.zeros(cx.num_simplices(k)))
    if k > 0:
        sigma = _mixed_potential(metric, k, "dirichlet", omega.values)
        d_alpha = exterior_derivative(metric, Cochain(cx, k - 1, sigma))
    if k < cx.dimension:
        d_omega = cx.exterior_derivative_matrix(k) @ omega.values
        delta_beta = Cochain(cx, k, _mixed_potential(metric, k + 1, "neumann", d_omega, omega.values))

    h = omega - d_alpha - delta_beta
    basis = harmonic_basis(metric, k, "dirichlet")
    _, lambda_T = harmonic_projection(basis, h)
    delta_gamma = h - lambda_T
    M = metric.mass_csr(k)
    pieces = np.column_stack([x.values for x in (d_alpha, delta_beta, lambda_T, delta_gamma)])
    gram = pieces.T @ (M @ pieces)
    upper = np.abs(np.triu(gram, 1))
    i, j = np.unravel_index(upper.argmax(), upper.shape)
    scale = omega.values @ (M @ omega.values)
    if upper[i, j] > HMF_ORTHOGONALITY_TOL * scale:
        spectral = not math.isnan(basis.first_nonkernel_eigenvalue)  # else closed form
        source = (f"d_alpha (Dirichlet mixed solve at degree {k})",
                  f"delta_beta (Neumann mixed solve at degree {k + 1})",
                  f"lambda_T ({'spectral' if spectral else 'closed-form'} Dirichlet basis)",
                  "delta_gamma (the remainder)")
        hint = " (a harmonic basis of the wrong dimension?)" if spectral and 2 in (i, j) else ""
        raise SolverFailure(f"HMF pieces overlap by {upper[i, j] / scale:.3e} of |omega|^2 at"
                            f" degree {k}: {source[i]} and {source[j]}{hint}")
    return HMFDecomposition(omega, d_alpha, delta_beta, lambda_T, delta_gamma, gram)


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
    part the exact piece plus the rest of the harmonic piece, so that
    the parts' sum checks the split.

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
    gradient = dec.d_alpha + (dec.harmonic - circ)
    return {
        "cochain": omega,
        "knot_part": knot,
        "gradient_part": gradient,
        "knot_dim": nb.dim,
        "gradient_dim": harmonic_basis(metric, 2, "neumann").dim,
        "knot_norm": norm(metric, knot),
        "gradient_norm": norm(metric, gradient),
    }
