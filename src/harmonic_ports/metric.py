"""Whitney-form metric structure on a simplicial complex.

One stacked QR of all element edge vectors gives every element's signed
volume and barycentric gradients in an orthonormal tangent frame, so
embedded surfaces work the same way as flat meshes.  Mass matrices and
wedge pairings of lowest-order Whitney forms then come from one pairing
kernel over all elements at once, summed straight into sparse (CSR)
matrices: no N x N array is ever formed, so memory grows with the
number of simplices.  On top of the masses sit the first-order
operators: exterior derivative, the two codifferentials (plain adjoint
and the zero-trace constrained one), tangential traces, Green defects,
and the exact discrete Stokes identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ComplexMismatch,
    DegreeMismatch,
    DegreeOutOfRange,
    FactorizationFailure,
)
from .mesh import BoundaryComplex, SimplicialComplex, _subsets, extract_boundary

__all__ = [
    "Cochain",
    "Metric",
    "same_complex",
    "random_cochain",
    "exterior_derivative",
    "codifferential",
    "codifferential_constrained",
    "inner_product",
    "norm",
    "tangential_trace",
    "extend_by_zero",
    "green_defect",
    "green_defect_constrained",
    "stokes_check",
]


def same_complex(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """True when two complexes are the same object or have equal content."""
    if a is b:
        return True
    return (
        a.dimension == b.dimension
        and a.simplices == b.simplices
        and np.array_equal(a.orientation, b.orientation)
        and np.array_equal(a.vertices, b.vertices)
    )


@dataclass
class Cochain:
    """A real-valued cochain: one value per k-simplex in canonical order.

    Values at the top degree refer to the oriented simplices; at lower
    degrees to the sorted vertex tuples.
    """

    complex: SimplicialComplex
    degree: int
    values: np.ndarray

    def __post_init__(self):
        if not 0 <= self.degree <= self.complex.dimension:
            raise DegreeOutOfRange(
                f"degree {self.degree} outside 0..{self.complex.dimension}"
            )
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if not np.isfinite(self.values).all():
            raise ValueError("cochain values must be finite")
        if len(self.values) != self.complex.num_simplices(self.degree):
            raise DegreeMismatch(
                f"{len(self.values)} values for "
                f"{self.complex.num_simplices(self.degree)} simplices"
            )

    def copy(self) -> "Cochain":
        return Cochain(self.complex, self.degree, self.values.copy())

    def _check(self, other: "Cochain"):
        if not same_complex(self.complex, other.complex):
            raise ComplexMismatch("cochains live on different complexes")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degrees {self.degree} and {other.degree}")

    def __add__(self, other):
        self._check(other)
        return Cochain(self.complex, self.degree, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return Cochain(self.complex, self.degree, self.values - other.values)

    def __mul__(self, scalar):
        return Cochain(self.complex, self.degree, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Cochain(self.complex, self.degree, -self.values)


def random_cochain(complex: SimplicialComplex, degree: int, rng) -> Cochain:
    """Standard normal values, one per k-simplex."""
    return Cochain(
        complex, degree, rng.standard_normal(complex.num_simplices(degree))
    )


class Metric:
    """Whitney masses, wedges and all operators derived from them.

    Element frames (signed volumes and barycentric gradients of all
    elements, from one stacked QR) are built eagerly.  Mass and wedge
    matrices share one pairing kernel that evaluates every local entry of
    every element at once and sums them, at the face positions the
    complex's face table holds for every element, into one CSR matrix:
    mass_csr(k) and wedge_csr(a, b) are the one stored form of each, and
    every product with them goes through it.  mass(k) and wedge(a, b)
    are uncached dense copies for small meshes, kept for callers that
    read dense arrays (the benchmark's traced byte counts); the library
    itself never calls them.  Each mass block, the full mass_csr(k) or
    its interior rows and columns, has one sparse LU (SuperLU), shared
    by every solve against it, the constrained codifferential included.
    Everything else, here and in the layers above (boundary and interior
    index arrays, harmonic bases, mixed Hodge-Laplacian factors, the
    Stokes-Dirac coupling, the midpoint generator and factors), is built
    on first request through `cached` and kept in one memo keyed by a
    tuple naming it, e.g. ("mass_csr", k).

    Args:
        complex: The oriented complex to equip.

    Raises:
        FactorizationFailure: A degenerate (zero-volume) element, or a
            singular mass block.
    """

    def __init__(self, complex: SimplicialComplex):
        self.complex = complex
        self.boundary_complex: BoundaryComplex = extract_boundary(complex)
        self._build_frames()
        self._memo: dict = {}

    def cached(self, key: tuple, build):
        """The value stored under key, built by build() on first request."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- element frames ---------------------------------------------------

    def _build_frames(self):
        cx = self.complex
        n = cx.dimension
        tops = cx._face_positions[0]  # the local 0-faces of a top are its vertices
        edges = cx.vertices[tops[:, 1:]] - cx.vertices[tops[:, :1]]  # (T, n, d)
        r = np.linalg.qr(edges.transpose(0, 2, 1), mode="r")  # (T, n, n)
        det = np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1)
        scale = np.abs(edges).max(axis=(1, 2)) ** n
        bad = np.flatnonzero(np.abs(det) <= 1e-13 * scale)
        if bad.size:
            raise FactorizationFailure(f"degenerate element {cx.simplices[n][bad[0]]}")
        rinv = np.linalg.inv(r)  # row i: frame gradient of lambda_(i+1)
        self._vols_signed = det / math.factorial(n)
        self._gradients = np.concatenate([-rinv.sum(1, keepdims=True), rinv], axis=1)

    # -- assembled matrices -----------------------------------------------

    def mass_csr(self, k: int) -> sp.csr_matrix:
        """Whitney mass matrix at degree k (CSR, exactly symmetric, positive)."""
        n = self.complex.dimension
        if not 0 <= k <= n:
            raise DegreeOutOfRange(f"degree {k} outside 0..{n}")

        def build():
            # K(S, T) = <dlambda_S, dlambda_T> = det of the Gram sub-block
            sub = _subsets(n + 1, k)
            gram = self._gradients @ self._gradients.transpose(0, 2, 1)
            K = np.linalg.det(gram[:, sub[:, None, :, None], sub[None, :, None, :]])
            vols = np.abs(self._vols_signed)
            scale = math.factorial(k) ** 2 / ((n + 1) * (n + 2)) * vols
            return self._pair(k, k, K, scale, symmetric=True)

        return self.cached(("mass_csr", k), build)

    def mass(self, k: int) -> np.ndarray:
        """Dense copy of mass_csr(k), built afresh on every call."""
        return self.mass_csr(k).toarray()

    def wedge_csr(self, a: int, b: int) -> sp.csr_matrix:
        """Pairing matrix P[s, t] = integral of w_s^(a) wedge w_t^(b) (CSR).

        Requires a + b = n.  Degree-n slots use the oriented basis, like
        cochains do.  Satisfies P(a,b) = (-1)^(a b) P(b,a)^T.
        """
        n = self.complex.dimension
        if a + b != n or a < 0 or b < 0:
            raise DegreeMismatch(f"wedge degrees ({a}, {b}) must sum to {n}")

        def build():
            # K(S, T) = dlambda_S ^ dlambda_T / frame volume form = det of
            # the stacked gradient rows S + T
            sa, sb = _subsets(n + 1, a), _subsets(n + 1, b)
            rows = np.array([s + t for s in sa.tolist() for t in sb.tolist()])
            K = np.linalg.det(self._gradients[:, rows.reshape(len(sa), len(sb), n)])
            o = self.complex.orientation
            vols = o * self._vols_signed
            scale = math.factorial(a) * math.factorial(b) / ((n + 1) * (n + 2)) * vols
            if n in (a, b):
                scale = scale * o  # oriented top-degree basis
            return self._pair(a, b, K, scale)

        return self.cached(("wedge_csr", a, b), build)

    def wedge(self, a: int, b: int) -> np.ndarray:
        """Dense copy of wedge_csr(a, b), built afresh on every call."""
        return self.wedge_csr(a, b).toarray()

    def _pair(self, p, q, K, scale, symmetric=False) -> sp.csr_matrix:
        """Sparse (N_p, N_q) sum over elements of, per local p-face s and q-face t,
        scale * sum_ij (-1)^(i+j) (1 + [s_i = t_j]) K(s minus s_i, t minus t_j).

        K is (T, C(n+1, p), C(n+1, q)), removal sub-tuples in combinations
        order.  symmetric averages each local block with its transpose.
        bincount adds the local entries of each matrix position in element
        order, the order of a dense scatter, so entries (i, j) and (j, i)
        of a symmetric pairing get bitwise equal sums; exact zeros are
        left out.
        """
        n = self.complex.dimension
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
        shape = (self.complex.num_simplices(p), self.complex.num_simplices(q))
        faces = self.complex._face_positions
        flat = (faces[p][:, :, None] * shape[1] + faces[q][:, None, :]).ravel()
        keys, slot = np.unique(flat, return_inverse=True)
        sums = np.bincount(slot, weights=local.ravel(), minlength=len(keys))
        kept = sums != 0
        return sp.csr_matrix((sums[kept], np.divmod(keys[kept], shape[1])), shape=shape)

    def mass_lu(self, k: int) -> spla.SuperLU:
        """Sparse LU of mass_csr(k); lu.solve(rhs) solves M_k x = rhs."""
        return self.cached(
            ("mass_lu", k), lambda: _splu(self.mass_csr(k), f"mass matrix at degree {k}")
        )

    # -- boundary bookkeeping ----------------------------------------------

    def boundary_indices(self, k: int) -> np.ndarray:
        """Sorted parent indices of k-simplices lying on the boundary (cached,
        read-only)."""

        def build():
            if k == self.complex.dimension:
                return _read_only(np.zeros(0, dtype=np.int64))
            return _read_only(np.unique(self.boundary_complex.parent_indices(k)))

        return self.cached(("boundary_indices", k), build)

    def interior_indices(self, k: int) -> np.ndarray:
        """Sorted indices of k-simplices off the boundary (cached, read-only)."""

        def build():
            mask = np.ones(self.complex.num_simplices(k), dtype=bool)
            mask[self.boundary_indices(k)] = False
            return _read_only(np.flatnonzero(mask))

        return self.cached(("interior_indices", k), build)

    def interior_mass_lu(self, k: int) -> spla.SuperLU:
        """Sparse LU of the interior block of mass_csr(k), rows and columns
        in interior_indices(k) order; mass_lu(k) itself when no k-simplex
        lies on the boundary."""

        def build():
            idx = self.interior_indices(k)
            if len(idx) == self.complex.num_simplices(k):
                return self.mass_lu(k)
            return _splu(self.mass_csr(k)[idx][:, idx], f"interior mass at degree {k}")

        return self.cached(("interior_mass_lu", k), build)

    def boundary_metric(self):
        """Metric on the boundary complex, or None when it is empty."""
        if self.boundary_complex.num_simplices(0) == 0:
            return None
        return self.cached(("boundary_metric",), lambda: Metric(self.boundary_complex))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _splu(matrix, what: str) -> spla.SuperLU:
    """SuperLU factor of a sparse square matrix (default column ordering).

    Raises:
        FactorizationFailure: The factor is singular.
    """
    try:
        return spla.splu(sp.csc_matrix(matrix))
    except RuntimeError as exc:
        raise FactorizationFailure(f"{what} is singular") from exc


# -- first-order operations ------------------------------------------------


def _check_metric(metric: Metric, c: Cochain):
    if not same_complex(metric.complex, c.complex):
        raise ComplexMismatch("cochain does not live on this metric's complex")


def exterior_derivative(metric: Metric, c: Cochain) -> Cochain:
    """Coboundary dc, one degree up."""
    _check_metric(metric, c)
    n = metric.complex.dimension
    if c.degree >= n:
        raise DegreeOutOfRange("exterior derivative of a top-degree cochain")
    d = metric.complex.exterior_derivative_matrix(c.degree)
    return Cochain(c.complex, c.degree + 1, d @ c.values)


def codifferential(metric: Metric, c: Cochain) -> Cochain:
    """Adjoint codifferential: delta = M^-1 d^T M, one degree down."""
    _check_metric(metric, c)
    k = c.degree
    if k == 0:
        raise DegreeOutOfRange("codifferential of a 0-cochain")
    d = metric.complex.exterior_derivative_matrix(k - 1)
    vals = metric.mass_lu(k - 1).solve(d.T @ (metric.mass_csr(k) @ c.values))
    return Cochain(c.complex, k - 1, vals)


def codifferential_constrained(metric: Metric, c: Cochain) -> Cochain:
    """Codifferential constrained to zero-trace (interior) cochains.

    The result is the weak codifferential tested against zero-trace forms
    only; it agrees with the plain adjoint on closed meshes.
    """
    _check_metric(metric, c)
    k = c.degree
    if k == 0:
        raise DegreeOutOfRange("codifferential of a 0-cochain")
    return Cochain(c.complex, k - 1, _deltac(metric, k, c.values))


def _deltac(metric: Metric, k: int, x: np.ndarray) -> np.ndarray:
    """Constrained codifferential of degree-k values x, a vector or a
    column block: the interior rows solve the interior mass block against
    d^T M_k x, and the boundary rows are exactly zero."""
    rhs = metric.complex.boundary_matrix(k) @ (metric.mass_csr(k) @ x)
    idx = metric.interior_indices(k - 1)
    out = np.zeros_like(rhs)
    out[idx] = metric.interior_mass_lu(k - 1).solve(rhs[idx])
    return out


def inner_product(metric: Metric, a: Cochain, b: Cochain) -> float:
    _check_metric(metric, a)
    a._check(b)
    return float(a.values @ (metric.mass_csr(a.degree) @ b.values))


def norm(metric: Metric, a: Cochain) -> float:
    return math.sqrt(max(inner_product(metric, a, a), 0.0))


def tangential_trace(metric: Metric, c: Cochain) -> Cochain:
    """Restriction to the boundary complex (induced-orientation basis at
    the boundary's top degree)."""
    _check_metric(metric, c)
    if c.degree >= metric.complex.dimension:
        raise DegreeOutOfRange("no trace at the top degree")
    trace = metric.boundary_complex.trace_matrix(c.degree)
    return Cochain(metric.boundary_complex, c.degree, trace @ c.values)


def extend_by_zero(metric: Metric, psi: Cochain) -> Cochain:
    """Parent cochain with boundary values psi and zeros in the interior."""
    if not same_complex(psi.complex, metric.boundary_complex):
        raise ComplexMismatch("cochain does not live on the boundary complex")
    vals = metric.boundary_complex.trace_matrix(psi.degree).T @ psi.values
    return Cochain(metric.complex, psi.degree, vals)


def green_defect(metric: Metric, a: Cochain, b: Cochain) -> float:
    """<<da, b>> - <<a, delta b>>; zero to rounding for the plain adjoint."""
    _check_metric(metric, a)
    _check_metric(metric, b)
    if b.degree != a.degree + 1:
        raise DegreeMismatch("defect needs degrees (k, k+1)")
    return inner_product(metric, exterior_derivative(metric, a), b) - inner_product(
        metric, a, codifferential(metric, b)
    )


def green_defect_constrained(metric: Metric, a: Cochain, b: Cochain) -> float:
    """<<da, b>> - <<a, delta_c b>>: the boundary pairing realized by the
    constrained codifferential.  Vanishes whenever a has zero trace, and
    depends on a only through its trace."""
    _check_metric(metric, a)
    _check_metric(metric, b)
    if b.degree != a.degree + 1:
        raise DegreeMismatch("defect needs degrees (k, k+1)")
    return inner_product(metric, exterior_derivative(metric, a), b) - inner_product(
        metric, a, codifferential_constrained(metric, b)
    )


def stokes_check(metric: Metric, c: Cochain) -> dict:
    """Discrete Stokes identity for a degree n-1 cochain.

    Both the volume integral of dc and the boundary integral of the trace
    are accumulated with math.fsum over the same multiset of signed terms
    (interior contributions cancel exactly), so the two sides agree
    bitwise and the residual is exactly zero.
    """
    _check_metric(metric, c)
    n = metric.complex.dimension
    if c.degree != n - 1:
        raise DegreeMismatch(f"stokes_check needs degree {n - 1}")
    bnd = metric.complex.boundary_matrix(n).tocoo()
    lhs = math.fsum(
        float(s) * c.values[f] for f, s in zip(bnd.row, bnd.data)
    )
    bc = metric.boundary_complex
    inc = bc.inclusion[n - 1].tocoo() if bc.num_simplices(0) else None
    if inc is None:
        rhs = 0.0
    else:
        signs = bc.orientation
        rhs = math.fsum(
            float(signs[j]) * c.values[parent]
            for parent, j in zip(inc.row, inc.col)
        )
    return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs}
