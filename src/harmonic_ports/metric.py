"""Whitney-form metric structure on a simplicial complex.

Mass matrices and wedge pairings are assembled element by element from
lowest-order Whitney forms, evaluated in an orthonormal tangent frame per
element so surfaces embedded in higher-dimensional space work the same
way as flat meshes.  On top of the masses sit the first-order operators:
exterior derivative, the two codifferentials (plain adjoint and the
zero-trace constrained one), tangential traces, Green defects, and the
exact discrete Stokes identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    ComplexMismatch,
    DegreeMismatch,
    DegreeOutOfRange,
    FactorizationFailure,
)
from .mesh import BoundaryComplex, SimplicialComplex, extract_boundary

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

    Element frames are built eagerly.  Everything else, here and in the
    layers above (harmonic bases, HMF solvers, Stokes-Dirac operators,
    midpoint factors), is built on first request through `cached` and kept
    in one memo keyed by a tuple naming the quantity, e.g. ("mass", k).
    Each mass matrix has one lower Cholesky factor, for solves and whitening.

    Args:
        complex: The oriented complex to equip.

    Raises:
        FactorizationFailure: A degenerate (zero-volume) element, or a
            mass matrix that fails its Cholesky factorization.
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
        verts = cx.vertices
        vols_signed, grads_list, gram_list = [], [], []
        for top in cx.simplices[n]:
            edges = (verts[list(top[1:])] - verts[top[0]]).T  # (d, n)
            q, r = np.linalg.qr(edges)
            det = float(np.prod(np.diag(r)))
            scale = max(float(np.abs(edges).max()), 1.0) ** n
            if abs(det) <= 1e-13 * scale:
                raise FactorizationFailure(f"degenerate element {top}")
            vols_signed.append(det / math.factorial(n))
            rinv = sla.solve_triangular(r, np.eye(n))
            grads = np.vstack([-rinv.sum(axis=0), rinv])  # rows: grad lambda_i
            grads_list.append(grads)
            gram_list.append(grads @ grads.T)
        self._vols_signed = np.array(vols_signed)
        self._vols_abs = np.abs(self._vols_signed)
        self._grads = grads_list
        self._gram = gram_list

    # -- assembled matrices -----------------------------------------------

    def mass(self, k: int) -> np.ndarray:
        """Whitney mass matrix at degree k (dense, symmetric positive)."""
        if not 0 <= k <= self.complex.dimension:
            raise DegreeOutOfRange(f"degree {k} outside 0..{self.complex.dimension}")
        return self.cached(("mass", k), lambda: self._assemble_mass(k))

    def _assemble_mass(self, k: int) -> np.ndarray:
        cx = self.complex
        n = cx.dimension
        M = np.zeros((cx.num_simplices(k), cx.num_simplices(k)))
        denom = (n + 1) * (n + 2)
        kfac2 = float(math.factorial(k)) ** 2
        loc = list(itertools.combinations(range(n + 1), k + 1))
        removals = {
            s: [(list(s[:a] + s[a + 1 :]), -1 if a % 2 else 1, s[a]) for a in range(k + 1)]
            for s in loc
        }
        for t_idx, top in enumerate(cx.simplices[n]):
            V = self._vols_abs[t_idx]
            G = self._gram[t_idx]
            gidx = [cx.index[k][tuple(top[i] for i in s)] for s in loc]
            for si in range(len(loc)):
                for ti in range(si, len(loc)):
                    acc = 0.0
                    for rs, sa, va in removals[loc[si]]:
                        for rt, sb, vb in removals[loc[ti]]:
                            w = 2.0 if va == vb else 1.0
                            d = float(np.linalg.det(G[np.ix_(rs, rt)])) if k else 1.0
                            acc += sa * sb * w * d
                    val = kfac2 * V / denom * acc
                    M[gidx[si], gidx[ti]] += val
                    if ti != si:
                        M[gidx[ti], gidx[si]] += val
        return M

    def wedge(self, a: int, b: int) -> np.ndarray:
        """Pairing matrix P[s, t] = integral of w_s^(a) wedge w_t^(b).

        Requires a + b = n.  Degree-n slots use the oriented basis, like
        cochains do.  Satisfies P(a,b) = (-1)^(a b) P(b,a)^T.
        """
        n = self.complex.dimension
        if a + b != n or a < 0 or b < 0:
            raise DegreeMismatch(f"wedge degrees ({a}, {b}) must sum to {n}")
        return self.cached(("wedge", a, b), lambda: self._assemble_wedge(a, b))

    def _assemble_wedge(self, a: int, b: int) -> np.ndarray:
        cx = self.complex
        n = cx.dimension
        P = np.zeros((cx.num_simplices(a), cx.num_simplices(b)))
        denom = (n + 1) * (n + 2)
        fac = float(math.factorial(a) * math.factorial(b))
        loc_a = list(itertools.combinations(range(n + 1), a + 1))
        loc_b = list(itertools.combinations(range(n + 1), b + 1))
        rem = lambda s: [
            (list(s[:i] + s[i + 1 :]), -1 if i % 2 else 1, s[i]) for i in range(len(s))
        ]
        rem_a = {s: rem(s) for s in loc_a}
        rem_b = {s: rem(s) for s in loc_b}
        for t_idx, top in enumerate(cx.simplices[n]):
            vs = self._vols_signed[t_idx]
            o = int(cx.orientation[t_idx])
            grads = self._grads[t_idx]
            gia = [cx.index[a][tuple(top[i] for i in s)] for s in loc_a]
            gib = [cx.index[b][tuple(top[i] for i in s)] for s in loc_b]
            for si, s in enumerate(loc_a):
                for ti, t in enumerate(loc_b):
                    acc = 0.0
                    for rs, sgn_i, vi in rem_a[s]:
                        for rt, sgn_j, vj in rem_b[t]:
                            rows = grads[rs + rt]
                            det = float(np.linalg.det(rows))
                            w = 2.0 if vi == vj else 1.0
                            acc += sgn_i * sgn_j * w * det
                    val = o * fac * vs / denom * acc
                    if a == n or b == n:
                        val *= o  # oriented top-degree basis
                    P[gia[si], gib[ti]] += val
        return P

    def mass_cholesky(self, k: int) -> np.ndarray:
        """Lower Cholesky factor L of mass(k), L L^T = M_k: solve with
        cho_solve((L, True), rhs), whiten with L^T."""
        return self.cached(
            ("mass_cholesky", k),
            lambda: _lower_cholesky(self.mass(k), f"mass matrix at degree {k}"),
        )

    def d_matrix(self, k: int) -> np.ndarray:
        """Dense float coboundary from degree k to k+1."""
        d = self.complex.exterior_derivative_matrix
        return self.cached(("d", k), lambda: d(k).toarray().astype(float))

    # -- boundary bookkeeping ----------------------------------------------

    def boundary_indices(self, k: int) -> np.ndarray:
        """Parent indices of k-simplices lying on the boundary."""
        if k == self.complex.dimension:
            return np.zeros(0, dtype=np.int64)
        return np.unique(self.boundary_complex.parent_indices(k))

    def interior_indices(self, k: int) -> np.ndarray:
        mask = np.ones(self.complex.num_simplices(k), dtype=bool)
        mask[self.boundary_indices(k)] = False
        return np.flatnonzero(mask)

    def interior_mass_cholesky(self, k: int) -> np.ndarray:
        """Lower Cholesky factor of the interior block of mass(k), rows and
        columns in interior_indices(k) order; mass_cholesky(k) itself when
        no k-simplex lies on the boundary."""

        def build():
            idx = self.interior_indices(k)
            if len(idx) == self.complex.num_simplices(k):
                return self.mass_cholesky(k)
            return _lower_cholesky(
                self.mass(k)[np.ix_(idx, idx)], f"interior mass at degree {k}"
            )

        return self.cached(("interior_mass_cholesky", k), build)

    def deltac_matrix(self, k: int) -> np.ndarray:
        """Constrained codifferential from degree k to k-1, as a dense matrix.

        The interior rows solve the interior mass block against d^T M_k;
        boundary rows are exactly zero.
        """

        def build():
            out = self.d_matrix(k - 1).T @ self.mass(k)
            idx = self.interior_indices(k - 1)
            out[idx] = sla.cho_solve((self.interior_mass_cholesky(k - 1), True), out[idx])
            out[self.boundary_indices(k - 1)] = 0.0
            return out

        return self.cached(("deltac", k), build)

    def trace_matrix(self, k: int) -> np.ndarray:
        return np.asarray(
            self.boundary_complex.trace_matrix(k).todense(), dtype=float
        )

    def boundary_metric(self):
        """Metric on the boundary complex, or None when it is empty."""
        if self.boundary_complex.num_simplices(0) == 0:
            return None
        return self.cached(("boundary_metric",), lambda: Metric(self.boundary_complex))


def _lower_cholesky(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        return sla.cholesky(matrix, lower=True)
    except sla.LinAlgError as exc:
        raise FactorizationFailure(what) from exc


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
    return Cochain(c.complex, c.degree + 1, metric.d_matrix(c.degree) @ c.values)


def codifferential(metric: Metric, c: Cochain) -> Cochain:
    """Adjoint codifferential: delta = M^-1 d^T M, one degree down."""
    _check_metric(metric, c)
    k = c.degree
    if k == 0:
        raise DegreeOutOfRange("codifferential of a 0-cochain")
    rhs = metric.d_matrix(k - 1).T @ (metric.mass(k) @ c.values)
    vals = sla.cho_solve((metric.mass_cholesky(k - 1), True), rhs)
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
    return Cochain(c.complex, k - 1, metric.deltac_matrix(k) @ c.values)


def inner_product(metric: Metric, a: Cochain, b: Cochain) -> float:
    _check_metric(metric, a)
    a._check(b)
    return float(a.values @ (metric.mass(a.degree) @ b.values))


def norm(metric: Metric, a: Cochain) -> float:
    return math.sqrt(max(inner_product(metric, a, a), 0.0))


def tangential_trace(metric: Metric, c: Cochain) -> Cochain:
    """Restriction to the boundary complex (induced-orientation basis at
    the boundary's top degree)."""
    _check_metric(metric, c)
    if c.degree >= metric.complex.dimension:
        raise DegreeOutOfRange("no trace at the top degree")
    return Cochain(
        metric.boundary_complex, c.degree, metric.trace_matrix(c.degree) @ c.values
    )


def extend_by_zero(metric: Metric, psi: Cochain) -> Cochain:
    """Parent cochain with boundary values psi and zeros in the interior."""
    if not same_complex(psi.complex, metric.boundary_complex):
        raise ComplexMismatch("cochain does not live on the boundary complex")
    vals = metric.trace_matrix(psi.degree).T @ psi.values
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
