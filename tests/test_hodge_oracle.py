"""Sparse harmonic bases and mixed solves against the dense code they
replaced (generalized eigensolve, thin-SVD least squares on whitened
matrices), kept here as test-only oracles for small meshes."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg as sla

from harmonic_ports import (
    Cochain,
    Metric,
    betti_numbers,
    build_complex,
    exterior_derivative,
    harmonic_basis,
    hodge_morrey_friedrichs,
    norm,
    potential_for_exact,
    random_cochain,
)
from harmonic_ports import hodge as hodge_mod
from harmonic_ports.hodge import _split_kernel

from conftest import ACCEPTANCE, SMALL, complex_for, metric_for


def _d(metric, k):
    """Dense float coboundary from degree k to k+1."""
    return metric.complex.exterior_derivative_matrix(k).toarray().astype(float)


def dense_harmonic_basis(metric, k, condition):
    """(vectors, first non-kernel eigenvalue) from sla.eigh on the dense
    Hodge Laplacian A = D^T M_(k+1) D + B^T M_(k-1)^-1 B against M_k."""
    n = metric.complex.dimension
    if condition == "neumann":
        idx = np.arange(metric.complex.num_simplices(k))
    else:
        idx = metric.interior_indices(k)
    nk = len(idx)
    if nk == 0:
        return np.zeros((metric.complex.num_simplices(k), 0)), math.inf

    M = metric.mass(k)[np.ix_(idx, idx)]
    A = np.zeros((nk, nk))
    if k < n:
        D = _d(metric, k)[:, idx]
        A += D.T @ metric.mass(k + 1) @ D
    if k > 0:
        if condition == "neumann":
            low = np.arange(metric.complex.num_simplices(k - 1))
        else:
            low = metric.interior_indices(k - 1)
        C = (metric.mass(k) @ _d(metric, k - 1))[np.ix_(idx, low)]
        A += C @ sla.solve(metric.mass(k - 1)[np.ix_(low, low)], C.T, assume_a="pos")
    evals, evecs = sla.eigh(A, M)

    m = _split_kernel(evals, evals[-1])
    vectors = np.zeros((metric.complex.num_simplices(k), m))
    vectors[idx, :] = evecs[:, :m]
    return vectors, float(evals[m]) if m < len(evals) else math.inf


def _largest_angle_sine(metric, k, V, W):
    """Sine of the largest principal angle between two M-orthonormal spans."""
    if V.shape[1] == 0:
        return 0.0
    M = metric.mass(k)
    R = W - V @ (V.T @ M @ W)
    return math.sqrt(max(np.linalg.eigvalsh(R.T @ M @ R).max(), 0.0))


def _assert_matches_oracle(metric):
    # degrees 0 and n are built in closed form, with no spectrum: their
    # gap reads nan, and the dense eigensolve stays their witness
    n = metric.complex.dimension
    for condition in ("neumann", "dirichlet"):
        for k in range(n + 1):
            hb = harmonic_basis(metric, k, condition)
            V, first = dense_harmonic_basis(metric, k, condition)
            assert hb.dim == V.shape[1]
            if k in (0, n):
                assert math.isnan(hb.first_nonkernel_eigenvalue)
                assert hb.last_kernel_eigenvalue == 0.0
                _assert_in_kernel(metric, hb)
            elif math.isinf(first):
                assert math.isinf(hb.first_nonkernel_eigenvalue)
            else:
                assert abs(hb.first_nonkernel_eigenvalue - first) <= 1e-8 * first
            assert _largest_angle_sine(metric, k, V, hb.vectors) <= 1e-10
            gram = hb.vectors.T @ metric.mass(k) @ hb.vectors
            assert np.abs(gram - np.eye(hb.dim)).max(initial=0.0) <= 1e-12


def dense_mu_max(sd):
    """Largest eigenvalue of the unit-free saddle's A u = mu M u, densely."""
    return sla.eigh(sd.A @ np.eye(len(sd.idx)), sd.M.toarray(), eigvals_only=True)[-1]


def _assert_in_kernel(metric, hb):
    """|A u| <= 1e-12 mu_max |u| for every basis vector u, on the free
    simplices, with A and the dense mu_max of the unit-free saddle."""
    sd = hodge_mod._saddle(metric, hb.degree, hb.condition)
    mu_max = dense_mu_max(sd) if hb.dim else 0.0
    for u in (hb.vectors[sd.idx] * math.sqrt(sd.c)).T:
        assert np.linalg.norm(sd.A @ u) <= 1e-12 * mu_max * np.linalg.norm(u)


def disjoint_copies(shape, count):
    """count disjoint copies of the small mesh of shape, 10 apart along x."""
    c = complex_for(shape, SMALL[shape])
    nv, shift = c.num_simplices(0), np.eye(c.vertices.shape[1])[0] * 10.0
    tops = [tuple(v + i * nv for v in t) for i in range(count) for t in c.simplices[c.dimension]]
    verts = np.vstack([c.vertices + i * shift for i in range(count)])
    return Metric(build_complex(tops, verts))


five_annuli = functools.partial(disjoint_copies, "annulus", 5)

# The acceptance meshes; the SMALL ones, where sphere:1 at degree 1 and
# ball:1 (2, dirichlet) have six free simplices, so the first request's
# Krylov space is clipped to N - 1 = j + 1, the smallest ARPACK accepts;
# and two tori, whose b_1 = 4 fills the first request with a spectrum
# that repeats every eigenvalue.
ORACLE_MESHES = {
    **{shape: functools.partial(metric_for, shape, r) for shape, r in ACCEPTANCE.items()},
    **{f"{shape}-small": functools.partial(metric_for, shape, r) for shape, r in SMALL.items()},
    "two_tori": functools.partial(disjoint_copies, "torus", 2),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_sparse_bases_match_the_dense_oracle(name):
    _assert_matches_oracle(ORACLE_MESHES[name]())


def pinched_spheres():
    """Two small spheres sharing one vertex, built without the strict
    checks: the pinch is a bad link."""
    s = complex_for("sphere", SMALL["sphere"])
    nv = s.num_simplices(0)
    shift = np.array([v + nv - 1 if v else 0 for v in range(nv)])
    tops = list(s.simplices[2]) + [tuple(shift[list(t)]) for t in s.simplices[2]]
    verts = np.vstack([s.vertices, (s.vertices - s.vertices[0])[1:] * [-1.0, 1.0, 1.0]
                       + s.vertices[0]])
    return Metric(build_complex(tops, verts, strict=False))


# Surfaces in R^3 whose top degree is solved spectrally, with the number of
# their vertices (placed at random, seeded by that number).
UNPAIRED_TOPS = {
    "fin": ([(0, 1, 2), (0, 1, 3), (0, 1, 4)], 5),  # three triangles on an edge
    "mobius": ([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)], 5),
    "rp2": ([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1), (1, 2, 4), (2, 3, 5),
             (3, 4, 1), (4, 5, 2), (5, 1, 3)], 6),  # projective plane
}


def unpaired(name):
    tops, count = UNPAIRED_TOPS[name]
    verts = np.random.default_rng(count).standard_normal((count, 3))
    return Metric(build_complex(tops, verts, strict=False))


def test_kernel_larger_than_the_first_lanczos_request():
    # five disjoint annuli: five-dimensional kernels at degrees 0 and 1,
    # more than the four pairs asked for first
    metric = five_annuli()
    betti = betti_numbers(metric.complex)
    assert betti == [5, 5, 0]
    assert [harmonic_basis(metric, k).dim for k in range(3)] == betti
    assert [harmonic_basis(metric, k, "dirichlet").dim for k in range(3)] == betti[::-1]
    _assert_matches_oracle(metric)


def test_spheres_pinched_at_a_vertex_match_the_oracle():
    # one vertex component, two top components: b_0 = 1, b_2 = 2
    metric = pinched_spheres()
    assert betti_numbers(metric.complex) == [1, 0, 2]
    assert [harmonic_basis(metric, k).dim for k in range(3)] == [1, 0, 2]
    _assert_matches_oracle(metric)


def test_squashed_annulus_has_one_constant():
    # y x 1e-4: mu_max grows to 1.3e10 and its cutoff 12.7 lies above the
    # two lowest non-constant modes (0.84 and 3.88), so the spectrum alone
    # counted H^0_N as 3; the closed form counts one component.  At degree
    # 2 the vector is the assembled M_2's constant density: the |vol|
    # cochain itself leaves |A u| at 9e-10 mu_max |u|, since the Gram
    # determinants of the squashed elements carry relative errors of 1e-8
    a = complex_for("annulus", ACCEPTANCE["annulus"])
    metric = Metric(build_complex(a.simplices[2], a.vertices * [1.0, 1e-4]))
    for condition, dims in (("neumann", (1, 0)), ("dirichlet", (0, 1))):
        for k, dim in zip((0, 2), dims):
            hb = harmonic_basis(metric, k, condition)
            assert hb.dim == dim
            _assert_in_kernel(metric, hb)


@pytest.mark.parametrize("name", sorted(UNPAIRED_TOPS))
def test_top_degree_keeps_the_spectrum_where_faces_do_not_pair_up(name):
    # an edge with three cofaces, or two cofaces of one orientation, breaks
    # the constant density, so the top degree is solved spectrally
    metric = unpaired(name)
    for condition in ("neumann", "dirichlet"):
        hb = harmonic_basis(metric, 2, condition)
        V, _ = dense_harmonic_basis(metric, 2, condition)
        assert not math.isnan(hb.first_nonkernel_eigenvalue)
        assert hb.dim == V.shape[1]
        assert _largest_angle_sine(metric, 2, V, hb.vectors) <= 1e-10


SCALE_MESHES = {
    **{shape: functools.partial(metric_for, shape, r) for shape, r in ACCEPTANCE.items()},
    "fin": functools.partial(unpaired, "fin"),
    "mobius": functools.partial(unpaired, "mobius"),
    "pinched": pinched_spheres,
    "annuli": five_annuli,
}


@pytest.mark.parametrize("name", sorted(SCALE_MESHES))
def test_saddle_scale_is_within_a_hundredth_of_the_largest_eigenvalue(name):
    # the scale read off the saddle's diagonals bounds mu_max from below
    # (Rayleigh and Gershgorin) and, on these meshes, lies within 1/100 of
    # it, so the kernel cutoff moves by less than two decades
    metric = SCALE_MESHES[name]()
    for k in range(metric.complex.dimension + 1):
        for condition in ("neumann", "dirichlet"):
            sd = hodge_mod._saddle(metric, k, condition)
            if len(sd.idx):
                mu_max = dense_mu_max(sd)
                assert mu_max / 100 <= sd.scale <= mu_max * (1 + 1e-12), (k, condition)


# -- HMF, potentials and integrability against dense least squares -----------


def _lstsq_applier(A):
    """x -> argmin |A x - rhs| from a thin SVD, small singular values cut."""
    if A.shape[1] == 0:
        return lambda rhs: np.zeros(0)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    keep = s > (s[0] if len(s) else 0.0) * max(A.shape) * np.finfo(float).eps
    return lambda rhs: vt[keep].T @ ((u[:, keep].T @ rhs) / s[keep])


def dense_hmf(metric, omega):
    """(d_alpha, delta_beta, lambda_T, delta_gamma) values by whitened least
    squares: M = L L^T, the exact piece projects L^T omega onto the span of
    L^T d (zero-trace potentials), the coexact piece onto the span of
    L^-1 d^T M_(k+1); lambda_T uses the dense oracle basis."""
    n = metric.complex.dimension
    k = omega.degree
    N = metric.complex.num_simplices(k)
    L = sla.cholesky(metric.mass(k), lower=True)
    white = L.T @ omega.values
    d_alpha = delta_beta = np.zeros(N)
    if k > 0:
        W = _d(metric, k - 1)[:, metric.interior_indices(k - 1)]
        d_alpha = W @ _lstsq_applier(L.T @ W)(white)
    if k < n:
        B = sla.solve_triangular(L, _d(metric, k).T @ metric.mass(k + 1), lower=True)
        z = _lstsq_applier(B)(white)
        delta_beta = sla.solve_triangular(L.T, B @ z, lower=False)
    h = omega.values - d_alpha - delta_beta
    V, _ = dense_harmonic_basis(metric, k, "dirichlet")
    lambda_T = V @ (V.T @ (metric.mass(k) @ h))
    return d_alpha, delta_beta, lambda_T, h - lambda_T


@pytest.mark.parametrize("shape", sorted(ACCEPTANCE))
def test_hmf_matches_the_dense_least_squares_oracle(shape):
    m = metric_for(shape, ACCEPTANCE[shape])
    rng = np.random.default_rng(505)
    for k in range(m.complex.dimension + 1):
        omega = random_cochain(m.complex, k, rng)
        dec = hodge_morrey_friedrichs(m, omega)
        got = [dec.d_alpha, dec.delta_beta, dec.lambda_T, dec.delta_gamma]
        scale = norm(m, omega)
        for piece, expect in zip(got, dense_hmf(m, omega)):
            assert norm(m, piece - Cochain(m.complex, k, expect)) <= 1e-10 * scale


@pytest.mark.parametrize("shape", sorted(ACCEPTANCE))
def test_potentials_match_the_oracle_exact_range(shape):
    # the potential of an exact cochain reproduces it, with zero trace
    # unless asked otherwise; it is the coexact one, so no potential has a
    # smaller M-norm, the dense least-squares one included
    m = metric_for(shape, ACCEPTANCE[shape])
    cx = m.complex
    rng = np.random.default_rng(507)
    for k in range(1, cx.dimension + 1):
        interior = m.interior_indices(k - 1)
        for zero_trace in (True, False):
            low = interior if zero_trace else np.arange(cx.num_simplices(k - 1))
            e = np.zeros(cx.num_simplices(k - 1))
            e[low] = rng.standard_normal(len(low))
            c = exterior_derivative(m, Cochain(cx, k - 1, e))
            u = potential_for_exact(m, c, zero_trace=zero_trace)
            assert norm(m, exterior_derivative(m, u) - c) <= 1e-10 * norm(m, c)
            if zero_trace:
                assert np.all(u.values[m.boundary_indices(k - 1)] == 0.0)
            W = _d(m, k - 1)[:, low]
            L = sla.cholesky(m.mass(k), lower=True)
            ref = np.zeros(cx.num_simplices(k - 1))
            ref[low] = _lstsq_applier(L.T @ W)(L.T @ c.values)
            ref = Cochain(cx, k - 1, ref)
            assert norm(m, exterior_derivative(m, ref) - c) <= 1e-10 * norm(m, c)
            assert norm(m, u) <= (1 + 1e-10) * norm(m, ref)
