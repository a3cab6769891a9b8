"""Sparse harmonic bases against the dense generalized eigensolve they
replaced, kept here as a test-only oracle for small meshes."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from harmonic_ports import Metric, betti_numbers, build_complex, harmonic_basis
from harmonic_ports.hodge import _split_kernel

from conftest import ACCEPTANCE, SMALL, complex_for, metric_for


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
    evals, evecs = sla.eigh(A, M)

    m = _split_kernel(evals)
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
    for condition in ("neumann", "dirichlet"):
        for k in range(metric.complex.dimension + 1):
            hb = harmonic_basis(metric, k, condition)
            V, first = dense_harmonic_basis(metric, k, condition)
            assert hb.dim == V.shape[1]
            if math.isinf(first):
                assert math.isinf(hb.first_nonkernel_eigenvalue)
            else:
                assert abs(hb.first_nonkernel_eigenvalue - first) <= 1e-8 * first
            assert _largest_angle_sine(metric, k, V, hb.vectors) <= 1e-10
            gram = hb.vectors.T @ metric.mass(k) @ hb.vectors
            assert np.abs(gram - np.eye(hb.dim)).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("shape", sorted(ACCEPTANCE))
def test_sparse_bases_match_the_dense_oracle(shape):
    _assert_matches_oracle(metric_for(shape, ACCEPTANCE[shape]))


def test_kernel_larger_than_the_first_lanczos_request():
    # five disjoint annuli: five-dimensional kernels at degrees 0 and 1,
    # more than the four pairs asked for first
    a = complex_for("annulus", SMALL["annulus"])
    nv = a.num_simplices(0)
    tops = [tuple(v + i * nv for v in t) for i in range(5) for t in a.simplices[2]]
    verts = np.vstack([a.vertices + [10.0 * i, 0.0] for i in range(5)])
    metric = Metric(build_complex(tops, verts))
    betti = betti_numbers(metric.complex)
    assert betti == [5, 5, 0]
    assert [harmonic_basis(metric, k).dim for k in range(3)] == betti
    assert [harmonic_basis(metric, k, "dirichlet").dim for k in range(3)] == betti[::-1]
    _assert_matches_oracle(metric)
