"""Invariance of the Whitney mass and wedge matrices, and of the harmonic
spaces, under rigid motion, uniform scaling and vertex relabelling, on the
SMALL meshes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_ports import Metric, build_complex, harmonic_basis
from harmonic_ports.mesh import permutation_sign

from conftest import SMALL, metric_for

SHAPES = st.sampled_from(sorted(SMALL))
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=12, deadline=None, database=None)
TOL = 1e-12


def _rel(got, expect):
    return np.abs(got - expect).max() / np.abs(expect).max()


def _rotation(rng, d):
    """Uniformly random proper rotation of R^d."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _moved(metric, vertices):
    """The same oriented complex on new vertex coordinates."""
    cx = metric.complex
    tops = cx.simplices[cx.dimension]
    return Metric(build_complex(tops, vertices, orientation=cx.orientation))


def _rigidly_moved(metric, seed, embed):
    """The mesh after a seeded proper rigid motion; embed first places it
    in one dimension more (the flat disk in R^3, the ball in R^4)."""
    verts = metric.complex.vertices
    if embed:
        verts = np.hstack([verts, np.zeros((len(verts), 1))])
    rng = np.random.default_rng(seed)
    d = verts.shape[1]
    return _moved(metric, verts @ _rotation(rng, d).T + rng.uniform(-10, 10, d))


def _harmonic_dims(metric):
    n = metric.complex.dimension
    return [
        [harmonic_basis(metric, k, condition).dim for k in range(n + 1)]
        for condition in ("neumann", "dirichlet")
    ]


def _relabelled(metric, seed):
    """The complex with its vertices renumbered by a seeded permutation,
    and that permutation."""
    cx = metric.complex
    perm = np.random.default_rng(seed).permutation(cx.num_simplices(0))
    verts = np.empty_like(cx.vertices)
    verts[perm] = cx.vertices
    tops = [tuple(int(perm[v]) for v in t) for t in cx.simplices[cx.dimension]]
    return Metric(build_complex(tops, verts)), perm


@PROPERTY
@given(shape=SHAPES, seed=SEEDS, embed=st.booleans())
def test_rigid_motion_leaves_masses_and_wedges_unchanged(shape, seed, embed):
    base = metric_for(shape, SMALL[shape])
    n = base.complex.dimension
    moved = _rigidly_moved(base, seed, embed)
    for k in range(n + 1):
        assert _rel(moved.mass(k), base.mass(k)) <= TOL
        assert _rel(moved.wedge(k, n - k), base.wedge(k, n - k)) <= TOL


@PROPERTY
@given(shape=SHAPES, exponent=st.floats(-8.0, 8.0))
def test_uniform_scaling_scales_masses_and_keeps_wedges(shape, exponent):
    # a Whitney k-form scales as s^-k and the volume as s^n
    base = metric_for(shape, SMALL[shape])
    n = base.complex.dimension
    s = 10.0**exponent
    scaled = _moved(base, base.complex.vertices * s)
    for k in range(n + 1):
        assert _rel(scaled.mass(k), s ** (n - 2 * k) * base.mass(k)) <= TOL
        assert _rel(scaled.wedge(k, n - k), base.wedge(k, n - k)) <= TOL


@PROPERTY
@given(shape=SHAPES, seed=SEEDS)
def test_vertex_relabelling_permutes_masses(shape, seed):
    # each relabelled simplex is re-sorted, which flips its Whitney form
    # by the sign of the sorting permutation
    base = metric_for(shape, SMALL[shape])
    cx = base.complex
    n = cx.dimension
    relabelled, perm = _relabelled(base, seed)
    for k in range(n):
        P = np.zeros((cx.num_simplices(k), cx.num_simplices(k)))
        for i, s in enumerate(cx.simplices[k]):
            image = [int(perm[v]) for v in s]
            P[relabelled.complex.index[k][tuple(sorted(image))], i] = permutation_sign(image)
        assert _rel(relabelled.mass(k), P @ base.mass(k) @ P.T) <= TOL


@PROPERTY
@given(shape=SHAPES, seed=SEEDS, embed=st.booleans())
def test_rigid_motion_keeps_harmonic_dimensions(shape, seed, embed):
    base = metric_for(shape, SMALL[shape])
    moved = _rigidly_moved(base, seed, embed)
    assert _harmonic_dims(moved) == _harmonic_dims(base)


@PROPERTY
@given(shape=SHAPES, exponent=st.floats(-8.0, 8.0))
def test_uniform_scaling_keeps_harmonic_dimensions_and_scales_the_gap(shape, exponent):
    # Hodge Laplacian eigenvalues scale as s^-2
    base = metric_for(shape, SMALL[shape])
    s = 10.0**exponent
    scaled = _moved(base, base.complex.vertices * s)
    assert _harmonic_dims(scaled) == _harmonic_dims(base)
    for condition in ("neumann", "dirichlet"):
        for k in range(base.complex.dimension + 1):
            got = harmonic_basis(scaled, k, condition).first_nonkernel_eigenvalue
            expect = harmonic_basis(base, k, condition).first_nonkernel_eigenvalue
            if np.isinf(expect):
                assert np.isinf(got)
            else:
                assert abs(got * s**2 - expect) <= 1e-8 * expect


@PROPERTY
@given(shape=SHAPES, seed=SEEDS)
def test_vertex_relabelling_keeps_harmonic_dimensions(shape, seed):
    base = metric_for(shape, SMALL[shape])
    relabelled, _ = _relabelled(base, seed)
    assert _harmonic_dims(relabelled) == _harmonic_dims(base)
