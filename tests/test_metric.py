import math

import numpy as np
import pytest

from harmonic_ports import (
    Cochain,
    ComplexMismatch,
    DegreeMismatch,
    DegreeOutOfRange,
    Metric,
    build_complex,
    codifferential,
    codifferential_constrained,
    extend_by_zero,
    exterior_derivative,
    green_defect,
    green_defect_constrained,
    inner_product,
    norm,
    random_cochain,
    stokes_check,
    tangential_trace,
)

from conftest import (
    ACCEPTANCE,
    CLOSED,
    SMALL,
    complex_for,
    dense_mass,
    dense_wedge,
    metric_for,
)

RIGHT_TRIANGLE = build_complex([(0, 1, 2)], np.array([[0.0, 0], [1, 0], [0, 1]]))
UNIT_TET = build_complex(
    [(0, 1, 2, 3)], np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
)


def _signed_volume(cx, s):
    e = cx.vertices[list(s[1:])] - cx.vertices[s[0]]
    g = e @ e.T
    return math.sqrt(max(np.linalg.det(g), 0.0)) / math.factorial(len(s) - 1)


def test_mass_matrices_on_reference_triangle():
    # Analytic integrals of hat-function products over the unit right
    # triangle (area 1/2), edges ordered (0,1), (0,2), (1,2).
    m = Metric(RIGHT_TRIANGLE)
    assert np.allclose(m.mass(0) * 24, [[2, 1, 1], [1, 2, 1], [1, 1, 2]], atol=1e-14)
    sixth = 1.0 / 6.0
    third = 1.0 / 3.0
    assert np.allclose(
        m.mass(1), [[third, sixth, 0], [sixth, third, 0], [0, 0, sixth]], atol=1e-14
    )
    assert np.allclose(m.mass(2), [[2.0]], atol=1e-14)


def test_mass_matrix_on_reference_tetrahedron():
    m = Metric(UNIT_TET)
    assert np.allclose(m.mass(3), [[6.0]], atol=1e-13)


def test_top_mass_is_inverse_volume_diagonal():
    m = metric_for("ball", 1)
    cx = m.complex
    vols = np.array([_signed_volume(cx, s) for s in cx.simplices[3]])
    assert np.allclose(m.mass(3), np.diag(1.0 / vols), rtol=1e-12)


@pytest.mark.parametrize("shape", ["sphere", "ball"])
def test_vertex_mass_sums_to_total_volume(shape):
    m = metric_for(shape, SMALL[shape])
    cx = m.complex
    n = cx.dimension
    total = sum(_signed_volume(cx, s) for s in cx.simplices[n])
    ones = np.ones(cx.num_simplices(0))
    assert np.isclose(ones @ m.mass(0) @ ones, total, rtol=1e-12)


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_mass_matrices_are_spd(shape):
    m = metric_for(shape, SMALL[shape])
    for k in range(m.complex.dimension + 1):
        mk = m.mass(k)
        assert np.allclose(mk, mk.T, rtol=1e-13)
        assert np.linalg.eigvalsh(mk).min() > 0


def _with_boundary(shape):
    """The ACCEPTANCE metric of a shape and its boundary metric, if any."""
    m = metric_for(shape, ACCEPTANCE[shape])
    return [m] if m.boundary_metric() is None else [m, m.boundary_metric()]


def _rel(sparse, dense):
    return np.abs(sparse.toarray() - dense).max() / np.abs(dense).max()


@pytest.mark.parametrize("shape", sorted(ACCEPTANCE))
def test_sparse_assembly_matches_dense_scatter(shape):
    for m in _with_boundary(shape):
        n = m.complex.dimension
        for k in range(n + 1):
            assert _rel(m.mass_csr(k), dense_mass(m, k)) <= 1e-15
        for a in range(n + 1):
            assert _rel(m.wedge_csr(a, n - a), dense_wedge(m, a, n - a)) <= 1e-15


@pytest.mark.parametrize("shape", sorted(ACCEPTANCE))
def test_mass_matrices_are_exactly_symmetric(shape):
    for m in _with_boundary(shape):
        for k in range(m.complex.dimension + 1):
            M = m.mass_csr(k)
            assert (M != M.T).nnz == 0


@pytest.mark.parametrize("shape", ["annulus", "ball"])
def test_wedge_pairing_against_constants(shape):
    # Pairing a top cochain with the constant 0-cochain integrates it:
    # each element contributes value/(n+1) per incident vertex.
    m = metric_for(shape, SMALL[shape])
    cx = m.complex
    n = cx.dimension
    w = m.wedge(n, 0)
    expect = np.zeros_like(w)
    for i, s in enumerate(cx.simplices[n]):
        for v in s:
            expect[i, v] = 1.0 / (n + 1)
    assert np.allclose(w, expect, atol=1e-14)


@pytest.mark.parametrize("shape", ["annulus", "ball", "torus"])
def test_wedge_graded_symmetry(shape):
    m = metric_for(shape, SMALL[shape])
    n = m.complex.dimension
    for a in range(n + 1):
        b = n - a
        sign = -1.0 if (a * b) % 2 else 1.0
        assert np.allclose(m.wedge(a, b), sign * m.wedge(b, a).T, rtol=1e-13, atol=1e-15)


def test_wedge_rejects_bad_degrees():
    m = metric_for("disk", 2)
    with pytest.raises(DegreeMismatch):
        m.wedge(2, 2)


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_wedge_stokes_identity(shape):
    # d(x ^ y) integrated over the body equals the boundary integral of
    # the traces: (Dx)'W y + (-1)^a x'W (Dy) = (tx)'W_b (ty).
    m = metric_for(shape, SMALL[shape])
    cx = m.complex
    n = cx.dimension
    bm = m.boundary_metric()
    rng = np.random.default_rng(11)
    for a in range(n):
        b = n - 1 - a
        x = random_cochain(cx, a, rng)
        y = random_cochain(cx, b, rng)
        dx = cx.exterior_derivative_matrix(a).toarray() @ x.values
        dy = cx.exterior_derivative_matrix(b).toarray() @ y.values
        lhs = dx @ m.wedge(a + 1, b) @ y.values
        lhs += (-1.0) ** a * x.values @ m.wedge(a, b + 1) @ dy
        if bm is None:
            rhs = 0.0
        else:
            tx = m.boundary_complex.trace_matrix(a) @ x.values
            ty = m.boundary_complex.trace_matrix(b) @ y.values
            rhs = tx @ bm.wedge(a, b) @ ty
        scale = max(np.abs(lhs), np.abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-13 * scale


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_stokes_residual_is_exactly_zero(shape):
    m = metric_for(shape, SMALL[shape])
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = random_cochain(m.complex, m.complex.dimension - 1, rng)
        out = stokes_check(m, c)
        assert out["residual"] == 0.0
        assert out["lhs"] == out["rhs"]
        if shape in CLOSED:
            assert out["rhs"] == 0.0


def test_stokes_check_requires_codimension_one():
    m = metric_for("disk", 2)
    with pytest.raises(DegreeMismatch):
        stokes_check(m, random_cochain(m.complex, 0, np.random.default_rng(0)))


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_codifferential_is_the_algebraic_adjoint(shape):
    m = metric_for(shape, SMALL[shape])
    rng = np.random.default_rng(7)
    for k in range(m.complex.dimension):
        a = random_cochain(m.complex, k, rng)
        b = random_cochain(m.complex, k + 1, rng)
        scale = norm(m, a) * norm(m, b)
        assert abs(green_defect(m, a, b)) <= 1e-12 * scale


@pytest.mark.parametrize("shape", ["disk", "annulus", "ball", "solid_torus"])
def test_constrained_codifferential_kills_defect_for_zero_trace(shape):
    m = metric_for(shape, SMALL[shape])
    rng = np.random.default_rng(9)
    for k in range(m.complex.dimension):
        b = random_cochain(m.complex, k + 1, rng)
        a = random_cochain(m.complex, k, rng)
        scale = norm(m, a) * norm(m, b)
        # generic inputs see the boundary term ...
        assert abs(green_defect_constrained(m, a, b)) > 1e-3 * scale
        # ... which dies once the trace is zeroed
        a.values[m.boundary_indices(k)] = 0.0
        zscale = max(norm(m, a) * norm(m, b), 1e-30)
        assert abs(green_defect_constrained(m, a, b)) <= 1e-12 * zscale


def test_constrained_codifferential_has_exactly_zero_trace():
    m = metric_for("annulus", 2)
    rng = np.random.default_rng(3)
    for k in range(1, 3):
        b = random_cochain(m.complex, k, rng)
        dc = codifferential_constrained(m, b)
        assert dc.degree == k - 1
        assert np.all(dc.values[m.boundary_indices(k - 1)] == 0.0)


@pytest.mark.parametrize("shape", sorted(set(SMALL) - CLOSED))
def test_constrained_codifferential_matches_dense_solve(shape):
    # oracle: solve the interior mass block against d^T M_k c directly
    m = metric_for(shape, SMALL[shape])
    rng = np.random.default_rng(12)
    for k in range(1, m.complex.dimension + 1):
        c = random_cochain(m.complex, k, rng)
        idx = m.interior_indices(k - 1)
        d = m.complex.exterior_derivative_matrix(k - 1).toarray()
        rhs = (d.T @ (m.mass(k) @ c.values))[idx]
        expect = np.zeros(m.complex.num_simplices(k - 1))
        expect[idx] = np.linalg.solve(m.mass(k - 1)[np.ix_(idx, idx)], rhs)
        got = codifferential_constrained(m, c).values
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_trace_of_extension_is_identity():
    m = metric_for("solid_torus", 3)
    bm = m.boundary_metric()
    rng = np.random.default_rng(1)
    for k in range(3):
        psi = random_cochain(bm.complex, k, rng)
        ext = extend_by_zero(m, psi)
        assert ext.degree == k
        back = tangential_trace(m, ext)
        assert np.array_equal(back.values, psi.values)
        interior = np.setdiff1d(
            np.arange(m.complex.num_simplices(k)), m.boundary_indices(k)
        )
        assert np.all(ext.values[interior] == 0.0)


def test_trace_commutes_with_derivative():
    m = metric_for("annulus", 2)
    bm = m.boundary_metric()
    trace = m.boundary_complex.trace_matrix
    lhs = trace(1) @ m.complex.exterior_derivative_matrix(0).toarray()
    rhs = bm.complex.exterior_derivative_matrix(0).toarray() @ trace(0)
    assert np.array_equal(lhs, rhs)


def test_trace_on_closed_mesh_is_empty():
    m = metric_for("sphere", 1)
    tt = tangential_trace(m, random_cochain(m.complex, 0, np.random.default_rng(0)))
    assert tt.values.shape == (0,)
    assert m.boundary_metric() is None


def test_degree_guards():
    m = metric_for("disk", 2)
    rng = np.random.default_rng(0)
    with pytest.raises(DegreeOutOfRange):
        exterior_derivative(m, random_cochain(m.complex, 2, rng))
    with pytest.raises(DegreeOutOfRange):
        codifferential(m, random_cochain(m.complex, 0, rng))
    with pytest.raises(DegreeMismatch):
        green_defect(m, random_cochain(m.complex, 0, rng), random_cochain(m.complex, 0, rng))


def test_derivative_squares_to_zero():
    # applied as dense float products, d(d(c)) leaves only rounding dust
    m = metric_for("ball", 1)
    rng = np.random.default_rng(2)
    for k in range(2):
        c = random_cochain(m.complex, k, rng)
        dd = exterior_derivative(m, exterior_derivative(m, c))
        assert np.max(np.abs(dd.values)) <= 1e-14 * max(1.0, np.max(np.abs(c.values)))


def test_cochain_validation_and_arithmetic():
    cx = complex_for("disk", 2)
    other = complex_for("annulus", 2)
    rng = np.random.default_rng(4)
    with pytest.raises(DegreeMismatch):
        Cochain(cx, 1, np.zeros(3))
    with pytest.raises(DegreeOutOfRange):
        Cochain(cx, 5, np.zeros(3))
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros(cx.num_simplices(1))
        values[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            Cochain(cx, 1, values)
    a = random_cochain(cx, 1, rng)
    b = random_cochain(cx, 1, rng)
    assert np.array_equal((a + b).values, a.values + b.values)
    assert np.array_equal((a - b).values, a.values - b.values)
    assert np.array_equal((2.0 * a).values, (a * 2.0).values)
    assert np.array_equal((-a).values, -a.values)
    with pytest.raises(DegreeMismatch):
        a + random_cochain(cx, 0, rng)
    with pytest.raises(ComplexMismatch):
        a + random_cochain(other, 1, rng)
    with pytest.raises(ComplexMismatch):
        inner_product(metric_for("disk", 2), a, random_cochain(other, 1, rng))


def test_random_cochain_is_deterministic():
    cx = complex_for("torus", 4)
    a = random_cochain(cx, 1, np.random.default_rng(42))
    b = random_cochain(cx, 1, np.random.default_rng(42))
    assert np.array_equal(a.values, b.values)


def test_inner_product_symmetry_and_norm():
    m = metric_for("annulus", 2)
    rng = np.random.default_rng(6)
    a = random_cochain(m.complex, 1, rng)
    b = random_cochain(m.complex, 1, rng)
    assert np.isclose(inner_product(m, a, b), inner_product(m, b, a), rtol=1e-13)
    assert np.isclose(norm(m, a) ** 2, inner_product(m, a, a), rtol=1e-12)


def test_index_partition():
    m = metric_for("annulus", 2)
    for k in range(3):
        bi = m.boundary_indices(k)
        ii = m.interior_indices(k)
        assert np.intersect1d(bi, ii).size == 0
        assert np.union1d(bi, ii).size == m.complex.num_simplices(k)
    closed = metric_for("torus", 4)
    assert closed.boundary_indices(1).size == 0


def test_index_arrays_are_cached_and_read_only():
    m = metric_for("annulus", 2)
    for k in range(3):
        for indices in (m.boundary_indices, m.interior_indices):
            idx = indices(k)
            assert indices(k) is idx
            with pytest.raises(ValueError):
                idx[:1] = 0
