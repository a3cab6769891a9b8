import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from harmonic_ports import (
    Cochain,
    ComplexMismatch,
    DegreeMismatch,
    DegreeOutOfRange,
    FactorizationFailure,
    Metric,
    SolverFailure,
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
from harmonic_ports import hodge, sim
from harmonic_ports.metric import _refine, _refined_system, _splu

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


def test_underflowed_mass_raises():
    # at a scale of 1e60 every entry of the degree-3 mass of ball:2
    # underflows to 0; the degree-2 mass is still positive
    cx = complex_for("ball", 2)
    m = Metric(build_complex(cx.simplices[3], cx.vertices * 1e60))
    assert (m.mass_csr(2).diagonal() > 0).all()
    with pytest.raises(FactorizationFailure, match="mass matrix at degree 3"):
        m.mass_csr(3)


def test_frames_use_the_degenerate_bound_of_the_orientation_check():
    # a flat square whose centre sits 5e-13 above the edge (0, 1): the
    # lenient read keeps the sliver (0, 1, 4), and the frames reject it
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 5e-13]])
    tops = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
    with pytest.raises(FactorizationFailure, match=r"degenerate element \(0, 1, 4\)"):
        Metric(build_complex(tops, verts, strict=False))


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
    with pytest.raises(DegreeOutOfRange):
        m.mass_csr(3)
    with pytest.raises(DegreeOutOfRange):
        tangential_trace(m, random_cochain(m.complex, 2, rng))


@pytest.mark.parametrize("defect", [green_defect, green_defect_constrained])
def test_green_defect_needs_consecutive_degrees(defect):
    m = metric_for("disk", 2)
    rng = np.random.default_rng(0)
    with pytest.raises(DegreeMismatch):
        defect(m, random_cochain(m.complex, 0, rng), random_cochain(m.complex, 2, rng))


def test_extend_by_zero_rejects_a_foreign_boundary():
    m = metric_for("disk", 2)
    foreign = metric_for("annulus", 2).boundary_complex
    with pytest.raises(ComplexMismatch):
        extend_by_zero(m, random_cochain(foreign, 0, np.random.default_rng(0)))


def test_free_indices_and_mass_factor_per_condition():
    m = metric_for("annulus", 2)
    rng = np.random.default_rng(4)
    for k in range(3):
        assert np.array_equal(m.free_indices(k, "neumann"), np.arange(m.complex.num_simplices(k)))
        assert m.free_indices(k, "dirichlet") is m.interior_indices(k)
        for condition in ("neumann", "dirichlet"):
            idx = m.free_indices(k, condition)
            block = m.mass_csr(k)[idx][:, idx]
            x = rng.standard_normal(len(idx))
            got = m.mass_lu(k, condition).solve(block @ x)
            assert np.allclose(got, x, rtol=1e-10, atol=1e-10)
    # no 2-simplex lies on the boundary: the Dirichlet factor is the Neumann one
    assert m.mass_lu(2, "dirichlet") is m.mass_lu(2)
    closed = metric_for("torus", 4)
    assert closed.closed and not m.closed
    assert closed.mass_lu(1, "dirichlet") is closed.mass_lu(1, "neumann")
    with pytest.raises(ValueError):
        m.free_indices(1, "robin")


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


@pytest.mark.parametrize("row, residual, accepted", [
    (1, 1e-25, True),  # rounding noise in a row whose |S| |x| + |b| is noise
    (1, 1e-12 * 2.0, False),  # 1e-12 ||S_1||_inf ||x||_inf in that row
    (0, 1e-13, False),  # a row of full scale keeps omega_1
])
def test_refine_measures_rows_of_rounding_noise_normwise(row, residual, accepted):
    # S x = b with b_1 = b_2 = 0 and x_1, x_2 at 1e-20 while ||x||_inf = 1:
    # (|S| |x|)_1 = 3e-20 is below tau_1 = 1000 N eps ||S_1||_inf ||x||_inf
    S = sp.csr_matrix([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    x, b_abs = np.array([1.0, 1e-20, -1e-20]), np.array([1.0, 0.0, 0.0])
    r = np.zeros(3)
    r[row] = residual
    # b - S x = r (to rounding far below the bound), and no correction moves x
    system = _refined_system(S, None, lambda r: np.zeros(3))
    args = (system, x.copy(), S @ x + r, b_abs, "toy solve")
    if accepted:
        assert np.array_equal(_refine(*args), x)
    else:
        with pytest.raises(SolverFailure, match="toy solve: backward error"):
            _refine(*args)


@pytest.mark.parametrize("record", ["midpoint", "mixed"])
def test_refined_record_holds_abs_S_over_the_index_arrays_of_S(record):
    # |S| is np.abs(S.data) over S's own indices and indptr; S is canonical,
    # so neither matrix is ever sorted in place under the other
    if record == "midpoint":
        m = metric_for("torus", SMALL["torus"])
        system, _ = sim._midpoint_factors(m, 1, 2, 0.01)
    else:
        m = metric_for("ball", SMALL["ball"])
        hodge.hodge_morrey_friedrichs(m, random_cochain(m.complex, 1, np.random.default_rng(1)))
        system = m._memo[("mixed", 2, "neumann")]
    S, abs_S = system.S, system.abs_S
    assert S.has_canonical_format
    assert np.shares_memory(abs_S.indices, S.indices)
    assert np.shares_memory(abs_S.indptr, S.indptr)
    assert not np.shares_memory(abs_S.data, S.data)
    assert np.array_equal(abs_S.data, np.abs(S.data))
    assert np.array_equal(system.row_max, abs(S).max(1).toarray().ravel())


def test_splu_frees_its_input_before_superlu_runs(monkeypatch):
    # the caller's matrix (here a CSR temporary only _splu holds) is dead
    # by the time SuperLU allocates the factor
    alive, genuine = [], spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda A, **kw: alive.append(ref() is not None) or genuine(A, **kw))
    inputs = [sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]))]
    ref = weakref.ref(inputs[0])
    lu = _splu(inputs.pop(), "toy matrix")
    assert alive == [False]
    assert np.allclose(lu.solve(np.array([5.0, 6.0, 5.0])), 1.0)
