import numpy as np
import pytest

from harmonic_ports import (
    AmbiguousKernel,
    DegreeOutOfRange,
    InvalidDegrees,
    Metric,
    NotInHarmonicComplement,
    WrongDimension,
    betti_numbers,
    build_complex,
    cohomology_report,
    decompose_vector_field_3d,
    exterior_derivative,
    harmonic_basis,
    harmonic_projection,
    hodge_morrey_friedrichs,
    inner_product,
    norm,
    potential_for_exact,
    random_cochain,
    stokes_dirac_cohomology,
    validate_degree_pair,
)
from harmonic_ports.hodge import _split_kernel

from conftest import ACCEPTANCE, CLOSED, SMALL, complex_for, metric_for


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_harmonic_dimensions_match_topology(shape):
    m = metric_for(shape, SMALL[shape])
    n = m.complex.dimension
    betti = betti_numbers(m.complex)
    for k in range(n + 1):
        assert harmonic_basis(m, k, "neumann").dim == betti[k]
        assert harmonic_basis(m, k, "dirichlet").dim == betti[n - k]


@pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e8])
@pytest.mark.parametrize("shape", ["disk", "ball"])
def test_uniformly_scaled_mesh_builds_with_the_same_harmonic_dimensions(shape, scale):
    # degeneracy tests compare each element's volume with its own size
    base = complex_for(shape, ACCEPTANCE[shape])
    n = base.dimension
    m = Metric(build_complex(base.simplices[n], base.vertices * scale))
    betti = betti_numbers(m.complex)
    assert [harmonic_basis(m, k, "neumann").dim for k in range(n + 1)] == betti
    assert [harmonic_basis(m, k, "dirichlet").dim for k in range(n + 1)] == betti[::-1]


def test_harmonic_basis_is_orthonormal_and_cached():
    m = metric_for("torus", 4)
    hb = harmonic_basis(m, 1, "neumann")
    gram = hb.vectors.T @ m.mass(1) @ hb.vectors
    assert np.allclose(gram, np.eye(hb.dim), atol=1e-12)
    assert harmonic_basis(m, 1, "neumann") is hb


def test_harmonic_fields_are_closed_and_coclosed():
    m = metric_for("annulus", 2)
    hn = harmonic_basis(m, 1, "neumann").element(0)
    hd = harmonic_basis(m, 1, "dirichlet").element(0)
    s = norm(m, hn)
    assert norm(m, exterior_derivative(m, hn)) <= 1e-9 * s
    assert norm(m, exterior_derivative(m, hd)) <= 1e-9 * s


@pytest.mark.parametrize("shape", sorted(CLOSED))
def test_boundary_conditions_coincide_on_closed_meshes(shape):
    m = metric_for(shape, SMALL[shape])
    for k in range(m.complex.dimension + 1):
        vn = harmonic_basis(m, k, "neumann").vectors
        vd = harmonic_basis(m, k, "dirichlet").vectors
        if vn.shape[1] == 0:
            assert vd.shape[1] == 0
            continue
        # principal angles between the two spans are all zero
        sv = np.linalg.svd(vn.T @ m.mass(k) @ vd, compute_uv=False)
        assert np.allclose(sv, 1.0, atol=1e-12)


def test_harmonic_basis_rejects_unknown_condition():
    with pytest.raises(ValueError):
        harmonic_basis(metric_for("disk", 2), 1, "robin")


@pytest.mark.parametrize("shape", ["annulus", "solid_torus"])
def test_decomposition_reconstructs_and_is_orthogonal(shape):
    m = metric_for(shape, SMALL[shape])
    rng = np.random.default_rng(17)
    for k in range(m.complex.dimension + 1):
        for _ in range(10):
            w = random_cochain(m.complex, k, rng)
            dec = hodge_morrey_friedrichs(m, w)
            parts = [dec.d_alpha, dec.delta_beta, dec.lambda_T, dec.delta_gamma]
            s = norm(m, w)
            total = parts[0] + parts[1] + parts[2] + parts[3]
            assert norm(m, w - total) <= 1e-10 * s
            for i in range(4):
                for j in range(i + 1, 4):
                    assert abs(inner_product(m, parts[i], parts[j])) <= 1e-10 * s * s


def test_decomposition_components_are_idempotent():
    m = metric_for("annulus", 2)
    rng = np.random.default_rng(23)
    w = random_cochain(m.complex, 1, rng)
    dec = hodge_morrey_friedrichs(m, w)
    s = norm(m, w)
    for name in ("d_alpha", "delta_beta", "lambda_T", "delta_gamma"):
        part = getattr(dec, name)
        redec = hodge_morrey_friedrichs(m, part)
        assert norm(m, getattr(redec, name) - part) <= 1e-9 * s
        others = [x for x in ("d_alpha", "delta_beta", "lambda_T", "delta_gamma") if x != name]
        for other in others:
            assert norm(m, getattr(redec, other)) <= 1e-9 * s


def test_decomposition_structural_zeros():
    m = metric_for("annulus", 2)
    rng = np.random.default_rng(2)
    w0 = random_cochain(m.complex, 0, rng)
    dec0 = hodge_morrey_friedrichs(m, w0)
    assert np.all(dec0.d_alpha.values == 0.0)
    wn = random_cochain(m.complex, 2, rng)
    decn = hodge_morrey_friedrichs(m, wn)
    assert np.all(decn.delta_beta.values == 0.0)


def test_decomposition_harmonic_part_spans_both_conditions():
    # lambda_T is the piece that is both closed and coclosed; on the
    # annulus in degree 1 it is one-dimensional.
    m = metric_for("annulus", 2)
    lam = harmonic_basis(m, 1, "dirichlet").element(0)
    dec = hodge_morrey_friedrichs(m, lam)
    assert norm(m, dec.lambda_T - lam) <= 1e-9 * norm(m, lam)


def test_potential_for_exact_round_trip():
    m = metric_for("solid_torus", 3)
    rng = np.random.default_rng(5)
    a = random_cochain(m.complex, 1, rng)
    # derivatives of zero-trace potentials are recoverable by default
    a.values[m.boundary_indices(1)] = 0.0
    ex = exterior_derivative(m, a)
    pot = potential_for_exact(m, ex)
    assert pot.degree == 1
    assert np.all(pot.values[m.boundary_indices(1)] == 0.0)
    assert norm(m, exterior_derivative(m, pot) - ex) <= 1e-8 * norm(m, ex)


def test_potential_trace_constraint_matters():
    # d of a generic cochain leaves the zero-trace range on this shape
    # (the defect is Dirichlet-harmonic) but is recovered unconstrained.
    m = metric_for("solid_torus", 3)
    a = random_cochain(m.complex, 1, np.random.default_rng(5))
    ex = exterior_derivative(m, a)
    with pytest.raises(NotInHarmonicComplement):
        potential_for_exact(m, ex)
    pot = potential_for_exact(m, ex, zero_trace=False)
    assert norm(m, exterior_derivative(m, pot) - ex) <= 1e-8 * norm(m, ex)


def test_potential_rejects_harmonic_input():
    m = metric_for("annulus", 2)
    lam = harmonic_basis(m, 1, "dirichlet").element(0)
    with pytest.raises(NotInHarmonicComplement):
        potential_for_exact(m, lam)
    with pytest.raises(DegreeOutOfRange):
        potential_for_exact(m, random_cochain(m.complex, 0, np.random.default_rng(0)))


def test_harmonic_projection_returns_coefficients():
    m = metric_for("torus", 4)
    hb = harmonic_basis(m, 1, "neumann")
    e1 = hb.element(1)
    coeffs, proj = harmonic_projection(hb, e1)
    assert np.allclose(coeffs, [0.0, 1.0], atol=1e-12)
    assert norm(m, proj - e1) <= 1e-12
    # projection is idempotent
    coeffs2, proj2 = harmonic_projection(hb, proj)
    assert np.allclose(coeffs, coeffs2, atol=1e-12)


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_cohomology_report(shape):
    m = metric_for(shape, SMALL[shape])
    rep = cohomology_report(m)
    assert rep["betti"] == betti_numbers(m.complex)
    assert rep["neumann_matches_betti"] is True
    assert rep["dirichlet_matches_reversed_betti"] is True
    assert rep["neumann_dims"] == rep["betti"]
    assert rep["dirichlet_dims"] == rep["betti"][::-1]


def test_state_space_cohomology_on_torus():
    m = metric_for("torus", 4)
    assert stokes_dirac_cohomology(m, 1, 2) == {
        "H_N_p": 2,
        "H_T_p": 2,
        "H_N_q": 1,
        "H_T_q": 1,
    }


def test_validate_degree_pair():
    validate_degree_pair(2, 1, 2)
    validate_degree_pair(3, 2, 2)
    for p, q in [(0, 3), (3, 0), (1, 1), (2, 2)]:
        with pytest.raises(InvalidDegrees):
            validate_degree_pair(2, p, q)


def test_kernel_split_gap_check():
    assert _split_kernel(np.array([])) == 0
    assert _split_kernel(np.zeros(3)) == 3
    assert _split_kernel(np.array([1e-13, 1e-5, 1.0])) == 1
    assert _split_kernel(np.array([0.5, 1.0])) == 0
    with pytest.raises(AmbiguousKernel):
        _split_kernel(np.array([5e-10, 2e-9, 1.0]))


def test_vector_field_split_on_solid_torus():
    # Circulation around the hole is detected by the 1-dimensional space
    # of harmonic knots; the gradient channel stays empty (no cavity).
    m = metric_for("solid_torus", SMALL["solid_torus"])
    pts = m.complex.vertices
    v = np.stack([-pts[:, 1], pts[:, 0], np.zeros(len(pts))], axis=1)
    v /= np.maximum(pts[:, 0] ** 2 + pts[:, 1] ** 2, 1e-9)[:, None]
    out = decompose_vector_field_3d(m, v)
    assert out["knot_dim"] == 1
    assert out["gradient_dim"] == 0
    assert out["knot_norm"] > 10 * out["gradient_norm"]


def test_vector_field_split_on_ball_is_trivial():
    # a constant field is a pure gradient and the ball has no circulation
    m = metric_for("ball", 1)
    v = np.tile([1.0, 0.0, 0.0], (m.complex.num_simplices(0), 1))
    out = decompose_vector_field_3d(m, v)
    assert out["knot_dim"] == 0
    assert out["gradient_dim"] == 0
    assert out["knot_norm"] <= 1e-10 * out["gradient_norm"]
    s = norm(m, out["cochain"])
    assert norm(m, out["knot_part"] + out["gradient_part"] - out["cochain"]) <= 1e-12 * s
    cell = np.tile([1.0, 0.0, 0.0], (m.complex.num_simplices(3), 1))
    out_cell = decompose_vector_field_3d(m, cell, field_type="cell")
    assert out_cell["knot_dim"] == 0


def test_vector_field_input_validation():
    with pytest.raises(WrongDimension):
        decompose_vector_field_3d(metric_for("annulus", 2), np.zeros((24, 3)))
    m = metric_for("ball", 1)
    with pytest.raises(ValueError):
        decompose_vector_field_3d(m, np.zeros((3, 3)), field_type="edge")
    with pytest.raises(WrongDimension):
        decompose_vector_field_3d(m, np.zeros((2, 2)))
