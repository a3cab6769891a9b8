import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from harmonic_ports import (
    AmbiguousKernel,
    DegreeMismatch,
    DegreeOutOfRange,
    InvalidDegrees,
    Metric,
    NotInHarmonicComplement,
    SolverFailure,
    WrongDimension,
    betti_numbers,
    build_complex,
    decompose_vector_field_3d,
    exterior_derivative,
    harmonic_basis,
    harmonic_projection,
    hodge_morrey_friedrichs,
    inner_product,
    norm,
    potential_for_exact,
    random_cochain,
    validate_degree_pair,
)
from harmonic_ports import hodge as hodge_mod
from harmonic_ports import metric as metric_mod
from harmonic_ports.hodge import _split_kernel

from conftest import ACCEPTANCE, CLOSED, SMALL, complex_for, factored_keys, metric_for


def test_kernel_beyond_every_lanczos_request_is_solved_densely(monkeypatch):
    # sixteen disjoint edges: H^0 has dimension 16 of N = 32, so each
    # doubled request (4, 8, 16 pairs) is all kernel until it reaches
    # ARPACK's limit N - 1 and the Ritz step takes the whole space; it
    # spans the closed-form basis of the sixteen constants
    vertices = np.array([[float(i), float(j)] for i in range(16) for j in (0, 1)])
    cx = build_complex([(2 * i, 2 * i + 1) for i in range(16)], vertices)
    m = Metric(cx)
    sd = hodge_mod._saddle(m, 0, "neumann")
    real, requests = spla.eigsh, []

    def eigsh(*args, **kwargs):
        requests.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(hodge_mod.spla, "eigsh", eigsh)
    evals, V = hodge_mod._ritz_pairs(sd)
    assert requests == [4, 8, 16]
    assert len(evals) == V.shape[1] == 32
    kernel = V[:, :_split_kernel(evals, sd.scale)]
    basis = harmonic_basis(m, 0, "neumann")
    assert basis.dim == kernel.shape[1] == betti_numbers(cx)[0] == 16
    gram = basis.vectors.T @ (m.mass_csr(0) @ basis.vectors)
    assert np.allclose(gram, np.eye(16), atol=1e-10)
    overlap = basis.vectors.T @ (sd.M @ kernel) * math.sqrt(sd.c)
    assert np.allclose(np.linalg.svd(overlap, compute_uv=False), 1.0, atol=1e-10)


# Shift-invert solves that the harmonic bases of a cold metric cost per
# (degree, condition), at most, with ARPACK stopped at LANCZOS_TOL on a
# Krylov space of 2j + 2 vectors: a tighter stop or a larger space raises
# them.
LANCZOS_SOLVES = {
    ("torus", 5): {(1, "neumann"): 15},
    ("ball", 2): {(1, "neumann"): 28, (1, "dirichlet"): 18, (2, "neumann"): 29,
                  (2, "dirichlet"): 30},
    ("annulus", 3): {(1, "neumann"): 16, (1, "dirichlet"): 17},
}


@pytest.mark.parametrize("shape, resolution", sorted(LANCZOS_SOLVES))
def test_lanczos_solves_per_basis_stay_within_their_counts(monkeypatch, shape, resolution):
    real, solves = hodge_mod._Saddle.factor, {}

    class Counting:  # the saddle's factor, counting the columns it solves
        def __init__(self, sd):
            self.lu, self.key = real(sd), (sd.k, sd.condition)

        def solve(self, b):
            solves[self.key] = solves.get(self.key, 0) + (1 if b.ndim == 1 else b.shape[1])
            return self.lu.solve(b)

    monkeypatch.setattr(hodge_mod._Saddle, "factor", lambda sd: Counting(sd))
    m = Metric(complex_for(shape, resolution))
    for condition in ("neumann", "dirichlet"):
        for k in range(m.complex.dimension + 1):
            harmonic_basis(m, k, condition)
    bounds = LANCZOS_SOLVES[shape, resolution]
    assert solves.keys() == bounds.keys()
    assert all(solves[key] <= bounds[key] for key in bounds), solves


def test_harmonic_basis_rejects_a_degree_out_of_range():
    m = metric_for("disk", 2)
    for k in (-1, 3):
        with pytest.raises(DegreeOutOfRange):
            harmonic_basis(m, k)


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


def test_harmonic_projection_rejects_a_cochain_of_another_degree():
    m = metric_for("torus", 4)
    hb = harmonic_basis(m, 1, "neumann")
    c = random_cochain(m.complex, 2, np.random.default_rng(0))
    with pytest.raises(DegreeMismatch, match="cochain degree 2 against basis degree 1"):
        harmonic_projection(hb, c)


def test_validate_degree_pair():
    validate_degree_pair(2, 1, 2)
    validate_degree_pair(3, 2, 2)
    for p, q in [(0, 3), (3, 0), (1, 1), (2, 2)]:
        with pytest.raises(InvalidDegrees):
            validate_degree_pair(2, p, q)


def test_kernel_split_gap_check():
    assert _split_kernel(np.array([]), 1.0) == 0
    assert _split_kernel(np.zeros(3), 0.0) == 3
    assert _split_kernel(np.array([1e-13, 1e-5, 1.0]), 1.0) == 1
    assert _split_kernel(np.array([0.5, 1.0]), 1.0) == 0
    with pytest.raises(AmbiguousKernel):
        _split_kernel(np.array([5e-10, 2e-9, 1.0]), 1.0)


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


def test_wrong_mixed_solve_makes_hmf_pieces_overlap(monkeypatch):
    # a potential 1% off passes every solve; only the orthogonality check
    # of the four pieces sees it
    genuine = hodge_mod._mixed_potential
    monkeypatch.setattr(hodge_mod, "_mixed_potential", lambda *args: 1.01 * genuine(*args))
    m = metric_for("annulus", SMALL["annulus"])
    w = random_cochain(m.complex, 1, np.random.default_rng(5))
    with pytest.raises(SolverFailure, match="HMF pieces overlap"):
        hodge_morrey_friedrichs(m, w)


def test_overcounted_harmonic_basis_makes_hmf_raise(monkeypatch):
    # A fresh metric: the mixed solves cached below see the padded basis.
    m = Metric(complex_for("annulus", 3))
    genuine = hodge_mod.harmonic_basis

    def padded(metric, k, condition="neumann"):
        basis = genuine(metric, k, condition)
        extra = np.random.default_rng(k).standard_normal(metric.complex.num_simplices(k))
        extra -= basis.vectors @ (basis.vectors.T @ (metric.mass_csr(k) @ extra))
        extra /= np.sqrt(extra @ (metric.mass_csr(k) @ extra))
        return replace(basis, vectors=np.column_stack([basis.vectors, extra]))

    monkeypatch.setattr(hodge_mod, "harmonic_basis", padded)
    w = random_cochain(m.complex, 1, np.random.default_rng(5))
    with pytest.raises(SolverFailure):
        hodge_morrey_friedrichs(m, w)


@pytest.mark.parametrize("shape, size", [("annulus", ACCEPTANCE["annulus"]), ("ball", 2)])
def test_hmf_factors_each_saddle_at_most_once_per_call(monkeypatch, shape, size):
    # a fresh metric per call: the call builds every basis it needs, and
    # each borrows the factor its mixed solve keeps instead of factoring
    genuine, labels = hodge_mod._splu, []

    def counted(matrix, what):
        labels.append(what)
        return genuine(matrix, what)

    monkeypatch.setattr(hodge_mod, "_splu", counted)
    rng = np.random.default_rng(8)
    for k in range(complex_for(shape, size).dimension + 1):
        m = Metric(complex_for(shape, size))
        labels.clear()
        hodge_morrey_friedrichs(m, random_cochain(m.complex, k, rng))
        assert labels and len(labels) == len(set(labels)), (k, labels)


@pytest.mark.parametrize("shape", ["torus", "ball"])
def test_bases_at_degrees_0_and_n_need_no_eigensolver(monkeypatch, shape):
    calls = []

    def counted(genuine):
        def call(*args, **kwargs):
            calls.append(genuine.__name__)
            return genuine(*args, **kwargs)
        return call

    monkeypatch.setattr(hodge_mod.spla, "eigsh", counted(spla.eigsh))
    monkeypatch.setattr(hodge_mod, "_splu", counted(hodge_mod._splu))
    m = Metric(complex_for(shape, ACCEPTANCE[shape]))
    n = m.complex.dimension
    for k in (0, n):
        for condition in ("neumann", "dirichlet"):
            harmonic_basis(m, k, condition)
    assert calls == []
    harmonic_basis(m, 1, "neumann")
    assert "eigsh" in calls


@pytest.mark.parametrize("shape", ["annulus", "torus", "ball"])
def test_building_a_saddle_runs_no_eigensolver(monkeypatch, shape):
    # the scale comes from the saddle's diagonals, not from a solve for
    # the largest eigenvalue
    def fail(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(hodge_mod.spla, "eigsh", fail)
    monkeypatch.setattr(hodge_mod.sla, "eigvalsh", fail)
    m = Metric(complex_for(shape, ACCEPTANCE[shape]))
    for k in range(m.complex.dimension + 1):
        for condition in ("neumann", "dirichlet"):
            assert hodge_mod._saddle(m, k, condition).scale > 0


def test_spectral_basis_depends_on_the_span_alone(monkeypatch):
    # a ten times larger cutoff moves the shift-invert shift, and Lanczos
    # returns another orthonormal basis of the same two-dimensional kernel;
    # the seeded projection maps both to one basis
    before = harmonic_basis(Metric(complex_for("torus", 5)), 1).vectors
    monkeypatch.setattr(hodge_mod, "KERNEL_CUTOFF", 10 * hodge_mod.KERNEL_CUTOFF)
    after = harmonic_basis(Metric(complex_for("torus", 5)), 1).vectors
    assert before.shape[1] == 2
    assert np.abs(after - before).max() <= 1e-10


def test_coexact_solve_of_an_exact_cochain_does_not_stall(monkeypatch):
    # criterion 3 at seed 103 on torus:5, degree 1, cochain 30: d omega of
    # its exact piece is rounding noise.  Measured against |M d omega|
    # alone, the coexact solve's backward error sat just under the bound
    # (6.7e-15 here, and 1.4e-14 after refinement with another rounding
    # of the degree-2 basis); against the data |M| |d| |omega| too it
    # ends at rounding level.
    genuine, ends = hodge_mod._refine, {}

    def recorded(system, x, b, b_abs, what):
        x = genuine(system, x, b, b_abs, what)
        scale = np.maximum(system.abs_S @ np.abs(x) + b_abs, np.finfo(float).tiny)
        ends[what] = (np.abs(system.project(b - system.S @ x)) / scale).max()
        return x

    monkeypatch.setattr(hodge_mod, "_refine", recorded)
    m = Metric(complex_for("torus", ACCEPTANCE["torus"]))
    rng = np.random.default_rng(103)
    for k, count in ((0, 100), (1, 31)):
        cochains = [random_cochain(m.complex, k, rng) for _ in range(count)]
    w = cochains[-1]
    exact = hodge_morrey_friedrichs(m, w).d_alpha
    ends.clear()
    redec = hodge_morrey_friedrichs(m, exact)
    assert ends["mixed solve at degree 2"] <= 1e-15
    s = norm(m, w)
    assert norm(m, redec.d_alpha - exact) <= 1e-8 * s
    assert norm(m, redec.delta_beta) <= 1e-8 * s


def test_a_repeated_hmf_forms_no_sparse_abs(monkeypatch):
    # |S|, the free rows of |M_k| and |d| are built with each mixed solve's
    # memo entry, once
    m = Metric(complex_for("annulus", ACCEPTANCE["annulus"]))
    rng = np.random.default_rng(4)
    hodge_morrey_friedrichs(m, random_cochain(m.complex, 1, rng))
    owner = next(c for c in sp.csr_matrix.__mro__ if "__abs__" in vars(c))
    formed, genuine = [], owner.__abs__
    monkeypatch.setattr(owner, "__abs__", lambda self: formed.append(self.shape) or genuine(self))
    for module in (hodge_mod, metric_mod):  # nor through `_abs`
        monkeypatch.setattr(module, "_abs", lambda A, g=module._abs: formed.append(A.shape) or g(A))
    hodge_morrey_friedrichs(m, random_cochain(m.complex, 1, rng))
    assert formed == []


@pytest.mark.parametrize("shape", ["annulus", "torus"])
def test_one_saddle_factor_per_degree_and_condition(shape):
    # a fresh metric: every basis, then one HMF per degree, fill its memo
    m = Metric(complex_for(shape, ACCEPTANCE[shape]))
    n = m.complex.dimension
    rng = np.random.default_rng(6)
    for k in range(n + 1):
        for condition in ("neumann", "dirichlet"):
            harmonic_basis(m, k, condition)
    # the bases alone drop every shift-invert factor they make
    assert {key[0] for key in factored_keys(m)} == {"mass_lu"}
    for k in range(n + 1):
        hodge_morrey_friedrichs(m, random_cochain(m.complex, k, rng))
    # one kept factor per distinct operator a mixed solve used: (k,
    # dirichlet) from degree 1 up and (k + 1, neumann) below the top; on
    # the closed torus the Dirichlet saddle is the Neumann object
    conditions = ("neumann",) if shape in CLOSED else ("neumann", "dirichlet")
    kept = {key[1:] for key in factored_keys(m) if key[0] != "mass_lu"}
    assert {key[0] for key in factored_keys(m)} == {"mass_lu", "mixed"}
    assert kept == {(k, c) for k in range(1, n + 1) for c in conditions}
    for k in range(n + 1):
        same = hodge_mod._saddle(m, k, "dirichlet") is hodge_mod._saddle(m, k, "neumann")
        assert same == (shape in CLOSED)


def test_mixed_data_matrices_share_the_index_arrays_of_their_sources(monkeypatch):
    # the free rows of |M_k| live over the row slice's indices, |d_(k-1)|
    # over the complex's own coboundary
    m = Metric(complex_for("ball", SMALL["ball"]))
    built, genuine = [], hodge_mod._abs
    monkeypatch.setattr(hodge_mod, "_abs", lambda A: built.append((A, genuine(A))) or built[-1][1])
    hodge_morrey_friedrichs(m, random_cochain(m.complex, 1, np.random.default_rng(2)))
    abs_M, abs_d = m._memo[("mixed_data", 2, "neumann")]
    assert len(built) == 2 and built[0][1] is abs_M and built[1][1] is abs_d
    assert built[1][0] is m.complex.exterior_derivative_matrix(1)
    for source, absolute in built:
        assert source.has_canonical_format
        assert np.shares_memory(absolute.indices, source.indices)
        assert np.shares_memory(absolute.indptr, source.indptr)
        assert np.array_equal(absolute.data, np.abs(source.data))


def test_hmf_overlap_error_names_the_pieces_and_where_each_came_from(monkeypatch):
    # a 1% wrong mixed solve: d_alpha against the remainder, no basis hint
    m = Metric(complex_for("annulus", SMALL["annulus"]))
    w = random_cochain(m.complex, 1, np.random.default_rng(5))
    genuine = hodge_mod._mixed_potential
    with monkeypatch.context() as patch:
        patch.setattr(hodge_mod, "_mixed_potential", lambda *args: 1.01 * genuine(*args))
        with pytest.raises(SolverFailure) as info:
            hodge_morrey_friedrichs(m, w)
    message = str(info.value)
    assert message.startswith("HMF pieces overlap by ")
    assert message.endswith(" of |omega|^2 at degree 1: d_alpha (Dirichlet mixed solve at degree 1)"
                            " and delta_gamma (the remainder)")
    # a spectral Dirichlet basis with one vector too many keeps the hint
    m = Metric(complex_for("annulus", 3))
    genuine_basis = hodge_mod.harmonic_basis

    def padded(metric, k, condition="neumann"):
        basis = genuine_basis(metric, k, condition)
        extra = np.random.default_rng(k).standard_normal(metric.complex.num_simplices(k))
        extra -= basis.vectors @ (basis.vectors.T @ (metric.mass_csr(k) @ extra))
        extra /= np.sqrt(extra @ (metric.mass_csr(k) @ extra))
        return replace(basis, vectors=np.column_stack([basis.vectors, extra]))

    monkeypatch.setattr(hodge_mod, "harmonic_basis", padded)
    with pytest.raises(SolverFailure, match=r"lambda_T \(spectral Dirichlet basis\)"
                       r" \(a harmonic basis of the wrong dimension\?\)$"):
        hodge_morrey_friedrichs(m, random_cochain(m.complex, 1, np.random.default_rng(5)))
