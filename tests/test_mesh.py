import numpy as np
import pytest

from harmonic_ports import (
    BoundaryComplex,
    DanglingVertexIndex,
    DuplicateSimplex,
    NonOrientable,
    OverflowInExactArithmetic,
    UnsupportedResolution,
    WrongDimension,
    betti_numbers,
    build_complex,
    euler_characteristic,
    extract_boundary,
    gen_mesh,
    integer_matrix_rank,
    validate_manifold,
)
from harmonic_ports import mesh as mesh_mod
from harmonic_ports.mesh import permutation_sign

from conftest import CLOSED, SMALL, complex_for

# Frozen reference topology: [b_0, b_1, ...] per shape.
BETTI = {
    "sphere": [1, 0, 1],
    "torus": [1, 2, 1],
    "disk": [1, 0, 0],
    "annulus": [1, 1, 0],
    "ball": [1, 0, 0, 0],
    "solid_torus": [1, 1, 0, 0],
}
EULER = {"sphere": 2, "torus": 0, "disk": 1, "annulus": 0, "ball": 1, "solid_torus": 0}
# Betti numbers of each boundary surface.
BOUNDARY_BETTI = {
    "disk": [1, 1],
    "annulus": [2, 2],
    "ball": [1, 0, 1],
    "solid_torus": [1, 2, 1],
}

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((2, 0, 1)) == 1
    assert permutation_sign((5,)) == 1


def test_build_complex_enumerates_and_sorts_faces():
    cx = build_complex([(0, 1, 2), (1, 2, 3)], np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]]))
    assert cx.dimension == 2
    assert cx.simplices[0] == [(0,), (1,), (2,), (3,)]
    assert cx.simplices[1] == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert cx.simplices[2] == [(0, 1, 2), (1, 2, 3)]
    for k in range(3):
        for i, s in enumerate(cx.simplices[k]):
            assert cx.index[k][s] == i
            assert s == tuple(sorted(s))


def test_build_complex_rejects_bad_input():
    with pytest.raises(DuplicateSimplex):
        build_complex([(0, 1, 2), (2, 1, 0)], TRIANGLE)
    with pytest.raises(DuplicateSimplex):
        build_complex([(0, 1, 1)], TRIANGLE)
    with pytest.raises(DanglingVertexIndex):
        build_complex([(0, 1, 5)], TRIANGLE)
    with pytest.raises(WrongDimension):
        build_complex([(0, 1, 2), (0, 1)], TRIANGLE)
    with pytest.raises(WrongDimension):
        # 3-simplices need at least 3 coordinate axes.
        build_complex([(0, 1, 2, 3)], np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]]))


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_boundary_of_boundary_is_zero(shape):
    cx = complex_for(shape, SMALL[shape])
    for k in range(2, cx.dimension + 1):
        prod = cx.boundary_matrix(k - 1) @ cx.boundary_matrix(k)
        assert prod.nnz == 0 or np.max(np.abs(prod.data)) == 0


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_exterior_derivative_is_boundary_transpose(shape):
    cx = complex_for(shape, SMALL[shape])
    n = cx.dimension
    for k in range(n):
        d = cx.exterior_derivative_matrix(k)
        assert (d - cx.boundary_matrix(k + 1).T).nnz == 0
    assert cx.exterior_derivative_matrix(n).shape == (0, cx.num_simplices(n))


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_orientation_consistency(shape):
    # With top orientations folded in, each interior facet sees its two
    # cofaces with opposite signs; each boundary facet sees exactly one.
    cx = complex_for(shape, SMALL[shape])
    n = cx.dimension
    rows = cx.boundary_matrix(n).toarray()
    sums = rows.sum(axis=1)
    counts = np.abs(rows).sum(axis=1)
    closed = shape in CLOSED
    for s, c in zip(sums, counts):
        if c == 2:
            assert s == 0
        else:
            assert c == 1 and abs(s) == 1 and not closed


def test_orientation_flags_are_signs():
    cx = complex_for("solid_torus", 3)
    assert set(np.unique(cx.orientation)) <= {-1, 1}


def test_mobius_strip_is_rejected_when_strict():
    tops = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    verts = np.array(
        [[np.cos(2 * np.pi * i / 5), np.sin(2 * np.pi * i / 5), 0.1 * i] for i in range(5)]
    )
    with pytest.raises(NonOrientable):
        build_complex(tops, verts)
    cx = build_complex(tops, verts, strict=False)
    report = validate_manifold(cx)
    assert report["manifold"] is True
    assert report["orientable"] is False
    assert any(f["kind"] == "non_orientable" for f in report["findings"])


def test_three_triangles_on_one_edge_are_not_manifold():
    verts = np.array([[0.0, 0], [1, 0], [0, 1], [0, -1], [2, 1]])
    cx = build_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4)], verts, strict=False)
    report = validate_manifold(cx)
    assert report["manifold"] is False
    kinds = {f["kind"] for f in report["findings"]}
    assert "face_with_excess_cofaces" in kinds


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_validate_manifold_accepts_generated_meshes(shape):
    cx = complex_for(shape, SMALL[shape])
    report = validate_manifold(cx)
    assert report["manifold"] is True
    assert report["orientable"] is True
    assert report["findings"] == []
    expected = 0 if shape in CLOSED else extract_boundary(cx).num_simplices(cx.dimension - 1)
    assert report["boundary_faces"] == expected


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_extract_boundary(shape):
    cx = complex_for(shape, SMALL[shape])
    bc = extract_boundary(cx)
    if shape in CLOSED:
        assert bc.num_simplices(0) == 0
        return
    assert isinstance(bc, BoundaryComplex)
    assert bc.dimension == cx.dimension - 1
    assert bc.parent is cx
    assert betti_numbers(bc) == BOUNDARY_BETTI[shape]
    # Boundary vertices map to parent vertices with identical coordinates.
    assert np.array_equal(bc.vertices, cx.vertices[bc.vertex_map])


def test_boundary_trace_matrix_shape_and_signs():
    cx = complex_for("annulus", 2)
    bc = extract_boundary(cx)
    t1 = bc.trace_matrix(1)
    assert t1.shape == (bc.num_simplices(1), cx.num_simplices(1))
    assert set(np.unique(t1.data)) <= {-1.0, 1.0}
    t0 = bc.trace_matrix(0)
    assert set(np.unique(t0.data)) == {1.0}


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_betti_numbers(shape):
    cx = complex_for(shape, SMALL[shape])
    assert betti_numbers(cx) == BETTI[shape]
    assert euler_characteristic(cx) == EULER[shape]


def test_integer_matrix_rank():
    assert integer_matrix_rank(np.array([[2, 4], [1, 2]])) == 1
    assert integer_matrix_rank(np.zeros((3, 4), dtype=np.int64)) == 0
    rng = np.random.default_rng(3)
    m = rng.integers(-5, 6, size=(12, 9))
    assert integer_matrix_rank(m) == np.linalg.matrix_rank(m.astype(float))


def test_exact_rank_budget_overflow(monkeypatch):
    monkeypatch.setattr(mesh_mod, "_EXACT_RANK_CELL_BUDGET", 4)
    with pytest.raises(OverflowInExactArithmetic):
        integer_matrix_rank(np.eye(4, dtype=np.int64))


def test_gen_mesh_counts_and_errors():
    torus3 = gen_mesh("torus", 3)
    assert [torus3.num_simplices(k) for k in range(3)] == [9, 27, 18]
    sphere2 = gen_mesh("sphere", 2)
    assert [sphere2.num_simplices(k) for k in range(3)] == [10, 24, 16]
    with pytest.raises(ValueError):
        gen_mesh("klein_bottle", 3)
    with pytest.raises(UnsupportedResolution):
        gen_mesh("torus", 2)
    with pytest.raises(UnsupportedResolution):
        gen_mesh("disk", 0)


def test_gen_mesh_resolution_scales_counts():
    small = gen_mesh("annulus", 2)
    big = gen_mesh("annulus", 4)
    assert big.num_simplices(2) > small.num_simplices(2)
    assert betti_numbers(big) == BETTI["annulus"]


def test_oriented_simplex_respects_orientation_flag():
    cx = complex_for("sphere", 1)
    n = cx.dimension
    for i, s in enumerate(cx.simplices[n]):
        out = cx.oriented_simplex(n, i)
        assert sorted(out) == list(s)
        assert permutation_sign(out) == cx.orientation[i]
