import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_ports import (
    BoundaryComplex,
    DanglingVertexIndex,
    IsolatedVertex,
    DuplicateSimplex,
    FactorizationFailure,
    Metric,
    NonManifold,
    NonOrientable,
    OverflowInExactArithmetic,
    SimplicialComplex,
    UnsupportedResolution,
    WrongDimension,
    betti_numbers,
    build_complex,
    euler_characteristic,
    extract_boundary,
    gen_mesh,
    integer_matrix_rank,
    random_cochain,
    stokes_check,
    validate_manifold,
)
from harmonic_ports import mesh as mesh_mod
from harmonic_ports.mesh import _component_labels

from conftest import ACCEPTANCE, CLOSED, SMALL, complex_for

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


def test_build_complex_enumerates_and_sorts_faces():
    cx = build_complex([(0, 1, 2), (1, 2, 3)], np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]]))
    assert cx.dimension == 2
    assert cx.simplices[0] == [(0,), (1,), (2,), (3,)]
    assert cx.simplices[1] == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert cx.simplices[2] == [(0, 1, 2), (1, 2, 3)]
    for k in range(3):
        index = {s: i for i, s in enumerate(cx.simplices[k])}
        assert list(index) == sorted(index) == cx.simplices[k]  # distinct, in order
        for s in index:
            assert s == tuple(sorted(s))


def test_build_complex_rejects_bad_input():
    with pytest.raises(DuplicateSimplex):
        build_complex([(0, 1, 2), (2, 1, 0)], TRIANGLE)
    with pytest.raises(DuplicateSimplex):
        build_complex([(0, 1, 1)], TRIANGLE)
    with pytest.raises(DanglingVertexIndex):
        build_complex([(0, 1, 5)], TRIANGLE)
    with pytest.raises(IsolatedVertex, match="vertex 3 lies in no top simplex"):
        build_complex([(0, 1, 2)], np.vstack([TRIANGLE, [5.0, 5.0]]))
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


def test_degenerate_element_is_a_factorization_failure_when_strict():
    # the second triangle (0, 1, 3) has zero area; the metric's frame check,
    # which every strict command runs right after the read, refuses it
    tops = [(0, 1, 2), (0, 1, 3)]
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(FactorizationFailure, match=r"degenerate element \(0, 1, 3\)"):
        Metric(build_complex(tops, verts))
    build_complex(tops, verts, strict=False)


# Five triangles (i, i+1, i+2) mod 5 in the plane: the minimal Moebius strip.
PLANAR_MOBIUS = (
    [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)],
    [[np.cos(2 * np.pi * i / 5), np.sin(2 * np.pi * i / 5)] for i in range(5)],
)
# Two flat triangles folded onto the same side of their shared edge (0, 1).
FOLDED_PAIR = ([(0, 1, 2), (0, 1, 3)], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_planar_mobius_strip_is_rejected_when_strict():
    # a flat embedding does not bypass the consistency check
    with pytest.raises(NonOrientable, match=r"across face \(3, 4\)"):
        build_complex(*PLANAR_MOBIUS)
    report = validate_manifold(build_complex(*PLANAR_MOBIUS, strict=False))
    assert report["orientable"] is False


# Three triangles on the edge (0, 1) in R^3, and two planar triangles
# sharing only vertex 0.
FIN = (
    [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.5, -0.5, 0.8], [0.5, -0.5, -0.8]],
)
BOWTIE = ([(0, 1, 2), (0, 3, 4)], [[0.0, 0.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])


@pytest.mark.parametrize("mesh, message", [
    (FIN, r"face \(0, 1\) has 3 cofaces"),
    (BOWTIE, r"vertex 0 link is not a path or cycle"),
], ids=["fin", "bowtie"])
def test_non_manifold_input_is_rejected_when_strict(mesh, message):
    # the strict read refuses what validate_manifold flags, by its first finding
    with pytest.raises(NonManifold, match=message):
        build_complex(*mesh)
    report = validate_manifold(build_complex(*mesh, strict=False))
    assert report["manifold"] is False
    assert message.replace("\\", "") == report["findings"][0]["detail"]


def test_inconsistent_given_orientation_is_flagged():
    # both tops induce +1 on their shared face (1, 2); only a complex built
    # directly with signs, as BoundaryComplex builds one, can carry them
    tops, verts = [(0, 1, 2), (1, 2, 3)], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    report = validate_manifold(SimplicialComplex(2, verts, tops, [1, 1]))
    assert report["orientable"] and report["manifold"]
    assert [(f["kind"], f["detail"]) for f in report["findings"]] == [
        ("orientation_conflict", "stored orientations disagree at face (1, 2)")
    ]
    assert validate_manifold(SimplicialComplex(2, verts, tops, [1, -1]))["findings"] == []
    assert build_complex(tops, verts).orientation.tolist() == [1, -1]


@pytest.mark.parametrize("mesh", ["folded_pair", "ball", "torus"])
def test_each_face_table_is_built_once(monkeypatch, mesh):
    # inferred orientation reads the complex's own (n-1)-face table
    if mesh == "folded_pair":
        tops, verts = FOLDED_PAIR
    else:
        cx = complex_for(mesh, SMALL[mesh])
        tops, verts = cx._face_positions[0], cx.vertices
    degrees, genuine = [], mesh_mod._faces
    monkeypatch.setattr(mesh_mod, "_faces", lambda t, k: degrees.append(k) or genuine(t, k))
    cx = build_complex(tops, verts)
    assert degrees == list(range(1, cx.dimension + 1))


def test_folded_pair_is_oriented_so_interior_faces_cancel():
    cx = build_complex(*FOLDED_PAIR)
    assert cx.orientation.tolist() == [1, -1]  # the seed keeps its positive volume
    assert not [f for f in validate_manifold(cx)["findings"] if f["kind"] == "orientation_conflict"]
    m = Metric(cx)
    c = random_cochain(cx, 1, np.random.default_rng(0))
    assert stokes_check(m, c)["residual"] == 0.0


def _volume_orientation(cx):
    """The signed-volume rule that propagation seeded by volume replaced
    for flat meshes, as a test oracle: +1 where the sorted tuple's edge
    determinant is positive."""
    tops = cx._face_positions[0]
    det = np.linalg.det(cx.vertices[tops[:, 1:]] - cx.vertices[tops[:, :1]])
    return np.where(det > 0, 1, -1)


FLAT_RESOLUTIONS = (
    [("disk", r) for r in range(1, 21)]
    + [("annulus", r) for r in range(1, 21)]
    + [("ball", r) for r in range(1, 15)]
    + [("solid_torus", r) for r in range(1, 31)]
)


@pytest.mark.parametrize("shape, resolution", FLAT_RESOLUTIONS)
def test_flat_orientation_matches_the_volume_rule(shape, resolution):
    cx = gen_mesh(shape, resolution)
    assert np.array_equal(cx.orientation, _volume_orientation(cx))
    # a vertex relabelling reorders the tops and moves every seed
    perm = np.random.default_rng(resolution).permutation(len(cx.vertices))
    tops = np.argsort(perm)[cx._face_positions[0]]
    relabelled = build_complex(tops, cx.vertices[perm])
    assert np.array_equal(relabelled.orientation, _volume_orientation(relabelled))


@pytest.mark.parametrize("seed", range(5))
def test_component_labels_match_a_union_find(seed):
    # sparse random graphs in shuffled order, with isolated nodes
    rng = np.random.default_rng(seed)
    num = 200
    pairs = rng.integers(0, num, size=(int(rng.integers(0, 300)), 2))
    root = list(range(num))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for a, b in pairs.tolist():
        root[max(find(a), find(b))] = min(find(a), find(b))
    expect = np.unique([find(i) for i in range(num)], return_inverse=True)[1]
    assert np.array_equal(_component_labels(num, pairs), expect)


def test_zero_dimensional_complexes_build_but_are_not_validated():
    cx = build_complex([(0,), (2,)], TRIANGLE, strict=False)
    assert cx.dimension == 0
    assert cx.num_simplices(0) == 3
    with pytest.raises(WrongDimension):
        validate_manifold(cx)


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


def _full_elimination_betti(cx):
    """Betti numbers from the ranks of the whole boundary matrices."""
    n = cx.dimension
    ranks = [0] + [integer_matrix_rank(cx.boundary_matrix(k)) for k in range(1, n + 1)]
    ranks.append(0)
    return [cx.num_simplices(k) - ranks[k] - ranks[k + 1] for k in range(n + 1)]


def _generic_vertices(count, dim=3):
    return np.random.default_rng(count).standard_normal((count, dim))


def _hand_built():
    """Name -> (top simplices, vertex count, rational Betti numbers)."""
    rp2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
           (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    mobius = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    fin = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    torus = complex_for("torus", 3).simplices[2]
    two_tori = list(torus) + [tuple(v + 9 for v in t) for t in torus]
    disk = complex_for("disk", 2).simplices[2]
    disk_vertices = complex_for("disk", 2).num_simplices(0)
    return {
        # A mod-2 rank would give (1, 1, 1): H_1 is Z/2.
        "rp2": (rp2, 6, [1, 0, 0]),
        "mobius": (mobius, 5, [1, 1, 0]),
        "three_triangles_on_an_edge": (fin, 5, [1, 0, 0]),
        "two_tori": (two_tori, 18, [2, 4, 2]),
        "disk_and_isolated_vertex": (disk, disk_vertices + 1, [2, 0, 0]),
    }


HAND_BUILT = _hand_built()


def _report(manifold, orientable, boundary_faces, *findings):
    return {
        "manifold": manifold,
        "orientable": orientable,
        "boundary_faces": boundary_faces,
        "findings": [{"kind": kind, "detail": detail} for kind, detail in findings],
    }


NOT_PATH = "link is not a path or cycle"
NO_ORIENTATION = "no consistent orientation across face"
# Name -> (top simplices, vertex count) of the inputs whose validation is frozen:
# the hand-built complexes plus three that pinch at a vertex or an edge.
FROZEN_INPUTS = {name: (tops, count) for name, (tops, count, _) in HAND_BUILT.items()}
FROZEN_INPUTS.update(
    bowtie=([(0, 1, 2), (0, 3, 4)], 5),
    tets_on_an_edge=([(0, 1, 2, 3), (0, 1, 4, 5)], 6),
    tets_on_a_vertex=([(0, 1, 2, 3), (0, 4, 5, 6)], 7),
)
# Name -> (validate_manifold report, build_complex(strict=False) orientation).
FROZEN_VALIDATION = {
    "bowtie": (_report(False, True, 6, ("bad_link", f"vertex 0 {NOT_PATH}")), [1, 1]),
    "disk_and_isolated_vertex": (
        _report(False, True, 12, ("isolated_vertex", "vertex 25 lies in no top simplex")),
        [1, -1] + [1] * 10 + [-1, 1] + [1, -1] * 11,
    ),
    "mobius": (
        _report(
            True,
            False,
            5,
            ("non_orientable", f"{NO_ORIENTATION} (3, 4)"),
        ),
        [1, -1, 1, -1, 1],
    ),
    "rp2": (
        _report(
            True,
            False,
            0,
            ("non_orientable", f"{NO_ORIENTATION} (4, 5)"),
            ("non_orientable", f"{NO_ORIENTATION} (3, 4)"),
            ("non_orientable", f"{NO_ORIENTATION} (3, 5)"),
        ),
        [1, -1, 1, 1, 1, -1, 1, -1, -1, 1],
    ),
    "tets_on_a_vertex": (
        _report(False, True, 8, ("bad_link", "vertex 0 link is disconnected")),
        [-1, -1],
    ),
    "tets_on_an_edge": (
        _report(
            False,
            True,
            8,
            ("bad_link", f"edge (0, 1) {NOT_PATH}"),
            ("bad_link", "vertex 0 link is disconnected"),
            ("bad_link", "vertex 1 link is disconnected"),
        ),
        [-1, 1],
    ),
    "three_triangles_on_an_edge": (
        _report(
            False,
            True,
            6,
            ("face_with_excess_cofaces", "face (0, 1) has 3 cofaces"),
            ("bad_link", f"vertex 0 {NOT_PATH}"),
            ("bad_link", f"vertex 1 {NOT_PATH}"),
        ),
        [1, 1, 1],
    ),
    "two_tori": (
        _report(True, True, 0),
        [1, -1, -1, 1, -1, -1, 1, -1, -1, 1, 1, 1, 1, -1, -1, 1, -1, 1] * 2,
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_INPUTS))
def test_validation_and_inferred_orientation_are_frozen(name):
    tops, count = FROZEN_INPUTS[name]
    cx = build_complex(tops, _generic_vertices(count), strict=False)
    report, orientation = FROZEN_VALIDATION[name]
    assert validate_manifold(cx) == report
    assert cx.orientation.tolist() == orientation


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_betti_numbers_of_hand_built_complexes(name):
    tops, count, expected = HAND_BUILT[name]
    cx = build_complex(tops, _generic_vertices(count), strict=False)
    assert betti_numbers(cx) == expected
    assert _full_elimination_betti(cx) == expected


@pytest.mark.parametrize(
    "shape, resolution",
    sorted({(s, r) for table in (SMALL, ACCEPTANCE) for s, r in table.items()}),
)
def test_betti_numbers_match_full_elimination(shape, resolution):
    cx = complex_for(shape, resolution)
    assert betti_numbers(cx) == _full_elimination_betti(cx) == BETTI[shape]
    if shape not in CLOSED:
        bc = extract_boundary(cx)
        assert betti_numbers(bc) == _full_elimination_betti(bc) == BOUNDARY_BETTI[shape]


@settings(max_examples=12, deadline=None, database=None)
@given(
    name=st.sampled_from(sorted(HAND_BUILT) + [f"shape:{s}" for s in sorted(SMALL)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_betti_numbers_survive_vertex_relabelling(name, seed):
    if name.startswith("shape:"):
        cx = complex_for(name[6:], SMALL[name[6:]])
        tops, count = cx.simplices[cx.dimension], cx.num_simplices(0)
    else:
        tops, count, _ = HAND_BUILT[name]
    verts = _generic_vertices(count)
    original = build_complex(tops, verts, strict=False)
    perm = np.random.default_rng(seed).permutation(count)
    moved = np.empty_like(verts)
    moved[perm] = verts
    relabelled = build_complex(
        [tuple(int(perm[v]) for v in t) for t in tops], moved, strict=False
    )
    assert betti_numbers(relabelled) == betti_numbers(original)

    def verdicts(cx):
        report = validate_manifold(cx)
        kinds = sorted(f["kind"] for f in report["findings"])
        return report["manifold"], report["orientable"], report["boundary_faces"], kinds

    assert verdicts(relabelled) == verdicts(original)


@pytest.mark.parametrize("shape, resolution", [("torus", 40), ("ball", 8)])
def test_betti_numbers_beyond_the_old_cell_budget(shape, resolution):
    # Both exceeded the rows x cols budget of the full elimination.
    cx = gen_mesh(shape, resolution)
    assert betti_numbers(cx) == BETTI[shape]
    report = validate_manifold(cx)
    assert report["manifold"] is True
    assert report["orientable"] is True
    assert report["findings"] == []


def test_integer_matrix_rank():
    assert integer_matrix_rank(np.array([[2, 4], [1, 2]])) == 1
    assert integer_matrix_rank(np.zeros((3, 4), dtype=np.int64)) == 0
    rng = np.random.default_rng(3)
    m = rng.integers(-5, 6, size=(12, 9))
    assert integer_matrix_rank(m) == np.linalg.matrix_rank(m.astype(float))


def test_exact_rank_budget_overflow(monkeypatch):
    # Incidence of a 6-cycle: 12 nonzeros, and every pivot fills one entry.
    cycle = np.zeros((6, 6), dtype=np.int64)
    for e in range(6):
        cycle[e, e], cycle[(e + 1) % 6, e] = -1, 1
    for budget in (11, 12):
        monkeypatch.setattr(mesh_mod, "_EXACT_RANK_NNZ_BUDGET", budget)
        with pytest.raises(OverflowInExactArithmetic):
            integer_matrix_rank(cycle)
    monkeypatch.setattr(mesh_mod, "_EXACT_RANK_NNZ_BUDGET", 20)
    assert integer_matrix_rank(cycle) == 5


def test_gen_mesh_counts_and_errors():
    torus3 = gen_mesh("torus", 3)
    assert [torus3.num_simplices(k) for k in range(3)] == [9, 27, 18]
    sphere2 = gen_mesh("sphere", 2)
    assert [sphere2.num_simplices(k) for k in range(3)] == [10, 24, 16]
    with pytest.raises(ValueError):
        gen_mesh("klein_bottle", 3)
    with pytest.raises(UnsupportedResolution):
        gen_mesh("torus", 2)
    for shape in ("sphere", "disk", "annulus", "ball", "solid_torus"):
        with pytest.raises(UnsupportedResolution):
            gen_mesh(shape, 0)


def test_gen_mesh_resolution_scales_counts():
    small = gen_mesh("annulus", 2)
    big = gen_mesh("annulus", 4)
    assert big.num_simplices(2) > small.num_simplices(2)
    assert betti_numbers(big) == BETTI["annulus"]


@pytest.mark.parametrize("shape, resolution", [("disk", 1), ("disk", 3), ("disk", 7),
                                               ("annulus", 1), ("annulus", 2), ("annulus", 5)])
def test_ring_vertices_are_numbered_circle_by_circle(shape, resolution):
    # the disk's centre comes first; then circle c, point t sits at radius
    # radii[c] and angle 2 pi t / nt
    v = gen_mesh(shape, resolution).vertices
    if shape == "disk":
        assert (v[0] == 0.0).all()
        v, radii, nt = v[1:], np.arange(1, resolution + 1) / resolution, 6 * resolution
    else:
        radii, nt = 1.0 + np.arange(resolution + 1) / resolution, max(8, 4 * resolution)
    assert len(v) == len(radii) * nt
    r = np.hypot(v[:, 0], v[:, 1]).reshape(len(radii), nt)
    assert np.abs(r - radii[:, None]).max() <= 4 * np.spacing(radii.max())
    assert _off_angle(np.arctan2(v[:, 1], v[:, 0]).reshape(len(radii), nt), nt) <= 1e-12


@pytest.mark.parametrize("shape, resolution, small, k", [
    ("torus", 3, 1.0, 3), ("torus", 5, 1.0, 5), ("torus", 20, 1.0, 20),
    ("solid_torus", 1, 0.8, 3), ("solid_torus", 5, 0.8, 3),
])
def test_swept_vertices_lie_at_their_distance_from_the_core_circle(shape, resolution, small, k):
    # vertex i * k + j sits at distance small from the core circle of
    # radius 2, on the meridian at angle 2 pi i / m, at angle 2 pi j / k
    # around the core
    v = gen_mesh(shape, resolution).vertices
    m = len(v) // k
    assert m == (resolution if shape == "torus" else resolution + 3)
    core = np.hypot(v[:, 0], v[:, 1]) - 2.0
    assert np.abs(np.hypot(core, v[:, 2]) - small).max() <= 1e-15
    assert _off_angle(np.arctan2(v[:, 1], v[:, 0]).reshape(m, k).T, m) <= 1e-12
    assert _off_angle(np.arctan2(v[:, 2], core).reshape(m, k), k) <= 1e-12


def _off_angle(angles, steps):
    """Largest distance, around the circle, of angles[..., i] from 2 pi i / steps."""
    turn = (angles - 2 * np.pi * np.arange(steps) / steps + np.pi) % (2 * np.pi) - np.pi
    return np.abs(turn).max()


def _fifo_orientation(facets):
    """The first-in-first-out propagation that `_orient_by_propagation`
    replaced, as a test oracle: signs and conflict faces, each face once,
    in order of first detection."""
    from collections import deque

    num_tops, m = facets.shape
    a, b = mesh_mod._adjacent_incidences(facets)
    interior = np.bincount(facets.ravel())[facets.ravel()[a]] == 2
    a, b = a[interior], b[interior]
    partner = np.full(num_tops * m, -1, dtype=np.int64)
    partner[a], partner[b] = b, a
    neighbour = np.where(partner >= 0, partner // m, -1).reshape(num_tops, m)
    slot = np.arange(num_tops * m) % m
    flip = np.where((slot + partner % m) % 2, 1, -1).reshape(num_tops, m)
    neighbour, flip, faces = neighbour.tolist(), flip.tolist(), facets.tolist()
    signs, conflicts, reported = [0] * num_tops, [], set()
    for seed in range(num_tops):
        if signs[seed]:
            continue
        signs[seed] = 1
        queue = deque([seed])
        while queue:
            t = queue.popleft()
            for other, rel, face in zip(neighbour[t], flip[t], faces[t]):
                if other < 0:
                    continue
                needed = signs[t] * rel
                if not signs[other]:
                    signs[other] = needed
                    queue.append(other)
                elif signs[other] != needed and face not in reported:
                    reported.add(face)
                    conflicts.append(face)
    return signs, conflicts


def _assert_propagation_matches_the_fifo_loop(cx):
    facets = mesh_mod._facets(cx._face_positions[cx.dimension - 1])
    signs, conflicts = mesh_mod._orient_by_propagation(facets)
    assert signs.dtype == np.int64
    assert (signs.tolist(), conflicts) == _fifo_orientation(facets)
    return conflicts


@pytest.mark.parametrize(
    "shape, resolution",
    sorted({(s, r) for table in (SMALL, ACCEPTANCE) for s, r in table.items()} | {("torus", 40)}),
)
def test_propagation_matches_the_fifo_loop_on_generated_shapes(shape, resolution):
    assert _assert_propagation_matches_the_fifo_loop(complex_for(shape, resolution)) == []


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_propagation_matches_the_fifo_loop_on_hand_built_complexes(name):
    tops, count, _ = HAND_BUILT[name]
    cx = build_complex(tops, _generic_vertices(count), strict=False)
    conflicts = _assert_propagation_matches_the_fifo_loop(cx)
    assert bool(conflicts) == (name in {"mobius", "rp2"})


def _mobius_band(length, width):
    """A Moebius band of length x width squares, two triangles each: the
    column past the last is the first one upside down."""

    def vertex(i, j):
        return (i % length) * (width + 1) + (j if i < length else width - j)

    tops = []
    for i in range(length):
        for j in range(width):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1), vertex(i, j + 1)
            tops += [(a, b, c), (a, c, d)]
    return tops, length * (width + 1)


def test_propagation_matches_the_fifo_loop_on_a_wide_mobius_band():
    tops, count = _mobius_band(12, 4)
    cx = build_complex(tops, _generic_vertices(count), strict=False)
    assert _assert_propagation_matches_the_fifo_loop(cx)


def test_propagation_matches_the_fifo_loop_on_random_subsets():
    # subsets of a torus, a ball, Moebius strips and RP^2 with several
    # components, boundary faces and, from the non-orientable ones,
    # conflicts
    rng = np.random.default_rng(7)
    sources = [
        (complex_for("torus", 6).simplices[2], complex_for("torus", 6).num_simplices(0)),
        (complex_for("ball", 2).simplices[3], complex_for("ball", 2).num_simplices(0)),
        HAND_BUILT["mobius"][:2],
        HAND_BUILT["rp2"][:2],
        _mobius_band(12, 4),
    ]
    for i in range(40):
        tops, count = sources[i % len(sources)]
        keep = rng.random(len(tops)) < rng.uniform(0.3, 0.95)
        subset = [t for t, k in zip(tops, keep) if k] or [tops[0]]
        order = rng.permutation(len(subset))
        cx = build_complex([subset[j] for j in order], _generic_vertices(count), strict=False)
        _assert_propagation_matches_the_fifo_loop(cx)
