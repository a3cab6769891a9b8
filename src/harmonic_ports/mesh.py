"""Simplicial complexes with oriented top simplices.

Conventions:

* Simplices are stored as tuples of vertex indices sorted increasingly;
  within each degree the simplices are listed in lexicographic order and
  addressed by their position in that list.
* Each complex holds one face table, built by _faces.  Per degree k, one
  lexicographic sort of every top simplex's local k-faces (the
  (k+1)-subsets of its vertex tuple, in itertools.combinations order)
  gives the sorted k-simplices and the (T, C(n+1, k+1)) positions of each
  top's k-faces among them; the faces of a k-simplex are read off the top
  where it first occurs.  The public simplex lists, every boundary
  matrix, orientation inference, validation, the Whitney scatter and the
  sampling of fields onto simplices all read this table.
* Each top simplex carries an orientation sign (+1 or -1) relative to its
  sorted vertex tuple.  The signs are folded into the columns of the top
  boundary matrix, so the two columns meeting at an interior (n-1)-face
  always carry opposite signs there.  Cochain values at the top degree are
  understood with respect to the *oriented* simplices; at lower degrees
  with respect to the sorted tuples.
* The boundary complex inherits the induced orientation: the orientation
  sign of a boundary face is the single nonzero entry of its row of the
  top boundary matrix.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    DanglingVertexIndex,
    DegreeOutOfRange,
    DuplicateSimplex,
    IsolatedVertex,
    NonManifold,
    NonOrientable,
    OverflowInExactArithmetic,
    WrongDimension,
)

__all__ = [
    "SimplicialComplex",
    "BoundaryComplex",
    "build_complex",
    "extract_boundary",
    "validate_manifold",
    "betti_numbers",
    "euler_characteristic",
    "integer_matrix_rank",
]

# Exact elimination is refused beyond this many stored nonzeros plus fill.
_EXACT_RANK_NNZ_BUDGET = 2_000_000
# ... and if intermediate integer entries ever exceed this magnitude.
_EXACT_RANK_ENTRY_LIMIT = 10**80


class SimplicialComplex:
    """An oriented simplicial complex of dimension n embedded in R^d.

    Attributes:
        dimension: Top simplex degree n.
        vertices: (V, d) float array of vertex coordinates.
        simplices: Per degree k, the lexicographically ordered list of
            sorted vertex tuples, built from the face table on each read.
        orientation: (N_n,) array of +-1, the orientation of each top
            simplex relative to its sorted tuple; given as None, inferred
            from the face table as build_complex describes (+1 at n = 0).
    """

    def __init__(
        self,
        dimension: int,
        vertices: np.ndarray,
        top_simplices: Sequence[tuple],
        orientation: np.ndarray | None,
    ):
        self.dimension = int(dimension)
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2:
            self.vertices = self.vertices.reshape(len(self.vertices), -1)
        n = self.dimension

        tops = np.asarray(top_simplices, dtype=np.int64).reshape(-1, n + 1)
        signs = np.asarray(np.ones(len(tops)) if orientation is None else orientation, np.int64)
        if len(signs) != len(tops):
            raise ValueError("orientation array does not match top simplex count")
        order = np.lexsort(tops.T[::-1])
        tops = tops[order]
        self.orientation = signs[order]

        # The face table: per degree, the sorted simplices as vertex rows
        # and the positions of every top's faces among them (the local
        # 0-faces of a top are its vertices, so degree 0 is the tops).
        self._simplex_rows = [np.arange(len(self.vertices))[:, None]]
        self._face_positions = [tops]
        self.boundary: list = [None] * (n + 1)
        for k in range(1, n + 1):
            rows, positions, first = _faces(tops, k)
            self._simplex_rows.append(rows)
            self._face_positions.append(positions)
            # Face i of a k-simplex drops vertex i; read it off the top
            # where the simplex first occurs.
            owner, local = np.divmod(first, positions.shape[1])
            dropped = _dropped(n + 1, k)[local]
            faces = self._face_positions[k - 1][owner[:, None], dropped]
            vals = np.tile((-1) ** np.arange(k + 1), len(rows))
            if k == n:
                if orientation is None:  # seeds +1, or volume signs if d = n
                    if self.vertices.shape[1] == n:
                        edges = self.vertices[tops[:, 1:]] - self.vertices[tops[:, :1]]
                        signs = np.where(np.linalg.det(edges) < 0, -1, 1)
                    facets = _facets(self._face_positions[n - 1])
                    self.orientation = _orient_by_propagation(facets, signs)[0]
                vals *= np.repeat(self.orientation, k + 1)
            cols = np.repeat(np.arange(len(rows)), k + 1)
            shape = (len(self._simplex_rows[k - 1]), len(rows))
            self.boundary[k] = sp.csr_matrix((vals, (faces.ravel(), cols)), shape=shape)
        top = sp.csr_matrix((0, len(self._simplex_rows[n])), dtype=np.int64)
        self.coboundary = [b.T.tocsr() for b in self.boundary[1:]] + [top]

    # -- basic queries ---------------------------------------------------

    @property
    def simplices(self) -> list[list[tuple]]:
        return [list(map(tuple, rows.tolist())) for rows in self._simplex_rows]

    def _simplex(self, k: int, i: int) -> tuple:
        """The sorted vertex tuple of k-simplex i."""
        return tuple(self._simplex_rows[k][i].tolist())

    def num_simplices(self, k: int) -> int:
        if not 0 <= k <= self.dimension:
            raise DegreeOutOfRange(f"degree {k} outside 0..{self.dimension}")
        return len(self._simplex_rows[k])

    def boundary_matrix(self, k: int) -> sp.csr_matrix:
        """Signed incidence matrix from degree k to degree k-1."""
        if not 1 <= k <= self.dimension:
            raise DegreeOutOfRange(f"no boundary matrix at degree {k}")
        return self.boundary[k]

    def exterior_derivative_matrix(self, k: int) -> sp.csr_matrix:
        """Coboundary from degree k to degree k+1 (transpose of boundary)."""
        if not 0 <= k <= self.dimension:
            raise DegreeOutOfRange(f"degree {k} outside 0..{self.dimension}")
        return self.coboundary[k]

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{len(self._simplex_rows[k])} x dim{k}" for k in range(self.dimension + 1)
        )
        return f"<SimplicialComplex n={self.dimension}: {counts}>"


def _subsets(m: int, r: int) -> np.ndarray:
    """(C(m, r), r) array of the r-subsets of range(m) in combinations order."""
    return np.array(list(itertools.combinations(range(m), r)), dtype=np.int64)


def _rank(local: np.ndarray, m: int) -> np.ndarray:
    """Position of each increasing row of local among the subsets of range(m)
    of its length, in combinations order."""
    r = local.shape[-1]
    pos = {s: j for j, s in enumerate(itertools.combinations(range(m), r))}
    ranks = [pos[tuple(s)] for s in local.reshape(-1, r).tolist()]
    return np.array(ranks, dtype=np.int64).reshape(local.shape[:-1])


def _dropped(m: int, k: int) -> np.ndarray:
    """(C(m, k+1), k+1) table: entry [j, i] is the position of the j-th
    (k+1)-subset of range(m) without its i-th element, among the
    k-subsets."""
    local = _subsets(m, k + 1)
    return _rank(np.stack([np.delete(local, i, axis=1) for i in range(k + 1)], 1), m)


def _faces(tops: np.ndarray, k: int):
    """The k-faces of the top simplices, from one lexicographic sort.

    Args:
        tops: (T, n+1) increasing vertex rows.

    Returns:
        The (N_k, k+1) distinct k-faces in lexicographic order; the
        (T, C(n+1, k+1)) position of every top's local k-faces among them,
        local faces in combinations order; and for each k-face the flat
        index t * C(n+1, k+1) + j of its first occurrence.
    """
    local = _subsets(tops.shape[1], k + 1)
    rows = tops[:, local].reshape(len(tops) * len(local), k + 1)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    positions = np.empty(len(order), dtype=np.int64)
    positions[order] = np.cumsum(new) - 1
    return ranked[new], positions.reshape(len(tops), len(local)), order[new]


class BoundaryComplex(SimplicialComplex):
    """The boundary of a complex, carrying the induced orientation.

    Attributes:
        parent: The complex whose boundary this is.
        vertex_map: (V_b,) parent vertex index of each boundary vertex.
    """

    def __init__(self, parent: SimplicialComplex, faces: np.ndarray, signs):
        """faces: increasing parent indices of the boundary (n-1)-faces,
        signs: their induced orientations."""
        self.parent = parent
        n = parent.dimension
        # The boundary k-simplices are the k-faces of the boundary faces.
        # Relabelling vertices by the increasing vertex_map keeps the
        # lexicographic order, so they are listed in parent order.
        on = [np.array(faces, dtype=np.int64)]
        for k in range(n - 1, 0, -1):
            mask = np.zeros(parent.num_simplices(k), dtype=np.int64)
            mask[on[0]] = 1
            on.insert(0, np.flatnonzero(abs(parent.boundary[k]) @ mask))
        self.vertex_map = on[0]
        to_local = np.zeros(parent.num_simplices(0), dtype=np.int64)
        to_local[self.vertex_map] = np.arange(len(self.vertex_map))
        local_faces = to_local[parent._simplex_rows[n - 1][on[-1]]]
        verts = parent.vertices[self.vertex_map]
        super().__init__(n - 1, verts, local_faces, np.asarray(signs, np.int64))
        for rows in on:
            rows.setflags(write=False)
        self._parent_indices = on

    def trace_matrix(self, k: int) -> sp.csr_matrix:
        """Restriction of parent k-cochains to the boundary.

        At the boundary's own top degree the values are re-expressed in the
        induced-orientation basis, so the discrete Stokes identity holds
        with coefficient +1.
        """
        if not 0 <= k <= self.dimension:
            raise DegreeOutOfRange(f"degree {k} outside 0..{self.dimension}")
        rows = self._parent_indices[k]
        vals = self.orientation if k == self.dimension else np.ones(len(rows), dtype=np.int64)
        shape = (len(rows), self.parent.num_simplices(k))
        return sp.csr_matrix((vals, (np.arange(len(rows)), rows)), shape=shape)

    def parent_indices(self, k: int) -> np.ndarray:
        """Parent indices of the boundary k-simplices (canonical order, so
        increasing; read-only)."""
        return self._parent_indices[k]


def build_complex(
    top_simplices: Iterable[Sequence[int]], vertices, strict: bool = True
) -> SimplicialComplex:
    """Build a complex from top simplices and vertex coordinates.

    The orientation comes from the mesh alone, never from the order of the
    vertices in a tuple: propagation across the interior faces, each
    component seeded at its lexicographically first top simplex with +1,
    or with the sign of its volume when d == n.  So a generated complex
    and its mesh file, read back, are oriented alike.

    Args:
        top_simplices: Sequences of vertex indices, all of one length n+1.
        vertices: (V, d) coordinate array with d >= n.
        strict: If True raise the error of validate_manifold's first
            finding; if False return a best effort and let validate_manifold
            report the findings.  Degenerate elements are the metric's to refuse.

    Raises:
        DuplicateSimplex: A repeated top simplex, or a repeated vertex
            inside one simplex.
        DanglingVertexIndex: A vertex index outside the coordinate array.
        WrongDimension: Mixed tuple lengths, fewer ambient coordinates
            than the simplex dimension, or n = 0 when strict.
        IsolatedVertex, NonManifold, NonOrientable: Strict only, by the
            first finding: a vertex in no top simplex; a face with excess
            cofaces or a bad link; an orientation conflict.
    """
    tops = [tuple(int(v) for v in t) for t in top_simplices]
    if not tops:
        raise WrongDimension("at least one top simplex is required")
    sizes = {len(t) for t in tops}
    if len(sizes) != 1:
        raise WrongDimension(f"mixed simplex sizes {sorted(sizes)}")
    n = sizes.pop() - 1
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2:
        raise WrongDimension("vertices must be a 2-d coordinate array")
    d = verts.shape[1]
    if d < n:
        raise WrongDimension(f"cannot embed {n}-simplices in R^{d}")

    # Input order decides which error is raised: the first top with a
    # repeated vertex, a dangling vertex or an earlier copy, in that order.
    given = np.array(tops, dtype=object)
    dangling = ~((given >= 0) & (given < len(verts))).astype(bool)
    ordered = np.sort(np.where(dangling, -1, given).astype(np.int64), axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    for i in np.flatnonzero(dangling.any(axis=1)):  # repeats of the true values
        repeated[i] = len(set(tops[i])) != len(tops[i])
    rank = np.lexsort(ordered.T[::-1])  # stable: copies keep their input order
    copy = np.zeros(len(tops), dtype=bool)
    copy[rank[1:]] = (ordered[rank[1:]] == ordered[rank[:-1]]).all(axis=1)
    bad = repeated | dangling.any(axis=1) | copy
    if bad.any():
        i = int(np.argmax(bad))
        t = tops[i]
        if repeated[i]:
            raise DuplicateSimplex(f"repeated vertex in simplex {t}")
        if dangling[i].any():
            v = t[np.argmax(dangling[i])]
            raise DanglingVertexIndex(f"vertex {v} of simplex {t}")
        raise DuplicateSimplex(f"simplex {tuple(ordered[i].tolist())} appears twice")
    cx = SimplicialComplex(n, verts, ordered[rank], None)
    findings = validate_manifold(cx)["findings"] if strict else []
    if findings:  # a conflict is named "orientation conflict across face F"
        kind, detail = findings[0]["kind"], findings[0]["detail"]
        error = {"isolated_vertex": IsolatedVertex, "non_orientable": NonOrientable}
        detail = detail.replace("no consistent orientation", "orientation conflict")
        raise error.get(kind, NonManifold)(detail)
    return cx


def _facets(positions: np.ndarray) -> np.ndarray:
    """Each top's (n-1)-faces from the face table at degree n-1, column i
    the face without vertex i (incidence sign (-1)^i)."""
    return positions[:, ::-1]


def _adjacent_incidences(facets: np.ndarray):
    """Flat indices (a, b) into facets of consecutive incidences of one
    face: a face with c cofaces gives c - 1 pairs, in top order."""
    flat = facets.ravel()
    order = np.argsort(flat, kind="stable")
    same = flat[order[1:]] == flat[order[:-1]]
    return order[:-1][same], order[1:][same]


def _component_labels(num: int, pairs: np.ndarray) -> np.ndarray:
    """Connected component of each node of the graph on range(num) with
    edges pairs (E, 2), numbered in order of each component's smallest
    node.  Every node points to a node no larger than itself; each pass
    hooks the larger of the two roots an edge joins onto the smallest root
    it meets, then jumps pointers until every node points to its root."""
    parent = np.arange(num)
    a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            return np.unique(parent, return_inverse=True)[1]
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _orient_by_propagation(facets: np.ndarray, seeds: np.ndarray | None = None):
    """Signs that cancel the two incidences of every interior face.

    Each unsigned top in turn seeds +1, or its entry of seeds; breadth
    first, one level per array pass, a neighbour across a face with exactly
    two cofaces gets the sign that cancels there from the first (top, face)
    of the level that reaches it.  Returns the signs and the faces where a
    signed neighbour disagrees, each face once, in order of first detection.
    """
    num_tops, m = facets.shape
    a, b = _adjacent_incidences(facets)
    interior = np.bincount(facets.ravel())[facets.ravel()[a]] == 2
    a, b = a[interior], b[interior]
    partner = np.full(num_tops * m, -1, dtype=np.int64)
    partner[a], partner[b] = b, a
    neighbour = np.where(partner >= 0, partner // m, -1).reshape(num_tops, m)
    # needed sign of the neighbour = own sign * -(-1)^(i_self + i_other)
    slot = np.arange(num_tops * m) % m
    flip = np.where((slot + partner % m) % 2, 1, -1).reshape(num_tops, m)

    signs, detected, seed = np.zeros(num_tops, dtype=np.int64), [], 0
    while seed < num_tops:
        signs[seed] = 1 if seeds is None else seeds[seed]
        level = np.array([seed])
        while len(level):
            other, face = neighbour[level].ravel(), facets[level].ravel()
            needed = (signs[level][:, None] * flip[level]).ravel()
            linked = other >= 0
            fresh = np.flatnonzero(linked & (signs[other] == 0))  # other -1: masked
            first = np.sort(fresh[np.unique(other[fresh], return_index=True)[1]])
            level = other[first]
            signs[level] = needed[first]
            linked[first] = False
            detected.append(face[linked & (signs[other] != needed)])
        unsigned = np.flatnonzero(signs[seed:] == 0)
        seed += unsigned[0] if len(unsigned) else num_tops
    faces = np.concatenate([facets[:0, 0]] + detected)
    return signs, faces[np.sort(np.unique(faces, return_index=True)[1])].tolist()


def extract_boundary(complex: SimplicialComplex) -> BoundaryComplex:
    """Boundary complex with the induced orientation.

    A face is a boundary face when it has exactly one top coface; its
    induced orientation sign is its single nonzero entry in the top
    boundary matrix.
    """
    top = complex.boundary[complex.dimension]
    faces = np.flatnonzero(np.diff(top.indptr) == 1)
    return BoundaryComplex(complex, faces, top.data[top.indptr[faces]])


def validate_manifold(complex: SimplicialComplex) -> dict:
    """Check manifold-with-boundary structure and orientation consistency.

    Returns a dict with keys ``manifold`` (bool), ``orientable`` (bool),
    ``boundary_faces`` (int) and ``findings`` (list of dicts carrying a
    ``kind`` tag and a human-readable ``detail``).  Findings about faces
    and links come in order of first occurrence among the top simplices.

    Raises:
        WrongDimension: A 0-dimensional complex.
    """
    n = complex.dimension
    if n < 1:
        raise WrongDimension("manifold validation needs dimension >= 1")
    used = np.zeros(complex.num_simplices(0), dtype=bool)
    used[complex._face_positions[0]] = True
    findings = [
        {"kind": "isolated_vertex", "detail": f"vertex {v} lies in no top simplex"}
        for v in np.flatnonzero(~used).tolist()
    ]

    facets = _facets(complex._face_positions[n - 1])
    top = complex.boundary[n]
    cofaces = np.diff(top.indptr)
    faces = _first_seen(facets)
    for f in faces[cofaces[faces] > 2].tolist():
        detail = f"face {complex._simplex(n - 1, f)} has {cofaces[f]} cofaces"
        findings.append({"kind": "face_with_excess_cofaces", "detail": detail})

    # Interior faces are the rows of the top boundary matrix with two
    # nonzeros; the stored orientations agree where such a row sums to 0.
    # When they agree everywhere the complex is orientable, and propagation
    # could find no conflict.
    row_sums = np.asarray(top.sum(axis=1)).ravel()
    disagree = faces[(cofaces[faces] == 2) & (row_sums[faces] != 0)]
    conflicts = _orient_by_propagation(facets)[1] if len(disagree) else []
    orientable = not conflicts
    for f in conflicts:
        detail = f"no consistent orientation across face {complex._simplex(n - 1, f)}"
        findings.append({"kind": "non_orientable", "detail": detail})
    for f in disagree.tolist() if orientable else []:
        detail = f"stored orientations disagree at face {complex._simplex(n - 1, f)}"
        findings.append({"kind": "orientation_conflict", "detail": detail})

    if n in (2, 3):
        _check_links(complex, facets, cofaces, findings)

    kinds = {f["kind"] for f in findings}
    manifold = not kinds & {"isolated_vertex", "face_with_excess_cofaces", "bad_link"}
    return {
        "manifold": manifold,
        "orientable": orientable,
        "boundary_faces": int(np.count_nonzero(cofaces == 1)),
        "findings": findings,
    }


def _first_seen(positions: np.ndarray) -> np.ndarray:
    """The simplices that positions lists, in order of first occurrence
    (row-major)."""
    ids, first = np.unique(positions.ravel(), return_index=True)
    return ids[np.argsort(first)]


def _check_links(complex, facets, cofaces, findings):
    """Links of the vertices (n = 2), or of the edges and vertices (n = 3).

    The link of an (n-2)-simplex s is a path or cycle exactly when every
    (n-1)-face containing s has at most two cofaces and the tops around s
    are connected through (n-1)-faces containing s; a vertex link in 3-d
    need only be connected.  Connectivity comes from one flag graph: its
    nodes are the pairs (s, top containing s), and at every s inside an
    (n-1)-face the cofaces of that face are joined in a chain.
    """
    n = complex.dimension
    num_tops = len(facets)
    a, b = _adjacent_incidences(facets)
    (ta, ia), (tb, ib) = np.divmod(a, n + 1), np.divmod(b, n + 1)
    offsets, heads, tails = [0], [], []
    for k in range(n - 1):
        width = complex._face_positions[k].shape[1]
        # the local k-faces of a top inside its facet without vertex i
        inside = np.stack(
            [np.delete(np.arange(n + 1), i)[_subsets(n, k + 1)] for i in range(n + 1)]
        )
        inside = _rank(inside, n + 1)
        heads.append((offsets[-1] + ta[:, None] * width + inside[ia]).ravel())
        tails.append((offsets[-1] + tb[:, None] * width + inside[ib]).ravel())
        offsets.append(offsets[-1] + num_tops * width)
    flags = np.stack([np.concatenate(heads), np.concatenate(tails)], axis=1)
    labels = _component_labels(offsets[-1], flags)
    num_labels = labels.max(initial=-1) + 1

    # A face with excess cofaces spoils the links of its (n-2)-faces.
    spoiled = abs(complex.boundary[n - 1]) @ (cofaces > 2).astype(np.int64) > 0
    for k in range(n - 2, -1, -1):
        positions = complex._face_positions[k]
        pairs = np.unique(
            positions.ravel() * num_labels + labels[offsets[k] : offsets[k + 1]]
        )
        bad = np.bincount(pairs // num_labels, minlength=complex.num_simplices(k)) > 1
        if k == n - 2:
            bad |= spoiled
            problem = "is not a path or cycle"
        else:
            problem = "is disconnected"
        order = _first_seen(positions)
        for s in order[bad[order]].tolist():
            name = f"vertex {s}" if k == 0 else f"edge {complex._simplex(k, s)}"
            findings.append({"kind": "bad_link", "detail": f"{name} link {problem}"})


# -- homology ------------------------------------------------------------


def integer_matrix_rank(matrix) -> int:
    """Exact rank of an integer matrix by fraction-free elimination.

    Each step takes a pivot of magnitude 1 where one exists, preferring
    short rows in sparse columns, and eliminates its column from every
    other row; after a non-unit pivot each updated row is divided by its
    gcd, so entries stay small.  ``betti_numbers`` feeds it only the few
    cells its coreductions leave.  Python integers cannot overflow, so
    OverflowInExactArithmetic is tied to a work budget: the stored
    nonzeros plus the fill the elimination creates may not exceed
    _EXACT_RANK_NNZ_BUDGET, and no intermediate entry may exceed
    _EXACT_RANK_ENTRY_LIMIT.
    """
    mat = sp.csr_matrix(matrix)
    m = mat.shape[0]
    nonzeros_and_fill = mat.count_nonzero()
    if nonzeros_and_fill > _EXACT_RANK_NNZ_BUDGET:
        raise OverflowInExactArithmetic(
            f"{nonzeros_and_fill} nonzeros exceed the exact elimination budget"
        )
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set] = defaultdict(set)
    for i in range(m):
        entries = {
            int(mat.indices[p]): int(mat.data[p])
            for p in range(mat.indptr[i], mat.indptr[i + 1])
            if mat.data[p]
        }
        if entries:
            rows[i] = entries
            for c in entries:
                col_rows[c].add(i)

    rank = 0
    while rows:
        best = None
        for i, entries in rows.items():
            for c, v in entries.items():
                cost = (0 if abs(v) == 1 else 1, len(entries) * len(col_rows[c]))
                if best is None or cost < best[0]:
                    best = (cost, i, c)
            if best is not None and best[0][0] == 0 and best[0][1] <= 4:
                break
        _, pi, pc = best
        pivot_row = rows.pop(pi)
        pv = pivot_row[pc]
        for c in pivot_row:
            col_rows[c].discard(pi)
        for ri in list(col_rows[pc]):
            row = rows[ri]
            rv = row[pc]
            # row := pv*row - rv*pivot_row, then strip the gcd
            for cc in row:
                col_rows[cc].discard(ri)
            new = {cc: pv * vv for cc, vv in row.items()}
            for cc, vv in pivot_row.items():
                if cc not in new:
                    nonzeros_and_fill += 1
                val = new.get(cc, 0) - rv * vv
                if val:
                    new[cc] = val
                else:
                    new.pop(cc, None)
            if nonzeros_and_fill > _EXACT_RANK_NNZ_BUDGET:
                raise OverflowInExactArithmetic(
                    "fill beyond the exact elimination budget"
                )
            if abs(pv) != 1 and new:
                g = 0
                for vv in new.values():
                    g = math.gcd(g, vv)
                if g > 1:
                    new = {cc: vv // g for cc, vv in new.items()}
            if new and max(abs(v) for v in new.values()) > _EXACT_RANK_ENTRY_LIMIT:
                raise OverflowInExactArithmetic("entry growth beyond budget")
            if new:
                rows[ri] = new
                for cc in new:
                    col_rows[cc].add(ri)
            else:
                del rows[ri]
        rank += 1
    return rank


def _coreduce(complex: SimplicialComplex) -> tuple[int, list[np.ndarray]]:
    """Seed removal and coreductions (Mrozek-Batko, DCG 2009).

    One seed vertex per connected component is removed; then, until none
    is left, a cell with exactly one face still present is removed
    together with that face.  Every incidence of a simplicial complex is
    +-1, so each removed pair is a coreduction pair over the integers and
    the cells left, with the restricted boundary, have the homology of
    the complex relative to the seeds.  Returns the seed count and, per
    degree, the indices of the cells left.
    """
    n = complex.dimension
    sizes = [complex.num_simplices(k) for k in range(n + 1)]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    # One matrix over all cells: row = face, column = coface.
    rows, cols = [], []
    for k in range(1, n + 1):
        coo = complex.boundary[k].tocoo()
        rows.append(coo.row + offsets[k - 1])
        cols.append(coo.col + offsets[k])
    rows = np.concatenate(rows) if rows else np.zeros(0, np.int64)
    cols = np.concatenate(cols) if cols else np.zeros(0, np.int64)
    incidence = sp.csr_matrix(
        (np.ones(len(rows), np.int8), (rows, cols)), shape=(total, total)
    )
    faces = incidence.T.tocsr()
    face_ptr, face_idx = faces.indptr.tolist(), faces.indices.tolist()
    co_ptr, co_idx = incidence.indptr.tolist(), incidence.indices.tolist()
    present_faces = np.diff(faces.indptr).tolist()

    ends = complex.coboundary[0].indices.reshape(-1, 2)  # two vertices per edge
    labels = _component_labels(sizes[0], ends)
    seeds = np.unique(labels, return_index=True)[1].tolist()

    alive = bytearray(b"\x01") * total
    queue: deque = deque()

    def remove(cell):
        alive[cell] = 0
        for co in co_idx[co_ptr[cell] : co_ptr[cell + 1]]:
            present_faces[co] -= 1
            if present_faces[co] == 1 and alive[co]:
                queue.append(co)

    for seed in seeds:
        remove(seed)
    # First in, first out: the pairs grow breadth-first from the seeds.
    # Last in, first out left 80001 edges and 80000 triangles on torus:200.
    while queue:
        cell = queue.popleft()
        if not alive[cell] or present_faces[cell] != 1:
            continue
        face = next(
            f for f in face_idx[face_ptr[cell] : face_ptr[cell + 1]] if alive[f]
        )
        remove(cell)
        remove(face)

    left = np.frombuffer(bytes(alive), dtype=np.uint8).astype(bool)
    return len(seeds), [
        np.flatnonzero(left[offsets[k] : offsets[k + 1]]) for k in range(n + 1)
    ]


def betti_numbers(complex: SimplicialComplex) -> list[int]:
    """Betti numbers b_0..b_n over the rationals, exactly.

    Coreduction (_coreduce) removes one seed vertex per connected
    component and then pairs of cells in linear time, preserving
    homology over the integers; on a triangulated surface or ball only a
    few cells are left.  Their Betti numbers come from the exact ranks
    (integer_matrix_rank) of the boundary matrices restricted to them,
    and each seed adds one to b_0.  The ranks do not depend on the
    orientation fold, since it only scales columns by +-1.

    Raises:
        OverflowInExactArithmetic: The elimination of the cells left
            exceeds its work budget.
    """
    n = complex.dimension
    seeds, left = _coreduce(complex)
    ranks = [0] * (n + 2)
    for k in range(1, n + 1):
        ranks[k] = integer_matrix_rank(complex.boundary[k][left[k - 1]][:, left[k]])
    betti = [len(left[k]) - ranks[k] - ranks[k + 1] for k in range(n + 1)]
    betti[0] += seeds
    if sum((-1) ** k * b for k, b in enumerate(betti)) != euler_characteristic(complex):
        raise RuntimeError(
            f"Betti numbers {betti} disagree with the Euler characteristic"
        )
    return betti


def euler_characteristic(complex: SimplicialComplex) -> int:
    return sum(
        (-1) ** k * complex.num_simplices(k) for k in range(complex.dimension + 1)
    )
