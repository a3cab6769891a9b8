"""Simplicial complexes with oriented top simplices.

Conventions:

* Simplices are stored as tuples of vertex indices sorted increasingly;
  within each degree the simplices are listed in lexicographic order and
  addressed by their position in that list.
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
    "permutation_sign",
]

# Exact elimination is refused beyond this many stored nonzeros plus fill.
_EXACT_RANK_NNZ_BUDGET = 2_000_000
# ... and if intermediate integer entries ever exceed this magnitude.
_EXACT_RANK_ENTRY_LIMIT = 10**80


def permutation_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation that sorts ``seq`` increasingly."""
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


class SimplicialComplex:
    """An oriented simplicial complex of dimension n embedded in R^d.

    Attributes:
        dimension: Top simplex degree n.
        vertices: (V, d) float array of vertex coordinates.
        simplices: Per degree k, the lexicographically ordered list of
            sorted vertex tuples.
        index: Per degree k, the tuple -> position lookup.
        orientation: (N_n,) array of +-1, the orientation of each top
            simplex relative to its sorted tuple.
    """

    def __init__(
        self,
        dimension: int,
        vertices: np.ndarray,
        top_simplices: Sequence[tuple],
        orientation: np.ndarray,
    ):
        self.dimension = int(dimension)
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2:
            self.vertices = self.vertices.reshape(len(self.vertices), -1)
        n = self.dimension

        signs = np.asarray(orientation, dtype=np.int64)
        tops = [tuple(t) for t in top_simplices]
        if len(signs) != len(tops):
            raise ValueError("orientation array does not match top simplex count")
        pairs = sorted(zip(tops, signs.tolist()))
        tops = [p[0] for p in pairs]
        self.orientation = np.array([p[1] for p in pairs], dtype=np.int64)

        self.simplices: list[list[tuple]] = [[] for _ in range(n + 1)]
        self.index: list[dict] = [{} for _ in range(n + 1)]

        faces: list[set] = [set() for _ in range(n + 1)]
        faces[0].update((i,) for i in range(len(self.vertices)))
        for top in tops:
            for k in range(1, n + 1):
                faces[k].update(itertools.combinations(top, k + 1))
        for k in range(n + 1):
            ordered = sorted(faces[k])
            self.simplices[k] = ordered
            self.index[k] = {s: i for i, s in enumerate(ordered)}

        self.boundary: list = [None] * (n + 1)
        for k in range(1, n + 1):
            self.boundary[k] = self._build_boundary(k)
        top = sp.csr_matrix((0, len(self.simplices[n])), dtype=np.int64)
        self.coboundary = [b.T.tocsr() for b in self.boundary[1:]] + [top]

    def _build_boundary(self, k: int) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        idx_low = self.index[k - 1]
        fold = k == self.dimension
        for col, s in enumerate(self.simplices[k]):
            o = int(self.orientation[col]) if fold else 1
            for i in range(k + 1):
                face = s[:i] + s[i + 1 :]
                rows.append(idx_low[face])
                cols.append(col)
                vals.append(o * (-1 if i % 2 else 1))
        shape = (len(self.simplices[k - 1]), len(self.simplices[k]))
        return sp.csr_matrix(
            (np.array(vals, dtype=np.int64), (rows, cols)), shape=shape
        )

    # -- basic queries ---------------------------------------------------

    def num_simplices(self, k: int) -> int:
        if not 0 <= k <= self.dimension:
            raise DegreeOutOfRange(f"degree {k} outside 0..{self.dimension}")
        return len(self.simplices[k])

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

    def oriented_simplex(self, k: int, i: int) -> tuple:
        """The i-th k-simplex, with top simplices in oriented vertex order."""
        s = self.simplices[k][i]
        if k == self.dimension and self.orientation[i] < 0:
            s = s[:2][::-1] + s[2:]
        return s

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{len(self.simplices[k])} x dim{k}" for k in range(self.dimension + 1)
        )
        return f"<SimplicialComplex n={self.dimension}: {counts}>"


class BoundaryComplex(SimplicialComplex):
    """The boundary of a complex, carrying the induced orientation.

    Attributes:
        parent: The complex whose boundary this is.
        vertex_map: (V_b,) parent vertex index of each boundary vertex.
        inclusion: Per degree k <= n-1, a (N_k_parent, N_k_boundary) 0/1
            matrix sending boundary simplices to their parent copies.
    """

    def __init__(self, parent: SimplicialComplex, faces, signs):
        self.parent = parent
        n = parent.dimension
        used = sorted({v for f in faces for v in f})
        self.vertex_map = np.array(used, dtype=np.int64)
        to_local = {v: i for i, v in enumerate(used)}
        local_faces = [tuple(to_local[v] for v in f) for f in faces]
        verts = (
            parent.vertices[self.vertex_map]
            if len(used)
            else np.zeros((0, parent.vertices.shape[1]))
        )
        super().__init__(n - 1, verts, local_faces, np.asarray(signs, np.int64))

        self.inclusion: list = []
        for k in range(n):
            rows, cols = [], []
            for j, s in enumerate(self.simplices[k]):
                parent_s = tuple(int(self.vertex_map[v]) for v in s)
                rows.append(parent.index[k][parent_s])
                cols.append(j)
            shape = (parent.num_simplices(k), self.num_simplices(k))
            vals = np.ones(len(rows), dtype=np.int64)
            self.inclusion.append(sp.csr_matrix((vals, (rows, cols)), shape=shape))

    def trace_matrix(self, k: int) -> sp.csr_matrix:
        """Restriction of parent k-cochains to the boundary.

        At the boundary's own top degree the values are re-expressed in the
        induced-orientation basis, so the discrete Stokes identity holds
        with coefficient +1.
        """
        if not 0 <= k <= self.dimension:
            raise DegreeOutOfRange(f"degree {k} outside 0..{self.dimension}")
        tr = self.inclusion[k].T.tocsr()
        if k == self.dimension:
            tr = sp.diags(self.orientation, dtype=np.int64) @ tr
        return tr.tocsr()

    def parent_indices(self, k: int) -> np.ndarray:
        """Parent indices of the boundary k-simplices (canonical order)."""
        inc = self.inclusion[k].tocoo()
        out = np.zeros(self.num_simplices(k), dtype=np.int64)
        out[inc.col] = inc.row
        return out


def build_complex(
    top_simplices: Iterable[Sequence[int]],
    vertices,
    orientation=None,
    strict: bool = True,
) -> SimplicialComplex:
    """Build a complex from top simplices and vertex coordinates.

    Args:
        top_simplices: Sequences of vertex indices, all of one length n+1.
        vertices: (V, d) coordinate array with d >= n.
        orientation: One of None (infer: signed volume when d == n, else
            propagation across interior faces seeded at the
            lexicographically first top simplex of each component),
            "from_order" (the parity of each given tuple relative to its
            sorted order), or an explicit array of +-1 per given simplex.
        strict: If True raise NonOrientable on inference conflicts or
            degenerate elements; if False record a best effort and let
            validate_manifold report the findings.

    Raises:
        DuplicateSimplex: A repeated top simplex, or a repeated vertex
            inside one simplex.
        DanglingVertexIndex: A vertex index outside the coordinate array.
        WrongDimension: Mixed tuple lengths, or fewer ambient coordinates
            than the simplex dimension.
        NonOrientable: No consistent orientation exists (strict only).
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

    nv = len(verts)
    seen = {}
    for t in tops:
        if len(set(t)) != len(t):
            raise DuplicateSimplex(f"repeated vertex in simplex {t}")
        for v in t:
            if not 0 <= v < nv:
                raise DanglingVertexIndex(f"vertex {v} of simplex {t}")
        key = tuple(sorted(t))
        if key in seen:
            raise DuplicateSimplex(f"simplex {key} appears twice")
        seen[key] = t

    sorted_tops = sorted(seen)  # canonical order of the top simplices
    given_order = {key: pos for pos, key in enumerate(tuple(sorted(t)) for t in tops)}

    if isinstance(orientation, str) and orientation == "from_order":
        signs = np.array(
            [permutation_sign(seen[key]) for key in sorted_tops], dtype=np.int64
        )
    elif orientation is None:
        if d == n:
            signs = _orient_by_volume(sorted_tops, verts, strict)
        else:
            signs, conflicts = _orient_by_propagation(sorted_tops, n)
            if conflicts and strict:
                raise NonOrientable(
                    f"orientation conflict across face {conflicts[0]}"
                )
    else:
        arr = np.asarray(orientation, dtype=np.int64)
        if arr.shape != (len(tops),) or not np.all(np.abs(arr) == 1):
            raise ValueError("orientation must be +-1 per top simplex")
        signs = np.array(
            [arr[given_order[key]] for key in sorted_tops], dtype=np.int64
        )

    return SimplicialComplex(n, verts, sorted_tops, signs)


def _orient_by_volume(sorted_tops, verts, strict):
    tops = np.array(sorted_tops, dtype=np.int64)
    edges = verts[tops[:, 1:]] - verts[tops[:, :1]]  # (T, n, n)
    det = np.linalg.det(edges)
    scale = np.abs(edges).max(axis=(1, 2)) ** (tops.shape[1] - 1)
    degenerate = np.abs(det) <= 1e-12 * scale
    if strict and degenerate.any():
        raise NonOrientable(f"degenerate element {sorted_tops[np.argmax(degenerate)]}")
    return np.where((det > 0) | degenerate, 1, -1)  # degenerate elements keep +1


def _orient_by_propagation(sorted_tops, n):
    cofaces = defaultdict(list)
    for t_idx, t in enumerate(sorted_tops):
        for i in range(n + 1):
            face = t[:i] + t[i + 1 :]
            cofaces[face].append((t_idx, -1 if i % 2 else 1))

    signs = np.zeros(len(sorted_tops), dtype=np.int64)
    conflicts = []
    for seed in range(len(sorted_tops)):
        if signs[seed]:
            continue
        signs[seed] = 1
        queue = deque([seed])
        while queue:
            t_idx = queue.popleft()
            t = sorted_tops[t_idx]
            for i in range(n + 1):
                face = t[:i] + t[i + 1 :]
                inc = cofaces[face]
                if len(inc) != 2:
                    continue  # boundary or non-manifold face: no constraint
                (a, ca), (b, cb) = inc
                other, c_other = (b, cb) if a == t_idx else (a, ca)
                c_self = ca if a == t_idx else cb
                needed = -signs[t_idx] * c_self * c_other
                if signs[other] == 0:
                    signs[other] = needed
                    queue.append(other)
                elif signs[other] != needed:
                    conflicts.append(face)
    return signs, conflicts


def extract_boundary(complex: SimplicialComplex) -> BoundaryComplex:
    """Boundary complex with the induced orientation.

    A face is a boundary face when it has exactly one top coface; its
    induced orientation sign is its single nonzero entry in the top
    boundary matrix.
    """
    n = complex.dimension
    bnd = complex.boundary[n].tocsr()
    counts = np.diff(bnd.indptr)
    faces, signs = [], []
    for row in np.flatnonzero(counts == 1):
        faces.append(complex.simplices[n - 1][row])
        signs.append(int(bnd.data[bnd.indptr[row]]))
    return BoundaryComplex(complex, faces, np.array(signs, dtype=np.int64))


def validate_manifold(complex: SimplicialComplex) -> dict:
    """Check manifold-with-boundary structure and orientation consistency.

    Returns a dict with keys ``manifold`` (bool), ``orientable`` (bool),
    ``boundary_faces`` (int) and ``findings`` (list of dicts carrying a
    ``kind`` tag and a human-readable ``detail``).
    """
    n = complex.dimension
    used = {v for t in complex.simplices[n] for v in t}
    findings = [
        {"kind": "isolated_vertex", "detail": f"vertex {v} lies in no top simplex"}
        for v in range(complex.num_simplices(0))
        if v not in used
    ]

    cofaces = defaultdict(list)
    for t_idx, t in enumerate(complex.simplices[n]):
        for i in range(n + 1):
            face = t[:i] + t[i + 1 :]
            cofaces[face].append((t_idx, -1 if i % 2 else 1))

    boundary_faces = 0
    for face, inc in cofaces.items():
        if len(inc) == 1:
            boundary_faces += 1
        elif len(inc) > 2:
            findings.append(
                {
                    "kind": "face_with_excess_cofaces",
                    "detail": f"face {face} has {len(inc)} cofaces",
                }
            )

    _, conflicts = _orient_by_propagation(complex.simplices[n], n)
    orientable = not conflicts
    for face in conflicts:
        findings.append(
            {
                "kind": "non_orientable",
                "detail": f"no consistent orientation across face {face}",
            }
        )
    if orientable:
        for face, inc in cofaces.items():
            if len(inc) != 2:
                continue
            (a, ca), (b, cb) = inc
            if (
                complex.orientation[a] * ca + complex.orientation[b] * cb
                != 0
            ):
                findings.append(
                    {
                        "kind": "orientation_conflict",
                        "detail": f"stored orientations disagree at face {face}",
                    }
                )

    if n == 2:
        _check_surface_links(complex, findings)
    elif n == 3:
        _check_volume_links(complex, findings)

    manifold = not any(
        f["kind"] in ("isolated_vertex", "face_with_excess_cofaces", "bad_link")
        for f in findings
    )
    return {
        "manifold": manifold,
        "orientable": orientable,
        "boundary_faces": boundary_faces,
        "findings": findings,
    }


def _link_is_path_or_cycle(edges: list[tuple]) -> bool:
    adj = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    if not adj:
        return True
    if any(len(nb) > 2 for nb in adj.values()):
        return False
    ends = sum(1 for nb in adj.values() if len(nb) == 1)
    if ends not in (0, 2):
        return False
    start = next(iter(adj))
    for node, nb in adj.items():
        if len(nb) == 1:
            start = node
            break
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(adj)


def _check_surface_links(complex, findings):
    star = defaultdict(list)
    for t in complex.simplices[2]:
        for v in t:
            a, b = (u for u in t if u != v)
            star[v].append((a, b))
    for v, edges in star.items():
        if not _link_is_path_or_cycle(edges):
            findings.append(
                {
                    "kind": "bad_link",
                    "detail": f"vertex {v} link is not a path or cycle",
                }
            )


def _check_volume_links(complex, findings):
    edge_link = defaultdict(list)
    vertex_link = defaultdict(list)
    for t in complex.simplices[3]:
        for a, b in itertools.combinations(t, 2):
            c, d = (u for u in t if u not in (a, b))
            edge_link[(a, b)].append((c, d))
        for v in t:
            vertex_link[v].append(tuple(u for u in t if u != v))
    for e, edges in edge_link.items():
        if not _link_is_path_or_cycle(edges):
            findings.append(
                {
                    "kind": "bad_link",
                    "detail": f"edge {e} link is not a path or cycle",
                }
            )
    for v, tris in vertex_link.items():
        # Link triangles are adjacent when they share a link edge.
        holders = defaultdict(list)
        for i, tri in enumerate(tris):
            for edge in itertools.combinations(tri, 2):
                holders[edge].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for edge in itertools.combinations(tris[stack.pop()], 2):
                for nxt in holders[edge]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        if len(seen) != len(tris):
            findings.append(
                {
                    "kind": "bad_link",
                    "detail": f"vertex {v} link is disconnected",
                }
            )


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

    # Imported here: loading csgraph adds about 1 MiB to every process.
    from scipy.sparse.csgraph import connected_components

    ends = complex.coboundary[0].indices.reshape(-1, 2)  # two vertices per edge
    graph = sp.csr_matrix(
        (np.ones(len(ends), np.int8), (ends[:, 0], ends[:, 1])),
        shape=(sizes[0], sizes[0]),
    )
    _, labels = connected_components(graph, directed=False)
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
