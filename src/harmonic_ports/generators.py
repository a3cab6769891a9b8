"""Deterministic generators for the six reference shapes.

Every generator returns a complex oriented by `build_complex` alone, as
its mesh file is when read back: propagation across interior faces from
the lexicographically first top simplex of each component, seeded with
the sign of its volume for the flat shapes (disk, annulus, ball, solid
torus) and with +1 for the closed surfaces (sphere, torus).  The order of
the vertices inside a generated tuple does not orient it.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import UnsupportedResolution
from .mesh import SimplicialComplex, build_complex

__all__ = ["SHAPES", "gen_mesh", "sphere", "torus", "disk", "annulus", "ball", "solid_torus"]


def sphere(resolution: int) -> SimplicialComplex:
    """Unit sphere: tetrahedron surface, subdivided resolution-1 times."""
    if resolution < 1:
        raise UnsupportedResolution("sphere resolution must be >= 1")
    verts = [
        np.array(v, dtype=float) / np.sqrt(3.0)
        for v in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    ]
    tris = []
    for a, b, c in itertools.combinations(range(4), 3):
        # outward vertex order (positive determinant, the origin inside):
        # it fixes the midpoint numbering of _subdivide_projected, not the
        # orientation
        if np.linalg.det(np.array([verts[a], verts[b], verts[c]])) < 0:
            b, c = c, b
        tris.append((a, b, c))
    for _ in range(resolution - 1):
        verts, tris = _subdivide_projected(verts, tris)
    return build_complex(tris, np.array(verts))


def _subdivide_projected(verts, tris):
    verts = list(verts)
    mid = {}

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in mid:
            m = verts[a] + verts[b]
            mid[key] = len(verts)
            verts.append(m / np.linalg.norm(m))
        return mid[key]

    out = []
    for a, b, c in tris:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return verts, out


def torus(resolution: int) -> SimplicialComplex:
    """Square grid on the donut surface, diagonals along (i, j)->(i+1, j+1)."""
    m = resolution
    if m < 3:
        raise UnsupportedResolution("torus needs resolution >= 3")
    verts, circles = _sweep(m, 1.0, m)
    tris = [tri for i in range(m) for tri in _band(circles[i], circles[(i + 1) % m])]
    return build_complex(tris, verts)


def _sweep(m, small, k):
    """k points on a circle of radius small, swept to m positions around
    the core circle of radius 2; vertex i * k + j is point j at position i.
    Returns the (m * k, 3) vertices and the m circles' vertex lists."""
    verts = np.zeros((m * k, 3))
    for i in range(m):
        th = 2.0 * np.pi * i / m
        for j in range(k):
            ph = 2.0 * np.pi * j / k
            rho = 2.0 + small * np.cos(ph)
            verts[i * k + j] = (rho * np.cos(th), rho * np.sin(th), small * np.sin(ph))
    return verts, np.arange(m * k).reshape(m, k).tolist()


def disk(resolution: int) -> SimplicialComplex:
    """Unit disk: center fan plus concentric ring bands."""
    if resolution < 1:
        raise UnsupportedResolution("disk resolution must be >= 1")
    radii = [j / resolution for j in range(1, resolution + 1)]
    return _rings(radii, 6 * resolution, centre=True)


def annulus(resolution: int) -> SimplicialComplex:
    """Ring 1 <= r <= 2 with resolution+1 concentric vertex circles."""
    if resolution < 1:
        raise UnsupportedResolution("annulus resolution must be >= 1")
    radii = [1.0 + j / resolution for j in range(resolution + 1)]
    return _rings(radii, max(8, 4 * resolution), centre=False)


def _rings(radii, nt, centre):
    """Planar circles of nt vertices at the given radii, numbered circle by
    circle and joined by bands; centre puts the origin first, fanned to the
    first circle."""
    verts = [(0.0, 0.0)] if centre else []
    rings = []
    for rad in radii:
        rings.append(range(len(verts), len(verts) + nt))
        for t in range(nt):
            a = 2.0 * np.pi * t / nt
            verts.append((rad * np.cos(a), rad * np.sin(a)))
    tris = [(0, rings[0][t], rings[0][(t + 1) % nt]) for t in range(nt)] if centre else []
    for inner, outer in zip(rings, rings[1:]):
        tris += _band(inner, outer)
    return build_complex(tris, np.array(verts))


def _band(inner, outer):
    nt = len(inner)
    tris = []
    for t in range(nt):
        t1 = (t + 1) % nt
        tris += [
            (inner[t], outer[t], outer[t1]),
            (inner[t], outer[t1], inner[t1]),
        ]
    return tris


def ball(resolution: int) -> SimplicialComplex:
    """Unit cube volume, six tetrahedra per grid cell (shared main diagonal)."""
    if resolution < 1:
        raise UnsupportedResolution("ball resolution must be >= 1")
    g = resolution + 1
    verts = (
        np.array(
            [(i, j, k) for i in range(g) for j in range(g) for k in range(g)],
            dtype=float,
        )
        / resolution
    )
    # one Kuhn path per axis order: from the cell's first corner, one grid
    # step along each axis in turn (vertex strides g^2, g, 1)
    tets = [
        list(itertools.accumulate(steps, initial=(i * g + j) * g + k))
        for i, j, k in itertools.product(range(resolution), repeat=3)
        for steps in itertools.permutations((g * g, g, 1))
    ]
    return build_complex(tets, verts)


def solid_torus(resolution: int) -> SimplicialComplex:
    """Triangle cross-section swept around a ring of resolution+3 prisms."""
    if resolution < 1:
        raise UnsupportedResolution("solid torus resolution must be >= 1")
    m = resolution + 3
    verts, circles = _sweep(m, 0.8, 3)
    tets = [tet for i in range(m) for tet in _split_prism(circles[i], circles[(i + 1) % m])]
    return build_complex(tets, verts)


def _split_prism(a, b):
    """Three tetrahedra coned from the prism's minimum-index vertex."""
    w = min(a + b)
    if w in a:
        near, far = a, b
    else:
        near, far = b, a
    t_w = near.index(w)
    t_o = (t_w + 1) % 3  # the quad not containing w
    quad = (a[t_o], a[(t_o + 1) % 3], b[(t_o + 1) % 3], b[t_o])  # cyclic
    i_min = quad.index(min(quad))
    d0, d1 = quad[i_min], quad[(i_min + 2) % 4]
    tri1 = (d0, quad[(i_min + 1) % 4], d1)
    tri2 = (d0, d1, quad[(i_min + 3) % 4])
    return [(w,) + tuple(far), (w,) + tri1, (w,) + tri2]


SHAPES = {
    "sphere": sphere,
    "torus": torus,
    "disk": disk,
    "annulus": annulus,
    "ball": ball,
    "solid_torus": solid_torus,
}


def gen_mesh(shape: str, resolution: int) -> SimplicialComplex:
    """Build one of the reference shapes by name."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}; choose from {sorted(SHAPES)}")
    return SHAPES[shape](resolution)
