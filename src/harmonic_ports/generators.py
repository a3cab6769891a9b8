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
    big, small = 2.0, 1.0
    verts = np.zeros((m * m, 3))
    for i in range(m):
        th = 2.0 * np.pi * i / m
        for j in range(m):
            ph = 2.0 * np.pi * j / m
            rho = big + small * np.cos(ph)
            verts[i * m + j] = (rho * np.cos(th), rho * np.sin(th), small * np.sin(ph))
    idx = lambda i, j: (i % m) * m + (j % m)
    tris = []
    for i in range(m):
        for j in range(m):
            a, b, c, d = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    return build_complex(tris, verts)


def disk(resolution: int) -> SimplicialComplex:
    """Unit disk: center fan plus concentric ring bands."""
    if resolution < 1:
        raise UnsupportedResolution("disk resolution must be >= 1")
    nt = 6 * resolution
    verts = [(0.0, 0.0)]
    rings = []
    for j in range(1, resolution + 1):
        rad = j / resolution
        ring = []
        for t in range(nt):
            ang = 2.0 * np.pi * t / nt
            ring.append(len(verts))
            verts.append((rad * np.cos(ang), rad * np.sin(ang)))
        rings.append(ring)
    tris = [(0, rings[0][t], rings[0][(t + 1) % nt]) for t in range(nt)]
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


def annulus(resolution: int) -> SimplicialComplex:
    """Ring 1 <= r <= 2 with resolution+1 concentric vertex circles."""
    if resolution < 1:
        raise UnsupportedResolution("annulus resolution must be >= 1")
    nt = max(8, 4 * resolution)
    verts = []
    rings = []
    for j in range(resolution + 1):
        rad = 1.0 + j / resolution
        ring = []
        for t in range(nt):
            ang = 2.0 * np.pi * t / nt
            ring.append(len(verts))
            verts.append((rad * np.cos(ang), rad * np.sin(ang)))
        rings.append(ring)
    tris = []
    for inner, outer in zip(rings, rings[1:]):
        tris += _band(inner, outer)
    return build_complex(tris, np.array(verts))


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
    idx = lambda c: (c[0] * g + c[1]) * g + c[2]
    tets = []
    for cell in itertools.product(range(resolution), repeat=3):
        base = np.array(cell)
        for perm in itertools.permutations(range(3)):
            corners = [base.copy()]
            cur = base.copy()
            for axis in perm:
                cur = cur.copy()
                cur[axis] += 1
                corners.append(cur)
            tets.append(tuple(idx(c) for c in corners))
    return build_complex(tets, verts)


def solid_torus(resolution: int) -> SimplicialComplex:
    """Triangle cross-section swept around a ring of resolution+3 prisms."""
    if resolution < 1:
        raise UnsupportedResolution("solid torus resolution must be >= 1")
    m = resolution + 3
    big, small = 2.0, 0.8
    verts = np.zeros((3 * m, 3))
    for s in range(m):
        th = 2.0 * np.pi * s / m
        for t in range(3):
            ph = 2.0 * np.pi * t / 3.0
            rho = big + small * np.cos(ph)
            verts[3 * s + t] = (rho * np.cos(th), rho * np.sin(th), small * np.sin(ph))
    tets = []
    for s in range(m):
        near = [3 * s + t for t in range(3)]
        far = [3 * ((s + 1) % m) + t for t in range(3)]
        tets += _split_prism(near, far)
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
