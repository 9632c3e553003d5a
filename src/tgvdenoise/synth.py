"""Procedural test meshes: everything the test suite and demos need, so no
external data files are required."""

import numpy as np

from .mesh import TriMesh

__all__ = [
    "make_tetrahedron", "make_cube", "make_icosphere", "make_plane",
    "make_two_triangle_square",
]


def make_tetrahedron(scale: float = 1.0) -> TriMesh:
    """Regular tetrahedron centered at the origin, outward orientation."""
    v = scale * np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    f = [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]
    return TriMesh(v, f)


def make_two_triangle_square(size: float = 1.0) -> TriMesh:
    """Unit square in the z=0 plane split into two triangles (all boundary)."""
    v = size * np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    return TriMesh(v, [[0, 1, 2], [0, 2, 3]])


def make_plane(nx: int = 4, ny: int = 4, size: float = 1.0) -> TriMesh:
    """Rectangular grid in the z=0 plane (a mesh with boundary)."""
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    xs = np.linspace(0.0, size, nx + 1)
    ys = np.linspace(0.0, size, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)

    def vid(i, j):
        return i * (ny + 1) + j

    faces = []
    for i in range(nx):
        for j in range(ny):
            p00, p10 = vid(i, j), vid(i + 1, j)
            p11, p01 = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append([p00, p10, p11])
            faces.append([p00, p11, p01])
    return TriMesh(verts, faces)


def make_cube(divisions: int = 10, size: float = 1.0) -> TriMesh:
    """Axis-aligned cube with each side split into divisions^2 quads (two
    triangles each), vertices welded along the cube edges, outward
    counterclockwise orientation. 12 * divisions^2 faces total."""
    n = int(divisions)
    if n < 1:
        raise ValueError("divisions must be at least 1")
    # per side: origin and the two lattice directions, chosen so that
    # du x dv points outward
    sides = [
        ((0, 0, 0), (0, 1, 0), (1, 0, 0)),   # z = 0, outward -z
        ((0, 0, n), (1, 0, 0), (0, 1, 0)),   # z = n, outward +z
        ((0, 0, 0), (1, 0, 0), (0, 0, 1)),   # y = 0, outward -y
        ((0, n, 0), (0, 0, 1), (1, 0, 0)),   # y = n, outward +y
        ((0, 0, 0), (0, 0, 1), (0, 1, 0)),   # x = 0, outward -x
        ((n, 0, 0), (0, 1, 0), (0, 0, 1)),   # x = n, outward +x
    ]
    index = {}
    verts = []

    def vid(point):
        key = tuple(point)
        if key not in index:
            index[key] = len(verts)
            verts.append(key)
        return index[key]

    faces = []
    for origin, du, dv in sides:
        o = np.array(origin)
        u = np.array(du)
        w = np.array(dv)
        for i in range(n):
            for j in range(n):
                p00 = vid(o + i * u + j * w)
                p10 = vid(o + (i + 1) * u + j * w)
                p11 = vid(o + (i + 1) * u + (j + 1) * w)
                p01 = vid(o + i * u + (j + 1) * w)
                faces.append([p00, p10, p11])
                faces.append([p00, p11, p01])
    positions = np.array(verts, dtype=np.float64) * (size / n)
    return TriMesh(positions, faces)


def make_icosphere(subdivisions: int = 3, radius: float = 1.0) -> TriMesh:
    """Icosahedron subdivided ``subdivisions`` times, projected onto the
    sphere; 20 * 4^k faces, outward orientation."""
    if subdivisions < 0:
        raise ValueError("subdivisions must be at least 0")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.array(v, dtype=np.float64) for v in verts]

    for _ in range(subdivisions):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                cache[key] = len(verts)
                verts.append(0.5 * (verts[i] + verts[j]))
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces

    pos = np.array(verts)
    pos = radius * pos / np.linalg.norm(pos, axis=1)[:, None]
    return TriMesh(pos, np.array(faces, dtype=np.int64))
