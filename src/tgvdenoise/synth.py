"""Procedural test meshes: everything the test suite, the demos and the
benchmark need, so no external data files are required.

The cube and the icosphere number their vertices by one rule, ``_weld``: each
distinct lattice point, or edge midpoint, gets the next number where it first
occurs in the order the faces are written. That numbering is a contract, kept
byte for byte: the noise model draws one amplitude per vertex in vertex order,
so a renumbered vertex makes a different noisy input from the same seed."""

import numpy as np

from .mesh import TriMesh, _checked_count

__all__ = ["make_tetrahedron", "make_cube", "make_icosphere", "make_plane"]


# The range of every size. A negative size turns a shape inside out, and a
# face's area is taken from the squared length of its cross product, of the
# order of size^4: the default shapes make valid meshes from about 1e-78 to
# 1e76 (1e-300 gave a "degenerate" face, 1e300 an overflow), and these ends
# leave 25 decades for finer grids.
_SIZE_RANGE = (1e-50, 1e50)


def _checked_size(name, value):
    """``value``, if within ``_SIZE_RANGE``."""
    lo, hi = _SIZE_RANGE
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be between {lo:g} and {hi:g}")
    return value


def make_tetrahedron(scale: float = 1.0) -> TriMesh:
    """Regular tetrahedron centered at the origin, outward orientation."""
    v = _checked_size("scale", scale) * np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    f = [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]
    return TriMesh(v, f)


def _weld(rows):
    """Number the distinct rows of the non-negative integer array ``rows``
    (lattice points, vertex-index pairs) in order of first occurrence, by
    one integer key per row. Returns those rows in that order and each input
    row's number."""
    key = np.ravel_multi_index(rows.T, rows.max(axis=0) + 1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return rows[first[order]], number[inverse]


def make_plane(nx: int = 4, ny: int = 4, size: float = 1.0) -> TriMesh:
    """Rectangular grid in the z=0 plane (a mesh with boundary)."""
    nx, ny = (_checked_count("nx and ny", count) for count in (nx, ny))
    xs = np.linspace(0.0, _checked_size("size", size), nx + 1)
    ys = np.linspace(0.0, size, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    # grid point (i, j) is vertex i*(ny+1) + j; cells i-major
    p00 = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    p10, p01 = p00 + ny + 1, p00 + 1
    p11 = p10 + 1
    faces = np.stack([p00, p10, p11, p00, p11, p01], axis=1).reshape(-1, 3)
    return TriMesh(verts, faces)


def make_cube(divisions: int = 10, size: float = 1.0) -> TriMesh:
    """Axis-aligned cube with each side split into divisions^2 quads (two
    triangles each), vertices welded along the cube edges, outward
    counterclockwise orientation. 12 * divisions^2 faces total."""
    n = _checked_count("divisions", divisions)
    _checked_size("size", size)
    # per side: origin and the two lattice directions, chosen so that
    # du x dv points outward
    sides = np.array([
        ((0, 0, 0), (0, 1, 0), (1, 0, 0)),   # z = 0, outward -z
        ((0, 0, n), (1, 0, 0), (0, 1, 0)),   # z = n, outward +z
        ((0, 0, 0), (1, 0, 0), (0, 0, 1)),   # y = 0, outward -y
        ((0, n, 0), (0, 0, 1), (1, 0, 0)),   # y = n, outward +y
        ((0, 0, 0), (0, 0, 1), (0, 1, 0)),   # x = 0, outward -x
        ((n, 0, 0), (0, 1, 0), (0, 0, 1)),   # x = n, outward +x
    ])
    origin, du, dv = (sides[:, None, None, None, k] for k in range(3))
    # quad (i, j) of each side, i-major, and its corners (i, j), (i+1, j),
    # (i+1, j+1), (i, j+1): the order in which the lattice points are numbered
    i = np.arange(n)[:, None, None] + np.array([0, 1, 1, 0])
    j = np.arange(n)[:, None] + np.array([0, 0, 1, 1])
    points = origin + i[..., None] * du + j[..., None] * dv
    lattice, corner = _weld(points.reshape(-1, 3))
    faces = corner.reshape(-1, 4)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    positions = lattice.astype(np.float64) * (size / n)
    return TriMesh(positions, faces)


def make_icosphere(subdivisions: int = 3, radius: float = 1.0) -> TriMesh:
    """Icosahedron subdivided ``subdivisions`` times, projected onto the
    sphere; 20 * 4^k faces, outward orientation."""
    subdivisions = _checked_count("subdivisions", subdivisions, least=0)
    _checked_size("radius", radius)
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ])
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ])

    for _ in range(subdivisions):
        # each face's edges ab, bc, ca as sorted end pairs; a new vertex per
        # distinct edge, numbered after the old ones where the edge first
        # occurs, at the mean of its ends
        ends = np.sort(np.stack([faces, np.roll(faces, -1, axis=1)], axis=2), axis=2)
        edges, mid = _weld(ends.reshape(-1, 2))
        a, b, c = faces.T
        ab, bc, ca = (len(verts) + mid).reshape(-1, 3).T
        verts = np.concatenate([verts, 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])])
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)

    pos = radius * verts / np.linalg.norm(verts, axis=1)[:, None]
    return TriMesh(pos, faces)
