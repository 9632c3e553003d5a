"""Independent geometry used to check the outputs of a benchmark run.

Nothing here calls into ``tgvdenoise``: normals, angles and point-to-surface
distances are recomputed from raw vertex and face arrays with formulas that
differ from the package's own, so a check compares two implementations.
"""

import numpy as np
from scipy.spatial import cKDTree


def unit_normals(vertices, faces):
    """Unit face normals from the counterclockwise corner order."""
    p = vertices[faces]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return n / np.linalg.norm(n, axis=1)[:, None]


def face_angles_deg(normals_a, normals_b):
    """Per-row angle in degrees between two unit normal fields, by arccos."""
    dots = np.clip((normals_a * normals_b).sum(axis=1), -1.0, 1.0)
    return np.degrees(np.arccos(dots))


def _segment_distances(p, a, b):
    d = b - a
    s = np.clip(((p - a) * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)
    return np.linalg.norm(p - a - s[:, None] * d, axis=1)


def point_triangle_distances(p, a, b, c):
    """Row-wise distance from points p to triangles (a, b, c).

    When the orthogonal projection of p onto the triangle's plane falls
    inside the triangle, the distance is the plane distance; otherwise the
    closest point lies on the boundary and is the nearest of the three
    clamped segment projections.
    """
    n = np.cross(b - a, c - a)
    nn = (n * n).sum(axis=1)
    t = ((p - a) * n).sum(axis=1) / nn
    q = p - t[:, None] * n
    inside = np.ones(len(p), dtype=bool)
    for u, v in ((a, b), (b, c), (c, a)):
        inside &= (np.cross(v - u, q - u) * n).sum(axis=1) >= 0.0
    plane = np.abs(t) * np.sqrt(nn)
    edge = np.minimum(np.minimum(_segment_distances(p, a, b),
                                 _segment_distances(p, b, c)),
                      _segment_distances(p, c, a))
    return np.where(inside, plane, edge)


def brute_force_distances(points, vertices, faces):
    """Distance from each point to the surface, testing every triangle."""
    tri = vertices[faces]
    out = np.empty(len(points))
    for i, p in enumerate(points):
        rows = np.broadcast_to(p, (len(tri), 3))
        out[i] = point_triangle_distances(rows, tri[:, 0], tri[:, 1], tri[:, 2]).min()
    return out


def surface_distances(points, vertices, faces):
    """Exact distance from each point to the surface, with a centroid broadphase.

    The nearest centroid at distance d bounds the answer from above, and a
    triangle whose closest point is within d has its centroid within
    d + R, R being the largest centroid-to-corner distance; only those
    triangles are tested.
    """
    tri = vertices[faces]
    cent = tri.mean(axis=1)
    reach = np.sqrt(((tri - cent[:, None]) ** 2).sum(axis=2)).max()
    tree = cKDTree(cent)
    d, _ = tree.query(points)
    cand = tree.query_ball_point(points, d + reach * (1.0 + 1e-9))
    counts = np.fromiter((len(c) for c in cand), dtype=np.int64, count=len(points))
    tri_idx = np.concatenate(cand).astype(np.int64)
    pt_idx = np.repeat(np.arange(len(points)), counts)
    dist = point_triangle_distances(points[pt_idx], tri[tri_idx, 0],
                                    tri[tri_idx, 1], tri[tri_idx, 2])
    out = np.full(len(points), np.inf)
    np.minimum.at(out, pt_idx, dist)
    return out


def vertex_error(vertices, ref_vertices, ref_faces):
    """Mean vertex-to-reference-surface distance over the reference
    bounding-box diagonal."""
    diag = np.linalg.norm(ref_vertices.max(axis=0) - ref_vertices.min(axis=0))
    return float(surface_distances(vertices, ref_vertices, ref_faces).mean() / diag)


def close(a, b, rel):
    """True when a and b agree to a relative tolerance."""
    return abs(a - b) <= rel * max(abs(a), abs(b))
