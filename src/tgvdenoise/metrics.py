"""Quantitative comparison of meshes and normal fields."""

import numpy as np

from .mesh import cross, row_dot, row_norm
from .operators import edge_jump

__all__ = [
    "face_angle_errors", "mean_angular_difference", "closest_point_distances",
    "vertex_error", "feature_adjacent_faces",
]


def face_angle_errors(normals_a, normals_b) -> np.ndarray:
    """Per-face angle in degrees between two unit normal fields.

    Computed as atan2(|a x b|, a . b): exactly 0 for identical rows and
    well-conditioned near both 0 and 180 degrees.
    """
    a = np.asarray(normals_a, dtype=np.float64)
    b = np.asarray(normals_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"normal fields must share shape (T, 3): {a.shape} vs {b.shape}")
    return np.degrees(np.arctan2(row_norm(cross(a, b)), row_dot(a, b)))


def mean_angular_difference(normals_a, normals_b) -> float:
    """Mean per-face angle between two unit normal fields, in degrees."""
    return float(face_angle_errors(normals_a, normals_b).mean())


# Point-triangle pairs screened at once; bounds the screen's two
# (points, triangles) float arrays to 1 MB each.
_BLOCK_PAIRS = 1 << 17


def _closest_point_on_triangles(p, tri):
    """Exact squared distances from points to triangles.

    p: (..., 3); tri: (..., 3, 3), broadcast against each other over the
    leading axes, so (m, 1, 3) with (t, 3, 3) gives all (m, t) pairs and
    (k, 3) with (k, 3, 3) gives k paired distances.
    Region walk over the barycentric Voronoi regions of the triangle.
    """
    a, b, c = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    ab = b - a
    ac = c - a

    ap = p - a
    d1 = row_dot(ab, ap)
    d2 = row_dot(ac, ap)
    bp = p - b
    d3 = row_dot(ab, bp)
    d4 = row_dot(ac, bp)
    cp = p - c
    d5 = row_dot(ab, cp)
    d6 = row_dot(ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = np.where(d1 - d3 != 0, d1 / (d1 - d3), 0.0)
        t_ac = np.where(d2 - d6 != 0, d2 / (d2 - d6), 0.0)
        denom_bc = (d4 - d3) + (d5 - d6)
        t_bc = np.where(denom_bc != 0, (d4 - d3) / denom_bc, 0.0)
        s = va + vb + vc
        bary_v = np.where(s != 0, vb / s, 0.0)
        bary_w = np.where(s != 0, vc / s, 0.0)

    # vertex regions
    at_a = (d1 <= 0) & (d2 <= 0)
    at_b = (d3 >= 0) & (d4 <= d3)
    at_c = (d6 >= 0) & (d5 <= d6)
    # edge regions
    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    on_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)

    closest = a + ab * bary_v[..., None] + ac * bary_w[..., None]
    closest = np.where(on_bc[..., None], b + (c - b) * t_bc[..., None], closest)
    closest = np.where(on_ac[..., None], a + ac * t_ac[..., None], closest)
    closest = np.where(on_ab[..., None], a + ab * t_ab[..., None], closest)
    closest = np.where(at_c[..., None], c, closest)
    closest = np.where(at_b[..., None], b, closest)
    closest = np.where(at_a[..., None], a, closest)
    offset = p - closest
    return row_dot(offset, offset)


def closest_point_distances(points, mesh) -> np.ndarray:
    """Distance from each point to the closest point on any mesh triangle.

    Exact, in bounded memory. Each triangle t lies in the ball of radius
    R_t (largest centroid-to-vertex distance) around its centroid c_t, so
    its distance from p is at least |p - c_t| - R_t and at most
    |p - c_t| + R_t. A screen over fixed-size blocks of (point, triangle)
    pairs keeps only the triangles with
    |p - c_t| - R_t <= min_s (|p - c_s| + R_s), which always include the
    nearest one, and the region walk runs on those pairs alone. The bound
    gets a slack of 1e-9 of the largest coordinate magnitude, far above
    the rounding of either stage, so rounding can only add candidates and
    the result equals the all-pairs minimum bit for bit.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if mesh.num_faces == 0:
        raise ValueError("reference mesh has no faces")
    if not np.isfinite(points).all():
        raise ValueError("points must have finite coordinates")
    tri = np.take(mesh.vertices, mesh.faces, axis=0)
    centroid = tri.mean(axis=1)
    radius = row_norm(tri - centroid[:, None]).max(axis=1)
    slack = 1e-9 * max(np.abs(points).max(initial=0.0), np.abs(tri).max())

    best = np.full(len(points), np.inf)
    block = max(1, _BLOCK_PAIRS // len(tri))
    for start in range(0, len(points), block):
        p = points[start:start + block]
        dist = np.zeros((len(p), len(tri)))
        tmp = np.empty_like(dist)
        for k in range(3):
            dist += np.square(np.subtract(p[:, k, None], centroid[:, k], out=tmp), out=tmp)
        np.sqrt(dist, out=dist)
        upper = np.add(dist, radius, out=tmp).min(axis=1) + slack
        rows, cols = np.nonzero(np.subtract(dist, radius, out=tmp) <= upper[:, None])
        np.minimum.at(best, start + rows, _closest_point_on_triangles(p[rows], tri[cols]))
    return np.sqrt(best)


def _referenced_vertices(mesh):
    """The vertices some face uses, in index order."""
    used = np.zeros(mesh.num_vertices, dtype=bool)
    used[mesh.faces.ravel()] = True
    return mesh.vertices[used]


def vertex_error(denoised, reference) -> float:
    """Mean distance from the denoised mesh's vertices to the reference
    surface, normalized by the diagonal of the reference's bounding box.

    Both the mean and the box are taken over referenced vertices, those
    some face uses: a vertex in no face belongs to neither surface.
    """
    points = _referenced_vertices(denoised)
    if reference.num_faces == 0 or len(points) == 0:
        raise ValueError("vertex_error needs a non-empty pair of meshes")
    corners = _referenced_vertices(reference)
    diag = float(np.linalg.norm(corners.max(axis=0) - corners.min(axis=0)))
    if diag == 0:
        raise ValueError("reference mesh has zero extent")
    return float(closest_point_distances(points, reference).mean() / diag)


def feature_adjacent_faces(topo, normals, threshold_deg: float = 30.0) -> np.ndarray:
    """Faces incident to an edge whose two unit face normals differ by more
    than the threshold angle; used to score errors near sharp creases. The
    edge jump of the normals, +-(n_0 - n_1), has squared length
    2 - 2 cos(angle) on an interior edge and 0 on a boundary edge."""
    jump = edge_jump(topo, normals)
    sharp = row_dot(jump, jump) > 2.0 - 2.0 * np.cos(np.radians(threshold_deg))
    return np.flatnonzero(np.take(sharp, topo.face_edges).any(axis=1))
