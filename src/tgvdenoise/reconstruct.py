"""Move vertices so the mesh's face normals match a target normal field."""

import numpy as np

__all__ = ["update_vertices", "projection_residual"]


def _centroids_and_normals(vertices, faces):
    p = vertices[faces]
    # the same sum and division as p.mean(axis=1), without its reduction
    centroids = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    norms = np.linalg.norm(cross, axis=1)
    normals = np.divide(cross, norms[:, None], out=np.zeros_like(cross),
                        where=norms[:, None] > 0)
    return centroids, normals


def update_vertices(mesh, target_normals, iters: int = 30):
    """Iteratively project vertices toward the planes implied by the targets.

    Each sweep moves every vertex by the mean, over its face ring, of the
    target-normal projection of the centroid offset:

        x += (1/|ring|) * sum_faces n (n . (centroid - x))

    computed Jacobi style (all displacements from the previous sweep's
    positions). A face whose current normal points against its target is
    left out of the sums for that sweep, so flipped triangles cannot drag
    their vertices further the wrong way. Connectivity is never changed.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    n_t = np.asarray(target_normals, dtype=np.float64)
    faces = mesh.faces
    if n_t.shape != (len(faces), 3):
        raise ValueError(f"target_normals must have shape ({len(faces)}, 3)")

    x = mesh.vertices.copy()
    # corners in corner-major order, so each vertex's bincount sums its terms
    # in the same order as one scatter-add per corner would
    corner_vertex = faces.T.ravel()
    ring_size = np.bincount(corner_vertex, minlength=len(x)).astype(np.float64)
    scale = np.divide(1.0, ring_size, out=np.zeros_like(ring_size),
                      where=ring_size > 0)

    for _ in range(iters):
        centroids, current = _centroids_and_normals(x, faces)
        keep = (current * n_t).sum(axis=1) >= 0.0
        offset = ((centroids - x[faces.T]) * n_t).sum(axis=2)    # (3, T)
        terms = (n_t * (offset * keep)[:, :, None]).reshape(-1, 3)
        disp = np.stack([np.bincount(corner_vertex, weights=terms[:, j], minlength=len(x))
                         for j in range(3)], axis=1)
        x = x + disp * scale[:, None]
    return mesh.with_vertices(x)


def projection_residual(mesh, target_normals) -> float:
    """Sum over faces and their corners of (n . (centroid - corner))^2;
    zero exactly when every corner lies in its face's target plane."""
    n_t = np.asarray(target_normals, dtype=np.float64)
    centroids = mesh.vertices[mesh.faces].mean(axis=1)
    total = 0.0
    for corner in range(3):
        offset = ((centroids - mesh.vertices[mesh.faces[:, corner]]) * n_t).sum(axis=1)
        total += float((offset ** 2).sum())
    return total
