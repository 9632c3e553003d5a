"""Move vertices so the mesh's face normals match a target normal field."""

import numpy as np

from .mesh import _check_unit_rows, _checked_count, cross, row_dot

__all__ = ["update_vertices"]


def update_vertices(mesh, target_normals, iters: int = 30):
    """Iteratively project vertices toward the planes implied by the targets.

    Each sweep moves every vertex by the mean, over its face ring, of the
    target-normal projection of the centroid offset:

        x += (1/|ring|) * sum_faces n (n . (centroid - x))

    computed Jacobi style (all displacements from the previous sweep's
    positions). A face whose current cross product points against its
    target is left out of the sums for that sweep, so flipped triangles
    cannot drag their vertices further the wrong way. The test reads a sign,
    so nothing is normalized. Connectivity is never changed. The projection
    assumes unit targets: a row not of unit length to 1e-8 raises ValueError.
    """
    _checked_count("iters", iters)
    n_t = np.asarray(target_normals, dtype=np.float64)
    faces = mesh.faces
    if n_t.shape != (len(faces), 3):
        raise ValueError(f"target_normals must have shape ({len(faces)}, 3)")
    _check_unit_rows("target_normals", n_t)

    # coordinate-major throughout: x[j] and nt[j] are contiguous coordinate
    # arrays, and the .T views hand the row helpers contiguous columns
    x = mesh.vertices.T.copy()                                 # (3, V)
    nt = n_t.T.copy()                                          # (3, T)
    # corners in corner-major order, so each vertex's bincount sums its terms
    # in the same order as one scatter-add per corner would
    corners = faces.T.copy()                                   # (3, T)
    corner_vertex = corners.ravel()
    num_vertices = x.shape[1]
    ring_size = np.bincount(corner_vertex, minlength=num_vertices).astype(np.float64)
    scale = np.divide(1.0, ring_size, out=np.zeros_like(ring_size),
                      where=ring_size > 0)

    for _ in range(iters):
        p = np.take(x, corners, axis=1)                        # (3, corner, T)
        # the same sum and division as a mean over the corners
        centroid = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0         # (3, T)
        c = cross((p[:, 1] - p[:, 0]).T, (p[:, 2] - p[:, 0]).T)
        keep = row_dot(c, nt.T) >= 0.0
        offset = row_dot((centroid[:, None] - p).T, nt.T[:, None])  # (T, corner)
        offset *= keep[:, None]
        for j in range(3):
            terms = (offset * nt[j][:, None]).T                 # (corner, T)
            x[j] += np.bincount(corner_vertex, weights=terms.ravel(),
                                minlength=num_vertices) * scale
    return mesh.with_vertices(x.T)
