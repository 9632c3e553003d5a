"""Triangle mesh container and per-face geometry."""

import numpy as np

__all__ = ["MeshError", "TriMesh", "face_normals", "face_areas", "face_barycenters"]


class MeshError(ValueError):
    """Raised for malformed mesh files or invalid mesh geometry/topology."""


class TriMesh:
    """An immutable triangle mesh: vertex positions plus counterclockwise faces.

    Parameters
    ----------
    vertices : array_like, shape (P, 3)
        3D vertex positions.
    faces : array_like, shape (T, 3)
        Vertex-index triples, all oriented counterclockwise (consistently,
        when seen from outside / above).

    Validation rejects non-finite (NaN or infinite) vertex coordinates,
    out-of-range indices, repeated vertices within a face,
    degenerate (near zero area) triangles, non-manifold edges (an edge
    shared by three or more faces), inconsistently oriented faces (two
    faces that traverse their shared edge in the same direction), and
    non-manifold vertices (faces around a vertex that form more than one
    edge-connected fan, as in a bowtie).
    """

    def __init__(self, vertices, faces):
        v = _checked_vertices(vertices)
        f = np.asarray(faces, dtype=np.int64)
        if f.size == 0:
            f = f.reshape(0, 3)
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError(f"faces must have shape (T, 3), got {f.shape}")

        if f.size:
            if f.min() < 0 or f.max() >= len(v):
                bad_face = int(np.nonzero(((f < 0) | (f >= len(v))).any(axis=1))[0][0])
                raise MeshError(f"face {bad_face} references vertex index out of range")
            same = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
            if same.any():
                raise MeshError(f"face {int(np.nonzero(same)[0][0])} repeats a vertex")

        v.setflags(write=False)
        f.setflags(write=False)
        self.vertices = v
        self.faces = f
        self._edge_keys = None

        if f.size:
            self._check_areas()
            self._check_manifold()

    # -- validation ------------------------------------------------------

    def _check_areas(self):
        bbox = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        diag2 = float(bbox @ bbox)
        eps = 1e-12 * max(diag2, np.finfo(np.float64).tiny)
        areas = face_areas(self)
        small = areas <= eps
        if small.any():
            raise MeshError(f"face {int(np.nonzero(small)[0][0])} is degenerate (area <= eps)")

    def _check_manifold(self):
        f = self.faces
        nxt = np.roll(f, -1, axis=1)
        pairs = np.minimum(f, nxt).ravel() * len(self.vertices) + np.maximum(f, nxt).ravel()
        keys, inverse, counts = np.unique(pairs, return_inverse=True, return_counts=True)
        if (counts > 2).any():
            slot = int(np.nonzero(counts[inverse] > 2)[0][0])
            raise MeshError(f"non-manifold edge in face {slot // 3} (3+ incident faces)")
        # two faces on an edge must traverse it in opposite directions
        forward = np.bincount(inverse[(f < nxt).ravel()], minlength=len(counts))
        flipped = (counts == 2) & (forward != 1)
        if flipped.any():
            first, second = np.nonzero(inverse == np.argmax(flipped))[0] // 3
            raise MeshError(f"face {second} is oriented inconsistently with face {first} "
                            "(both traverse their shared edge in the same direction)")
        # the faces around a vertex must form one edge-connected fan. Walk
        # from each corner across its outgoing edge to the next face's corner
        # at the same vertex (a boundary edge ends the walk) by pointer
        # doubling, and name each walk by its last corner, or a closed one
        # by its smallest; a vertex with two names is a pinch
        slots = np.arange(f.size)
        pair_sum = np.bincount(inverse, weights=slots).astype(np.int64)[inverse]
        mate = np.where(counts[inverse] == 2, pair_sum - slots, slots)
        succ = np.where(mate == slots, slots,
                        np.roll(slots.reshape(f.shape), -1, axis=1).ravel()[mate])
        name, ahead = slots, succ
        for _ in range(int(np.bincount(f.ravel()).max()).bit_length()):
            name = np.minimum(name, name[ahead])
            ahead = ahead[ahead]
        name = np.where(succ[ahead] == ahead, ahead, name)
        fans = np.bincount(f.ravel()[name == slots], minlength=len(self.vertices))
        if (fans > 1).any():
            bad = int(np.argmax(fans > 1))
            raise MeshError(f"non-manifold vertex {bad} (its faces form {int(fans[bad])} "
                            "fans that meet only at the vertex)")
        # the ranked edge keys (min * V + max), their inverse over the face
        # slots 3t + k and their counts: build_edge_topology is built on them
        for a in (keys, inverse, counts):
            a.setflags(write=False)
        self._edge_keys = keys, inverse, counts

    # -- basics ----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_faces(self):
        return len(self.faces)

    def with_vertices(self, vertices):
        """Same connectivity, new positions. The faces were validated with
        this mesh, so only the checks that depend on positions rerun: shape
        and vertex count, finite coordinates, and degenerate triangles."""
        v = _checked_vertices(vertices)
        if len(v) != self.num_vertices:
            raise MeshError(f"expected {self.num_vertices} vertices, got {len(v)}")
        v.setflags(write=False)
        mesh = object.__new__(type(self))
        mesh.vertices = v
        mesh.faces = self.faces
        mesh._edge_keys = self._edge_keys
        if self.faces.size:
            mesh._check_areas()
        return mesh

    def __repr__(self):
        return f"TriMesh(vertices={self.num_vertices}, faces={self.num_faces})"


def _checked_vertices(vertices):
    v = np.asarray(vertices, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 3:
        raise MeshError(f"vertices must have shape (P, 3), got {v.shape}")
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        raise MeshError(f"vertex {int(np.nonzero(~finite)[0][0])} has a "
                        "non-finite coordinate")
    return v


def _face_cross(mesh):
    p = mesh.vertices[mesh.faces]
    return np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def face_areas(mesh) -> np.ndarray:
    """Triangle areas, shape (T,)."""
    return 0.5 * np.linalg.norm(_face_cross(mesh), axis=1)


def face_barycenters(mesh) -> np.ndarray:
    """Triangle barycenters, shape (T, 3)."""
    return mesh.vertices[mesh.faces].mean(axis=1)


def face_normals(mesh) -> np.ndarray:
    """Unit face normals from the counterclockwise vertex order, shape (T, 3)."""
    cross = _face_cross(mesh)
    norms = np.linalg.norm(cross, axis=1)
    if (norms == 0).any():
        raise MeshError(f"face {int(np.nonzero(norms == 0)[0][0])} has zero area")
    return cross / norms[:, None]
