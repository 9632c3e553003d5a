"""Triangle mesh container and per-face geometry."""

import numbers

import numpy as np

__all__ = ["MeshError", "TriMesh", "face_normals", "face_barycenters"]


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
    out-of-range or non-integer indices, repeated vertices within a face,
    degenerate (near zero area) triangles, non-manifold edges (an edge
    shared by three or more faces), inconsistently oriented faces (two
    faces that traverse their shared edge in the same direction), and
    non-manifold vertices (faces around a vertex that form more than one
    edge-connected fan, as in a bowtie).

    Every mesh passes this constructor, whether loaded, generated or made
    from another by ``with_vertices``. It owns read-only C-order copies of
    its vertices and faces, so the caller's arrays stay writeable.
    """

    def __init__(self, vertices, faces):
        v = _checked_vertices(vertices).copy()
        f = np.asarray(faces)
        if f.size == 0:
            f = f.reshape(0, 3)
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError(f"faces must have shape (T, 3), got {f.shape}")
        # checked before the cast to int64, which truncates 0.7, drops an
        # imaginary part and warns on NaN
        if f.dtype.kind not in "iub":
            whole = (np.trunc(f.real) == f).all(axis=1)     # NaN and 1j are not
            if not whole.all():
                raise MeshError(f"face {int(np.argmin(whole))} has a non-integer vertex index")
            f = f.real

        if f.size:
            if f.min() < 0 or f.max() >= len(v):
                bad_face = int(np.nonzero(((f < 0) | (f >= len(v))).any(axis=1))[0][0])
                raise MeshError(f"face {bad_face} references vertex index out of range")
            same = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
            if same.any():
                raise MeshError(f"face {int(np.nonzero(same)[0][0])} repeats a vertex")
        f = f.astype(np.int64, order="C")

        v.setflags(write=False)
        f.setflags(write=False)
        self.vertices = v
        self.faces = f
        self._twin = None
        self._face_areas = None

        if f.size:
            self._check_areas()
            self._check_manifold()

    # -- validation ------------------------------------------------------

    def _check_areas(self):
        # finite coordinates can still overflow in the bounding box or in a
        # cross product: that is an error of its own, not a degenerate face
        with np.errstate(over="ignore", invalid="ignore"):
            bbox = self.vertices.max(axis=0) - self.vertices.min(axis=0)
            diag2 = float(bbox @ bbox)
            areas = face_areas(self)
        if not np.isfinite(diag2):
            raise MeshError("vertex coordinates overflow: the bounding-box "
                            "diagonal is not finite")
        if not np.isfinite(areas).all():
            raise MeshError(f"vertex coordinates overflow: the area of face "
                            f"{int(np.nonzero(~np.isfinite(areas))[0][0])} is not finite")
        eps = 1e-12 * max(diag2, np.finfo(np.float64).tiny)
        small = areas <= eps
        if small.any():
            raise MeshError(f"face {int(np.nonzero(small)[0][0])} is degenerate (area <= eps)")
        # the positions never change, so EdgeTopology reuses these
        areas.setflags(write=False)
        self._face_areas = areas

    def _check_manifold(self):
        f = self.faces
        head, tail = f.ravel(), np.roll(f, -1, axis=1).ravel()
        first, second, crowded = _pair_slots(
            np.minimum(head, tail) * len(self.vertices) + np.maximum(head, tail))
        if crowded >= 0:
            raise MeshError(f"non-manifold edge in face {crowded // 3} (3+ incident faces)")
        # two faces on an edge must run it in opposite directions
        flipped = np.take(head, first) != np.take(tail, second)
        if flipped.any():
            k = int(np.argmax(flipped))
            raise MeshError(f"face {second[k] // 3} is oriented inconsistently with face "
                            f"{first[k] // 3} (both traverse their shared edge in the same "
                            "direction)")
        # the faces around a vertex must form one edge-connected fan. Walk
        # from each corner across its outgoing edge to the next face's corner
        # at the same vertex (a boundary edge ends the walk) by pointer
        # doubling, and name each walk by its last corner, or a closed one
        # by its smallest; a vertex with two names is a pinch
        slots = np.arange(f.size)
        twin = slots.copy()          # the other slot of the edge, or itself
        twin[first] = second
        twin[second] = first
        succ = np.where(twin == slots, slots, _next_slot(twin))
        name, ahead = slots, succ
        for _ in range(int(np.bincount(head).max()).bit_length()):
            name = np.minimum(name, name[ahead])
            ahead = ahead[ahead]
        name = np.where(succ[ahead] == ahead, ahead, name)
        fans = np.bincount(head[name == slots], minlength=len(self.vertices))
        if (fans > 1).any():
            bad = int(np.argmax(fans > 1))
            raise MeshError(f"non-manifold vertex {bad} (its faces form {int(fans[bad])} "
                            "fans that meet only at the vertex)")
        # the connectivity is built on the twin of each slot
        twin.setflags(write=False)
        self._twin = twin

    # -- basics ----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_faces(self):
        return len(self.faces)

    def with_vertices(self, vertices):
        """A new mesh with this one's faces and new positions, one per
        vertex, validated and copied by the constructor like any other."""
        v = _checked_vertices(vertices)
        if len(v) != self.num_vertices:
            raise MeshError(f"expected {self.num_vertices} vertices, got {len(v)}")
        return TriMesh(v, self.faces)

    def __repr__(self):
        return f"TriMesh(vertices={self.num_vertices}, faces={self.num_faces})"


def _pair_slots(keys):
    """The two positions of each key that occurs twice, smaller first, and
    the least position of a key that occurs three or more times (-1 when
    none does), from one sort whose temporaries are freed on return."""
    order = np.argsort(keys)
    ranked = keys[order]
    new = np.empty(len(ranked), dtype=bool)
    new[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=len(ranked))
    crowded = counts > 2
    crowded = int(order[np.repeat(crowded, counts)].min()) if crowded.any() else -1
    # the two positions of a pair sit next to each other in the order, in
    # either order
    shared = starts[counts == 2]
    a, b = np.take(order, shared), np.take(order, shared + 1)
    return np.minimum(a, b), np.maximum(a, b), crowded


def _next_slot(slots, step=1):
    """The slot ``step`` places further round the same face. Face slot
    3t + k is face t's local edge k, from its corner k to corner k + 1
    (mod 3): step 1 gives the edge leaving the corner a slot enters, step 2
    the edge entering the corner it leaves."""
    corner = np.arange(3)
    return slots + np.take((corner + step) % 3 - corner, slots % 3)


def _checked_count(name, value, least=1):
    """The count as an int; ValueError unless an integer (numpy's pass, bools not) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


def _check_unit_rows(name, n):
    """ValueError unless every row of ``n`` is finite and of unit length to 1e-8."""
    if not (np.abs(row_norm(n) - 1.0) <= 1e-8).all():
        raise ValueError(f"{name} rows must be finite and unit length")


def _checked_vertices(vertices):
    v = np.asarray(vertices, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 3:
        raise MeshError(f"vertices must have shape (P, 3), got {v.shape}")
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        raise MeshError(f"vertex {int(np.nonzero(~finite)[0][0])} has a "
                        "non-finite coordinate")
    return v


# -- rows of three -----------------------------------------------------------
#
# Reductions over a short last axis take numpy's generic reduction path, which
# costs several times what the same arithmetic written out per column does.
# These helpers write it out, in the order numpy uses, so their results are
# bit-identical to the numpy forms named in each docstring.

def row_dot(a, b):
    """(a * b).sum(axis=-1), summed column by column in column order.

    numpy's sum starts from +0.0, so a row whose products are all -0.0 sums
    to +0.0; adding 0.0 last does the same and changes no other value.
    """
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    out += 0.0
    return out


def row_norm(x):
    """np.linalg.norm(x, axis=-1) for real x."""
    return np.sqrt(row_dot(x, x))


def cross(a, b):
    """np.cross(a, b) of two same-shape arrays of 3-vectors (last axis), with
    the same products and differences; the result has ``a``'s memory layout,
    so coordinate-major inputs give coordinate-major output."""
    out = np.empty_like(a, dtype=np.result_type(a, b))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        out[..., i] -= a[..., k] * b[..., j]
    return out


def _face_cross(mesh):
    v, f = mesh.vertices, mesh.faces
    p0 = np.take(v, f[:, 0], axis=0)
    return cross(np.take(v, f[:, 1], axis=0) - p0, np.take(v, f[:, 2], axis=0) - p0)


def face_areas(mesh) -> np.ndarray:
    """Triangle areas, shape (T,)."""
    return 0.5 * row_norm(_face_cross(mesh))


def face_barycenters(mesh) -> np.ndarray:
    """Triangle barycenters, shape (T, 3): the sum of the corners over 3, as
    ``mean(axis=1)`` of their (T, 3, 3) gather computes it."""
    v, f = mesh.vertices, mesh.faces
    return (np.take(v, f[:, 0], axis=0) + np.take(v, f[:, 1], axis=0)
            + np.take(v, f[:, 2], axis=0)) / 3.0


def face_normals(mesh) -> np.ndarray:
    """Unit face normals from the counterclockwise vertex order, shape (T, 3)."""
    c = _face_cross(mesh)
    norms = row_norm(c)
    if (norms == 0).any():
        raise MeshError(f"face {int(np.nonzero(norms == 0)[0][0])} has zero area")
    return c / norms[:, None]
