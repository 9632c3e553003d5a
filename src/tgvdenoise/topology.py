"""Edge, line, and curve connectivity for the discrete difference operators.

Three layers are built on top of a validated TriMesh:

* EdgeTopology: the unique undirected edges, their incident faces, and the
  relative orientation sign of each edge against each incident face's
  counterclockwise traversal.
* LineSet: per triangle, the three segments from the barycenter to each
  vertex. Each line knows the edge entering its vertex (counterclockwise)
  and the edge leaving it, plus the triangles across those edges.
* CurveSet: per line, the four-edge stencil that wraps around the line's
  vertex through the two neighboring triangles.

Each layer stores its jump operator once, as a Stencil: the arrays of a
compressed sparse row (CSR) matrix, whose pinned rows are empty, plus the
measures of its output and input elements. The scipy matrix wrapping those
arrays is made on first use. The adjoint is that matrix's transpose
weighted by the element measures, also built on first use, so
``<jump(x), y> = -<x, adjoint(y)>`` holds by construction. Building the
connectivity itself needs numpy only.

Edge orientation is fixed as (min vertex index -> max vertex index) so runs
are reproducible; every quantity derived downstream is invariant to this
choice up to the sign of edge values.
"""

from functools import cached_property

import numpy as np

from .mesh import MeshError, face_areas, face_barycenters

__all__ = [
    "Stencil",
    "EdgeTopology",
    "LineSet",
    "CurveSet",
    "Connectivity",
    "build_edge_topology",
    "build_connectivity",
]


class Stencil:
    """A jump between element fields as the arrays of a CSR matrix:

        out[i] = sum over k in indptr[i]:indptr[i+1] of data[k] * x[indices[k]]

    Built from a layer's rows ``(idx, coef)``, both (rows, width): row i
    reads x[idx[i, k]] with weight coef[i, k], and the slots a row pins to 0
    hold coefficient 0. Only the nonzero slots are kept, row by row and each
    row in slot order, so a product sums in the order the layer lists them.

    data : (nnz,) float64; indices : (nnz,) int32; indptr : (rows + 1,) int32
    m_row / m_col : the measures of the output and input elements, which
        weight the inner products the adjoint is taken in
    num_cols : length of the input field
    matrix : the scipy CSR matrix (rows, num_cols) on these three arrays,
        made on first use
    adjoint : the adjoint as a scipy CSR matrix (num_cols, rows), built on
        first use as the measure-weighted transpose of ``matrix``
    """

    def __init__(self, idx, coef, m_row, m_col):
        keep = coef != 0
        width = keep.shape[1]
        self.data = coef[keep]
        self.indices = idx.astype(np.int32)[keep]
        # the running count of kept slots, read at the end of each row
        self.indptr = np.zeros(len(keep) + 1, dtype=np.int32)
        self.indptr[1:] = np.cumsum(keep, dtype=np.int32)[width - 1::width]
        self.m_row = m_row
        self.m_col = m_col
        self.num_cols = len(m_col)

    @cached_property
    def matrix(self):
        # scipy is imported here, so building a connectivity does not load it
        from scipy.sparse import csr_array

        return csr_array((self.data, self.indices, self.indptr),
                         shape=(len(self.indptr) - 1, self.num_cols))

    @cached_property
    def adjoint(self):
        """-diag(1/m_col) @ matrix.T @ diag(m_row): the adjoint in the
        measure-weighted inner products, with the minus-sign convention, so
        <matrix @ x, y>_row = -<x, adjoint @ y>_col."""
        adj = self.matrix.T.tocsr()
        cols = np.repeat(np.arange(self.num_cols), np.diff(adj.indptr))
        adj.data *= -self.m_row[adj.indices] / self.m_col[cols]
        return adj


class EdgeTopology:
    """Oriented edge list with incidence, signs, and element measures.

    Attributes
    ----------
    edges : (E, 2) int, stored edge orientation (a -> b)
    edge_len : (E,) float
    edge_faces : (E, 2) int, incident faces, -1 in the second slot for
        boundary edges
    edge_face_sign : (E, 2) float, sgn(e, face) per slot (0 where missing)
    is_boundary : (E,) bool
    face_edges : (T, 3) int, edge index of the face's local edge k
        (connecting face vertex k to vertex k+1)
    face_edge_sign : (T, 3) float, sgn(face_edges[t, k], t)
    face_area : (T,) float
    face_bary : (T, 3) float
    jump : Stencil, the edge jump (faces -> edges, boundary rows pinned);
        its adjoint maps edges -> faces
    """

    def __init__(self, mesh, edges, edge_len, edge_faces, edge_face_sign,
                 is_boundary, face_edges, face_edge_sign, face_area, face_bary):
        self.mesh = mesh
        self.edges = edges
        self.edge_len = edge_len
        self.edge_faces = edge_faces
        self.edge_face_sign = edge_face_sign
        self.is_boundary = is_boundary
        self.face_edges = face_edges
        self.face_edge_sign = face_edge_sign
        self.face_area = face_area
        self.face_bary = face_bary
        for name in ("edges", "edge_len", "edge_faces", "edge_face_sign",
                     "is_boundary", "face_edges", "face_edge_sign",
                     "face_area", "face_bary"):
            getattr(self, name).setflags(write=False)
        self.jump = Stencil(np.where(edge_faces >= 0, edge_faces, 0),
                            edge_face_sign * ~is_boundary[:, None],
                            edge_len, face_area)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_faces(self):
        return len(self.face_edges)

    def __repr__(self):
        nb = int(self.is_boundary.sum())
        return f"EdgeTopology(edges={self.num_edges}, faces={self.num_faces}, boundary_edges={nb})"


def build_edge_topology(mesh, _flip_edges=None) -> EdgeTopology:
    """Extract unique edges, orientation signs, boundary flags, and measures.

    ``_flip_edges`` (bool mask over the canonical edge order) reverses the
    stored orientation of selected edges; it exists to test that results do
    not depend on the orientation choice.
    """
    f = mesh.faces
    T = len(f)
    if T == 0:
        raise MeshError("mesh has no faces")

    # directed boundary edges per face: local edge k goes f[t,k] -> f[t,k+1];
    # the undirected edge (a, b), a < b, is keyed by the integer a * V + b,
    # and the mesh has already ranked the keys and checked each count <= 2
    heads = f
    tails = np.roll(f, -1, axis=1)
    V = len(mesh.vertices)
    keys, inverse, counts = mesh._edge_keys
    edges = np.stack(np.divmod(keys, V), axis=1)
    E = len(edges)

    # stored orientation agrees with the face traversal iff head < tail
    sign_slots = np.where(heads.ravel() < tails.ravel(), 1.0, -1.0)
    if _flip_edges is not None:
        flip = np.asarray(_flip_edges, dtype=bool)
        edges = np.where(flip[:, None], edges[:, ::-1], edges)
        sign_slots = sign_slots * np.where(flip[inverse], -1.0, 1.0)

    face_edges = inverse.reshape(T, 3)
    face_edge_sign = sign_slots.reshape(T, 3)

    # incident faces per edge, in face-index order (deterministic)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(E))
    pos = np.arange(len(order)) - starts[inverse[order]]
    edge_faces = np.full((E, 2), -1, dtype=np.int64)
    edge_face_sign = np.zeros((E, 2))
    edge_faces[inverse[order], pos] = order // 3
    edge_face_sign[inverse[order], pos] = sign_slots[order]

    is_boundary = counts == 1
    edge_vec = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    return EdgeTopology(
        mesh=mesh,
        edges=edges,
        edge_len=np.linalg.norm(edge_vec, axis=1),
        edge_faces=edge_faces,
        edge_face_sign=edge_face_sign,
        is_boundary=is_boundary,
        face_edges=face_edges,
        face_edge_sign=face_edge_sign,
        face_area=face_areas(mesh),
        face_bary=face_barycenters(mesh),
    )


class LineSet:
    """Barycenter-to-vertex lines, three per triangle (line 3*t + j sits in
    triangle t at its j-th vertex).

    Attributes
    ----------
    line_face : (3T,) int, owning triangle
    line_vertex : (3T,) int, the vertex the line runs to
    line_len : (3T,) float, barycenter-to-vertex distance
    edge_in / edge_out : (3T,) int, the face edges entering / leaving the
        line's vertex in counterclockwise order
    face_across_in / face_across_out : (3T,) int, triangle on the other side
        of edge_in / edge_out (-1 at the boundary)
    active : (3T,) bool, False when either edge lies on the boundary (the
        jump over such a line is pinned to 0)
    jump : Stencil, the line jump (edges -> lines: the two edge values
        signed against the owning face)
    """

    def __init__(self, topo):
        f = topo.mesh.faces
        T = len(f)
        j = np.tile(np.arange(3), T)
        t = np.repeat(np.arange(T), 3)

        self.topo = topo
        self.line_face = t
        self.line_vertex = f[t, j]
        self.line_len = np.linalg.norm(
            topo.face_bary[t] - topo.mesh.vertices[self.line_vertex], axis=1)
        # local edge k runs from face vertex k to k+1: edge j leaves vertex j,
        # edge (j+2)%3 enters it
        local_io = np.stack([(j + 2) % 3, j], axis=1)
        edge_io = topo.face_edges[t[:, None], local_io]
        self.edge_in, self.edge_out = edge_io.T
        self.face_across_in = _other_face(topo, self.edge_in, t)
        self.face_across_out = _other_face(topo, self.edge_out, t)
        self.active = ~(topo.is_boundary[self.edge_in] | topo.is_boundary[self.edge_out])

        for name in ("line_face", "line_vertex", "line_len", "edge_in", "edge_out",
                     "face_across_in", "face_across_out", "active"):
            getattr(self, name).setflags(write=False)
        signs = topo.face_edge_sign[t[:, None], local_io]
        signs *= self.active[:, None]
        self.jump = Stencil(edge_io, signs, self.line_len, topo.edge_len)

    @property
    def num_lines(self):
        return len(self.line_face)

    def __repr__(self):
        return f"LineSet(lines={self.num_lines}, active={int(self.active.sum())})"


def _other_face(topo, edge_idx, this_face):
    f0 = topo.edge_faces[edge_idx, 0]
    f1 = topo.edge_faces[edge_idx, 1]
    return np.where(f0 == this_face, f1, f0)


class CurveSet:
    """Four-edge curves around each line's vertex, three per triangle.

    Curve c = 3*t + j wraps around the vertex of line l = c: it crosses, in
    order, the far edge of the triangle behind l's outgoing edge, the two
    edges of triangle t itself, and the far edge of the triangle behind the
    incoming edge. A curve is valid only when all four edges are interior;
    the jump over an invalid curve is pinned to 0 (Neumann convention).

    Attributes
    ----------
    valid : (3T,) bool
    curve_len : (3T,) float, quarter-weighted mean of the three line lengths
        the curve spans
    edges : (3T, 4) int, stencil edges [far-out, out, in, far-in]; a
        missing far edge reads 0 (and its curve is invalid)
    jump : Stencil, the curve jump (edges -> curves: the four stencil
        values, each signed against the neighbor triangle it is read in;
        invalid rows pinned)
    """

    def __init__(self, lines):
        topo = lines.topo
        # the helper's temporaries are freed before the CSR arrays are made
        edges, signs, valid, curve_len = _curve_rows(lines)
        self.topo = topo
        self.lines = lines
        self.valid = valid
        self.curve_len = curve_len
        self.edges = edges

        for name in ("valid", "curve_len", "edges"):
            getattr(self, name).setflags(write=False)
        self.jump = Stencil(edges, signs, curve_len, topo.edge_len)

    @property
    def num_curves(self):
        return len(self.valid)

    def __repr__(self):
        return f"CurveSet(curves={self.num_curves}, valid={int(self.valid.sum())})"


def _curve_rows(lines):
    """Per curve: the four stencil edges, their signs (zero on invalid
    curves), validity and length."""
    topo = lines.topo
    p = lines.line_vertex
    tau_in = lines.face_across_in     # triangle across the incoming edge
    tau_out = lines.face_across_out   # triangle across the outgoing edge

    has_in = tau_in >= 0
    has_out = tau_out >= 0
    safe_in = np.where(has_in, tau_in, 0)
    safe_out = np.where(has_out, tau_out, 0)

    # the other edge of each neighbor triangle incident to the vertex p
    far_in, far_in_sign, line_in = _other_edge_at_vertex(
        topo, safe_in, p, lines.edge_in)
    far_out, far_out_sign, line_out = _other_edge_at_vertex(
        topo, safe_out, p, lines.edge_out)

    # sgn of the shared edges evaluated in the neighbor triangles
    sign_in_nbr = _sign_in_face(topo, lines.edge_in, safe_in)
    sign_out_nbr = _sign_in_face(topo, lines.edge_out, safe_out)

    edges = np.stack([far_out, lines.edge_out, lines.edge_in, far_in], axis=1)
    signs = np.stack([far_out_sign, sign_out_nbr, sign_in_nbr, far_in_sign], axis=1)
    edges[~has_out, 0] = 0
    edges[~has_in, 3] = 0
    valid = has_in & has_out & ~topo.is_boundary[edges].any(axis=1)
    signs *= valid[:, None]

    # len(c) = (len(l_out_nbr) + 2 len(l) + len(l_in_nbr)) / 4 with missing
    # neighbor lines standing in as len(l); inert, since invalid curves
    # only ever carry zero values
    l_len = lines.line_len
    len_in = np.where(has_in, l_len[np.where(has_in, line_in, 0)], l_len)
    len_out = np.where(has_out, l_len[np.where(has_out, line_out, 0)], l_len)
    curve_len = 0.25 * (len_out + 2.0 * l_len + len_in)
    return edges, signs, valid, curve_len


def _other_edge_at_vertex(topo, face, vertex, not_this_edge):
    """In ``face``, the edge incident to ``vertex`` that is not ``not_this_edge``.

    Returns (edge index, sgn(edge, face), line index of ``face`` at ``vertex``).
    """
    f = topo.mesh.faces
    jp = np.argmax(f[face] == vertex[:, None], axis=1)
    cand_a = topo.face_edges[face, jp]              # edge leaving the vertex
    cand_b = topo.face_edges[face, (jp + 2) % 3]    # edge entering the vertex
    use_b = cand_a == not_this_edge
    edge = np.where(use_b, cand_b, cand_a)
    sign = np.where(use_b,
                    topo.face_edge_sign[face, (jp + 2) % 3],
                    topo.face_edge_sign[face, jp])
    return edge, sign, 3 * face + jp


def _sign_in_face(topo, edge_idx, face):
    s0 = topo.edge_face_sign[edge_idx, 0]
    s1 = topo.edge_face_sign[edge_idx, 1]
    return np.where(topo.edge_faces[edge_idx, 0] == face, s0, s1)


class Connectivity:
    """Bundle of (topo, lines, curves) for one mesh."""

    def __init__(self, topo, lines, curves):
        self.topo = topo
        self.lines = lines
        self.curves = curves

    @property
    def mesh(self):
        return self.topo.mesh


def build_connectivity(mesh) -> Connectivity:
    """Build the full edge/line/curve connectivity in one call."""
    topo = build_edge_topology(mesh)
    lines = LineSet(topo)
    curves = CurveSet(lines)
    return Connectivity(topo, lines, curves)
