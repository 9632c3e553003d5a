"""Edge, line, and curve connectivity for the discrete difference operators.

Three layers are built on top of a validated TriMesh:

* EdgeTopology: the unique undirected edges, their lengths and boundary
  flags, and each face's three edges.
* LineSet: per triangle, the three segments from the barycenter to each
  vertex, their lengths, and whether both edges at the vertex are interior.
* CurveSet: per line, the four-edge stencil that wraps around the line's
  vertex through the two neighboring triangles.

Each layer stores its jump once, as a Stencil, the one owner of what derives
from it. Given the face slots each row reads through, the rows to keep and the
measures of its output and input elements, it signs each slot off the twin
table and keeps the jump as the arrays of a compressed sparse row (CSR) matrix
whose rows all have the layer's width. The scipy matrix on those arrays, the
adjoint (that matrix's transpose weighted by the measures, so
``<jump(x), y> = -<x, adjoint(y)>`` holds by construction) and the jump
balanced by its measures, which the solver's systems are assembled from, are
made on use. Building the connectivity itself needs numpy only. Which faces an
edge, line or curve reads is held in its jump's rows and nowhere else.

All three layers are indexed by the mesh's face slots: slot 3t + k is face
t's local edge k, from its corner k to corner k + 1 (mod 3), and line 3t + k
and curve 3t + k sit at that corner. Mesh validation pairs each slot with
its twin, the slot of the neighbouring face that runs the same edge the
other way, or the slot itself on the boundary. As the faces are
consistently oriented, every neighbour a stencil reads is a fixed step from
a slot: its twin, or the next or previous slot of the same face.

Edges are read off the same table: edge e is the e-th lead slot, a slot not
above its twin, and runs as that slot does, so sgn(e, t) is +1 in the lead
slot's face and -1 in its twin's, as each Stencil reads it off the twin
table. The jumps need only some fixed direction per edge; every quantity
derived downstream is invariant to it up to the sign of edge values.
"""

from functools import cached_property

import numpy as np

from .mesh import MeshError, _next_slot, face_barycenters, row_norm

__all__ = [
    "Stencil",
    "EdgeTopology",
    "LineSet",
    "CurveSet",
    "Connectivity",
    "build_connectivity",
]


def _slot_tables(twin):
    """Each slot, the slot before it in its face (the edge entering its corner)
    and whether its edge is interior: a slot that is its own twin is not."""
    slot = np.arange(len(twin))
    return slot, _next_slot(slot, 2), twin != slot


class Stencil:
    """One jump between element fields, and all that is derived from it.

    Place k of row i reads the input element ``cols[k][i]`` through the
    face slot ``slots[k][i]``: ``slots`` holds one (rows,) array per place,
    and ``cols`` as many, read once and in step with ``slots``. Each entry
    is signed +1 where its slot leads its edge (is not above its ``twin``),
    else -1; a row outside ``keep`` holds explicit zeros. The jump is kept
    as the arrays of a CSR matrix,

        out[i] = sum over k in indptr[i]:indptr[i+1] of data[k] * x[indices[k]]

    A row's sum starts at +0, which adding a signed zero leaves unchanged,
    and scipy drops exact zeros when it assembles a system, so the explicit
    zeros change no result.

    data, indices (int32) : (rows * width,); indptr : (rows + 1,) int32
    m_row / m_col : the measures of the output and input elements, which
        weight the inner products the adjoint is taken in
    num_cols : length of the input field
    matrix : the scipy CSR matrix (rows, num_cols) on these three arrays,
        made on first use
    adjoint : the adjoint as a scipy CSR matrix (num_cols, rows), built on
        first use as the measure-weighted transpose of ``matrix``
    balanced() : the jump balanced by its measures, made anew on each call
    """

    def __init__(self, twin, slots, keep, cols, m_row, m_col):
        # each place is written in its column of the row-major arrays, so no
        # (rows, width) table of slots is made
        rows, width = len(keep), len(slots)
        data = np.empty((rows, width))
        indices = np.empty((rows, width), dtype=np.int32)
        for k, (slot, col) in enumerate(zip(slots, cols)):
            np.multiply(np.where(np.take(twin, slot) >= slot, 1.0, -1.0), keep,
                        out=data[:, k])
            indices[:, k] = col
        self.data, self.indices = data.ravel(), indices.ravel()
        self.indptr = np.arange(0, rows * width + 1, width, dtype=np.int32)
        self.m_row, self.m_col, self.num_cols = m_row, m_col, len(m_col)

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

    def balanced(self):
        """diag(sqrt(m_row)) @ matrix @ diag(1/sqrt(m_col)), the jump balanced
        by its measures, as a new CSR matrix on the same index arrays; not
        cached, so it is held only while a system is assembled."""
        from scipy.sparse import csr_array

        data = self.data * np.sqrt(self.m_row).repeat(np.diff(self.indptr)) \
            / np.sqrt(self.m_col)[self.indices]
        return csr_array((data, self.indices, self.indptr), shape=self.matrix.shape)


class EdgeTopology:
    """Edge lengths and boundary flags, each face's edges, face areas, and
    the edge jump.

    Attributes
    ----------
    edge_len : (E,) float
    is_boundary : (E,) bool
    face_edges : (T, 3) int, edge index of the face's local edge k
        (connecting face vertex k to vertex k+1), signed in face t by the
        orientation of slot 3t + k, as in ``Stencil``
    face_area : (T,) float
    jump : Stencil, the edge jump (faces -> edges: each edge's lead face,
        signed +1, then its twin's, signed -1; a boundary row reads its one
        face twice, pinned to zeros); its adjoint maps edges -> faces
    """

    def __init__(self, mesh):
        f = mesh.faces
        if len(f) == 0:
            raise MeshError("mesh has no faces")

        # an edge runs from its lead slot's corner to the next corner, where
        # its twin, if any, starts; both its slots name it
        twin = mesh._twin
        lead = np.flatnonzero(twin >= np.arange(len(twin)))
        mate = np.take(twin, lead)
        self.is_boundary = lead == mate
        corner = f.ravel()
        # freed once read: at 20k faces fresh pages cost more than the sums
        diff = np.take(mesh.vertices, np.take(corner, _next_slot(lead)), axis=0)
        diff -= np.take(mesh.vertices, np.take(corner, lead), axis=0)
        self.edge_len = row_norm(diff)
        del diff
        face_edges = np.empty_like(twin)
        face_edges[lead] = np.arange(len(lead))
        face_edges[mate] = face_edges[lead]
        self.mesh = mesh
        self.face_edges = face_edges.reshape(f.shape)
        self.face_area = mesh._face_areas
        for name in ("edge_len", "is_boundary", "face_edges", "face_area"):
            getattr(self, name).setflags(write=False)
        self.jump = Stencil(twin, (lead, mate), ~self.is_boundary, (lead // 3, mate // 3),
                            self.edge_len, self.face_area)

    @property
    def num_edges(self):
        return len(self.edge_len)

    @property
    def num_faces(self):
        return len(self.face_edges)

    def __repr__(self):
        nb = int(self.is_boundary.sum())
        return f"EdgeTopology(edges={self.num_edges}, faces={self.num_faces}, boundary_edges={nb})"


class LineSet:
    """Barycenter-to-vertex lines, three per triangle (line 3*t + j sits in
    triangle t at its j-th vertex, between the edge entering that vertex
    and the edge leaving it in counterclockwise order).

    Attributes
    ----------
    line_len : (3T,) float, barycenter-to-vertex distance
    active : (3T,) bool, False when either edge lies on the boundary (the
        jump over such a line is pinned to 0)
    jump : Stencil, the line jump (edges -> lines: the entering and the
        leaving edge's values, signed against the owning face)
    """

    def __init__(self, topo):
        mesh = topo.mesh
        twin = mesh._twin
        # line 3t + j is slot 3t + j, the edge leaving face t's vertex j
        out, into, interior = _slot_tables(twin)

        self.topo = topo
        self.line_len = row_norm(np.repeat(face_barycenters(mesh), 3, axis=0)
                                 - np.take(mesh.vertices, mesh.faces.ravel(), axis=0))
        self.active = interior & np.take(interior, into)
        for name in ("line_len", "active"):
            getattr(self, name).setflags(write=False)
        # the edge of slot s is face_edges.ravel()[s], and out is every slot
        edges = topo.face_edges.ravel()
        self.jump = Stencil(twin, (into, out), self.active, (np.take(edges, into), edges),
                            self.line_len, topo.edge_len)

    @property
    def num_lines(self):
        return len(self.line_len)

    def __repr__(self):
        return f"LineSet(lines={self.num_lines}, active={int(self.active.sum())})"


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
    jump : Stencil, the curve jump (edges -> curves: the four stencil
        values [far-out, out, in, far-in], each signed against the neighbor
        triangle it is read in; invalid rows pinned)
    """

    def __init__(self, lines):
        topo = lines.topo
        twin = topo.mesh._twin
        _, into, interior = _slot_tables(twin)
        # the triangles across curve c's outgoing slot c and incoming slot
        # prev(c) hold their twins. twin(c) enters the vertex, so the far edge
        # is the slot after it; twin(prev(c)) leaves the vertex, so the far
        # edge is the slot before it. The slots leaving the vertex,
        # next(twin(c)) and twin(prev(c)), are those triangles' lines there
        twin_in = np.take(twin, into)
        far_out, far_in = _next_slot(twin), _next_slot(twin_in, 2)
        # the twin of twin(c) is c and that of twin_in is prev(c), so the two
        # middle edges are interior exactly where line c is active
        valid = lines.active & np.take(interior, far_out)
        valid &= np.take(interior, far_in)

        # len(c) = (len(l_out_nbr) + 2 len(l) + len(l_in_nbr)) / 4 with missing
        # neighbor lines, behind a slot that is its own twin, standing in as
        # len(l); inert, since invalid curves only ever carry zero values
        l_len = lines.line_len
        curve_len = np.where(interior, np.take(l_len, far_out), l_len)
        curve_len += 2.0 * l_len
        curve_len += np.where(np.take(interior, into), np.take(l_len, twin_in), l_len)
        curve_len *= 0.25

        self.topo, self.valid, self.curve_len = topo, valid, curve_len
        for name in ("valid", "curve_len"):
            getattr(self, name).setflags(write=False)
        # the per-slot tables are freed before the CSR arrays are made, and
        # each place's edges are read only as its column is written
        del into, interior
        slots = (far_out, twin, twin_in, far_in)
        edges = topo.face_edges.ravel()
        self.jump = Stencil(twin, slots, valid, (np.take(edges, s) for s in slots),
                            curve_len, topo.edge_len)

    @property
    def num_curves(self):
        return len(self.valid)

    def __repr__(self):
        return f"CurveSet(curves={self.num_curves}, valid={int(self.valid.sum())})"


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
    topo = EdgeTopology(mesh)
    lines = LineSet(topo)
    curves = CurveSet(lines)
    return Connectivity(topo, lines, curves)
