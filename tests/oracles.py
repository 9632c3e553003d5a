"""Independent numerical oracles shared by the test modules."""

import numpy as np

from tgvdenoise import MeshError, TriMesh
from tgvdenoise.mesh import row_dot

_INDEX_MAX = np.iinfo(np.int64).max


def golden_section_shrink(w, y, znorm, iters=200):
    """Minimize f(t) = w*t + y/2*(t - znorm)^2 over t >= 0 by golden-section
    search. Objective comparisons use the exact factored difference
    f(a) - f(b) = (a - b) * (w + y/2 * (a + b - 2*znorm)) so the search is
    not limited by cancellation near the flat minimum."""
    lo, hi = 0.0, znorm + 2.0 * w / y + 1.0
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - phi * (hi - lo), lo + phi * (hi - lo)
    for _ in range(iters):
        f_a_minus_f_b = (a - b) * (w + 0.5 * y * (a + b - 2.0 * znorm))
        if f_a_minus_f_b < 0:
            hi = b
        else:
            lo = a
        a, b = hi - phi * (hi - lo), lo + phi * (hi - lo)
    return 0.5 * (lo + hi)


def closest_point_on_triangle(point, tri):
    """Distance from a point to one triangle by quadratic minimization:
    check the unconstrained optimum, the three clamped edges, and the three
    vertices, and take the best."""
    a, b, c = tri
    e0, e1 = b - a, c - a
    candidates = [a, b, c]
    g = np.array([[e0 @ e0, e0 @ e1], [e0 @ e1, e1 @ e1]])
    rhs = np.array([e0 @ (point - a), e1 @ (point - a)])
    st = np.linalg.solve(g, rhs)
    if st[0] >= 0 and st[1] >= 0 and st.sum() <= 1:
        candidates.append(a + st[0] * e0 + st[1] * e1)
    for p0, d in ((a, e0), (a, e1), (b, c - b)):
        t = np.clip(d @ (point - p0) / (d @ d), 0.0, 1.0)
        candidates.append(p0 + t * d)
    return min(np.linalg.norm(point - q) for q in candidates)


class _DirectedEdges:
    """A mesh's faces as a dictionary from each directed edge (a, b) to the
    face that runs it, with the undirected edges numbered in order of their
    first occurrence, face by face and each face's edges from its corner k
    to corner k + 1, and directed as they first occur. Built from
    ``mesh.faces`` alone, by loops."""

    def __init__(self, mesh):
        self.faces = mesh.faces.tolist()
        self.owner = {}
        self.index = {}
        self.ends = []
        for t, f in enumerate(self.faces):
            for e in zip(f, f[1:] + f[:1]):
                self.owner[e] = t
                if frozenset(e) not in self.index:
                    self.index[frozenset(e)] = len(self.ends)
                    self.ends.append(e)

    def edge(self, a, b):
        return self.index[frozenset((a, b))]

    def across(self, a, b):
        """The face across the directed edge (a, b), -1 on the boundary."""
        return self.owner.get((b, a), -1)

    def sign(self, a, b, t):
        """sgn(edge {a, b}, face t): +1 when t runs the edge in the direction
        of its first occurrence."""
        if self.owner.get((a, b)) != t:
            a, b = b, a
        assert self.owner[a, b] == t
        return 1.0 if self.ends[self.edge(a, b)] == (a, b) else -1.0

    def corners(self):
        """Per line and curve 3t + j, in order: (t, p, out, into), with p
        face t's corner j, out the directed edge leaving p and into the one
        entering it."""
        for t, f in enumerate(self.faces):
            for j in range(3):
                p = f[j]
                yield t, p, (p, f[(j + 1) % 3]), (f[j - 1], p)

    def far_edge(self, t, p, shared):
        """The edge of face t, as t runs it, that meets p and is not the
        edge ``shared``."""
        f = self.faces[t]
        (e,) = [e for e in zip(f, f[1:] + f[:1]) if p in e and set(e) != set(shared)]
        return e


def edge_ends(mesh):
    """(E, 2): each edge's two vertices, in the direction of its first
    occurrence."""
    return np.array(_DirectedEdges(mesh).ends).reshape(-1, 2)


def dense_edge_jump(mesh):
    """(E, T): each interior edge reads its two incident faces, signed by
    sgn(edge, face); boundary rows are zero."""
    g = _DirectedEdges(mesh)
    J = np.zeros((len(g.index), len(g.faces)))
    for (a, b), t in g.owner.items():
        if g.across(a, b) >= 0:
            J[g.edge(a, b), t] += g.sign(a, b, t)
    return J


def line_faces(mesh):
    """(3T, 3): per line, its own face and the faces across its entering and
    leaving edges, -1 where one is missing."""
    g = _DirectedEdges(mesh)
    return np.array([(t, g.across(*into), g.across(*out))
                     for t, _, out, into in g.corners()])


def line_edges(mesh):
    """(3T, 2): per line, the edges entering and leaving its vertex."""
    g = _DirectedEdges(mesh)
    return np.array([(g.edge(*into), g.edge(*out)) for _, _, out, into in g.corners()])


def dense_line_jump(mesh):
    """(3T, E): each line with both edges interior reads its entering and
    leaving edges, each signed against the line's own triangle; other rows
    are zero."""
    g = _DirectedEdges(mesh)
    J = np.zeros((3 * len(g.faces), len(g.index)))
    for l, (t, _, out, into) in enumerate(g.corners()):
        if g.across(*out) >= 0 and g.across(*into) >= 0:
            for e in (into, out):
                J[l, g.edge(*e)] += g.sign(*e, t)
    return J


def _curves(mesh):
    """The directed-edge table, and per curve: its stencil edges [far-out,
    out, in, far-in] as vertex pairs (a missing far edge is None), the
    triangles across the line's outgoing and incoming edges (-1 where
    missing) that the two pairs are read in, and whether all four edges are
    interior. A far edge is the edge of such a triangle that meets the
    line's vertex and is not the edge it shares with the line's triangle."""
    g = _DirectedEdges(mesh)
    rows = []
    for t, p, out, into in g.corners():
        nbr_out, nbr_in = g.across(*out), g.across(*into)
        far_out = g.far_edge(nbr_out, p, out) if nbr_out >= 0 else None
        far_in = g.far_edge(nbr_in, p, into) if nbr_in >= 0 else None
        valid = far_out is not None and far_in is not None \
            and g.across(*far_out) >= 0 and g.across(*far_in) >= 0
        rows.append(([far_out, out, into, far_in], (nbr_out, nbr_in), valid))
    return g, rows


def curve_edges(mesh):
    """(3T, 4): per curve, its stencil edges [far-out, out, in, far-in]; a
    missing far edge reads 0."""
    g, rows = _curves(mesh)
    return np.array([[0 if e is None else g.edge(*e) for e in stencil]
                     for stencil, _, _ in rows])


def dense_curve_jump(mesh):
    """(3T, E): each curve whose four edges are interior reads them, the two
    on the outgoing side signed in the triangle across the line's outgoing
    edge and the two on the incoming side in the triangle across its
    incoming edge; other rows are zero."""
    g, rows = _curves(mesh)
    J = np.zeros((len(rows), len(g.index)))
    for c, (stencil, (nbr_out, nbr_in), valid) in enumerate(rows):
        if valid:
            for e, nbr in zip(stencil, (nbr_out, nbr_out, nbr_in, nbr_in)):
                J[c, g.edge(*e)] += g.sign(*e, nbr)
    return J


def far_triangles(mesh):
    """(3T, 2): per curve whose four edges are interior, the triangles
    across its far-out and far-in edges, i.e. the incident face of each far
    edge that is not the neighbour triangle it is read in; -1 on other
    curves."""
    g, rows = _curves(mesh)
    return np.array([(g.across(*stencil[0]), g.across(*stencil[3])) if valid else (-1, -1)
                     for stencil, _, valid in rows])


def update_vertices_reference(mesh, target_normals, iters=30):
    """The vertex update as one (T, 3, 3) gather and row reductions per
    sweep: the form the coordinate-major reconstruct.update_vertices must
    match bit for bit."""
    n_t = np.asarray(target_normals, dtype=np.float64)
    faces = mesh.faces
    x = mesh.vertices.copy()
    corner_vertex = faces.T.ravel()
    ring_size = np.bincount(corner_vertex, minlength=len(x)).astype(np.float64)
    scale = np.divide(1.0, ring_size, out=np.zeros_like(ring_size),
                      where=ring_size > 0)
    for _ in range(iters):
        p = x[faces]
        centroids = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        norms = np.linalg.norm(cross, axis=1)
        current = np.divide(cross, norms[:, None], out=np.zeros_like(cross),
                            where=norms[:, None] > 0)
        keep = (current * n_t).sum(axis=1) >= 0.0
        offset = ((centroids - x[faces.T]) * n_t).sum(axis=2)    # (3, T)
        terms = (n_t * (offset * keep)[:, :, None]).reshape(-1, 3)
        disp = np.stack([np.bincount(corner_vertex, weights=terms[:, j], minlength=len(x))
                         for j in range(3)], axis=1)
        x = x + disp * scale[:, None]
    return x


def system_matrix_reference(diagonal, r, jumps):
    """diagonal*I + sum of r * (B^T @ B) over the jumps' balanced forms,
    each product through scipy's CSC transpose and scaled into a copy: the
    form solver._system_matrix must match bit for bit."""
    from scipy.sparse import csr_array

    n = jumps[0].num_cols
    matrix = csr_array((np.full(n, diagonal), np.arange(n), np.arange(n + 1)),
                       shape=(n, n))
    for jump in jumps:
        b = jump.balanced()
        matrix = matrix + r * (b.T @ b)
    return matrix


def adjoint_reference(stencil):
    """-diag(1/m_col) @ matrix.T @ diag(m_row) with the scale gathered by
    fancy indexing through a column index per entry: the form
    Stencil.adjoint must match bit for bit."""
    adj = stencil.matrix.T.tocsr()
    cols = np.repeat(np.arange(stencil.num_cols), np.diff(adj.indptr))
    adj.data *= -stencil.m_row[adj.indices] / stencil.m_col[cols]
    return adj


def format_mesh_reference(mesh, fmt):
    """The OBJ / OFF text as written field by field from numpy scalars, the
    form the record-at-a-time writer in fileio must reproduce byte for byte."""
    coord = "%.17g"
    out = [] if fmt == "obj" else ["OFF", f"{mesh.num_vertices} {mesh.num_faces} 0"]
    prefix = "v " if fmt == "obj" else ""
    for x, y, z in mesh.vertices:
        out.append(f"{prefix}{coord % x} {coord % y} {coord % z}")
    for i, j, k in mesh.faces:
        out.append(f"f {i + 1} {j + 1} {k + 1}" if fmt == "obj" else f"3 {i} {j} {k}")
    return "\n".join(out) + "\n"


def load_mesh_reference(path):
    """The OBJ / OFF reader (by the path's extension) as a loop over one
    record at a time: the grammar and the error messages, line numbers
    included, that fileio's block-wise reader must reproduce."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    parse = _parse_obj_reference if str(path).endswith(".obj") else _parse_off_reference
    return TriMesh(*parse(text))


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_obj_reference(text):
    vertices, faces = [], []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        kind = tokens[0]
        if kind == "v":
            if len(tokens) != 4:
                raise MeshError(f"line {lineno}: vertex record needs 3 coordinates")
            try:
                vertices.append([float(t) for t in tokens[1:]])
            except ValueError:
                raise MeshError(f"line {lineno}: bad vertex coordinate") from None
        elif kind == "f":
            if len(tokens) != 4:
                raise MeshError(f"line {lineno}: only triangle faces are supported")
            idx = []
            for t in tokens[1:]:
                if "/" in t:
                    raise MeshError(f"line {lineno}: face tokens with '/' are not supported")
                try:
                    i = int(t)
                except ValueError:
                    raise MeshError(f"line {lineno}: bad face index {t!r}") from None
                if i <= 0:
                    raise MeshError(f"line {lineno}: face indices must be positive (1-based)")
                if i > _INDEX_MAX:
                    raise MeshError(f"line {lineno}: face index {t!r} is out of range")
                idx.append(i - 1)
            faces.append(idx)
        else:
            raise MeshError(f"line {lineno}: unsupported OBJ record {kind!r}")
    return (np.array(vertices, dtype=np.float64).reshape(-1, 3),
            np.array(faces, dtype=np.int64).reshape(-1, 3))


def _parse_off_reference(text):
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != "OFF":
        raise MeshError("missing OFF header")
    if len(lines) < 2:
        raise MeshError("missing OFF counts line")
    lineno, counts = lines[1]
    parts = counts.split()
    if len(parts) != 3:
        raise MeshError(f"line {lineno}: counts line must be 'V F E'")
    try:
        nv, nf, _ = (int(p) for p in parts)
    except ValueError:
        raise MeshError(f"line {lineno}: bad OFF counts") from None
    if nv < 0 or nf < 0:
        raise MeshError(f"line {lineno}: OFF counts must not be negative")
    body = lines[2:]
    if len(body) != nv + nf:
        raise MeshError(f"OFF body has {len(body)} records, expected {nv + nf}")

    vertices = []
    for lineno, line in body[:nv]:
        tokens = line.split()
        if len(tokens) != 3:
            raise MeshError(f"line {lineno}: vertex record needs 3 coordinates")
        try:
            vertices.append([float(t) for t in tokens])
        except ValueError:
            raise MeshError(f"line {lineno}: bad vertex coordinate") from None

    faces = []
    for lineno, line in body[nv:]:
        tokens = line.split()
        if not tokens or tokens[0] != "3" or len(tokens) != 4:
            raise MeshError(f"line {lineno}: only triangle faces are supported")
        try:
            idx = [int(t) for t in tokens[1:]]
        except ValueError:
            raise MeshError(f"line {lineno}: bad face index") from None
        if max(abs(i) for i in idx) > _INDEX_MAX:
            raise MeshError(f"line {lineno}: face index out of range")
        faces.append(idx)
    return (np.array(vertices, dtype=np.float64).reshape(-1, 3),
            np.array(faces, dtype=np.int64).reshape(-1, 3))


def projection_residual(mesh, target_normals) -> float:
    """Sum over faces and their corners of (n . (centroid - corner))^2;
    zero exactly when every corner lies in its face's target plane."""
    n_t = np.asarray(target_normals, dtype=np.float64)
    corners = [np.take(mesh.vertices, mesh.faces[:, k], axis=0) for k in range(3)]
    centroids = (corners[0] + corners[1] + corners[2]) / 3.0
    return float(sum((row_dot(centroids - p, n_t) ** 2).sum() for p in corners))
