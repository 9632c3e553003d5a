"""Independent numerical oracles shared by the test modules."""

import numpy as np


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


def _sign_in_face(topo, e, t):
    """sgn(e, t), read from the edge's incident-face slots."""
    (slot,) = [k for k in range(2) if topo.edge_faces[e, k] == t]
    return topo.edge_face_sign[e, slot]


def dense_edge_jump(topo):
    """(E, T): each interior edge reads its two incident faces, signed by
    sgn(edge, face); boundary rows are zero."""
    J = np.zeros((topo.num_edges, topo.num_faces))
    for e in range(topo.num_edges):
        if not topo.is_boundary[e]:
            for k in range(2):
                J[e, topo.edge_faces[e, k]] += topo.edge_face_sign[e, k]
    return J


def dense_line_jump(lines):
    """(3T, E): each active line reads its entering and leaving edges, each
    signed against the line's own triangle; other rows are zero."""
    topo = lines.topo
    J = np.zeros((lines.num_lines, topo.num_edges))
    for l in range(lines.num_lines):
        if lines.active[l]:
            for e in (lines.edge_in[l], lines.edge_out[l]):
                J[l, e] += _sign_in_face(topo, e, lines.line_face[l])
    return J


def dense_curve_jump(curves):
    """(3T, E): each valid curve reads its four stencil edges, the two on
    the outgoing side signed in the triangle across the line's outgoing edge
    and the two on the incoming side in the triangle across its incoming
    edge; other rows are zero."""
    topo, lines = curves.topo, curves.lines
    J = np.zeros((curves.num_curves, topo.num_edges))
    for c in range(curves.num_curves):
        if curves.valid[c]:
            far_out, out, into, far_in = curves.edges[c]
            for e, nbr in ((far_out, lines.face_across_out[c]),
                           (out, lines.face_across_out[c]),
                           (into, lines.face_across_in[c]),
                           (far_in, lines.face_across_in[c])):
                J[c, e] += _sign_in_face(topo, e, nbr)
    return J


def far_triangles(curves):
    """(3T, 2): per valid curve, the triangles across its far-out and far-in
    edges, i.e. the incident face of each far edge that is not the neighbour
    triangle it is read in; -1 on invalid curves."""
    topo, lines = curves.topo, curves.lines
    far = np.full((curves.num_curves, 2), -1)
    for c in range(curves.num_curves):
        if curves.valid[c]:
            for k, e, nbr in ((0, curves.edges[c, 0], lines.face_across_out[c]),
                              (1, curves.edges[c, 3], lines.face_across_in[c])):
                (far[c, k],) = [t for t in topo.edge_faces[e] if t != nbr]
    return far
