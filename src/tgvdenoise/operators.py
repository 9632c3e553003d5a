"""Inner products, difference operators and their adjoints, and semi-norms.

Fields are plain float arrays: shape (T,) / (T, C) over faces, (E,) / (E, C)
over edges, and (3T,) / (3T, C) over lines and curves. Multi-channel values
are coupled through the Euclidean norm across channels wherever a semi-norm
takes a per-element magnitude.

Every operator here is linear, local, and deterministic (fixed summation
order). Each jump is one sparse matrix stored on its topology layer (a
``topology.Stencil``); each adjoint is that matrix's measure-weighted
sparse transpose, built on first use. The six operator functions are one
sparse product each. The three forward/adjoint pairs satisfy, for all
fields,

    <jump(x), y>  =  -<x, jump_adjoint(y)>

in the corresponding weighted inner products; the minus sign is part of the
convention and the solver's update rules rely on it.
"""

import numpy as np

__all__ = [
    "inner_faces", "inner_edges", "norm_edges",
    "inner_lines", "norm_lines", "inner_curves", "norm_curves",
    "edge_jump", "edge_jump_adjoint",
    "line_jump", "line_jump_adjoint",
    "curve_jump", "curve_jump_adjoint",
    "tv_seminorm", "ho_seminorm", "tgv_energy",
]


def _as2d(x, n, what):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"{what} field must have {n} rows, got shape {x.shape}")
    return x


def _match(a, b):
    if a.shape != b.shape:
        raise ValueError(f"field shapes differ: {a.shape} vs {b.shape}")


def _weighted_inner(a, b, weights, n, what):
    a = _as2d(a, n, what)
    b = _as2d(b, n, what)
    _match(a, b)
    return float(((a * b).sum(axis=1) * weights).sum())


# -- inner products and norms (element measure as weight) -----------------

def inner_faces(topo, a, b) -> float:
    """Area-weighted inner product of two face fields."""
    return _weighted_inner(a, b, topo.face_area, topo.num_faces, "face")


def inner_edges(topo, a, b) -> float:
    """Length-weighted inner product of two edge fields."""
    return _weighted_inner(a, b, topo.edge_len, topo.num_edges, "edge")


def inner_lines(lines, a, b) -> float:
    """Line-length-weighted inner product of two line fields."""
    return _weighted_inner(a, b, lines.line_len, lines.num_lines, "line")


def inner_curves(curves, a, b) -> float:
    """Curve-length-weighted inner product of two curve fields."""
    return _weighted_inner(a, b, curves.curve_len, curves.num_curves, "curve")


def norm_edges(topo, a) -> float:
    return np.sqrt(inner_edges(topo, a, a))


def norm_lines(lines, a) -> float:
    return np.sqrt(inner_lines(lines, a, a))


def norm_curves(curves, a) -> float:
    return np.sqrt(inner_curves(curves, a, a))


def _apply(matrix, x, what):
    """A field through a sparse matrix: one product."""
    out = matrix @ _as2d(x, matrix.shape[1], what)
    return out if np.ndim(x) > 1 else out[:, 0]


# -- first-order difference across edges ----------------------------------

def edge_jump(topo, u) -> np.ndarray:
    """Signed difference of a face field across each edge.

    Interior edge: sum of the two incident face values times sgn(edge, face).
    Boundary edges carry 0.
    """
    return _apply(topo.jump.matrix, u, "face")


def edge_jump_adjoint(topo, v) -> np.ndarray:
    """Adjoint of edge_jump (with the minus-sign convention), a face field.

    Per face: -(1/area) * sum over its interior edges of value * sgn * len.
    """
    return _apply(topo.jump.adjoint, v, "edge")


# -- jump of an edge field over barycenter-to-vertex lines ----------------

def line_jump(lines, v) -> np.ndarray:
    """Per line: v at the entering edge plus v at the leaving edge, each
    signed against the owning triangle; 0 on lines touching the boundary."""
    return _apply(lines.jump.matrix, v, "edge")


def line_jump_adjoint(lines, w) -> np.ndarray:
    """Adjoint of line_jump, an edge field: -(1/len(e)) * sum over incident
    active lines of value * sgn(e, owning triangle) * len(line)."""
    return _apply(lines.jump.adjoint, w, "line")


# -- jump of an edge field over four-edge curves --------------------------

def curve_jump(curves, v) -> np.ndarray:
    """Per valid curve: the four stencil values, each signed against the
    neighbor triangle they are read in; 0 on invalid curves."""
    return _apply(curves.jump.matrix, v, "edge")


def curve_jump_adjoint(curves, w) -> np.ndarray:
    """Adjoint of curve_jump, an edge field: -(1/len(e)) * sum over incident
    valid curves of value * sgn(e, neighbor triangle) * len(curve)."""
    return _apply(curves.jump.adjoint, w, "curve")


# -- semi-norms ------------------------------------------------------------

def _row_norms(x):
    return np.abs(x) if x.ndim == 1 else np.linalg.norm(x, axis=1)


def tv_seminorm(topo, u) -> float:
    """Total variation: sum over edges of the channel-coupled jump magnitude
    times edge length."""
    jump = edge_jump(topo, u)
    return float((_row_norms(jump) * topo.edge_len).sum())


def ho_seminorm(lines, u) -> float:
    """High-order variation: per line, the magnitude of
    2*u(own) - u(across in) - u(across out), times line length; lines whose
    stencil touches the boundary are skipped."""
    u2 = _as2d(u, lines.topo.num_faces, "face")
    act = lines.active
    own = u2[lines.line_face[act]]
    across = u2[lines.face_across_in[act]] + u2[lines.face_across_out[act]]
    mags = np.linalg.norm(2.0 * own - across, axis=1)
    return float((mags * lines.line_len[act]).sum())


def tgv_energy(conn, u, v, alpha1, alpha0) -> float:
    """Total generalized variation energy of a face field u at auxiliary
    edge field v:

        alpha1 * sum_e |(edge_jump(u) - v)_e| len(e)
      + alpha0 * ( sum_l |line_jump(v)_l| len(l)
                 + sum_c |curve_jump(v)_c| len(c) )

    At v = 0 the first term reduces to alpha1 * tv_seminorm(u).
    """
    if alpha1 <= 0 or alpha0 <= 0:
        raise ValueError("alpha1 and alpha0 must be positive")
    topo, lines, curves = conn.topo, conn.lines, conn.curves
    u2 = _as2d(u, topo.num_faces, "face")
    v2 = _as2d(v, topo.num_edges, "edge")
    if u2.shape[1] != v2.shape[1]:
        raise ValueError("u and v must have the same channel count")
    resid = edge_jump(topo, u2) - v2
    first = (np.linalg.norm(resid, axis=1) * topo.edge_len).sum()
    lj = line_jump(lines, v2)
    cj = curve_jump(curves, v2)
    second = (np.linalg.norm(lj, axis=1) * lines.line_len).sum() \
        + (np.linalg.norm(cj, axis=1) * curves.curve_len).sum()
    return float(alpha1 * first + alpha0 * second)
