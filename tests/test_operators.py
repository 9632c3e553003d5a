import numpy as np
import pytest

from tgvdenoise import (TriMesh, build_edge_topology, curve_jump,
                        curve_jump_adjoint, edge_jump, edge_jump_adjoint,
                        ho_seminorm, inner_curves, inner_edges, inner_faces,
                        inner_lines, line_jump, line_jump_adjoint, tgv_energy,
                        tv_seminorm)
from conftest import random_fields
from oracles import (dense_curve_jump, dense_edge_jump, dense_line_jump,
                     far_triangles)

PAIRS = [
    ("edge", edge_jump, edge_jump_adjoint),
    ("line", line_jump, line_jump_adjoint),
    ("curve", curve_jump, curve_jump_adjoint),
]


def _inner_out(conn, name, a, b):
    if name == "edge":
        return inner_edges(conn.topo, a, b)
    if name == "line":
        return inner_lines(conn.lines, a, b)
    return inner_curves(conn.curves, a, b)


def _inner_in(conn, name, a, b):
    if name == "edge":
        return inner_faces(conn.topo, a, b)
    return inner_edges(conn.topo, a, b)


def _args(conn, name):
    return conn.topo if name == "edge" else (conn.lines if name == "line" else conn.curves)


# -- each stored jump against its definition -------------------------------

def _dense_and_measures(conn, name):
    """A layer's jump as a dense oracle, with its (row, column) measures."""
    topo = conn.topo
    if name == "edge":
        return dense_edge_jump(topo), topo.edge_len, topo.face_area
    if name == "line":
        return dense_line_jump(conn.lines), conn.lines.line_len, topo.edge_len
    return dense_curve_jump(conn.curves), conn.curves.curve_len, topo.edge_len


@pytest.mark.parametrize("name", ["edge", "line", "curve"])
@pytest.mark.parametrize("which", ["jump", "jump_adjoint"])
def test_stencil_matrix_matches_slot_gather(all_conns, rng, name, which):
    # each jump against a dense matrix built slot by slot, by loops, from the
    # topology's definitions; the adjoint is -diag(1/m_col) J^T diag(m_row)
    for conn in all_conns.values():
        stencil = _args(conn, name).jump
        J, m_row, m_col = _dense_and_measures(conn, name)
        if which == "jump":
            x = rng.normal(size=(stencil.num_cols, 3))
            ref = J @ x
            got = stencil.matrix @ x
        else:
            ref = -(m_row[:, None] * J).T / m_col[:, None]
            got = stencil.adjoint.toarray()
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * max(np.abs(ref).max(), 1.0)


# -- inner products ---------------------------------------------------------

def test_inner_faces_all_ones_is_total_area(tet_conn):
    ones = np.ones(tet_conn.topo.num_faces)
    assert np.isclose(inner_faces(tet_conn.topo, ones, ones),
                      tet_conn.topo.face_area.sum(), rtol=1e-14)


def test_inner_faces_orthogonal_channels(tet_conn):
    T = tet_conn.topo.num_faces
    a = np.stack([np.ones(T), np.zeros(T)], axis=1)
    b = np.stack([np.zeros(T), np.ones(T)], axis=1)
    assert inner_faces(tet_conn.topo, a, b) == 0.0


def test_inner_products_match_bruteforce(tet_conn, rng):
    u, v, w1, w2 = random_fields(tet_conn, rng)
    topo, lines, curves = tet_conn.topo, tet_conn.lines, tet_conn.curves
    ref = sum(u[t, c] * u[t, c] * topo.face_area[t]
              for t in range(topo.num_faces) for c in range(3))
    assert np.isclose(inner_faces(topo, u, u), ref, rtol=1e-12)
    ref = sum(v[e, c] * v[e, c] * topo.edge_len[e]
              for e in range(topo.num_edges) for c in range(3))
    assert np.isclose(inner_edges(topo, v, v), ref, rtol=1e-12)
    ref = sum(w1[l, c] * w1[l, c] * lines.line_len[l]
              for l in range(lines.num_lines) for c in range(3))
    assert np.isclose(inner_lines(lines, w1, w1), ref, rtol=1e-12)
    ref = sum(w2[k, c] * w2[k, c] * curves.curve_len[k]
              for k in range(curves.num_curves) for c in range(3))
    assert np.isclose(inner_curves(curves, w2, w2), ref, rtol=1e-12)


def test_inner_edges_constant_on_equilateral_pair():
    s3 = np.sqrt(3) / 2
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0.5, s3, 0], [1.5, s3, 0]],
                [[0, 1, 2], [1, 3, 2]])
    topo = build_edge_topology(m)
    ones = np.ones(topo.num_edges)
    assert np.isclose(inner_edges(topo, ones, ones), topo.edge_len.sum(), rtol=1e-14)
    assert np.isclose(topo.edge_len.sum(), 5.0, atol=1e-12)


def test_zero_field_inner_is_zero(tet_conn):
    z = np.zeros(tet_conn.topo.num_edges)
    assert inner_edges(tet_conn.topo, z, z) == 0.0


def test_shape_mismatch_raises(tet_conn):
    with pytest.raises(ValueError, match="rows"):
        inner_faces(tet_conn.topo, np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="differ"):
        inner_faces(tet_conn.topo, np.ones((4, 2)), np.ones((4, 3)))
    with pytest.raises(ValueError, match="rows"):
        edge_jump(tet_conn.topo, np.ones(5))


# -- forward operators ------------------------------------------------------

def test_edge_jump_of_constant_is_zero(tet_conn, plane_conn):
    for conn in (tet_conn, plane_conn):
        u = np.full(conn.topo.num_faces, 3.7)
        assert np.all(edge_jump(conn.topo, u) == 0.0)


def test_edge_jump_two_triangle_square(square_conn):
    topo = square_conn.topo
    jump = edge_jump(topo, np.array([1.0, 4.0]))
    interior = ~topo.is_boundary
    assert np.allclose(np.abs(jump[interior]), 3.0)
    assert np.all(jump[topo.is_boundary] == 0.0)


def test_edge_jump_locality(tet_conn):
    topo = tet_conn.topo
    u = np.zeros(topo.num_faces)
    u[2] = 1.0
    jump = edge_jump(topo, u)
    touching = (topo.edge_faces == 2).any(axis=1) & ~topo.is_boundary
    assert np.all(jump[touching] != 0)
    assert np.all(jump[~touching] == 0)


def test_edge_jump_adjoint_single_triangle_is_zero():
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    topo = build_edge_topology(m)
    v = np.ones(topo.num_edges)
    assert np.all(edge_jump_adjoint(topo, v) == 0.0)  # all edges on the boundary


def test_line_jump_of_gradient_matches_second_difference(tet_conn, cube_small_conn, rng):
    # with v the edge jump of u, the line jump equals 2*u - across - across
    for conn in (tet_conn, cube_small_conn):
        u = rng.normal(size=conn.topo.num_faces)
        lj = line_jump(conn.lines, edge_jump(conn.topo, u))
        lines = conn.lines
        ref = 2 * u[lines.line_face] - u[lines.face_across_in] - u[lines.face_across_out]
        assert np.abs(lj - ref).max() < 1e-12


def test_curve_jump_of_gradient_matches_cross_difference(tet_conn, cube_small_conn, rng):
    for conn in (tet_conn, cube_small_conn):
        u = rng.normal(size=conn.topo.num_faces)
        cj = curve_jump(conn.curves, edge_jump(conn.topo, u))
        lines, far = conn.lines, far_triangles(conn.curves)
        own = u[lines.line_face]
        near = u[lines.face_across_in] + u[lines.face_across_out]
        ref = (near - own - u[far[:, 0]]) + (near - own - u[far[:, 1]])
        assert np.abs(cj - ref).max() < 1e-12


def test_curve_jump_zero_when_all_invalid(square_conn):
    v = np.ones(square_conn.topo.num_edges)
    assert np.all(curve_jump(square_conn.curves, v) == 0.0)


def test_line_jump_zero_inputs(tet_conn):
    z = np.zeros((tet_conn.topo.num_edges, 3))
    assert np.all(line_jump(tet_conn.lines, z) == 0.0)
    assert np.all(curve_jump(tet_conn.curves, z) == 0.0)


def test_adjoint_locality_line(tet_conn):
    lines, topo = tet_conn.lines, tet_conn.topo
    w = np.zeros(lines.num_lines)
    w[5] = 1.0
    out = line_jump_adjoint(lines, w)
    support = set(np.nonzero(out)[0].tolist())
    assert support == {lines.edge_in[5], lines.edge_out[5]}


def test_adjoint_locality_curve(tet_conn):
    curves = tet_conn.curves
    w = np.zeros(curves.num_curves)
    w[3] = 1.0
    out = curve_jump_adjoint(curves, w)
    support = set(np.nonzero(out)[0].tolist())
    # contributions on coinciding stencil edges may cancel exactly
    assert support <= set(curves.edges[3].tolist())


# -- adjoint identities, PSD, linearity --------------------------------------

@pytest.mark.parametrize("name,forward,adjoint", PAIRS)
def test_adjoint_identities(all_conns, rng, name, forward, adjoint):
    for conn in all_conns.values():
        u, v, w1, w2 = random_fields(conn, rng)
        x = u if name == "edge" else v
        y = {"edge": v, "line": w1, "curve": w2}[name]
        lhs = _inner_out(conn, name, forward(_args(conn, name), x), y)
        rhs = _inner_in(conn, name, x, adjoint(_args(conn, name), y))
        assert abs(lhs + rhs) <= 1e-10 * (abs(lhs) + 1.0)


@pytest.mark.parametrize("name,forward,adjoint", PAIRS)
def test_negative_adjoint_compositions_are_psd(all_conns, rng, name, forward, adjoint):
    for conn in all_conns.values():
        u, v, _, _ = random_fields(conn, rng)
        x = u if name == "edge" else v
        arg = _args(conn, name)
        quad = _inner_in(conn, name, x, -adjoint(arg, forward(arg, x)))
        assert quad >= -1e-12
        assert np.isclose(quad, _inner_out(conn, name, forward(arg, x), forward(arg, x)),
                          rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("name,forward,adjoint", PAIRS)
def test_linearity(tet_conn, rng, name, forward, adjoint):
    conn = tet_conn
    u, v, w1, w2 = random_fields(conn, rng)
    x = u if name == "edge" else v
    y = rng.normal(size=x.shape)
    arg = _args(conn, name)
    assert np.allclose(forward(arg, 2.5 * x - 0.5 * y),
                       2.5 * forward(arg, x) - 0.5 * forward(arg, y), atol=1e-12)
    z = {"edge": v, "line": w1, "curve": w2}[name]
    z2 = rng.normal(size=z.shape)
    assert np.allclose(adjoint(arg, 2.5 * z - 0.5 * z2),
                       2.5 * adjoint(arg, z) - 0.5 * adjoint(arg, z2), atol=1e-12)


# -- semi-norms --------------------------------------------------------------

def test_tv_constant_zero_and_homogeneity(tet_conn, rng):
    topo = tet_conn.topo
    assert tv_seminorm(topo, np.full(topo.num_faces, 2.0)) == 0.0
    u = rng.normal(size=(topo.num_faces, 3))
    assert np.isclose(tv_seminorm(topo, 3.0 * u), 3.0 * tv_seminorm(topo, u), rtol=1e-12)


def test_tv_two_triangle_square(square_conn):
    topo = square_conn.topo
    shared_len = topo.edge_len[~topo.is_boundary][0]
    assert np.isclose(tv_seminorm(topo, np.array([1.0, 4.0])), 3.0 * shared_len, rtol=1e-14)


def test_ho_constant_zero(tet_conn):
    assert ho_seminorm(tet_conn.lines, np.ones(4)) == 0.0


def test_ho_tetrahedron_hand_count(tet_conn):
    # u = (1,0,0,0): the 3 lines of face 0 score 2 each; in every other face
    # exactly 2 of 3 lines have face 0 across one of their edges and score 1
    u = np.array([1.0, 0.0, 0.0, 0.0])
    line_len = tet_conn.lines.line_len[0]
    assert np.allclose(tet_conn.lines.line_len, line_len)
    expected = (3 * 2 + 6 * 1) * line_len
    assert np.isclose(ho_seminorm(tet_conn.lines, u), expected, rtol=1e-12)


def test_ho_matches_line_jump_of_gradient(tet_conn, plane_conn, rng):
    for conn in (tet_conn, plane_conn):
        u = rng.normal(size=(conn.topo.num_faces, 3))
        lj = line_jump(conn.lines, edge_jump(conn.topo, u))
        ref = (np.linalg.norm(lj, axis=1) * conn.lines.line_len).sum()
        assert np.isclose(ho_seminorm(conn.lines, u), ref, rtol=1e-12, atol=1e-12)


def test_tgv_energy_reductions(tet_conn, rng):
    conn = tet_conn
    u = rng.normal(size=(conn.topo.num_faces, 3))
    zero_v = np.zeros((conn.topo.num_edges, 3))
    assert np.isclose(tgv_energy(conn, u, zero_v, 2.0, 0.5),
                      2.0 * tv_seminorm(conn.topo, u), rtol=1e-12)
    const = np.ones((conn.topo.num_faces, 3))
    assert tgv_energy(conn, const, zero_v, 2.0, 0.5) == 0.0
    jump = edge_jump(conn.topo, u)
    at_jump = tgv_energy(conn, u, jump, 2.0, 0.5)
    second = (np.linalg.norm(line_jump(conn.lines, jump), axis=1) * conn.lines.line_len).sum() \
        + (np.linalg.norm(curve_jump(conn.curves, jump), axis=1) * conn.curves.curve_len).sum()
    assert np.isclose(at_jump, 0.5 * second, rtol=1e-12)


def test_tgv_energy_rejects_bad_weights(tet_conn):
    u = np.ones((4, 3))
    v = np.zeros((6, 3))
    with pytest.raises(ValueError, match="positive"):
        tgv_energy(tet_conn, u, v, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        tgv_energy(tet_conn, u, v, 1.0, -1.0)

