import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from tgvdenoise import (CurveSet, LineSet, TriMesh, build_connectivity,
                        build_edge_topology, make_cube, make_icosphere,
                        tv_seminorm, ho_seminorm, edge_jump, face_normals)


def test_shared_edge_signs_cancel(square):
    topo = build_edge_topology(square)
    interior = ~topo.is_boundary
    assert interior.sum() == 1
    signs = topo.edge_face_sign[interior][0]
    assert signs[0] * signs[1] == -1.0


def test_single_triangle_all_boundary():
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    topo = build_edge_topology(m)
    assert topo.num_edges == 3
    assert topo.is_boundary.all()


def test_edges_match_row_unique_oracle(all_conns):
    # the integer edge key orders edges as a row-wise unique of sorted pairs
    for conn in all_conns.values():
        f = conn.mesh.faces
        pairs = np.stack([f.ravel(), np.roll(f, -1, axis=1).ravel()], axis=1)
        edges, inverse = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
        np.testing.assert_array_equal(conn.topo.edges, edges)
        np.testing.assert_array_equal(conn.topo.face_edges, inverse.reshape(f.shape))


def test_tetrahedron_closed(tet_conn):
    topo = tet_conn.topo
    assert topo.num_edges == 6
    assert not topo.is_boundary.any()
    # every interior edge: signs of the two incident faces sum to zero
    assert np.all(topo.edge_face_sign.sum(axis=1) == 0.0)


def test_every_face_contributes_three_edge_slots(tet_conn, plane_conn):
    for conn in (tet_conn, plane_conn):
        topo = conn.topo
        counts = (topo.edge_faces >= 0).sum(axis=1)
        assert counts.sum() == 3 * topo.num_faces


def test_edge_in_out_convention():
    # single counterclockwise triangle in the plane
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    topo = build_edge_topology(m)
    lines = LineSet(topo)
    for l in range(3):
        vertex = lines.line_vertex[l]
        ein = topo.edges[lines.edge_in[l]]
        eout = topo.edges[lines.edge_out[l]]
        # the entering edge ends at the vertex when traversed with the face,
        # the leaving edge starts there; both are incident to the vertex
        assert vertex in ein and vertex in eout
        face_cycle = [(0, 1), (1, 2), (2, 0)]
        entering = [a for a, b in face_cycle if b == vertex][0]
        leaving = [b for a, b in face_cycle if a == vertex][0]
        assert set(ein) == {entering, vertex}
        assert set(eout) == {vertex, leaving}


def test_line_count_and_length(tet_conn):
    lines = tet_conn.lines
    assert lines.num_lines == 3 * tet_conn.topo.num_faces
    assert (lines.line_len > 0).all()


def test_equilateral_line_length():
    # side-1 equilateral triangle: barycenter-to-vertex distance is 1/sqrt(3)
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]], [[0, 1, 2]])
    topo = build_edge_topology(m)
    lines = LineSet(topo)
    assert np.allclose(lines.line_len, 1 / np.sqrt(3), atol=1e-14)


def test_interior_edge_has_four_incident_lines(tet_conn):
    slots = np.diff(tet_conn.lines.jump.adjoint.indptr)
    assert np.all(slots == 4)


def test_b1_membership_matches_stencils(plane_conn):
    lines, topo = plane_conn.lines, plane_conn.topo
    adj = lines.jump.adjoint
    for e in range(topo.num_edges):
        table = set(adj.indices[adj.indptr[e]:adj.indptr[e + 1]].tolist())
        direct = {l for l in range(lines.num_lines)
                  if lines.active[l] and e in (lines.edge_in[l], lines.edge_out[l])}
        assert table == direct


def test_structural_line_slot_counting(plane_conn):
    # summed over interior edges, the structural stencil membership counts
    # every both-interior line twice and every one-interior line once
    lines, topo = plane_conn.lines, plane_conn.topo
    interior = ~topo.is_boundary
    total = sum(int(interior[lines.edge_in[l]]) + int(interior[lines.edge_out[l]])
                for l in range(lines.num_lines))
    both = sum(1 for l in range(lines.num_lines)
               if interior[lines.edge_in[l]] and interior[lines.edge_out[l]])
    one = sum(1 for l in range(lines.num_lines)
              if int(interior[lines.edge_in[l]]) + int(interior[lines.edge_out[l]]) == 1)
    assert total == 2 * both + one


def test_curve_counts(tet_conn, square_conn):
    assert tet_conn.curves.num_curves == 12
    assert tet_conn.curves.valid.all()
    assert square_conn.curves.num_curves == 6
    assert not square_conn.curves.valid.any()


def test_uniform_tiling_curve_length_equals_line_length(tet_conn):
    curves, lines = tet_conn.curves, tet_conn.lines
    assert np.allclose(curves.curve_len, lines.line_len, atol=1e-14)


def test_curve_stencil_edges_share_the_line_vertex(cube_small_conn):
    conn = cube_small_conn
    topo, lines, curves = conn.topo, conn.lines, conn.curves
    for c in np.nonzero(curves.valid)[0][:60]:
        p = lines.line_vertex[c]
        for e in curves.edges[c]:
            assert p in topo.edges[e]


def test_far_edges_are_in_the_neighbor_triangles(cube_small_conn):
    conn = cube_small_conn
    topo, lines, curves = conn.topo, conn.lines, conn.curves
    for c in np.nonzero(curves.valid)[0][:60]:
        far_out, _, _, far_in = curves.edges[c]
        assert far_out in topo.face_edges[lines.face_across_out[c]]
        assert far_in in topo.face_edges[lines.face_across_in[c]]
        assert far_out != lines.edge_out[c]
        assert far_in != lines.edge_in[c]


def test_b2_slot_count_interior(tet_conn, cube_small_conn):
    # eight (curve, side) slots per edge away from the boundary
    for conn in (tet_conn, cube_small_conn):
        slots = np.diff(conn.curves.jump.adjoint.indptr)
        assert np.all(slots == 8)


def test_orientation_flip_changes_only_signs(cube_small):
    topo = build_edge_topology(cube_small)
    rng = np.random.default_rng(0)
    flip = rng.random(topo.num_edges) < 0.5
    flipped = build_edge_topology(cube_small, _flip_edges=flip)

    assert np.array_equal(np.sort(flipped.edges, axis=1), np.sort(topo.edges, axis=1))
    assert np.allclose(flipped.edge_len, topo.edge_len)
    assert np.allclose(flipped.face_area, topo.face_area)
    assert np.array_equal(flipped.face_edges, topo.face_edges)
    assert np.array_equal(np.abs(flipped.face_edge_sign), np.abs(topo.face_edge_sign))
    expected = topo.face_edge_sign * np.where(flip[topo.face_edges], -1.0, 1.0)
    assert np.array_equal(flipped.face_edge_sign, expected)


def test_orientation_flip_leaves_seminorms_unchanged(cube_small):
    from tgvdenoise import Connectivity, tgv_energy

    topo = build_edge_topology(cube_small)
    rng = np.random.default_rng(3)
    flip = rng.random(topo.num_edges) < 0.5
    topo_f = build_edge_topology(cube_small, _flip_edges=flip)
    lines, lines_f = LineSet(topo), LineSet(topo_f)
    u = face_normals(cube_small) + 0.1 * rng.normal(size=(topo.num_faces, 3))

    assert np.isclose(tv_seminorm(topo, u), tv_seminorm(topo_f, u), rtol=1e-12)
    assert np.isclose(ho_seminorm(lines, u), ho_seminorm(lines_f, u), rtol=1e-12)
    # jumps flip sign exactly on flipped edges
    j, jf = edge_jump(topo, u), edge_jump(topo_f, u)
    assert np.allclose(jf, np.where(flip[:, None], -j, j), atol=1e-15)
    # the full energy (curves included) is also invariant when the edge field
    # is transported along with the orientations
    conn = Connectivity(topo, lines, CurveSet(lines))
    conn_f = Connectivity(topo_f, lines_f, CurveSet(lines_f))
    assert np.isclose(tgv_energy(conn, u, j, 1.0, 0.1),
                      tgv_energy(conn_f, u, jf, 1.0, 0.1), rtol=1e-12)
    zero = np.zeros_like(j)
    assert np.isclose(tgv_energy(conn, u, zero, 1.0, 0.1),
                      tgv_energy(conn_f, u, zero, 1.0, 0.1), rtol=1e-12)


def test_connectivity_bundle(tet):
    conn = build_connectivity(tet)
    assert conn.mesh is tet
    assert conn.lines.topo is conn.topo
    assert conn.curves.topo is conn.topo


def test_cube_counts():
    m = make_cube(3)
    assert m.num_faces == 12 * 9
    topo = build_edge_topology(m)
    # closed surface: V - E + F = 2
    assert m.num_vertices - topo.num_edges + m.num_faces == 2


def test_connectivity_imports_no_scipy():
    # the sparse matrices are built on first use, so building the
    # connectivity (the benchmark's set-up step) stays numpy-only
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tgvdenoise as t; "
            "t.build_connectivity(t.make_cube(2)); "
            "print(sorted(n for n in sys.modules if n.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_connectivity_memory_per_face():
    # each jump is held once, as the CSR arrays its matrix wraps, and the
    # topology reuses the mesh's edge keys: the mesh, its connectivity and
    # the three jumps and three adjoints hold 1 119 B per face here, and a
    # second copy of the jumps' slots (a padded table) reads ~1 600
    import scipy.sparse  # noqa: F401  (loaded before tracing: not held data)

    tracemalloc.start()
    try:
        mesh = make_icosphere(4)
        conn = build_connectivity(mesh)
        for layer in (conn.topo, conn.lines, conn.curves):
            layer.jump.matrix, layer.jump.adjoint
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1200 * mesh.num_faces
