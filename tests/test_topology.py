import hashlib
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tgvdenoise import (NoiseSpec, TriMesh, add_gaussian_noise, build_connectivity,
                        edge_jump, face_normals, ho_seminorm, load_mesh, make_cube,
                        make_icosphere, save_mesh, tv_seminorm)
from tgvdenoise.topology import CurveSet, EdgeTopology, LineSet

from conftest import on_pinned_build
from oracles import curve_edges, dense_line_jump, edge_ends, line_edges, line_faces


def _row_unique_edges(mesh):
    """The mesh's edges as a row-wise unique of sorted vertex pairs, and
    each face slot's row in it."""
    f = mesh.faces
    pairs = np.stack([f.ravel(), np.roll(f, -1, axis=1).ravel()], axis=1)
    edges, inverse = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
    return edges, inverse.reshape(f.shape)


def _slot_signs(mesh):
    """sgn(face_edges[t, k], t) per face slot, read off the twin table: +1
    in the slot that leads its edge (not above its twin), else -1."""
    twin = mesh._twin
    return np.where(twin >= np.arange(len(twin)), 1.0, -1.0).reshape(mesh.faces.shape)


def test_shared_edge_signs_cancel(square):
    topo = EdgeTopology(square)
    interior = ~topo.is_boundary
    assert interior.sum() == 1
    e = np.flatnonzero(interior)[0]
    slot_signs, on_edge = _slot_signs(square), topo.face_edges == e
    signs = slot_signs[on_edge]
    assert len(signs) == 2
    assert signs[0] * signs[1] == -1.0
    # the edge jump reads the lead slot's face, then its twin's, with those signs
    row = slice(topo.jump.indptr[e], topo.jump.indptr[e + 1])
    lead_face = np.flatnonzero(on_edge & (slot_signs == 1.0))[0] // 3
    assert topo.jump.indices[row][0] == lead_face
    assert topo.jump.data[row].tolist() == [1.0, -1.0]


def test_single_triangle_all_boundary():
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    topo = EdgeTopology(m)
    assert topo.num_edges == 3
    assert topo.is_boundary.all()


def _topology_edge_ends(topo):
    """Each edge's two vertices in its stored direction, read off the one
    face slot that runs the edge that way."""
    f = topo.mesh.faces
    forward = _slot_signs(topo.mesh) == 1.0
    ends = np.empty((topo.num_edges, 2), dtype=np.int64)
    ends[topo.face_edges[forward]] = np.stack([f[forward], np.roll(f, -1, axis=1)[forward]],
                                              axis=1)
    return ends


def test_edges_match_row_unique_oracle(all_conns):
    # the edges are the row-wise unique sorted vertex pairs, numbered in order
    # of their first occurrence in the face slots and directed as they first
    # occur; a length does not depend on the direction, bit for bit
    for conn in all_conns.values():
        topo, mesh = conn.topo, conn.mesh
        edges, inverse = _row_unique_edges(mesh)
        ends = edge_ends(mesh)
        np.testing.assert_array_equal(_topology_edge_ends(topo), ends)
        row = {pair: r for r, pair in enumerate(map(tuple, edges.tolist()))}
        number = np.empty(len(edges), dtype=np.int64)
        number[[row[pair] for pair in map(tuple, np.sort(ends, axis=1).tolist())]] = \
            np.arange(len(ends))
        np.testing.assert_array_equal(topo.face_edges, number[inverse])
        _, first = np.unique(topo.face_edges.ravel(), return_index=True)
        assert (np.diff(first) > 0).all()
        v = mesh.vertices
        np.testing.assert_array_equal(topo.edge_len,
                                      np.linalg.norm(v[edges[:, 1]] - v[edges[:, 0]],
                                                     axis=1)[np.argsort(number)])


def test_irregular_fixtures_have_their_valence_and_holes(flipped_sphere_conn,
                                                        holed_plane_conn):
    # the flipped sphere is closed, with vertex valence 3 to 13; the holed
    # plane has Euler characteristic 0, so two boundary loops: the plane's
    # 22 outer edges and the hole's 6
    sphere, holed = flipped_sphere_conn, holed_plane_conn
    valence = np.bincount(sphere.mesh.faces.ravel())
    assert (valence.min(), valence.max()) == (3, 13)
    assert not sphere.topo.is_boundary.any()
    topo = holed.topo
    assert holed.mesh.num_vertices - topo.num_edges + topo.num_faces == 0
    assert topo.is_boundary.sum() == 28


def test_tetrahedron_closed(tet_conn):
    topo = tet_conn.topo
    assert topo.num_edges == 6
    assert not topo.is_boundary.any()
    # every interior edge: signs of the two incident faces sum to zero, in
    # the twin table and in each row of the edge jump
    sums = np.bincount(topo.face_edges.ravel(), weights=_slot_signs(tet_conn.mesh).ravel())
    assert np.all(sums == 0.0)
    assert np.all(topo.jump.data.reshape(-1, 2).sum(axis=1) == 0.0)


def test_every_face_contributes_three_edge_slots(tet_conn, plane_conn):
    for conn in (tet_conn, plane_conn):
        topo = conn.topo
        counts = np.bincount(topo.face_edges.ravel(), minlength=topo.num_edges)
        assert counts.sum() == 3 * topo.num_faces
        assert np.array_equal(counts, np.where(topo.is_boundary, 1, 2))


def test_edge_in_out_convention(tet):
    # line 3t + j sits at face t's vertex j; its jump reads the edge entering
    # that vertex when traversed with the face, then the edge leaving it
    edges = edge_ends(tet)
    lines = build_connectivity(tet).lines
    jump = lines.jump
    for l in range(lines.num_lines):
        face = tet.faces[l // 3].tolist()
        j = l % 3
        vertex, entering, leaving = face[j], face[j - 1], face[(j + 1) % 3]
        ein, eout = edges[jump.indices[jump.indptr[l]:jump.indptr[l + 1]]]
        assert set(ein) == {entering, vertex}
        assert set(eout) == {vertex, leaving}


def test_line_count_and_length(tet_conn):
    lines = tet_conn.lines
    assert lines.num_lines == 3 * tet_conn.topo.num_faces
    assert (lines.line_len > 0).all()


def test_equilateral_line_length():
    # side-1 equilateral triangle: barycenter-to-vertex distance is 1/sqrt(3)
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]], [[0, 1, 2]])
    topo = EdgeTopology(m)
    lines = LineSet(topo)
    assert np.allclose(lines.line_len, 1 / np.sqrt(3), atol=1e-14)


@pytest.mark.parametrize("name", ["holed plane", "relabeled cube", "flipped sphere"])
def test_curves_rebuilt_from_their_lines_are_the_same(all_conns, name):
    # building curves leaves their lines as they were, so curves built again
    # from the same lines must come out the same
    conn = all_conns[name]
    again, curves = CurveSet(conn.lines), conn.curves
    for key in ("valid", "curve_len"):
        assert np.array_equal(getattr(again, key), getattr(curves, key)), key
    for key in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(again.jump, key), getattr(curves.jump, key)), key


def test_interior_edge_has_four_incident_lines(tet_conn):
    slots = np.diff(tet_conn.lines.jump.adjoint.indptr)
    assert np.all(slots == 4)


def test_b1_membership_matches_stencils(plane_conn):
    lines, topo = plane_conn.lines, plane_conn.topo
    adj = lines.jump.adjoint
    dense = dense_line_jump(plane_conn.mesh)
    for e in range(topo.num_edges):
        row = slice(adj.indptr[e], adj.indptr[e + 1])
        table = set(adj.indices[row][adj.data[row] != 0].tolist())
        direct = set(np.flatnonzero(dense[:, e]).tolist())
        assert table == direct


def test_structural_line_slot_counting(plane_conn):
    # summed over interior edges, the structural stencil membership counts
    # every both-interior line twice and every one-interior line once
    lines, topo = plane_conn.lines, plane_conn.topo
    interior = ~topo.is_boundary
    edge_in, edge_out = line_edges(plane_conn.mesh).T
    total = sum(int(interior[edge_in[l]]) + int(interior[edge_out[l]])
                for l in range(lines.num_lines))
    both = sum(1 for l in range(lines.num_lines)
               if interior[edge_in[l]] and interior[edge_out[l]])
    one = sum(1 for l in range(lines.num_lines)
              if int(interior[edge_in[l]]) + int(interior[edge_out[l]]) == 1)
    assert total == 2 * both + one


def test_curve_counts(tet_conn, square_conn):
    assert tet_conn.curves.num_curves == 12
    assert tet_conn.curves.valid.all()
    assert square_conn.curves.num_curves == 6
    assert not square_conn.curves.valid.any()


def test_uniform_tiling_curve_length_equals_line_length(tet_conn):
    curves, lines = tet_conn.curves, tet_conn.lines
    assert np.allclose(curves.curve_len, lines.line_len, atol=1e-14)


def _stencil_row(curves, c):
    """The edges a valid curve's jump reads, in slot order."""
    jump = curves.jump
    return jump.indices[jump.indptr[c]:jump.indptr[c + 1]]


def test_curve_stencil_edges_share_the_line_vertex(cube_small_conn):
    conn = cube_small_conn
    curves = conn.curves
    expected = curve_edges(conn.mesh)
    edges = edge_ends(conn.mesh)
    for c in np.nonzero(curves.valid)[0][:60]:
        p = conn.mesh.faces.ravel()[c]
        assert np.array_equal(_stencil_row(curves, c), expected[c])
        for e in _stencil_row(curves, c):
            assert p in edges[e]


def test_far_edges_are_in_the_neighbor_triangles(cube_small_conn):
    conn = cube_small_conn
    topo, curves = conn.topo, conn.curves
    _, across_in, across_out = line_faces(conn.mesh).T
    edge_in, edge_out = line_edges(conn.mesh).T
    for c in np.nonzero(curves.valid)[0][:60]:
        far_out, _, _, far_in = _stencil_row(curves, c)
        assert far_out in topo.face_edges[across_out[c]]
        assert far_in in topo.face_edges[across_in[c]]
        assert far_out != edge_out[c]
        assert far_in != edge_in[c]


def test_b2_slot_count_interior(tet_conn, cube_small_conn):
    # eight (curve, side) slots per edge away from the boundary
    for conn in (tet_conn, cube_small_conn):
        slots = np.diff(conn.curves.jump.adjoint.indptr)
        assert np.all(slots == 8)


def _relabeled(mesh, seed):
    """The mesh with its faces permuted, and the permutation."""
    perm = np.random.default_rng(seed).permutation(mesh.num_faces)
    return TriMesh(mesh.vertices, mesh.faces[perm]), perm


def _edge_match(topo, moved):
    """Per edge of ``topo``: the same vertex pair's edge in ``moved``, and
    -1.0 where ``moved`` runs it the other way (else 1.0)."""
    ends, moved_ends = _topology_edge_ends(topo), _topology_edge_ends(moved)
    index = {frozenset(pair): e for e, pair in enumerate(moved_ends.tolist())}
    match = np.array([index[frozenset(pair)] for pair in ends.tolist()])
    return match, np.where(moved_ends[match, 0] == ends[:, 0], 1.0, -1.0)


def test_relabeling_faces_renumbers_and_reverses_edges(cube_small, plane, flipped_sphere_conn,
                                                       holed_plane_conn):
    # a face permutation changes which slot leads each edge, so it renumbers
    # edges and reverses some; lengths, boundary flags and areas move along,
    # and each face meets the same edges, signed by the new directions
    for mesh in (cube_small, plane, flipped_sphere_conn.mesh, holed_plane_conn.mesh):
        moved_mesh, perm = _relabeled(mesh, 0)
        topo, moved = EdgeTopology(mesh), EdgeTopology(moved_mesh)
        match, flip = _edge_match(topo, moved)
        assert (match != np.arange(topo.num_edges)).any()
        assert (flip == -1.0).any() and (flip == 1.0).any()
        np.testing.assert_array_equal(moved.edge_len[match], topo.edge_len)
        np.testing.assert_array_equal(moved.is_boundary[match], topo.is_boundary)
        np.testing.assert_array_equal(moved.face_area, topo.face_area[perm])
        np.testing.assert_array_equal(moved.face_edges, match[topo.face_edges[perm]])
        np.testing.assert_array_equal(_slot_signs(moved_mesh),
                                      _slot_signs(mesh)[perm] * flip[topo.face_edges[perm]])


def test_relabeling_faces_leaves_seminorms_unchanged(cube_small, flipped_sphere_conn,
                                                     holed_plane_conn):
    from tgvdenoise import tgv_energy

    # measured: every semi-norm and energy within 1.6e-16 relative
    for mesh in (cube_small, flipped_sphere_conn.mesh, holed_plane_conn.mesh):
        moved_mesh, perm = _relabeled(mesh, 3)
        conn, moved = build_connectivity(mesh), build_connectivity(moved_mesh)
        match, flip = _edge_match(conn.topo, moved.topo)
        rng = np.random.default_rng(3)
        u = face_normals(mesh) + 0.1 * rng.normal(size=(mesh.num_faces, 3))
        u_moved = u[perm]

        assert np.isclose(tv_seminorm(conn.topo, u), tv_seminorm(moved.topo, u_moved),
                          rtol=1e-12)
        assert np.isclose(ho_seminorm(conn.lines, u), ho_seminorm(moved.lines, u_moved),
                          rtol=1e-12)
        # each edge's jump is the difference of the same two faces, taken in
        # the other order exactly where the edge is reversed
        j, j_moved = edge_jump(conn.topo, u), edge_jump(moved.topo, u_moved)
        np.testing.assert_array_equal(j_moved[match], flip[:, None] * j)
        # the full energy (curves included) is also invariant when the edge
        # field is transported along with the numbering and the directions
        assert np.isclose(tgv_energy(conn, u, j, 1.0, 0.1),
                          tgv_energy(moved, u_moved, j_moved, 1.0, 0.1), rtol=1e-12)
        assert np.isclose(tgv_energy(conn, u, np.zeros_like(j), 1.0, 0.1),
                          tgv_energy(moved, u_moved, np.zeros_like(j_moved), 1.0, 0.1),
                          rtol=1e-12)


def test_connectivity_bundle(tet):
    conn = build_connectivity(tet)
    assert conn.mesh is tet
    assert conn.lines.topo is conn.topo
    assert conn.curves.topo is conn.topo


def test_cube_counts():
    m = make_cube(3)
    assert m.num_faces == 12 * 9
    topo = EdgeTopology(m)
    # closed surface: V - E + F = 2
    assert m.num_vertices - topo.num_edges + m.num_faces == 2


def test_connectivity_imports_no_scipy(tmp_path):
    # the sparse matrices are built on first use, so loading a mesh and
    # building its connectivity (the benchmark's set-up step) stay numpy-only
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tgvdenoise as t; "
            "t.save_mesh(t.make_cube(2), sys.argv[2]); "
            "t.build_connectivity(t.load_mesh(sys.argv[2])); "
            "print(sorted(n for n in sys.modules if n.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code, str(src), str(tmp_path / "cube.obj")],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_connectivity_memory_per_face():
    # each jump is held once, as the CSR arrays its matrix wraps, the
    # topology reuses the mesh's edge keys, and which faces an edge or line
    # reads is held in its jump alone: the mesh, its connectivity and the
    # three jumps and three adjoints hold 762 B per face here (786 with a
    # per-slot sign table beside the twin table); the edge and line index
    # tables beside the jumps read 962, and a second copy of the jumps'
    # slots (a padded table) ~1 600
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
    assert held <= 900 * mesh.num_faces


def test_connectivity_build_peak(tmp_path):
    # the transient peak of connecting the preview input sets the preview
    # run's peak memory: 11.59 MB under tracemalloc when the curve stencil
    # stacked its slots into (rows, 4) tables, 10.85 MB with one column at
    # a time, which leaves 0.75 MB under this bound
    path = tmp_path / "preview.obj"
    save_mesh(_preview_input(), path)
    mesh = load_mesh(path)
    tracemalloc.start()
    try:
        build_connectivity(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11_600_000


def _preview_input():
    # the benchmark's preview input: the level-5 sphere, noise 0.3, seed 7
    return add_gaussian_noise(make_icosphere(5, 0.15),
                              NoiseSpec(0.3, mode="vertex-normal", seed=7))


def _setup_arrays(path):
    """The integer and the float arrays that loading ``path`` and building
    its connectivity make, by name."""
    mesh = load_mesh(path)
    conn = build_connectivity(mesh)
    topo, lines, curves = conn.topo, conn.lines, conn.curves
    integer = {"faces": mesh.faces, "twin": mesh._twin, "face_edges": topo.face_edges,
               "is_boundary": topo.is_boundary, "active": lines.active,
               "valid": curves.valid}
    floats = {"vertices": mesh.vertices, "face_areas": mesh._face_areas,
              "edge_len": topo.edge_len, "line_len": lines.line_len,
              "curve_len": curves.curve_len}
    for name, layer in (("edge", topo), ("line", lines), ("curve", curves)):
        integer[f"{name}.indices"] = layer.jump.indices
        integer[f"{name}.indptr"] = layer.jump.indptr
        floats[f"{name}.data"] = layer.jump.data
    return integer, floats


# the first 16 hex digits of the sha256 of each array's bytes, integer
# arrays then float arrays
SETUP_DIGESTS = {
    "preview": (
        {"faces": "6bf33a7fc9429eef", "twin": "a207730ee995b169",
         "face_edges": "b02e6219767ef8b6", "is_boundary": "4c7eea521d2218c5",
         "active": "5c20b482f5be4e6b", "valid": "5c20b482f5be4e6b",
         "edge.indices": "5d2e3bd80a54af0e", "edge.indptr": "0c0b471408b1976d",
         "line.indices": "08fc54ccc428c1ab", "line.indptr": "f0c909e23b3af58a",
         "curve.indices": "0cb2cf0e9043f198", "curve.indptr": "28525100c02218d8"},
        {"vertices": "a0f28ec66f18eec8", "face_areas": "58b9230b04de9fc2",
         "edge_len": "9628119aa66c3320", "line_len": "d4914e99133c8b89",
         "curve_len": "20c59787c58649a5", "edge.data": "a75fbf821c6a8da7",
         "line.data": "a9b22ec88788757b", "curve.data": "d420466cfa931ff7"},
    ),
    "holed plane": (
        {"faces": "adfe20711e81ad64", "twin": "3f02d9d3684a359b",
         "face_edges": "8fd8bb08aef14198", "is_boundary": "d8f18739582b8992",
         "active": "46dd313e4604f4aa", "valid": "045dde7bb39b0284",
         "edge.indices": "9bdb8890fd1003db", "edge.indptr": "f51689df153acc39",
         "line.indices": "c5a13bbe244a4c64", "line.indptr": "991406e5a9943838",
         "curve.indices": "5c4fe88a6e134cfc", "curve.indptr": "6cc78e784eec0954"},
        {"vertices": "0241436997b4aca4", "face_areas": "c58ee332a7bdd43c",
         "edge_len": "53c059b4ac097c36", "line_len": "659a38aff87b025b",
         "curve_len": "97e5533d9e698c5c", "edge.data": "d9f20263aeea7fd5",
         "line.data": "7bb018bc7d0f87c3", "curve.data": "5e8119f77357e884"},
    ),
}


@pytest.mark.parametrize("name", ["preview", "holed plane"])
def test_setup_arrays_are_pinned(tmp_path, holed_plane_conn, name):
    # loading and connecting a mesh is pure index work on the integer
    # arrays, so their bytes are pinned everywhere; the floats only on the
    # build their digests were recorded on
    path = tmp_path / "input.obj"
    save_mesh(_preview_input() if name == "preview" else holed_plane_conn.mesh, path)
    integer, floats = _setup_arrays(path)
    pin_integer, pin_floats = SETUP_DIGESTS[name]
    digest = {key: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
              for key, a in {**integer, **floats}.items()}
    assert {key: digest[key] for key in integer} == pin_integer
    if on_pinned_build():
        assert {key: digest[key] for key in floats} == pin_floats
