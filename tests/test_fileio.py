import numpy as np
import pytest

from tgvdenoise import (MeshError, TriMesh, build_edge_topology, load_mesh,
                        make_tetrahedron, save_mesh)

UNIT_SQUARE_OBJ = """\
# two triangles
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1 2 3
f 1 3 4
"""

TET_OFF = """\
OFF
4 4 0
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
"""


def test_obj_unit_square(tmp_path):
    path = tmp_path / "square.obj"
    path.write_text(UNIT_SQUARE_OBJ)
    m = load_mesh(path)
    assert m.num_vertices == 4 and m.num_faces == 2
    assert np.array_equal(m.faces, [[0, 1, 2], [0, 2, 3]])


def test_off_tetrahedron_edge_count(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(TET_OFF)
    m = load_mesh(path)
    topo = build_edge_topology(m)
    # Euler: V - E + F = 2 for a closed genus-0 surface
    assert topo.num_edges == 6
    assert not topo.is_boundary.any()


def test_obj_quad_face_rejected(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshError, match="line 5"):
        load_mesh(path)


@pytest.mark.parametrize("record", ["vn 0 0 1", "vt 0 0", "o thing"])
def test_obj_unsupported_records_rejected(tmp_path, record):
    path = tmp_path / "bad.obj"
    path.write_text(f"{record}\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshError, match="line 1"):
        load_mesh(path)


def test_obj_slash_and_negative_indices_rejected(tmp_path):
    base = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
    path = tmp_path / "bad.obj"
    path.write_text(base + "f 1/1 2/2 3/3\n")
    with pytest.raises(MeshError, match="'/'"):
        load_mesh(path)
    path.write_text(base + "f -3 -2 -1\n")
    with pytest.raises(MeshError, match="positive"):
        load_mesh(path)


def test_off_header_and_counts_required(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("NOT_OFF\n1 0 0\n0 0 0\n")
    with pytest.raises(MeshError, match="OFF header"):
        load_mesh(path)
    path.write_text("OFF\n2 1 0\n0 0 0\n")
    with pytest.raises(MeshError, match="records"):
        load_mesh(path)


@pytest.mark.parametrize("fmt", ["obj", "off"])
def test_round_trip_exact(tmp_path, fmt):
    rng = np.random.default_rng(5)
    m = make_tetrahedron()
    m = m.with_vertices(m.vertices + 1e-3 * rng.normal(size=m.vertices.shape))
    path = tmp_path / f"tet.{fmt}"
    save_mesh(m, path)
    back = load_mesh(path)
    assert np.array_equal(back.faces, m.faces)
    assert np.array_equal(back.vertices, m.vertices)  # 17 digits round-trips exactly


def test_save_mesh_without_faces(tmp_path):
    m = TriMesh([[0, 0, 0], [1, 2, 3]], np.zeros((0, 3), dtype=int))
    path = tmp_path / "points.off"
    save_mesh(m, path)
    back = load_mesh(path)
    assert back.num_vertices == 2 and back.num_faces == 0


def test_save_to_unwritable_path_raises():
    with pytest.raises(OSError):
        save_mesh(make_tetrahedron(), "/nonexistent-dir/out.obj")


def test_load_missing_file_raises():
    with pytest.raises(OSError):
        load_mesh("/nonexistent-dir/missing.obj")


def test_unknown_extension_rejected(tmp_path):
    with pytest.raises(MeshError, match="extension"):
        save_mesh(make_tetrahedron(), tmp_path / "mesh.stl")


def test_obj_face_index_beyond_int64_rejected(tmp_path):
    path = tmp_path / "huge.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n")
    with pytest.raises(MeshError, match="line 4: face index '99999999999999999999' is out of range"):
        load_mesh(path)


def test_off_face_index_beyond_int64_rejected(tmp_path):
    path = tmp_path / "huge.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n")
    with pytest.raises(MeshError, match="line 6: face index out of range"):
        load_mesh(path)
