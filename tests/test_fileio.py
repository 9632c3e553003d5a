import tracemalloc

import numpy as np
import pytest

from tgvdenoise import (MeshError, NoiseSpec, TriMesh, add_gaussian_noise, fileio,
                        load_mesh, make_cube, make_icosphere, make_tetrahedron, save_mesh)
from tgvdenoise.topology import EdgeTopology

from oracles import format_mesh_reference

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
    topo = EdgeTopology(m)
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


@pytest.mark.parametrize("counts", ["5 -2 0", "-2 5 0", "-1 -1 0"])
def test_off_negative_counts_rejected(tmp_path, counts):
    # "5 -2" over three vertex records once loaded as a mesh without faces
    path = tmp_path / "neg.off"
    path.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n")
    with pytest.raises(MeshError, match="line 2: OFF counts must not be negative"):
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


@pytest.mark.parametrize("fmt", ["obj", "off"])
def test_writer_matches_field_by_field_format(tmp_path, fmt):
    # extreme values need a mesh without faces: 1e308 would overflow the
    # area checks of one with faces
    extremes = TriMesh([[-0.0, 0.0, 5e-324], [1e-300, -1e308, 1e308],
                        [0.1, -0.1, 1 / 3], [2.0 ** 53 + 1, -2.5e-8, 123456789.0]],
                       np.zeros((0, 3), dtype=int))
    noisy = add_gaussian_noise(make_icosphere(1, 0.15),
                               NoiseSpec(0.3, mode="vertex-normal", seed=7))
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    for i, mesh in enumerate((extremes, noisy, empty)):
        path = tmp_path / f"m{i}.{fmt}"
        save_mesh(mesh, path)
        assert path.read_bytes() == format_mesh_reference(mesh, fmt).encode("utf-8")


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
    # the format comes from the extension alone, even for a valid OBJ text
    path = tmp_path / "mesh.ply"
    path.write_text(UNIT_SQUARE_OBJ)
    with pytest.raises(MeshError, match="extension"):
        load_mesh(path)


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


def test_bad_plain_block_is_converted_once(tmp_path, monkeypatch):
    # the block is plain (four tokens for each line, each line a v or an f),
    # so it is split in one piece; its values are converted once, and only
    # the naming of the bad record splits it again, line by line
    calls = []

    def counted(tokens):
        calls.append(len(tokens))
        return convert(tokens)

    convert = fileio._obj_block
    monkeypatch.setattr(fileio, "_obj_block", counted)
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 x 0\nf 1 2 3\n")
    with pytest.raises(MeshError, match="line 3: bad vertex coordinate"):
        load_mesh(path)
    assert calls == [16]


@pytest.mark.parametrize("workload", ["denoise-cube-1k2", "preview-sphere-20k"])
def test_benchmark_inputs_are_split_in_one_piece(tmp_path, monkeypatch, workload):
    # what save_mesh writes is plain in every block, so the benchmark's
    # inputs, clean and noisy, never take the line-by-line split
    def refuse(block):
        raise AssertionError(f"split line by line: {block[:40]!r}")

    clean = make_cube(10, 0.05) if workload == "denoise-cube-1k2" else make_icosphere(5, 0.15)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.3, mode="vertex-normal", seed=7))
    monkeypatch.setattr(fileio, "_line_tokens", refuse)
    for mesh in (clean, noisy):
        path = tmp_path / "input.obj"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("suffix", [".obj", ".off"])
def test_load_frees_the_text_before_validation(tmp_path, suffix):
    # beyond what the TriMesh constructor holds and its two input arrays,
    # loading the noise-7 sphere (1.0 MB as OBJ) peaked 1 016 113 bytes
    # higher while the file's text stayed alive through validation, and
    # 10 492 bytes higher once it did not
    path = tmp_path / f"sphere{suffix}"
    save_mesh(add_gaussian_noise(make_icosphere(5, 0.15),
                                 NoiseSpec(0.3, mode="vertex-normal", seed=7)), path)
    mesh, load_peak = _traced_peak(lambda: load_mesh(path))
    v, f = mesh.vertices.copy(), mesh.faces.copy()
    _, constructor_peak = _traced_peak(lambda: TriMesh(v, f))
    excess = load_peak - constructor_peak - v.nbytes - f.nbytes
    assert excess <= 0.1 * path.stat().st_size
