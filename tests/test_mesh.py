import numpy as np
import pytest

from tgvdenoise import MeshError, TriMesh, face_areas, face_normals, make_tetrahedron


def test_face_normal_right_hand_rule():
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert np.allclose(face_normals(m), [[0, 0, 1]])


def test_face_normal_reversed_order_flips():
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 2, 1]])
    assert np.allclose(face_normals(m), [[0, 0, -1]])


def test_tetrahedron_normals_outward_unit():
    m = make_tetrahedron()
    n = face_normals(m)
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)
    centers = m.vertices[m.faces].mean(axis=1)
    assert ((n * centers).sum(axis=1) > 0).all()


def test_out_of_range_index_rejected():
    with pytest.raises(MeshError, match="face 0"):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(bad):
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    verts[2][1] = bad
    with pytest.raises(MeshError, match="vertex 2 has a non-finite coordinate"):
        TriMesh(verts, [[0, 1, 2], [0, 1, 3]])


def test_repeated_vertex_rejected():
    with pytest.raises(MeshError, match="repeats"):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])


def test_degenerate_triangle_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]]
    with pytest.raises(MeshError, match="degenerate"):
        TriMesh(verts, [[0, 1, 2], [0, 1, 3]])


def test_non_manifold_edge_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
    faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(MeshError, match="non-manifold"):
        TriMesh(verts, faces)



def test_inconsistent_orientation_rejected():
    # the two-triangle square with its second face flipped: a 180 degree fold
    # whose edge jump would read 0 if the mesh were accepted
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    with pytest.raises(MeshError, match="face 1 is oriented inconsistently with face 0"):
        TriMesh(verts, [[0, 1, 2], [0, 3, 2]])


def test_open_bowtie_vertex_rejected():
    # two triangles that share only vertex 0; curve stencils there would
    # wrap around a vertex that has no single ring of faces
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
    with pytest.raises(MeshError, match="non-manifold vertex 0 .*2 fans"):
        TriMesh(verts, [[0, 1, 2], [0, 3, 4]])


def test_touching_closed_cones_rejected():
    # two closed tetrahedra that touch at their apex 0: each fan there is a
    # closed ring, so faces minus interior edges at vertex 0 counts 0 fans
    # either way; only following the rings tells them apart
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
             [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    faces = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3],
             [0, 4, 5], [0, 6, 4], [0, 5, 6], [4, 6, 5]]
    TriMesh(verts[:4], faces[:4])
    with pytest.raises(MeshError, match="non-manifold vertex 0 .*2 fans"):
        TriMesh(verts, faces)


def test_areas():
    m = TriMesh([[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 1, 2]])
    assert np.allclose(face_areas(m), [2.0])


def test_vertices_are_read_only():
    m = make_tetrahedron()
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0


def test_with_vertices_keeps_faces():
    m = make_tetrahedron()
    moved = m.with_vertices(m.vertices * 2.0)
    assert np.array_equal(moved.faces, m.faces)
    assert np.allclose(moved.vertices, m.vertices * 2.0)


def test_with_vertices_rejects_a_non_finite_coordinate():
    m = make_tetrahedron()
    moved = m.vertices.copy()
    moved[2, 1] = np.nan
    with pytest.raises(MeshError, match="vertex 2"):
        m.with_vertices(moved)


def test_with_vertices_rejects_a_collapsed_face():
    m = make_tetrahedron()
    moved = m.vertices.copy()
    moved[1] = moved[0]
    with pytest.raises(MeshError, match="degenerate"):
        m.with_vertices(moved)


def test_with_vertices_rejects_a_wrong_vertex_count():
    m = make_tetrahedron()
    for moved in (m.vertices[:-1], np.vstack([m.vertices, [[9.0, 9.0, 9.0]]]),
                  m.vertices[:, :2]):
        with pytest.raises(MeshError):
            m.with_vertices(moved)
