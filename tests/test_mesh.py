import warnings

import numpy as np
import pytest

from tgvdenoise import MeshError, TriMesh, face_normals, make_icosphere, make_tetrahedron
from tgvdenoise.mesh import face_areas


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


@pytest.mark.parametrize("order", ["C", "F"])
def test_mesh_copies_the_callers_arrays(order):
    # the mesh freezes copies, so the caller's arrays stay writeable and apart
    tet = make_tetrahedron()
    v, f = np.array(tet.vertices, order=order), np.array(tet.faces, order=order)
    for mesh, given in ((TriMesh(v, f), (v, f)), (tet.with_vertices(v), (v,))):
        for mine in given:
            assert mine.flags.writeable
            assert not any(np.shares_memory(mine, a) for a in (mesh.vertices, mesh.faces))
        for a in (mesh.vertices, mesh.faces):
            assert a.flags.c_contiguous and not a.flags.writeable


def test_with_vertices_builds_what_the_constructor_builds():
    sphere = make_icosphere(2)
    moved = np.asfortranarray(sphere.vertices * 1.5 + [0.1, -0.2, 0.3])
    derived, built = sphere.with_vertices(moved), TriMesh(moved, sphere.faces)
    for name in ("vertices", "faces", "_twin", "_face_areas"):
        a, b = getattr(derived, name), getattr(built, name)
        assert a.dtype == b.dtype and a.strides == b.strides, name
        assert np.array_equal(a, b) and not a.flags.writeable, name


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


@pytest.mark.parametrize("verts, what", [
    ([[0, 0, 0], [1e308, 0, 0], [0, 1, 0]], "bounding-box diagonal"),
    ([[-1e308, 0, 0], [1e308, 0, 0], [0, 1, 0]], "bounding-box diagonal"),
    # a finite diagonal whose cross product squares past the float range
    ([[0, 0, 0], [9e153, 0, 0], [0, 9e153, 0]], "area of face 0"),
])
def test_overflowing_coordinates_rejected_without_warning(verts, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=f"coordinates overflow: the {what}"):
            TriMesh(verts, [[0, 1, 2]])
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        with pytest.raises(MeshError, match="coordinates overflow"):
            mesh.with_vertices(verts)


@pytest.mark.parametrize("faces, message", [
    ([[0.7, 1.2, 2.9]], "face 0 has a non-integer vertex index"),
    ([[0, 1, 2], [0, 1, np.nan]], "face 1 has a non-integer vertex index"),
    ([[0, 1, 1e30]], "face 0 references vertex index out of range"),
    ([[0, 1, np.inf]], "face 0 references vertex index out of range"),
    ([[-np.inf, 1, 2]], "face 0 references vertex index out of range"),
    ([[0.7 + 0j, 1, 2]], "face 0 has a non-integer vertex index"),
    ([[0, 1, 2 + 1j]], "face 0 has a non-integer vertex index"),
    (np.array([[0, 1, 2], [0.5, 1, 2]], dtype=object), "face 1 has a non-integer vertex index"),
], ids=["fraction", "nan", "beyond-int64", "inf", "minus-inf", "complex-fraction",
        "complex-imaginary", "object-fraction"])
def test_non_integer_face_index_rejected_without_warning(faces, message):
    # a cast to int64 would truncate 0.7, 1.2, 2.9 to the face (0, 1, 2),
    # and warn on NaN or 1e30 before failing on a garbage index
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=message):
            TriMesh(verts, np.array(faces))


@pytest.mark.parametrize("faces", [
    [[0, 1, 2]], np.array([[0, 1, 2]], dtype=np.uint8), np.array([[0.0, 1.0, 2.0]]),
    np.array([[0, 1, 2]], dtype=np.float32), np.zeros((0, 3)), [],
    np.array([[0, 1, 2]], dtype=complex), np.array([[0, 1, 2]], dtype=object),
], ids=["list", "uint8", "float64", "float32", "empty-float", "empty-list", "complex",
        "object"])
def test_integer_and_integral_float_faces_accepted(faces):
    mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], faces)
    assert mesh.faces.dtype == np.int64
    np.testing.assert_array_equal(mesh.faces, np.reshape(faces, (-1, 3)))
