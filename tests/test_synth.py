import hashlib

import numpy as np
import pytest

from tgvdenoise import synth
from tgvdenoise.mesh import face_areas
from tgvdenoise.synth import make_cube, make_icosphere, make_plane, make_tetrahedron

_BUILDERS = {"plane": make_plane, "cube": make_cube, "icosphere": make_icosphere}

# sha256 of vertices.tobytes() and faces.tobytes() (float64 and int64,
# little-endian), recorded from the builders that numbered each lattice point
# and edge midpoint through a dict at its first occurrence. The benchmark's
# inputs are make_cube(10, 0.05) and make_icosphere(5, 0.15), and the noise
# draws one amplitude per vertex in vertex order, so a renumbered vertex
# changes them even where the mesh is the same set of triangles.
_DIGESTS = [
    ("plane", (6, 5), "0241436997b4aca4db1e0d3c76516ca5a436befd183c73a9f0b9ef8426b2014f",
     "805f7edc2f115a4d95dd5935843d0e1f1c2c7dbcef8880efc1cdfadbdc722144"),
    ("plane", (3, 7, 0.5), "186d34e2c8cdf2c1b8a3a356c3eeeb4fe2de1b06728152e43fcb0063f1276721",
     "a272472ac174a484f0e1b40c1147ee035b7bb47407d23336fa5717bcab0faf2e"),
    ("plane", (60, 40), "d15b06d0f5a3ccd293e80af4353cb05f90a4c97f4f603b87bc4548d45a53c3f5",
     "e3a29d93002a05cd50368ac03fbb385ff697cef618e94842852070ccd5eef1f3"),
    ("cube", (1,), "db160a311b02c0c24f14408230c7e36c40fda571da7604aa612829ddfb1600ef",
     "6b57b51a04252d70d7361acb1e5341b9810133cf940799f5777dd5a5d599b451"),
    ("cube", (2,), "940037ebfb1d2b3668401c9eb551a14dbc61107f7c500c7ed3dd5b0059caf194",
     "64048f7f065714c91bef930aff0625a69574132cd5f22b33cdb0f2f093478778"),
    ("cube", (3,), "1948a07a5beb5a4d409f18b32e8dfeafc2d0ed0f46cb2031c27acdd69244c68a",
     "0d1e6cc83480f0b7b2ebabbf4309349ed1bf5a3083dd3973d3a80edc4aecaf08"),
    ("cube", (10, 0.05), "bdcedf0b4b3691062f3b1657360e95b8c4919ae43a71864256129dd32b531ec6",
     "68f8ccd58bb21c466afc5cba16b54fa58b237bba5a97953f4081f90952450a3c"),
    ("cube", (21, 0.2), "a9c3857a96243fe1a42f8989fba6dfd438cbd23d7b876817895dd7d86a31bb78",
     "89cc5461be823bfbd447a45a8eb766d12fc6cf86316385c2fa96f844ec13c967"),
    ("cube", (40, 0.05), "b742e08109ae814a1f4f5212c28d8c6e656981cb93966187d473860b3190b85f",
     "79f273f1d46e294187df88af9a87192b670152b11aff1203ecd27c6570596ca3"),
    ("icosphere", (0,), "25c2ce4291cc17ab13b6dc4303a96f09245fc2e636869cc7bd20cc1cae129df8",
     "3db7a1822c9b623934e2e4740412c5fbeb065c97b1d30344bad8fa21007c31dc"),
    ("icosphere", (3,), "cce9b7ed72f85df26668f5d1ccfc2a305b1c8ce4cb6cd6139e56dbe78eac72c7",
     "52ba19c5cda73d335f2e29108333509a800acd29026ae2e6c65c32ec3dd5394b"),
    ("icosphere", (5, 0.15), "5f163e820fa4dda48ac80b6a81863a546743a5ce68b33121bb1032ab102005e9",
     "6bf33a7fc9429eef8639fd65852d853d10c4399075ba2e6a3789cf2ac7743fd9"),
    ("icosphere", (6,), "52495c462d164de3bdbbe0545f1f8f1d51c1abfd2199727781d631e36d9d8bba",
     "f1fe5dd3aa14ecb18bf1a52f1ef643afff5b90f9688e1c603e127179164e67ae"),
]


@pytest.mark.parametrize("builder, args, vertices_sha, faces_sha", _DIGESTS,
                         ids=[f"{name}{args}" for name, args, *_ in _DIGESTS])
def test_builders_keep_their_bytes(builder, args, vertices_sha, faces_sha):
    mesh = _BUILDERS[builder](*args)
    assert hashlib.sha256(mesh.vertices.tobytes()).hexdigest() == vertices_sha
    assert hashlib.sha256(mesh.faces.tobytes()).hexdigest() == faces_sha


def test_weld_numbers_rows_where_they_first_occur():
    rows = np.array([[2, 0], [1, 1], [2, 0], [0, 5], [1, 1]])
    distinct, number = synth._weld(rows)
    np.testing.assert_array_equal(distinct, [[2, 0], [1, 1], [0, 5]])
    np.testing.assert_array_equal(number, [0, 1, 0, 2, 1])
    np.testing.assert_array_equal(distinct[number], rows)


_BAD_COUNTS = [
    ("cube", (2.7,), "divisions must be an integer"),
    ("cube", (True,), "divisions must be an integer"),
    ("cube", (np.bool_(True),), "divisions must be an integer"),
    ("cube", (0,), "divisions must be at least 1"),
    ("icosphere", (True,), "subdivisions must be an integer"),
    ("icosphere", (1.5,), "subdivisions must be an integer"),
    ("icosphere", (-1,), "subdivisions must be at least 0"),
    ("plane", (2.5, 2), "nx and ny must be an integer"),
    ("plane", (2, False), "nx and ny must be an integer"),
    ("plane", (3, 0), "nx and ny must be at least 1"),
]


@pytest.mark.parametrize("builder, args, message", _BAD_COUNTS,
                         ids=[f"{name}{args}" for name, args, _ in _BAD_COUNTS])
def test_builders_reject_counts_that_are_not_integers(builder, args, message):
    # int() would make 2.7 a 2-division cube and True a 1-division one, and
    # a fractional plane or icosphere count would fail inside numpy
    with pytest.raises(ValueError, match=message):
        _BUILDERS[builder](*args)


@pytest.mark.parametrize("builder, args, faces", [
    ("cube", (np.int64(2),), 48), ("icosphere", (np.int32(1),), 80),
    ("plane", (np.uint8(255), np.int16(1)), 510),
], ids=["cube", "icosphere", "plane"])
def test_builders_take_numpy_integer_counts(builder, args, faces):
    mesh = _BUILDERS[builder](*args)
    assert mesh.num_faces == faces
    reference = _BUILDERS[builder](*map(int, args))
    np.testing.assert_array_equal(mesh.vertices, reference.vertices)
    np.testing.assert_array_equal(mesh.faces, reference.faces)


@pytest.mark.parametrize("builder, name", [
    (make_tetrahedron, "scale"), (lambda size: make_cube(2, size=size), "size"),
    (lambda radius: make_icosphere(1, radius=radius), "radius"),
    (lambda size: make_plane(2, 2, size=size), "size"),
], ids=["tetrahedron", "cube", "icosphere", "plane"])
@pytest.mark.parametrize("value", [-1.0, 0.0, np.inf, np.nan, 1e-300, 1e300])
def test_builders_reject_sizes_that_are_not_positive_and_finite(builder, name, value):
    # a negative size turned the closed shapes inside out: every face normal
    # pointed toward the centroid, against the outward orientation promised;
    # 1e-300 made a degenerate mesh and 1e300 one whose areas overflow
    with pytest.raises(ValueError, match=f"^{name} must be between 1e-50 and 1e\\+50$"):
        builder(value)


@pytest.mark.parametrize("size", synth._SIZE_RANGE)
@pytest.mark.parametrize("builder", [
    make_tetrahedron, lambda size: make_cube(40, size=size),
    lambda size: make_icosphere(5, radius=size), lambda size: make_plane(40, 30, size=size),
], ids=["tetrahedron", "cube", "icosphere", "plane"])
def test_builders_make_valid_meshes_at_both_ends_of_the_size_range(builder, size):
    # the constructor's area check passes, and every area is a positive
    # normal float, on grids finer than the defaults
    areas = face_areas(builder(size))
    assert (areas >= np.finfo(np.float64).tiny).all() and np.isfinite(areas).all()
