import numpy as np
import pytest

from tgvdenoise import TriMesh, build_connectivity, make_cube, make_tetrahedron
from tgvdenoise.synth import make_plane, make_two_triangle_square


@pytest.fixture(scope="session")
def tet():
    return make_tetrahedron()


@pytest.fixture(scope="session")
def tet_conn(tet):
    return build_connectivity(tet)


@pytest.fixture(scope="session")
def square():
    return make_two_triangle_square()


@pytest.fixture(scope="session")
def square_conn(square):
    return build_connectivity(square)


@pytest.fixture(scope="session")
def plane():
    return make_plane(5, 4)


@pytest.fixture(scope="session")
def plane_conn(plane):
    return build_connectivity(plane)


@pytest.fixture(scope="session")
def cube_small():
    # 48 faces: small enough for dense linear-algebra oracles
    return make_cube(2, size=0.05)


@pytest.fixture(scope="session")
def cube_small_conn(cube_small):
    return build_connectivity(cube_small)


@pytest.fixture(scope="session")
def cube_relabeled_conn(cube_small):
    # the small cube with its vertices and faces permuted and every face's
    # corners rotated by one or two places: a face slot order that no
    # generator produces
    rng = np.random.default_rng(19)
    vperm = rng.permutation(cube_small.num_vertices)
    faces = np.argsort(vperm)[cube_small.faces][rng.permutation(cube_small.num_faces)]
    corners = (np.arange(3) + rng.integers(1, 3, size=(len(faces), 1))) % 3
    faces = np.take_along_axis(faces, corners, axis=1)
    return build_connectivity(TriMesh(cube_small.vertices[vperm], faces))


@pytest.fixture(scope="session")
def all_conns(tet_conn, cube_small_conn, plane_conn, square_conn, cube_relabeled_conn):
    # the square has no valid curve, so its curve jump is all zeros
    return {"tetrahedron": tet_conn, "cube": cube_small_conn, "plane": plane_conn,
            "square": square_conn, "relabeled cube": cube_relabeled_conn}


def random_fields(conn, rng, channels=3):
    topo, lines, curves = conn.topo, conn.lines, conn.curves
    return (rng.normal(size=(topo.num_faces, channels)),
            rng.normal(size=(topo.num_edges, channels)),
            rng.normal(size=(lines.num_lines, channels)),
            rng.normal(size=(curves.num_curves, channels)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
