import hashlib
import platform

import numpy as np
import pytest
import scipy

from tgvdenoise import (TriMesh, build_connectivity, make_cube, make_icosphere,
                        make_tetrahedron)
from tgvdenoise.synth import make_plane

# the hooks below are tested by running pytest inside a test
pytest_plugins = ["pytester"]


@pytest.fixture(scope="session")
def tet():
    return make_tetrahedron()


@pytest.fixture(scope="session")
def tet_conn(tet):
    return build_connectivity(tet)


@pytest.fixture(scope="session")
def square():
    # the unit square in the z=0 plane, split into two triangles
    return make_plane(1, 1)


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


def flipped_icosphere(level, flips, seed):
    """The icosphere of ``level`` after ``flips`` seeded edge flips. A flip
    turns the edge a-b between faces (a, b, c) and (b, a, d) into c-d, and
    is taken only if c-d is not an edge yet, a and b keep valence 3 or more,
    and both new faces still face outward: irregular valence on a closed
    mesh. The face of each directed edge and each vertex's valence are kept
    up to date flip by flip, so an attempted flip costs O(1)."""
    mesh = make_icosphere(level)
    v, faces = mesh.vertices, mesh.faces.tolist()

    def directed(face):
        return zip(face, face[1:] + face[:1])

    owner = {edge: t for t, face in enumerate(faces) for edge in directed(face)}
    valence = np.bincount(mesh.faces.ravel(), minlength=len(v)).tolist()
    rng = np.random.default_rng(seed)
    done = 0
    while done < flips:
        t, k = rng.integers(len(faces)), rng.integers(3)
        a, b, c = faces[t][k], faces[t][(k + 1) % 3], faces[t][(k + 2) % 3]
        u = owner[b, a]
        d = faces[u][(faces[u].index(a) + 1) % 3]
        if min(valence[a], valence[b]) <= 3 or (c, d) in owner or (d, c) in owner:
            continue
        new = np.array([[a, d, c], [d, b, c]])
        normal = np.cross(v[new[:, 1]] - v[new[:, 0]], v[new[:, 2]] - v[new[:, 0]])
        if (np.einsum("ij,ij->i", normal, v[new].mean(axis=1)) <= 0).any():
            continue
        for edge in (*directed(faces[t]), *directed(faces[u])):
            del owner[edge]
        faces[t], faces[u] = new.tolist()
        owner.update({edge: t for edge in directed(faces[t])})
        owner.update({edge: u for edge in directed(faces[u])})
        valence[a] -= 1
        valence[b] -= 1
        valence[c] += 1
        valence[d] += 1
        done += 1
    return TriMesh(v, faces)


@pytest.fixture(scope="session")
def flipped_sphere_conn():
    # 320 faces, vertex valence 3 to 13 where the level-2 icosphere has 5 and 6
    return build_connectivity(flipped_icosphere(2, 150, seed=2))


@pytest.fixture(scope="session")
def holed_plane_conn():
    # the 6 x 5 plane without its cells (2, 2) and (3, 2), two triangles each:
    # a hole with no vertex inside, so the mesh has two boundary loops
    plane = make_plane(6, 5)
    keep = ~np.isin(np.arange(plane.num_faces) // 2, [2 * 5 + 2, 3 * 5 + 2])
    return build_connectivity(TriMesh(plane.vertices, plane.faces[keep]))


@pytest.fixture(scope="session")
def all_conns(tet_conn, cube_small_conn, plane_conn, square_conn, cube_relabeled_conn,
              flipped_sphere_conn, holed_plane_conn):
    # the square has no valid curve, so its curve jump is all zeros
    return {"tetrahedron": tet_conn, "cube": cube_small_conn, "plane": plane_conn,
            "square": square_conn, "relabeled cube": cube_relabeled_conn,
            "flipped sphere": flipped_sphere_conn, "holed plane": holed_plane_conn}


def random_fields(conn, rng, channels=3):
    topo, lines, curves = conn.topo, conn.lines, conn.curves
    return (rng.normal(size=(topo.num_faces, channels)),
            rng.normal(size=(topo.num_edges, channels)),
            rng.normal(size=(lines.num_lines, channels)),
            rng.normal(size=(curves.num_curves, channels)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# numpy, scipy, the architecture and the SIMD extensions numpy dispatches to
# where the sha256 digests of the pinned runs were recorded
PINNED_BUILD = ("2.4.6", "1.17.1", "x86_64",
                ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))


def _build():
    """numpy's and scipy's versions, the architecture and the SIMD
    extensions numpy found, in PINNED_BUILD's order."""
    simd = getattr(np.__config__, "CONFIG", {}).get("SIMD Extensions", {}).get("found", [])
    return np.__version__, scipy.__version__, platform.machine(), tuple(simd)


def on_pinned_build():
    """Whether numpy, scipy, the architecture and the SIMD extensions are
    PINNED_BUILD's, where the digests of float arrays were recorded."""
    return _build() == PINNED_BUILD


def pinned_values(result, **measured):
    """A filter run's values as a pinned run stores them: the ``measured``
    floats (thetas, e_v) with the result's last diagnostics row, products per
    system, sweeps, stop reason and the sha256 of its normals."""
    return {**measured, "last_diagnostics": result.diagnostics[-1].tolist(),
            "cg_totals": result.cg_iterations.sum(axis=0).tolist(),
            "iterations": result.iterations, "stop_reason": result.stop_reason,
            "normals_sha256": hashlib.sha256(result.normals.tobytes()).hexdigest()}


def assert_pinned(got, pin):
    """Each of ``got``'s values against ``pin``'s: floats to 1e-10 relative,
    room for last-bit differences of np.exp between CPUs (refactors have
    moved them by at most 1.3e-14); counts and the stop reason exactly; the
    normals' digest only on PINNED_BUILD, since elsewhere the bits may
    differ within that tolerance."""
    for key, value in got.items():
        if key == "normals_sha256":
            if on_pinned_build():
                assert value == pin[key]
        elif isinstance(value, float) or key == "last_diagnostics":
            np.testing.assert_allclose(value, pin[key], rtol=1e-10, atol=0, err_msg=key)
        else:
            assert value == pin[key], key


def pytest_report_header(config):
    """Whether the run is on PINNED_BUILD: elsewhere the sha256 digests of
    float results are not checked, and the log says so."""
    verdict = "matched, float digests checked" if on_pinned_build() \
        else "not matched, float digests skipped"
    return f"PINNED_BUILD {verdict}; numpy, scipy, machine, SIMD: {_build()}"


def pytest_terminal_summary(terminalreporter, config):
    # -q leaves out the header, so a quiet run ends with its line instead
    if config.getoption("verbose") < 0:
        terminalreporter.write_line(pytest_report_header(config))
