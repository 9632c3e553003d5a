import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tgvdenoise import (NoiseSpec, TriMesh, add_gaussian_noise, face_angle_errors,
                        face_normals, feature_adjacent_faces, make_cube,
                        make_tetrahedron, mean_angular_difference, save_table,
                        vertex_error)
from tgvdenoise.metrics import closest_point_distances
from tgvdenoise.synth import make_plane
from tgvdenoise.topology import EdgeTopology
from tgvdenoise import metrics
from oracles import dense_edge_jump


def test_theta_identical_fields_is_zero(rng):
    n = rng.normal(size=(50, 3))
    n /= np.linalg.norm(n, axis=1)[:, None]
    assert mean_angular_difference(n, n) == 0.0


def test_theta_orthogonal_fields():
    a = np.tile([1.0, 0, 0], (8, 1))
    b = np.tile([0.0, 1, 0], (8, 1))
    assert np.isclose(mean_angular_difference(a, b), 90.0)


def test_theta_mixed_angles():
    a = np.tile([0.0, 0, 1], (10, 1))
    b = a.copy()
    b[5:] = [np.sin(np.pi / 3), 0, np.cos(np.pi / 3)]
    assert np.isclose(mean_angular_difference(a, b), 30.0, atol=1e-12)


def test_theta_symmetric_and_bounded(rng):
    a = rng.normal(size=(40, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b = rng.normal(size=(40, 3))
    b /= np.linalg.norm(b, axis=1)[:, None]
    assert np.isclose(mean_angular_difference(a, b), mean_angular_difference(b, a))
    errs = face_angle_errors(a, b)
    assert (errs >= 0).all() and (errs <= 180).all()


def test_theta_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        mean_angular_difference(np.ones((4, 3)), np.ones((5, 3)))


def test_single_flipped_face_row():
    n = np.tile([0.0, 0, 1], (6, 1))
    m = n.copy()
    m[2] *= -1
    errs = face_angle_errors(n, m)
    assert np.isclose(errs[2], 180.0)
    assert np.allclose(np.delete(errs, 2), 0.0)


def test_error_map_csv_mean_matches(tmp_path, rng):
    a = rng.normal(size=(12, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b = rng.normal(size=(12, 3))
    b /= np.linalg.norm(b, axis=1)[:, None]
    errs = face_angle_errors(a, b)
    path = tmp_path / "map.csv"
    save_table(path, ("face", "angle_degrees"), np.column_stack([np.arange(12), errs]))
    rows = path.read_text().strip().splitlines()[1:]
    values = np.array([float(r.split(",")[1]) for r in rows])
    assert np.isclose(values.mean(), mean_angular_difference(a, b), rtol=1e-15)
    assert [int(r.split(",")[0]) for r in rows] == list(range(12))


# -- vertex error -----------------------------------------------------------

def test_vertex_error_identical_is_zero():
    m = make_tetrahedron()
    assert vertex_error(m, m) == 0.0


def test_vertex_error_leaves_out_unreferenced_vertices():
    # a vertex in no face is part of neither surface: it moves neither the
    # mean nor the bounding box
    stray = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], [[0, 1, 2]])
    assert vertex_error(stray, stray) == 0.0
    alone = TriMesh(stray.vertices[:3], stray.faces)
    assert vertex_error(stray, alone) == vertex_error(alone, stray) == 0.0
    lifted = stray.with_vertices(stray.vertices + np.array([[0, 0, 0.1]] * 3 + [[9, 9, 9]]))
    assert vertex_error(lifted, stray) == vertex_error(
        TriMesh(lifted.vertices[:3], stray.faces), alone)
    cube = make_cube(10, size=0.05)
    assert vertex_error(cube, cube) == 0.0


def test_vertex_error_lifted_point_over_plane():
    ref = TriMesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                  [[0, 1, 2], [0, 2, 3]])
    h = 0.25
    moved = ref.with_vertices(ref.vertices + [[0, 0, 0], [0, 0, 0], [0, 0, h], [0, 0, 0]])
    diag = np.sqrt(2.0)
    assert np.isclose(vertex_error(moved, ref), (h / diag) / 4, rtol=1e-12)


def test_vertex_error_translation_invariant(rng):
    m = make_tetrahedron()
    noisy = m.with_vertices(m.vertices + 0.05 * rng.normal(size=m.vertices.shape))
    t = np.array([3.0, -2.0, 7.0])
    a = vertex_error(noisy, m)
    b = vertex_error(noisy.with_vertices(noisy.vertices + t),
                     m.with_vertices(m.vertices + t))
    assert np.isclose(a, b, rtol=1e-9)


def test_closest_point_matches_bruteforce_oracle(rng):
    # random 20-triangle reference, random query points
    from oracles import closest_point_on_triangle

    verts = rng.normal(size=(60, 3))
    faces = np.arange(60).reshape(20, 3)
    ref = TriMesh(verts, faces)
    points = rng.normal(size=(25, 3)) * 1.5
    fast = closest_point_distances(points, ref)
    tri = ref.vertices[ref.faces]
    for i, p in enumerate(points):
        oracle = min(closest_point_on_triangle(p, tri[k]) for k in range(20))
        assert abs(fast[i] - oracle) <= 1e-12


# -- closest-point broadphase ------------------------------------------------

def _all_pairs(points, ref):
    """Closest-point distances by the region walk over every pair."""
    tri = ref.vertices[ref.faces]
    return np.sqrt(metrics._closest_point_on_triangles(points[:, None], tri).min(axis=1))


def _bench_cube_vertices():
    clean = make_cube(10, size=0.05)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.3, "vertex-normal", 7))
    return noisy.vertices, clean


def _far_points():
    ref = make_cube(4)
    rng = np.random.default_rng(5)
    directions = rng.normal(size=(40, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    diag = np.linalg.norm(ref.vertices.max(axis=0) - ref.vertices.min(axis=0))
    return directions * 10 * diag, ref


def _points_on_surface():
    # distance 0: the cube's own vertices, then points on a plane below it
    cube, plane = make_cube(3), make_plane(4, 4)
    on_plane = np.random.default_rng(6).uniform(0, 1, size=(30, 3)) * [1, 1, 0]
    both = TriMesh(np.vstack([cube.vertices, plane.vertices + [0, 0, -3]]),
                   np.vstack([cube.faces, plane.faces + cube.num_vertices]))
    return np.vstack([cube.vertices, on_plane + [0, 0, -3]]), both


def _one_triangle():
    ref = TriMesh([[0, 0, 0], [1, 0, 0], [0.2, 0.7, 0.1]], [[0, 1, 2]])
    return np.random.default_rng(7).normal(size=(50, 3)), ref


def _slivers_and_large():
    # unconnected triangles whose bounding radii R_t range from 0.04 to 11
    rng = np.random.default_rng(8)
    tris = []
    for k in range(30):
        a = rng.normal(size=3)
        u, w = rng.normal(size=3), rng.normal(size=3)
        if k % 2:   # long sliver: width 1e-4 of its length
            tris.append([a, a + 3 * u, a + 3 * u + 1e-4 * w])
        else:
            tris.append([a, a + 0.05 * u, a + 0.05 * w] if k % 4 else
                        [a, a + 4 * u, a + 4 * w])
    ref = TriMesh(np.concatenate(tris), np.arange(90).reshape(30, 3))
    return rng.normal(size=(200, 3)) * 2, ref


@pytest.mark.parametrize("block_pairs", [metrics._BLOCK_PAIRS, 7])
@pytest.mark.parametrize("case", [_bench_cube_vertices, _far_points, _points_on_surface,
                                  _one_triangle, _slivers_and_large])
def test_closest_point_matches_all_pairs_exactly(case, block_pairs, monkeypatch):
    # the screen only drops triangles that cannot be nearest, and the region
    # walk's per-pair arithmetic is unchanged, so the result is bit-identical
    monkeypatch.setattr(metrics, "_BLOCK_PAIRS", block_pairs)
    points, ref = case()
    assert np.array_equal(closest_point_distances(points, ref), _all_pairs(points, ref))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_closest_point_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        closest_point_distances([[0.0, bad, 0.0]], make_tetrahedron())


def test_vertex_error_memory_is_bounded():
    # the all-pairs search held ~30 (points, triangles, 3) temporaries at
    # once and peaked at 1091 MB on this input
    clean = make_cube(20, size=0.05)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.3, "vertex-normal", 7))
    tracemalloc.start()
    try:
        vertex_error(noisy, clean)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_vertex_error_imports_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tgvdenoise as t; "
            "m = t.make_cube(2); t.vertex_error(m, m); "
            "print(sorted(n for n in sys.modules if n.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_vertex_error_rejects_empty():
    m = make_tetrahedron()
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    with pytest.raises(ValueError, match="non-empty"):
        vertex_error(m, empty)


# -- feature faces ------------------------------------------------------------

def test_feature_adjacent_faces_on_cube():
    mesh = make_cube(3)
    topo = EdgeTopology(mesh)
    n = face_normals(mesh)
    feat = set(feature_adjacent_faces(topo, n, threshold_deg=30.0).tolist())
    # oracle: walk all interior edges and collect faces at sharp creases
    expected = set()
    for row in dense_edge_jump(mesh):
        if not row.any():
            continue
        f0, f1 = np.flatnonzero(row)
        angle = np.degrees(np.arccos(np.clip(n[f0] @ n[f1], -1, 1)))
        if angle > 30.0:
            expected |= {f0, f1}
    assert feat == expected
    assert feat  # the cube does have creases


def _folded_plane(degrees):
    """A 4 x 4 plane folded by ``degrees`` along its interior line x = 0.5,
    and the faces with an edge on that line."""
    plane = make_plane(4, 4)
    x = plane.vertices[:, 0]
    on_fold = np.isclose(x, 0.5)
    theta = np.radians(degrees)
    right = np.clip(x - 0.5, 0.0, None)
    v = plane.vertices.copy()
    v[:, 0] = np.where(x > 0.5, 0.5 + right * np.cos(theta), x)
    v[:, 2] = right * np.sin(theta)
    return TriMesh(v, plane.faces), np.flatnonzero(on_fold[plane.faces].sum(axis=1) == 2)


@pytest.mark.parametrize("degrees", [20.0, 40.0])
def test_feature_adjacent_faces_on_a_folded_plane(degrees):
    # at the default 30 degree threshold a 20 degree fold is no crease and a
    # 40 degree fold marks exactly the faces on either side of it; the
    # plane's boundary edges, whose second face is missing, mark nothing
    mesh, fold_faces = _folded_plane(degrees)
    feat = feature_adjacent_faces(EdgeTopology(mesh), face_normals(mesh))
    expected = fold_faces if degrees > 30.0 else []
    assert len(fold_faces) == 8
    np.testing.assert_array_equal(feat, expected)
