import numpy as np
import pytest

from tgvdenoise import (NoiseSpec, SolverParams, TriMesh, add_gaussian_noise,
                        build_connectivity, face_normals, filter_normals,
                        make_cube, make_icosphere, mean_angular_difference,
                        reconstruct, update_vertices)
from tgvdenoise.synth import make_plane

from oracles import projection_residual, update_vertices_reference


def _rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_planar_mesh_is_a_fixed_point():
    mesh = make_plane(5, 5)
    out = update_vertices(mesh, face_normals(mesh))
    assert np.abs(out.vertices - mesh.vertices).max() < 1e-9


def test_connectivity_never_changes():
    mesh = make_cube(3)
    out = update_vertices(mesh, face_normals(mesh))
    assert out.faces is mesh.faces or np.array_equal(out.faces, mesh.faces)


def test_shape_mismatch_rejected():
    mesh = make_plane(2, 2)
    with pytest.raises(ValueError, match="shape"):
        update_vertices(mesh, np.zeros((3, 3)))


@pytest.mark.parametrize("row", [1.5, np.nan], ids=["scaled", "nan"])
def test_targets_must_be_finite_unit_rows(row):
    # the projection n (n . (c - x)) assumes unit n: on the clean cube, 3x
    # targets collapsed a face, and 1.5x ones moved a noisy cube's output
    # 0.697 degrees off the targets where unit ones ended 0.094 degrees off
    mesh = make_cube(3, size=0.05)
    targets = face_normals(mesh)
    targets[4] *= row
    with pytest.raises(ValueError, match="target_normals rows must be finite and unit"):
        update_vertices(mesh, targets)
    # within 1e-8 of unit length, as filter_normals takes its input
    targets[4] = face_normals(mesh)[4] * (1.0 + 5e-9)
    update_vertices(mesh, targets)


def test_flat_quad_reaches_tilted_targets():
    # hinge the two triangles of a square around their shared diagonal
    mesh = make_plane(1, 1)
    n = face_normals(mesh)
    diagonal = mesh.vertices[3] - mesh.vertices[0]
    tilt = 0.15
    targets = np.stack([
        _rotation(diagonal, +tilt) @ n[0],
        _rotation(diagonal, -tilt) @ n[1],
    ])
    out = update_vertices(mesh, targets)
    angles = np.arccos(np.clip((face_normals(out) * targets).sum(axis=1), -1, 1))
    assert angles.max() < 1e-3  # radians


def test_residual_is_monotone_over_sweeps(monkeypatch):
    monkeypatch.setattr(reconstruct, "_VERTEX_ITERS", 1)
    clean = make_cube(4, size=0.05)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.25, mode="vertex-normal", seed=2))
    targets = face_normals(clean)
    mesh = noisy
    residuals = [projection_residual(mesh, targets)]
    for _ in range(30):
        mesh = update_vertices(mesh, targets)
        residuals.append(projection_residual(mesh, targets))
    assert all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] < 0.1 * residuals[0]


def test_update_improves_agreement_with_filtered_normals():
    clean = make_cube(4, size=0.05)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.3, mode="vertex-normal", seed=5))
    conn = build_connectivity(noisy)
    result = filter_normals(conn, face_normals(noisy), SolverParams(max_outer_iters=50))
    before = mean_angular_difference(face_normals(noisy), result.normals)
    out = update_vertices(noisy, result.normals)
    after = mean_angular_difference(face_normals(out), result.normals)
    assert after < before


def test_jacobi_update_is_deterministic(monkeypatch):
    monkeypatch.setattr(reconstruct, "_VERTEX_ITERS", 10)
    clean = make_cube(3)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.2, seed=9))
    targets = face_normals(clean)
    a = update_vertices(noisy, targets)
    b = update_vertices(noisy, targets)
    assert np.array_equal(a.vertices, b.vertices)


def _negated_sphere_targets():
    clean = make_icosphere(3, 0.15)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.3, mode="vertex-normal", seed=7))
    targets = face_normals(clean)
    flip = np.random.default_rng(3).random(len(targets)) < 0.1
    targets[flip] *= -1.0
    return noisy, targets


def _stray_vertex_plane():
    plane = make_plane(4, 3)
    stray = TriMesh(np.vstack([plane.vertices, [[5.0, 5.0, 5.0]]]), plane.faces)
    targets = face_normals(add_gaussian_noise(plane, NoiseSpec(0.2, seed=4)))
    return stray, targets


def _bench_cube():
    clean = make_cube(10, size=0.05)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.3, mode="vertex-normal", seed=7))
    return noisy, face_normals(clean)


def _preview_sphere():
    clean = make_icosphere(5, 0.15)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.3, mode="vertex-normal", seed=7))
    return noisy, face_normals(clean)


def _in_plane_target_plane():
    # every third target lies in the plane, so on the first sweep its face's
    # cross product (0, 0, c) has a dot product of exactly 0 with it
    plane = make_plane(4, 3)
    targets = face_normals(add_gaussian_noise(plane, NoiseSpec(0.2, seed=4)))
    targets[::3] = [0.6, -0.8, 0.0]
    return plane, targets


@pytest.mark.parametrize("case", [_bench_cube, _negated_sphere_targets, _stray_vertex_plane,
                                  _preview_sphere, _in_plane_target_plane])
def test_update_matches_row_gather_reference_bit_for_bit(case):
    mesh, targets = case()
    out = update_vertices(mesh, targets)
    assert np.array_equal(out.vertices, update_vertices_reference(mesh, targets, iters=30))


def test_reference_cases_reach_the_paths_they_name():
    mesh, targets = _negated_sphere_targets()
    assert ((face_normals(mesh) * targets).sum(axis=1) < 0).any()   # keep = False
    mesh, _ = _stray_vertex_plane()
    assert np.bincount(mesh.faces.ravel(), minlength=mesh.num_vertices).min() == 0
    mesh, targets = _in_plane_target_plane()
    p = mesh.vertices[mesh.faces]
    dots = (np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) * targets).sum(axis=1)
    assert (dots == 0.0).any()                                     # keep at a zero dot
