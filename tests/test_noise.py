import numpy as np
import pytest

from tgvdenoise import NoiseSpec, add_gaussian_noise, make_cube, make_icosphere
from tgvdenoise.noise import mean_edge_length, vertex_normals


def test_zero_level_returns_identical_mesh():
    mesh = make_cube(3)
    out = add_gaussian_noise(mesh, NoiseSpec(0.0, seed=1))
    assert np.array_equal(out.vertices, mesh.vertices)


def test_same_seed_same_output():
    mesh = make_cube(3)
    a = add_gaussian_noise(mesh, NoiseSpec(0.3, seed=42))
    b = add_gaussian_noise(mesh, NoiseSpec(0.3, seed=42))
    assert np.array_equal(a.vertices, b.vertices)


def test_different_seed_differs():
    mesh = make_cube(3)
    a = add_gaussian_noise(mesh, NoiseSpec(0.3, seed=1))
    b = add_gaussian_noise(mesh, NoiseSpec(0.3, seed=2))
    assert not np.array_equal(a.vertices, b.vertices)


def test_displacement_scales_linearly_with_level():
    mesh = make_cube(3)
    d1 = add_gaussian_noise(mesh, NoiseSpec(0.1, seed=4)).vertices - mesh.vertices
    d2 = add_gaussian_noise(mesh, NoiseSpec(0.2, seed=4)).vertices - mesh.vertices
    assert np.allclose(d2, 2.0 * d1, rtol=1e-12)


def test_realized_sigma_on_large_mesh():
    mesh = make_icosphere(5)  # 10242 vertices
    assert mesh.num_vertices >= 10_000
    spec = NoiseSpec(0.3, mode="iid-coordinate", seed=8)
    noisy = add_gaussian_noise(mesh, spec)
    disp = noisy.vertices - mesh.vertices
    target = 0.3 * mean_edge_length(mesh)
    assert abs(disp.std() - target) / target < 0.05


def test_vertex_normal_mode_moves_along_normals():
    mesh = make_icosphere(2)
    noisy = add_gaussian_noise(mesh, NoiseSpec(0.2, mode="vertex-normal", seed=3))
    disp = noisy.vertices - mesh.vertices
    n = vertex_normals(mesh)
    # each displacement is parallel to the vertex normal
    cross = np.cross(disp, n)
    assert np.abs(cross).max() < 1e-12


def test_mean_edge_length_cube():
    mesh = make_cube(1, size=1.0)  # 12 faces, edges of length 1 and sqrt(2)
    lens = [1.0] * 12 + [np.sqrt(2.0)] * 6
    assert np.isclose(mean_edge_length(mesh), np.mean(lens), rtol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError, match="non-negative"):
        NoiseSpec(-0.1)
    for level in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(level)
    with pytest.raises(ValueError, match="mode"):
        NoiseSpec(0.1, mode="sideways")
    for seed in (-1, 2.5, "7", None):
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(0.1, seed=seed)
    # numpy integers are integers
    for seed in (np.int64(3), np.uint32(3)):
        assert NoiseSpec(0.1, seed=seed).seed == 3
