import hashlib

import numpy as np
import pytest

from tgvdenoise import NoiseSpec, add_gaussian_noise, make_cube, make_icosphere, save_mesh
from tgvdenoise.cli import main
from tgvdenoise.noise import MODES, mean_edge_length, vertex_normals

from conftest import on_pinned_build


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


# the benchmark's cube input, make_cube(10, 0.05) at level 0.3 and seed 7, in
# each mode: the sha256 of add_gaussian_noise's vertices (float64), and of the
# OBJ that add-noise writes from the clean cube's OBJ, and add-noise's stdout
_NOISE_PINS = {
    "iid-coordinate": (
        "5347e362ebd64258da2adfec9721c299016a15ed175fb779ff5ae6a467073618",
        "2cccfd2118d736f3c66f7546c15e854918cba2bfb8ab8e9e4828260ecc2494c2",
        '{"output": "noisy.obj", "mean_edge_length": 0.005690355937288493, '
        '"requested_sigma": 0.0017071067811865479, '
        '"realized_sigma": 0.001685523837556212, "vertex_count": 602}\n'),
    "vertex-normal": (
        "bf4e91b7b87d173a59916c79d0a50d24f746b840bb387d5e8883f6eb117d6fb4",
        "6897d53aa4b0777d81d20a5cb3d546fc9d98702745be12b7039122113dd062c5",
        '{"output": "noisy.obj", "mean_edge_length": 0.005690355937288493, '
        '"requested_sigma": 0.0017071067811865479, '
        '"realized_sigma": 0.00157416850818459, "vertex_count": 602}\n'),
}


@pytest.mark.parametrize("mode", MODES)
def test_noise_keeps_its_bytes(capsys, tmp_path, monkeypatch, mode):
    # the library and the command make the same noisy mesh; its bytes and
    # the command's report are pinned where float digests are recorded
    cube = make_cube(10, 0.05)
    noisy = add_gaussian_noise(cube, NoiseSpec(0.3, mode=mode, seed=7))
    monkeypatch.chdir(tmp_path)
    save_mesh(cube, "cube.obj")
    save_mesh(noisy, "library.obj")
    assert main(["add-noise", "cube.obj", "-o", "noisy.obj", "--level", "0.3",
                 "--mode", mode, "--seed", "7"]) == 0
    written = (tmp_path / "noisy.obj").read_bytes()
    assert written == (tmp_path / "library.obj").read_bytes()
    if on_pinned_build():
        digests = (hashlib.sha256(noisy.vertices.tobytes()).hexdigest(),
                   hashlib.sha256(written).hexdigest(), capsys.readouterr().out)
        assert digests == _NOISE_PINS[mode]
