import json

import numpy as np
import pytest

from tgvdenoise import load_mesh, solver
from tgvdenoise.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(capsys, tmp_path, shape, name, **kw):
    path = tmp_path / name
    argv = ["gen", "--shape", shape, "-o", str(path)]
    for key, value in kw.items():
        argv += [f"--{key}", str(value)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return path, json.loads(out)


def test_gen_shapes(capsys, tmp_path):
    _, info = gen(capsys, tmp_path, "tetrahedron", "tet.obj")
    assert info == {"output": str(tmp_path / "tet.obj"), "vertices": 4, "faces": 4}
    _, info = gen(capsys, tmp_path, "cube", "cube.obj", divisions=3)
    assert info["faces"] == 12 * 9
    _, info = gen(capsys, tmp_path, "icosphere", "ico.off", divisions=2)
    assert info["faces"] == 20 * 16
    _, info = gen(capsys, tmp_path, "plane", "plane.obj", divisions=4)
    assert info["faces"] == 2 * 16


def test_add_noise_deterministic_and_reported(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "icosphere", "ico.off", divisions=3)
    out1, out2 = tmp_path / "n1.off", tmp_path / "n2.off"
    code, report1, _ = run_cli(capsys, "add-noise", str(mesh_path), "-o", str(out1),
                               "--level", "0.3", "--seed", "12")
    assert code == 0
    code, report2, _ = run_cli(capsys, "add-noise", str(mesh_path), "-o", str(out2),
                               "--level", "0.3", "--seed", "12")
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    info, info2 = json.loads(report1), json.loads(report2)
    info.pop("output"), info2.pop("output")
    assert info == info2
    assert abs(info["realized_sigma"] - info["requested_sigma"]) < 0.1 * info["requested_sigma"]


def test_add_noise_level_zero_round_trips(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=2)
    out = tmp_path / "same.obj"
    code, _, _ = run_cli(capsys, "add-noise", str(mesh_path), "-o", str(out),
                         "--level", "0")
    assert code == 0
    assert out.read_bytes() == mesh_path.read_bytes()


def test_metrics_self_comparison(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=2)
    code, out, _ = run_cli(capsys, "metrics", str(mesh_path), str(mesh_path))
    assert code == 0
    info = json.loads(out)
    assert info["theta_degrees"] == 0.0
    assert info["e_v"] == 0.0
    assert info["face_count"] == 48


def test_metrics_face_count_mismatch_exits_1(capsys, tmp_path):
    a, _ = gen(capsys, tmp_path, "cube", "a.obj", divisions=2)
    b, _ = gen(capsys, tmp_path, "cube", "b.obj", divisions=3)
    code, _, err = run_cli(capsys, "metrics", str(a), str(b))
    assert code == 1
    assert "face counts differ" in err


def test_metrics_writes_error_map(capsys, tmp_path):
    mesh_path, info = gen(capsys, tmp_path, "tetrahedron", "tet.obj")
    map_path = tmp_path / "map.csv"
    code, out, _ = run_cli(capsys, "metrics", str(mesh_path), str(mesh_path),
                           "--error-map", str(map_path))
    assert code == 0
    rows = map_path.read_text().strip().splitlines()
    assert rows[0] == "face,angle_degrees"
    assert len(rows) == 1 + info["faces"]


def test_denoise_missing_input_exits_1(capsys, tmp_path):
    missing = tmp_path / "missing.obj"
    code, _, err = run_cli(capsys, "denoise", str(missing), "-o", str(tmp_path / "o.obj"))
    assert code == 1
    assert "missing.obj" in err


def test_denoise_nan_vertex_exits_1(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=3)
    text = mesh_path.read_text().splitlines()
    first = next(i for i, line in enumerate(text) if line.startswith("v "))
    text[first] = "v nan 0 0"
    bad = tmp_path / "nan.obj"
    bad.write_text("\n".join(text) + "\n")
    out = tmp_path / "o.obj"
    code, _, err = run_cli(capsys, "denoise", str(bad), "-o", str(out))
    assert code == 1
    assert "vertex 0 has a non-finite coordinate" in err
    assert not out.exists()



HUGE_INDEX = {
    "obj": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n",
    "off": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n",
}


@pytest.mark.parametrize("fmt", sorted(HUGE_INDEX))
def test_denoise_face_index_beyond_int64_exits_1(capsys, tmp_path, fmt):
    bad = tmp_path / f"huge.{fmt}"
    bad.write_text(HUGE_INDEX[fmt])
    out = tmp_path / "o.obj"
    code, _, err = run_cli(capsys, "denoise", str(bad), "-o", str(out))
    assert code == 1
    assert err.startswith("error: line ") and "out of range" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_denoise_inconsistent_orientation_exits_1(capsys, tmp_path):
    bad = tmp_path / "flipped.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3\nf 1 4 3\n")
    out = tmp_path / "o.obj"
    code, _, err = run_cli(capsys, "denoise", str(bad), "-o", str(out))
    assert code == 1
    assert "face 1 is oriented inconsistently with face 0" in err
    assert not out.exists()


def test_denoise_bowtie_vertex_exits_1(capsys, tmp_path):
    bad = tmp_path / "bowtie.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv -1 0 0\nv 0 -1 0\nf 1 2 3\nf 1 4 5\n")
    out = tmp_path / "o.obj"
    code, _, err = run_cli(capsys, "denoise", str(bad), "-o", str(out))
    assert code == 1
    assert "non-manifold vertex 0" in err
    assert not out.exists()


def test_denoise_clean_cube_is_near_fixed_point(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=4, size=0.05)
    out = tmp_path / "out.obj"
    code, report, _ = run_cli(
        capsys, "denoise", str(mesh_path), "-o", str(out),
        "--ground-truth", str(mesh_path))
    assert code == 0
    info = json.loads(report)
    assert info["theta_filtered_degrees"] < 0.5
    assert info["theta_output_degrees"] < 0.5
    assert info["stop_reason"] in ("tolerance", "max_iters")


def test_denoise_flags_and_outputs(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=3, size=0.05)
    noisy = tmp_path / "noisy.obj"
    run_cli(capsys, "add-noise", str(mesh_path), "-o", str(noisy),
            "--level", "0.2", "--mode", "vertex-normal", "--seed", "5")
    out = tmp_path / "out.obj"
    diag = tmp_path / "diag.csv"
    emap = tmp_path / "errors.csv"
    code, report, _ = run_cli(
        capsys, "denoise", str(noisy), "-o", str(out),
        "--no-dynamic-weights", "--max-iters", "20",
        "--diagnostics", str(diag), "--ground-truth", str(mesh_path),
        "--error-map", str(emap))
    assert code == 0
    info = json.loads(report)
    assert info["iterations"] <= 20
    assert diag.exists() and emap.exists()
    assert load_mesh(out).num_faces == 12 * 9
    header = diag.read_text().splitlines()[0]
    assert header == "iteration,objective,residual_p,residual_q1,residual_q2,normal_change_sq"


def test_denoise_error_map_requires_ground_truth(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "tetrahedron", "tet.obj")
    code, _, err = run_cli(capsys, "denoise", str(mesh_path),
                           "-o", str(tmp_path / "o.obj"),
                           "--error-map", str(tmp_path / "m.csv"))
    assert code == 1
    assert "ground-truth" in err


def test_denoise_solver_failure_exits_2(capsys, tmp_path):
    # on both solver paths: above the factoring threshold one CG product
    # cannot reach 1e-14; below it the factor's solution passes a 1e-14
    # check, but no solve can meet 1e-300
    for shape, divisions, cg_tol, factored in [("icosphere", 4, "1e-14", False),
                                               ("cube", 3, "1e-300", True)]:
        mesh_path, info = gen(capsys, tmp_path, shape, f"{shape}.obj", divisions=divisions)
        assert (info["faces"] <= solver._DIRECT_MAX_FACES) == factored
        noisy = tmp_path / "noisy.obj"
        run_cli(capsys, "add-noise", str(mesh_path), "-o", str(noisy), "--level", "0.3")
        code, _, err = run_cli(capsys, "denoise", str(noisy), "-o", str(tmp_path / "o.obj"),
                               "--cg-max-iters", "1", "--cg-tol", cg_tol)
        assert code == 2
        assert "solver error" in err


def test_seminorms_flat_plane_all_zero(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "plane", "plane.obj", divisions=3)
    code, out, _ = run_cli(capsys, "seminorms", str(mesh_path))
    assert code == 0
    info = json.loads(out)
    assert info["tv"] == 0.0 and info["ho"] == 0.0
    assert info["tgv_at_zero_v"] == 0.0 and info["tgv_at_jump_v"] == 0.0
    assert info["tv_support_edges"] == 0


def test_seminorms_cube_support_is_the_creases(capsys, tmp_path):
    divisions = 4
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=divisions)
    code, out, _ = run_cli(capsys, "seminorms", str(mesh_path))
    assert code == 0
    info = json.loads(out)
    assert info["tv"] > 0.0
    # jumps are nonzero exactly on the 12 cube creases, divisions edges each
    assert info["tv_support_edges"] == 12 * divisions


def test_seminorms_minimize_is_below_both_bounds(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=2)
    code, out, _ = run_cli(capsys, "seminorms", str(mesh_path),
                           "--minimize", "--minimize-iters", "40")
    assert code == 0
    info = json.loads(out)
    assert info["tgv_minimized"] <= min(info["tgv_at_zero_v"], info["tgv_at_jump_v"]) + 1e-12


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["denoise"])  # missing required arguments
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--shape", "dodecahedron", "-o", "x.obj"])
    assert exc.value.code == 1
