import argparse
import json
import re
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from tgvdenoise import SolverParams, load_mesh, reconstruct, solver
from tgvdenoise.cli import _build_parser, main


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


def test_gen_icosphere_default_level_is_3(capsys, tmp_path):
    # the cube's and plane's grid default of 10 would be a 21M-face sphere
    path, info = gen(capsys, tmp_path, "icosphere", "ico.obj")
    assert info["faces"] == 1280
    assert load_mesh(path).num_faces == 1280
    _, info = gen(capsys, tmp_path, "cube", "cube.obj")
    assert info["faces"] == 12 * 100


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


@pytest.mark.parametrize("level", ["0", "0.3"])
def test_add_noise_faceless_mesh_exits_1(capsys, tmp_path, level):
    # a mesh without faces has no mean edge length to scale the noise by
    mesh_path, out = tmp_path / "faceless.off", tmp_path / "out.off"
    mesh_path.write_text("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(capsys, "add-noise", str(mesh_path), "-o", str(out),
                                    "--level", level)
    assert code == 1 and stdout == "" and not out.exists()
    assert err == "error: mesh has no faces\n" and caught == []


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



def test_denoise_overflowing_coordinates_exit_1(capsys, tmp_path):
    bad = tmp_path / "huge.obj"
    bad.write_text("v 0 0 0\nv 1e308 0 0\nv 0 1 0\nf 1 2 3\n")
    out = tmp_path / "o.obj"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "denoise", str(bad), "-o", str(out))
    assert code == 1
    assert err.startswith("error: vertex coordinates overflow")
    assert len(err.strip().splitlines()) == 1
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
        "--sigma-e", "inf", "--max-iters", "20",
        "--diagnostics", str(diag), "--ground-truth", str(mesh_path),
        "--error-map", str(emap))
    assert code == 0
    info = json.loads(report)
    assert info["iterations"] <= 20
    assert diag.exists() and emap.exists()
    assert load_mesh(out).num_faces == 12 * 9
    header = diag.read_text().splitlines()[0]
    assert header == "iteration,objective,residual_p,residual_q1,residual_q2,normal_change_sq"


def _assert_csv_table(path, header, n_rows):
    # the header without a "#", the first column integers 0, 1, ..., every
    # other field exactly its own %.17g formatting
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == header and lines[-1] == "" and len(lines) == n_rows + 2
    for i, line in enumerate(lines[1:-1]):
        first, *rest = line.split(",")
        assert first == str(i)
        assert len(rest) == header.count(",")
        assert all(field == "%.17g" % float(field) for field in rest), line


def test_csv_tables_keep_their_format(capsys, tmp_path):
    mesh_path, info = gen(capsys, tmp_path, "cube", "cube.obj", divisions=3, size=0.05)
    noisy = tmp_path / "noisy.obj"
    run_cli(capsys, "add-noise", str(mesh_path), "-o", str(noisy), "--level", "0.3")
    diag, emap, mmap = (tmp_path / name for name in ("diag.csv", "emap.csv", "mmap.csv"))
    code, _, _ = run_cli(capsys, "denoise", str(noisy), "-o", str(tmp_path / "out.obj"),
                         "--max-iters", "5", "--diagnostics", str(diag),
                         "--ground-truth", str(mesh_path), "--error-map", str(emap))
    assert code == 0
    _assert_csv_table(
        diag, "iteration,objective,residual_p,residual_q1,residual_q2,normal_change_sq", 5)
    _assert_csv_table(emap, "face,angle_degrees", info["faces"])
    code, _, _ = run_cli(capsys, "metrics", str(tmp_path / "out.obj"), str(mesh_path),
                         "--error-map", str(mmap))
    assert code == 0
    assert mmap.read_bytes() == emap.read_bytes()


def test_denoise_error_map_requires_ground_truth(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "tetrahedron", "tet.obj")
    code, _, err = run_cli(capsys, "denoise", str(mesh_path),
                           "-o", str(tmp_path / "o.obj"),
                           "--error-map", str(tmp_path / "m.csv"))
    assert code == 1
    assert "ground-truth" in err
    assert not (tmp_path / "o.obj").exists()


def test_denoise_mismatched_ground_truth_writes_nothing(capsys, tmp_path):
    # the reference's face count is checked before any sweep runs
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=2)
    tet_path, _ = gen(capsys, tmp_path, "tetrahedron", "tet.obj")
    out, diag = tmp_path / "o.obj", tmp_path / "d.csv"
    code, stdout, err = run_cli(capsys, "denoise", str(mesh_path), "-o", str(out),
                                "--ground-truth", str(tet_path), "--diagnostics", str(diag))
    assert code == 1 and stdout == ""
    assert "ground-truth face count" in err
    assert not out.exists() and not diag.exists()


WEIGHT_OPTIONS = ["--alpha1", "--alpha0", "--beta", "--r1", "--r0", "--sigma-e"]
# the stop tolerance's open range
TOLERANCE_RANGES = {"--stop-tol": (0.0, np.inf)}
# 1e-300 to 1e300 every 20 decades, and values no range holds
DECADES = [f"1e{d}" for d in range(-300, 301, 20)] + ["0", "-1", "inf", "nan"]


@pytest.mark.parametrize("option", WEIGHT_OPTIONS + list(TOLERANCE_RANGES))
def test_denoise_float_option_over_every_decade(capsys, tmp_path, monkeypatch, option):
    # 1e-300 to 1e300 every 20 decades, and values no range holds: outside
    # its documented range a value exits 1 with one error line naming the
    # range; inside, the run gives finite output, or, where the system is
    # too ill-conditioned to solve, a solver error; never a warning
    monkeypatch.setattr(reconstruct, "_VERTEX_ITERS", 1)
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=2)
    noisy, out = tmp_path / "noisy.obj", tmp_path / "out.obj"
    run_cli(capsys, "add-noise", str(mesh_path), "-o", str(noisy), "--level", "0.3")
    for value in DECADES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(capsys, "denoise", str(noisy), "-o", str(out),
                                        "--max-iters", "2", option, value)
        if option in WEIGHT_OPTIONS:
            lo, hi = solver.WEIGHT_RANGE
            # inf is the bandwidth's weights-off limit
            inside = lo <= float(value) <= hi or (option, value) == ("--sigma-e", "inf")
        else:
            lo, hi = TOLERANCE_RANGES[option]
            inside = lo < float(value) < hi
        if not inside:
            assert code == 1 and stdout == "", (option, value)
            assert err.startswith(f"error: {option}: ") and len(err.splitlines()) == 1
            assert ("finite" if option == "--stop-tol" else "between") in err
        elif code == 0:
            assert np.isfinite(load_mesh(out).vertices).all(), (option, value)
        else:
            assert code == 2 and err.startswith("solver error: "), (option, value, err)
            assert len(err.splitlines()) == 1


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_parameter_defaults():
    """Each (subcommand, flag) of the README's Parameters table and the
    default it states. A row's flags belong to the subcommand that its first
    flag names, denoise if none; a row naming two flags and one default
    gives both that default."""
    section = README.read_text(encoding="utf-8").split("### Parameters", 1)[1]
    defaults = {}
    for line in section.strip().split("\n\n", 1)[0].splitlines():
        if line.startswith("| `"):
            flags, stated = line.split("|")[1:3]
            flags = [flag.strip(" `") for flag in flags.split(",")]
            command, _, flags[0] = flags[0].rpartition(" ")
            stated = [value.strip() for value in stated.split(",")]
            stated = stated * len(flags) if len(stated) == 1 else stated
            defaults.update(((command or "denoise", flag), value)
                            for flag, value in zip(flags, stated))
    return defaults


def test_readme_states_every_subcommand_default():
    # every row of the README's Parameters table names an option of its
    # subcommand, and every option that is not required and has a default
    # or takes a number has a row: the parser's default where it has one
    # ("off" for a switch), which for a solver flag is SolverParams()'s too.
    # Every --flag the README names anywhere, prose included, is an option
    # of some subcommand (pip's --no-build-isolation aside). A removed option
    # cannot linger in the README, nor a new one go unlisted
    stated = _readme_parameter_defaults()
    subcommands = _build_parser()._subparsers._group_actions[0].choices
    options = {(command, flag): action for command, parser in subcommands.items()
               for action in parser._actions for flag in action.option_strings}
    assert set(stated) <= set(options), set(stated) - set(options)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))
    flags = {flag for _, flag in options} | {"--no-build-isolation"}
    assert named <= flags, named - flags
    params = asdict(SolverParams())
    for key, action in options.items():
        no_default = action.default in (None, argparse.SUPPRESS)
        if action.required or no_default and action.type not in (int, float):
            continue
        assert key in stated, key
        if action.nargs == 0:
            assert stated[key] == "off", key
        elif isinstance(action.default, str):
            assert stated[key] == action.default, key
        elif not no_default:
            assert float(stated[key]) == action.default, key
            if action.dest in params:
                assert float(stated[key]) == params[action.dest], key


@pytest.mark.parametrize("minimize", [False, True], ids=["plain", "minimize"])
@pytest.mark.parametrize("option", ["--alpha1", "--alpha0"])
def test_seminorms_float_option_over_every_decade(capsys, tmp_path, monkeypatch, option,
                                                  minimize):
    # as for denoise: outside WEIGHT_RANGE one error line and exit 1, inside
    # finite energies and exit 0, never a warning
    monkeypatch.setattr(solver, "_MINIMIZE_ITERS", 5)
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=2)
    noisy = tmp_path / "noisy.obj"
    run_cli(capsys, "add-noise", str(mesh_path), "-o", str(noisy), "--level", "0.3")
    extra = ["--minimize"] if minimize else []
    lo, hi = solver.WEIGHT_RANGE
    for value in DECADES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(capsys, "seminorms", str(noisy), option, value,
                                        *extra)
        if not lo <= float(value) <= hi:
            assert code == 1 and stdout == "", (option, value)
            assert err.startswith("error: ") and len(err.splitlines()) == 1
            assert "between" in err
        else:
            assert code == 0, (option, value, err)
            energies = [v for k, v in json.loads(stdout).items() if k.startswith("tgv")]
            assert len(energies) == 2 + minimize
            assert np.isfinite(energies).all(), (option, value)


@pytest.mark.parametrize("argv, words", [
    (["seminorms", "missing.obj", "--alpha1", "1e308"], ["--alpha1", "between"]),
    (["seminorms", "missing.obj", "--alpha0", "nan", "--minimize"], ["--alpha0", "between"]),
    (["denoise", "missing.obj", "-o", "out.obj", "--error-map", "e.csv"],
     ["--error-map", "ground-truth"]),
    (["add-noise", "missing.obj", "-o", "out.obj", "--level", "nan"], ["--level", "finite"]),
    (["add-noise", "missing.obj", "-o", "out.obj", "--level", "inf"], ["--level", "finite"]),
    (["add-noise", "missing.obj", "-o", "out.obj", "--level", "0.3", "--seed", "-1"],
     ["--seed", "seed must be a non-negative integer"]),
    (["denoise", "missing.obj", "-o", "out.obj", "--max-iters", "0"],
     ["--max-iters", "max_outer_iters must be at least 1"]),
    (["denoise", "missing.obj", "-o", "out.obj", "--stop-tol", "0"],
     ["--stop-tol", "stop_tol", "finite"]),
    (["denoise", "missing.obj", "-o", "out.obj", "--sigma-e", "0"],
     ["--sigma-e", "sigma_e", "between", "inf"]),
], ids=["seminorms-alpha1", "seminorms-alpha0", "error-map",
        "add-noise-level-nan", "add-noise-level-inf", "add-noise-seed-negative",
        "max-iters", "stop-tol", "sigma-e"])
def test_bad_values_fail_before_the_mesh_is_read(capsys, tmp_path, argv, words):
    # the input does not exist, so an error about the value shows that it
    # was checked first; the error begins with the flag as typed, and a
    # range error also names the library's parameter
    argv = [str(tmp_path / a) if a.endswith(".obj") else a for a in argv]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: {words[0]}") and len(err.splitlines()) == 1
    assert all(word in err for word in words), err


@pytest.mark.parametrize("shape, args, message", [
    ("icosphere", ["--divisions", "-1"], "subdivisions"),
    ("plane", ["--divisions", "0"], "nx and ny"),
    ("plane", ["--divisions", "-2"], "nx and ny"),
    ("cube", ["--divisions", "-2"], "divisions"),
    ("cube", ["--size", "-1"], "size"),
    ("tetrahedron", ["--size", "-1"], "scale"),
    ("icosphere", ["--size", "-1", "--divisions", "1"], "radius"),
    ("plane", ["--size", "0"], "size"),
    ("cube", ["--size", "inf"], "size"),
    ("icosphere", ["--size", "nan", "--divisions", "1"], "radius"),
    ("tetrahedron", ["--divisions", "-3"], "does not apply"),
    ("tetrahedron", ["--divisions", "2"], "does not apply"),
    ("cube", ["--size", "1e-300"], "size must be between"),
    ("icosphere", ["--size", "1e300"], "radius must be between"),
])
def test_gen_bad_shape_arguments_fail_before_a_mesh_is_built(capsys, tmp_path, shape,
                                                             args, message):
    # a negative size would write the closed shapes inside out, a size of
    # 1e-300 a degenerate mesh and one of 1e300 overflowing areas, and a
    # division count below the shape's least a degenerate mesh or a numpy
    # error; the tetrahedron has no divisions to set. The error names the
    # builder's parameter and the flag as typed, which each case gives first
    out = tmp_path / "out.obj"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(capsys, "gen", "--shape", shape, "-o", str(out), *args)
    assert code == 1 and stdout == "" and not out.exists()
    assert err.startswith(f"error: {args[0]}") and len(err.splitlines()) == 1
    assert message in err and caught == []


def test_denoise_unknown_extension_exits_1(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "tetrahedron", "tet.obj")
    ply = tmp_path / "in.ply"
    ply.write_bytes(mesh_path.read_bytes())
    code, stdout, err = run_cli(capsys, "denoise", str(ply), "-o", str(tmp_path / "out.obj"))
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "extension" in err


@pytest.mark.parametrize("command", [["denoise", "IN"], ["add-noise", "IN", "--level", "0.3"],
                                     ["gen", "--shape", "cube"]],
                         ids=["denoise", "add-noise", "gen"])
def test_unknown_output_extension_fails_before_any_work(capsys, tmp_path, monkeypatch,
                                                        command):
    # the output's format is looked up before the mesh is read or filtered
    mesh_path, _ = gen(capsys, tmp_path, "tetrahedron", "tet.obj")

    def never(*args, **kwargs):
        raise AssertionError("work started before the output format was checked")

    for name in ("load_mesh", "filter_normals", "make_cube"):
        monkeypatch.setattr(f"tgvdenoise.cli.{name}", never)
    out = tmp_path / "x.ply"
    argv = [str(mesh_path) if arg == "IN" else arg for arg in command]
    code, stdout, err = run_cli(capsys, *argv, "-o", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "extension" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tet.obj"]


@pytest.mark.parametrize("option, command", [
    ("--output", ["denoise", "IN", "-o", "MISSING"]),
    ("--diagnostics", ["denoise", "IN", "-o", "OUT", "--diagnostics", "MISSING"]),
    ("--error-map", ["denoise", "IN", "-o", "OUT", "--ground-truth", "IN",
                     "--error-map", "MISSING"]),
    ("--error-map", ["metrics", "IN", "IN", "--error-map", "MISSING"]),
    ("--output", ["gen", "--shape", "cube", "-o", "MISSING"]),
], ids=["output", "diagnostics", "error-map", "metrics-error-map", "gen"])
def test_missing_output_directory_fails_before_any_work(capsys, tmp_path, monkeypatch,
                                                        option, command):
    # every path a command writes is checked before the mesh is read, so a
    # denoise no longer leaves its mesh behind when the error map has no
    # directory
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=2)

    def never(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    for name in ("load_mesh", "filter_normals", "make_cube"):
        monkeypatch.setattr(f"tgvdenoise.cli.{name}", never)
    paths = {"IN": mesh_path, "OUT": tmp_path / "out.obj",
             "MISSING": tmp_path / "missing" / "out.obj"}
    code, stdout, err = run_cli(capsys, *(str(paths.get(arg, arg)) for arg in command))
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: {option}: ") and len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cube.obj"]


@pytest.mark.parametrize("first, second, command", [
    ("--output", "--error-map", ["denoise", "IN", "-o", "SAME", "--ground-truth", "IN",
                                 "--error-map", "same.obj"]),
    ("--output", "--diagnostics", ["denoise", "IN", "-o", "SAME", "--diagnostics",
                                   "same.obj"]),
    ("--diagnostics", "--error-map", ["denoise", "IN", "-o", "OUT", "--diagnostics",
                                      "SAME", "--ground-truth", "IN",
                                      "--error-map", "same.obj"]),
], ids=["output-error-map", "output-diagnostics", "diagnostics-error-map"])
def test_outputs_naming_one_file_fail_before_any_work(capsys, tmp_path, monkeypatch,
                                                      first, second, command):
    # the two paths resolve to one file, spelled once absolute and once
    # relative to the working directory
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=2)
    monkeypatch.chdir(tmp_path)

    def never(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    for name in ("load_mesh", "filter_normals"):
        monkeypatch.setattr(f"tgvdenoise.cli.{name}", never)
    paths = {"IN": mesh_path, "OUT": tmp_path / "out.obj", "SAME": tmp_path / "same.obj"}
    code, stdout, err = run_cli(capsys, *(str(paths.get(arg, arg)) for arg in command))
    assert code == 1 and stdout == ""
    assert err == f"error: {first} and {second} both name same.obj\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cube.obj"]


def test_add_noise_may_overwrite_its_input(capsys, tmp_path):
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=2)
    before = mesh_path.read_bytes()
    code, _, _ = run_cli(capsys, "add-noise", str(mesh_path), "-o", str(mesh_path),
                         "--level", "0.3")
    assert code == 0 and mesh_path.read_bytes() != before


def test_denoise_solver_failure_exits_2(capsys, tmp_path, monkeypatch):
    # on both solver paths, with one CG iteration allowed per solve: above
    # the factoring threshold one CG product cannot reach 1e-14; below it
    # the factor's solution passes a 1e-14 check, but no solve can meet 1e-300
    monkeypatch.setattr(solver, "_CG_MAX_ITERS", 1)
    for shape, divisions, cg_tol, factored in [("icosphere", 4, 1e-14, False),
                                               ("cube", 3, 1e-300, True)]:
        mesh_path, info = gen(capsys, tmp_path, shape, f"{shape}.obj", divisions=divisions)
        assert (info["faces"] <= solver._DIRECT_MAX_FACES) == factored
        noisy = tmp_path / "noisy.obj"
        run_cli(capsys, "add-noise", str(mesh_path), "-o", str(noisy), "--level", "0.3")
        monkeypatch.setattr(solver, "_CG_REL_TOL", cg_tol)
        code, _, err = run_cli(capsys, "denoise", str(noisy), "-o", str(tmp_path / "o.obj"))
        assert code == 2
        assert "solver error" in err


def _usage_error(capsys, argv):
    """The one error line of a command line that the parser rejects, with
    exit code 1 and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    return errors[0]


def test_denoise_has_no_cg_tol_option(capsys, tmp_path):
    # the inner solves' tolerance is the constant solver._CG_REL_TOL
    assert "--cg-tol" in _usage_error(capsys, [
        "denoise", str(tmp_path / "in.obj"), "-o", str(tmp_path / "out.obj"),
        "--cg-tol", "1e-5"])


@pytest.mark.parametrize("argv, option", [
    (["denoise", "IN", "-o", "OUT", "--vertex-iters", "30"], "--vertex-iters"),
    (["seminorms", "IN", "--minimize", "--minimize-iters", "5"], "--minimize-iters"),
], ids=["vertex-iters", "minimize-iters"])
def test_removed_iteration_options_are_rejected(capsys, tmp_path, argv, option):
    # the sweeps of the vertex update and of the TGV search are the constants
    # reconstruct._VERTEX_ITERS and solver._MINIMIZE_ITERS
    paths = {"IN": str(tmp_path / "in.obj"), "OUT": str(tmp_path / "out.obj")}
    assert option in _usage_error(capsys, [paths.get(arg, arg) for arg in argv])


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


def test_seminorms_minimize_is_below_both_bounds(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "_MINIMIZE_ITERS", 40)
    mesh_path, _ = gen(capsys, tmp_path, "cube", "cube.obj", divisions=2)
    code, out, _ = run_cli(capsys, "seminorms", str(mesh_path), "--minimize")
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
