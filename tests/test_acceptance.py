"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -s``).

The end-to-end runs use the pinned benchmark configuration: a subdivided
cube (12 * 10^2 = 1200 faces) of side 0.05 so its mean edge length sits at
the operating scale the default weights were chosen for, corrupted along
vertex normals with sigma = 0.3 * mean edge length at seed 7.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from tgvdenoise import (NoiseSpec, SolverParams, add_gaussian_noise,
                        build_connectivity, build_edge_topology, curve_jump,
                        curve_jump_adjoint, edge_jump, edge_jump_adjoint,
                        face_angle_errors, face_normals,
                        feature_adjacent_faces, filter_normals, inner_curves,
                        inner_edges, inner_faces, inner_lines, line_jump,
                        line_jump_adjoint, ho_seminorm, make_cube,
                        make_icosphere, make_plane, make_tetrahedron,
                        make_two_triangle_square, mean_angular_difference,
                        mean_edge_length, shrink, update_vertices,
                        vertex_error, TriMesh, closest_point_distances)
from tgvdenoise.solver import (_cg_block, _direct_solver, _normal_matrix,
                               _v_matrix, normal_system_operator,
                               v_system_operator)
from oracles import (closest_point_on_triangle, far_triangles,
                     golden_section_shrink)

BENCH_DIVISIONS = 10
BENCH_SIZE = 0.05
BENCH_NOISE = NoiseSpec(level=0.3, mode="vertex-normal", seed=7)
BENCH_PARAMS = SolverParams(alpha1=1.0, alpha0=0.1, beta=100.0)


@pytest.fixture(scope="module")
def bench():
    clean = make_cube(BENCH_DIVISIONS, size=BENCH_SIZE)
    noisy = add_gaussian_noise(clean, BENCH_NOISE)
    conn = build_connectivity(noisy)
    return {
        "clean": clean,
        "noisy": noisy,
        "conn": conn,
        "n_clean": face_normals(clean),
        "n_noisy": face_normals(noisy),
    }


@pytest.fixture(scope="module")
def bench_run(bench):
    start = time.monotonic()
    result = filter_normals(bench["conn"], bench["n_noisy"], BENCH_PARAMS)
    output = update_vertices(bench["noisy"], result.normals, iters=30)
    elapsed = time.monotonic() - start
    return result, output, elapsed


@pytest.fixture(scope="module")
def bench_run_unweighted(bench):
    params = SolverParams(alpha1=1.0, alpha0=0.1, beta=100.0, dynamic_weights=False)
    result = filter_normals(bench["conn"], bench["n_noisy"], params)
    output = update_vertices(bench["noisy"], result.normals, iters=30)
    return result, output


def test_criterion_1_adjoint_identities():
    meshes = [make_tetrahedron(), make_cube(3), make_plane(5, 4)]
    rng = np.random.default_rng(100)
    worst = 0.0
    for mesh in meshes:
        conn = build_connectivity(mesh)
        topo, lines, curves = conn.topo, conn.lines, conn.curves
        for _ in range(10):
            u = rng.normal(size=(topo.num_faces, 3))
            v = rng.normal(size=(topo.num_edges, 3))
            w1 = rng.normal(size=(lines.num_lines, 3))
            w2 = rng.normal(size=(curves.num_curves, 3))
            checks = [
                (inner_edges(topo, edge_jump(topo, u), v),
                 inner_faces(topo, u, edge_jump_adjoint(topo, v))),
                (inner_lines(lines, line_jump(lines, v), w1),
                 inner_edges(topo, v, line_jump_adjoint(lines, w1))),
                (inner_curves(curves, curve_jump(curves, v), w2),
                 inner_edges(topo, v, curve_jump_adjoint(curves, w2))),
            ]
            for lhs, rhs in checks:
                defect = abs(lhs + rhs) / (abs(lhs) + 1.0)
                worst = max(worst, defect)
                assert abs(lhs + rhs) <= 1e-10 * (abs(lhs) + 1.0)
    print(f"\n[ACCEPTANCE] 1 adjoint identities: PASS "
          f"(3 meshes x 10 fields x 3 pairs, worst defect {worst:.2e})")


def test_criterion_2_second_difference_identities():
    rng = np.random.default_rng(200)
    worst = 0.0
    for mesh in [make_tetrahedron(), make_cube(3), make_icosphere(1)]:
        conn = build_connectivity(mesh)
        lines, curves = conn.lines, conn.curves
        u = rng.normal(size=conn.topo.num_faces)
        v = edge_jump(conn.topo, u)

        lj = line_jump(lines, v)
        same_dir = 2 * u[lines.line_face] - u[lines.face_across_in] - u[lines.face_across_out]
        err = np.abs(lj - same_dir).max()
        worst = max(worst, err)
        assert err <= 1e-12

        cj = curve_jump(curves, v)
        far = far_triangles(curves)
        near = u[lines.face_across_in] + u[lines.face_across_out] - u[lines.line_face]
        cross_dir = (near - u[far[:, 0]]) + (near - u[far[:, 1]])
        err = np.abs(cj - cross_dir).max()
        worst = max(worst, err)
        assert err <= 1e-12

        ho = ho_seminorm(lines, u)
        via_jump = float((np.abs(lj) * lines.line_len).sum())
        err = abs(ho - via_jump)
        worst = max(worst, err)
        assert err <= 1e-12 * (1.0 + abs(ho))
    print(f"\n[ACCEPTANCE] 2 second-difference identities: PASS "
          f"(closed meshes, worst abs error {worst:.2e})")


def test_criterion_3_subproblem_oracles():
    mesh = make_cube(2, size=0.05)  # 48 faces
    conn = build_connectivity(mesh)
    params = SolverParams(cg_rel_tol=1e-10)
    rng = np.random.default_rng(300)
    worst_rel = worst_factor = 0.0
    for apply_op, matrix, n, measure in [
        (normal_system_operator(conn, params), _normal_matrix(conn, params),
         conn.topo.num_faces, conn.topo.face_area),
        (v_system_operator(conn, params), _v_matrix(conn, params),
         conn.topo.num_edges, conn.topo.edge_len),
    ]:
        dense = np.empty((n, n))
        for i in range(n):
            e = np.zeros((n, 1))
            e[i, 0] = 1.0
            dense[:, i] = apply_op(e)[:, 0]
        b = rng.normal(size=(n, 3))
        x_direct = np.linalg.solve(dense, b)
        x_cg, _ = _cg_block(apply_op, b, measure, params.cg_rel_tol,
                            params.cg_max_iters, "acceptance")
        rel = np.linalg.norm(x_cg - x_direct) / np.linalg.norm(x_direct)
        worst_rel = max(worst_rel, rel)
        assert rel < 1e-8
        # the sparse factor that small meshes solve with
        x_factor = _direct_solver(matrix, measure, "acceptance")(b)
        rel = np.linalg.norm(x_factor - x_direct) / np.linalg.norm(x_direct)
        worst_factor = max(worst_factor, rel)
        assert rel < 1e-8

    worst_shrink = 0.0
    for _ in range(25):
        w = rng.uniform(0.01, 3.0)
        y = rng.uniform(0.1, 5.0)
        z = rng.normal(size=3)
        t_star = golden_section_shrink(w, y, np.linalg.norm(z))
        err = np.abs(shrink(w, y, z) - t_star * z / np.linalg.norm(z)).max()
        worst_shrink = max(worst_shrink, err)
        assert err <= 1e-8
    print(f"\n[ACCEPTANCE] 3 subproblem oracles: PASS (dense-vs-CG rel "
          f"{worst_rel:.2e}, dense-vs-factor rel {worst_factor:.2e}, "
          f"shrink-vs-search {worst_shrink:.2e})")


def test_criterion_4_alm_convergence(bench, bench_run):
    result, _, _ = bench_run
    d = result.diagnostics
    ratios = d[0, 2:5] / np.maximum(d[-1, 2:5], np.finfo(float).tiny)
    assert (ratios >= 10.0).all()
    if result.stop_reason == "tolerance":
        assert d[-1, 5] < 1e-10
        assert result.iterations <= 100
    else:
        assert result.stop_reason == "max_iters"
        assert result.iterations == 100
    print(f"\n[ACCEPTANCE] 4 ALM convergence: PASS (residual decrease "
          f"{ratios[0]:.0f}x/{ratios[1]:.0f}x/{ratios[2]:.0f}x, "
          f"stopped by {result.stop_reason} at k={result.iterations})")


def test_bench_cube_cg_work(bench_run):
    # the bench cube is factored: every direct solution passes CG's first
    # residual check, so each solve costs one product. Warm-started CG
    # alone took 4 573 normal and 2 441 v products over the 100 sweeps
    result, _, _ = bench_run
    assert (result.cg_iterations == 1).all()
    n_total, v_total = result.cg_iterations.sum(axis=0)
    assert n_total == v_total == result.iterations
    print(f"\n[ACCEPTANCE] CG work on the bench cube: {n_total} normal and "
          f"{v_total} v products over {result.iterations} sweeps")


def test_criterion_5_end_to_end_denoising(bench, bench_run):
    result, output, elapsed = bench_run
    theta_in = mean_angular_difference(bench["n_noisy"], bench["n_clean"])
    theta_filtered = mean_angular_difference(result.normals, bench["n_clean"])
    errors = face_angle_errors(face_normals(output), bench["n_clean"])
    theta_out = float(errors.mean())
    within5 = float((errors < 5.0).mean())
    assert theta_filtered < theta_in / 3.0
    assert theta_out <= theta_in / 3.0
    assert within5 >= 0.90
    assert elapsed < 60.0
    print(f"\n[ACCEPTANCE] 5 end-to-end denoising: PASS (theta {theta_in:.2f} -> "
          f"{theta_filtered:.2f} filtered / {theta_out:.2f} reconstructed deg, "
          f"{100 * within5:.1f}% faces within 5 deg, {elapsed:.1f}s)")


def test_criterion_6_dynamic_weight_ablation(bench, bench_run, bench_run_unweighted):
    _, output_w, _ = bench_run
    _, output_u = bench_run_unweighted
    n_clean = bench["n_clean"]
    errors_w = face_angle_errors(face_normals(output_w), n_clean)
    errors_u = face_angle_errors(face_normals(output_u), n_clean)
    assert errors_w.mean() < errors_u.mean()

    topo_clean = build_edge_topology(bench["clean"])
    feature = feature_adjacent_faces(topo_clean, n_clean, threshold_deg=30.0)
    assert len(feature) > 0
    assert errors_w[feature].mean() < errors_u[feature].mean()
    print(f"\n[ACCEPTANCE] 6 dynamic-weight ablation: PASS (theta "
          f"{errors_w.mean():.2f} < {errors_u.mean():.2f} deg; feature faces "
          f"{errors_w[feature].mean():.2f} < {errors_u[feature].mean():.2f} deg)")


def test_criterion_7_cli_determinism(tmp_path):
    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "tgvdenoise.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    clean = tmp_path / "clean.obj"
    noisy = tmp_path / "noisy.obj"
    cli("gen", "--shape", "cube", "--divisions", "4", "--size", "0.05",
        "-o", str(clean))
    cli("add-noise", str(clean), "-o", str(noisy), "--level", "0.3",
        "--mode", "vertex-normal", "--seed", "7")

    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"out_{run}.obj"
        diag = tmp_path / f"diag_{run}.csv"
        stdout = cli("denoise", str(noisy), "-o", str(out),
                     "--max-iters", "15", "--diagnostics", str(diag),
                     "--ground-truth", str(clean))
        report = json.loads(stdout)
        report.pop("output")
        outputs.append((out.read_bytes(), diag.read_bytes(), report))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]
    print("\n[ACCEPTANCE] 7 determinism: PASS (byte-identical meshes, "
          "diagnostics, and reports across two CLI runs)")


def test_criterion_8_metric_sanity():
    mesh = make_cube(3)
    n = face_normals(mesh)
    assert mean_angular_difference(n, n) == 0.0

    rng = np.random.default_rng(800)
    worst = 0.0
    for _ in range(3):
        ref = TriMesh(rng.normal(size=(60, 3)), np.arange(60).reshape(20, 3))
        points = rng.normal(size=(15, 3)) * 1.5
        fast = closest_point_distances(points, ref)
        tri = ref.vertices[ref.faces]
        for i, p in enumerate(points):
            oracle = min(closest_point_on_triangle(p, tri[k]) for k in range(20))
            worst = max(worst, abs(fast[i] - oracle))
            assert abs(fast[i] - oracle) <= 1e-12

    sphere = make_icosphere(5)
    assert sphere.num_vertices >= 10_000
    noisy = add_gaussian_noise(sphere, NoiseSpec(0.3, mode="iid-coordinate", seed=8))
    target = 0.3 * mean_edge_length(sphere)
    realized = float((noisy.vertices - sphere.vertices).std())
    assert abs(realized - target) / target < 0.05
    print(f"\n[ACCEPTANCE] 8 metric sanity: PASS (theta(m,m)=0, closest-point "
          f"defect {worst:.1e}, noise sigma off by "
          f"{100 * abs(realized - target) / target:.2f}%)")
