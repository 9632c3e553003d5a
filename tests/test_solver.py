import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tgvdenoise import (NoiseSpec, SolverError, SolverParams, SolverState,
                        TriMesh, add_gaussian_noise, build_connectivity,
                        curve_jump, curve_jump_adjoint, edge_jump,
                        edge_jump_adjoint, edge_weights, face_normals,
                        filter_normals, inner_edges, inner_faces, line_jump,
                        line_jump_adjoint, make_cube, mean_angular_difference,
                        minimize_tgv, shrink, tgv_energy)
from tgvdenoise import solver
from tgvdenoise.solver import (_cg_block, normal_system_operator,
                               solve_n_subproblem, solve_p_subproblem,
                               solve_q1_subproblem, solve_q2_subproblem,
                               solve_v_subproblem, update_multipliers,
                               v_system_operator)


# -- shrink -------------------------------------------------------------------

def test_shrink_no_threshold_is_identity():
    z = np.array([1.0, -2.0, 0.5])
    assert np.allclose(shrink(0.0, 2.0, z), z)


def test_shrink_clamps_small_vectors():
    z = np.array([0.3, 0.0, 0.0])
    assert np.all(shrink(1.0, 2.0, z) == 0.0)  # |z| <= x/y = 0.5
    assert np.all(shrink(1.0, 2.0, np.zeros(3)) == 0.0)


def test_shrink_worked_example():
    out = shrink(1.0, 2.0, np.array([3.0, 0.0, 0.0]))
    assert np.allclose(out, [2.5, 0.0, 0.0], atol=1e-15)


def test_shrink_rowwise_with_per_row_weights():
    z = np.array([[3.0, 0, 0], [0.3, 0, 0], [0, 4.0, 0]])
    out = shrink(np.array([1.0, 1.0, 2.0]), 2.0, z)
    assert np.allclose(out, [[2.5, 0, 0], [0, 0, 0], [0, 3.0, 0]])


def test_shrink_matches_golden_section_oracle(rng):
    # per-element objective: w*t + y/2*(t - |z|)^2 over the ray t >= 0
    from oracles import golden_section_shrink

    for _ in range(20):
        w = rng.uniform(0.01, 3.0)
        y = rng.uniform(0.1, 5.0)
        z = rng.normal(size=3)
        out = shrink(w, y, z)
        t_star = golden_section_shrink(w, y, np.linalg.norm(z))
        assert np.allclose(out, t_star * z / np.linalg.norm(z), atol=1e-10)


# -- edge weights ------------------------------------------------------------

def test_edge_weights_identical_normals(tet_conn):
    n = np.tile([0.0, 0.0, 1.0], (tet_conn.topo.num_faces, 1))
    assert np.allclose(edge_weights(tet_conn.topo, n, 0.5), 1.0)


def test_edge_weights_opposite_normals(square_conn):
    topo = square_conn.topo
    n = np.array([[0.0, 0, 1], [0, 0, -1.0]])
    w = edge_weights(topo, n, 1.0)
    interior = ~topo.is_boundary
    assert np.allclose(w[interior], np.exp(-2.0))  # |n1 - n2|^2 = 4
    assert np.all(w[topo.is_boundary] == 1.0)


def test_edge_weights_monotone_in_normal_difference(square_conn):
    topo = square_conn.topo
    interior = ~topo.is_boundary
    previous = 2.0
    for angle in np.linspace(0.0, np.pi, 7):
        n = np.array([[0.0, 0, 1], [np.sin(angle), 0, np.cos(angle)]])
        w = float(edge_weights(topo, n, 0.7)[interior][0])
        assert w < previous or angle == 0.0
        assert 0.0 < w <= 1.0
        previous = w


# -- the linear systems --------------------------------------------------------

def _dense_from_operator(apply_op, n):
    cols = []
    for i in range(n):
        e = np.zeros((n, 1))
        e[i, 0] = 1.0
        cols.append(apply_op(e)[:, 0])
    return np.array(cols).T


def test_normal_system_on_constant_field(cube_small_conn):
    params = SolverParams()
    apply_op = normal_system_operator(cube_small_conn, params)
    const = np.tile([0.3, -0.2, 0.9], (cube_small_conn.topo.num_faces, 1))
    assert np.allclose(apply_op(const), params.beta * const, atol=1e-12)


def test_system_operators_are_symmetric(cube_small_conn, rng):
    conn = cube_small_conn
    params = SolverParams()
    apply_n = normal_system_operator(conn, params)
    apply_v = v_system_operator(conn, params)
    x = rng.normal(size=(conn.topo.num_faces, 3))
    y = rng.normal(size=(conn.topo.num_faces, 3))
    lhs = inner_faces(conn.topo, apply_n(x), y)
    rhs = inner_faces(conn.topo, x, apply_n(y))
    assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + 1)
    a = rng.normal(size=(conn.topo.num_edges, 3))
    b = rng.normal(size=(conn.topo.num_edges, 3))
    lhs = inner_edges(conn.topo, apply_v(a), b)
    rhs = inner_edges(conn.topo, a, apply_v(b))
    assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + 1)


def test_system_matrices_match_composed_operators(all_conns, rng):
    # each system is assembled once as a sum of sparse products; its action
    # must be the operator composition it replaces (measured <= 3.4e-16)
    params = SolverParams(beta=7.0, r1=3.0, r0=0.5)
    for conn in all_conns.values():
        topo, lines, curves = conn.topo, conn.lines, conn.curves
        x = rng.normal(size=(topo.num_faces, 3))
        composed = params.beta * x - params.r1 * edge_jump_adjoint(topo, edge_jump(topo, x))
        got = normal_system_operator(conn, params)(x)
        assert np.abs(got - composed).max() <= 1e-12 * np.abs(composed).max()
        v = rng.normal(size=(topo.num_edges, 3))
        composed = (params.r1 * v
                    - params.r0 * line_jump_adjoint(lines, line_jump(lines, v))
                    - params.r0 * curve_jump_adjoint(curves, curve_jump(curves, v)))
        got = v_system_operator(conn, params)(v)
        assert np.abs(got - composed).max() <= 1e-12 * np.abs(composed).max()


def test_measure_weighted_system_matrices_are_symmetric(all_conns):
    # conjugate gradients in the measure-weighted inner product needs M*A
    # symmetric (M the diagonal of element measures); measured <= 1.1e-16
    # of the largest entry
    params = SolverParams()
    for conn in all_conns.values():
        topo = conn.topo
        for factory, measure in ((normal_system_operator, topo.face_area),
                                 (v_system_operator, topo.edge_len)):
            weighted = measure[:, None] * _dense_from_operator(
                factory(conn, params), len(measure))
            gap = np.abs(weighted - weighted.T).max()
            assert gap <= 1e-12 * np.abs(weighted).max()


def test_v_system_is_positive_definite(cube_small_conn, rng):
    conn = cube_small_conn
    params = SolverParams()
    apply_v = v_system_operator(conn, params)
    for _ in range(5):
        v = rng.normal(size=(conn.topo.num_edges, 3))
        quad = inner_edges(conn.topo, apply_v(v), v)
        floor = params.r1 * inner_edges(conn.topo, v, v)
        assert quad >= floor - 1e-9 * abs(quad)


def test_cg_matches_dense_solve(cube_small_conn, rng):
    conn = cube_small_conn
    params = SolverParams(cg_rel_tol=1e-10)
    for apply_op, n, measure in [
        (normal_system_operator(conn, params), conn.topo.num_faces, conn.topo.face_area),
        (v_system_operator(conn, params), conn.topo.num_edges, conn.topo.edge_len),
    ]:
        dense = _dense_from_operator(apply_op, n)
        b = rng.normal(size=(n, 3))
        x_direct = np.linalg.solve(dense, b)
        # from zero, and warm-started from a random guess
        for x0 in (None, 10.0 * np.random.default_rng(5).normal(size=(n, 3))):
            x_cg, _ = _cg_block(apply_op, b, measure, params.cg_rel_tol,
                                params.cg_max_iters, "test", x0=x0)
            rel = np.linalg.norm(x_cg - x_direct) / np.linalg.norm(x_direct)
            assert rel < 1e-8


def test_cg_zero_rhs_returns_zero(cube_small_conn):
    conn = cube_small_conn
    params = SolverParams()
    out, _ = _cg_block(v_system_operator(conn, params),
                       np.zeros((conn.topo.num_edges, 3)), conn.topo.edge_len,
                       params.cg_rel_tol, params.cg_max_iters, "test")
    assert np.all(out == 0.0)


def test_cg_nonconvergence_raises(cube_small_conn, rng):
    conn = cube_small_conn
    params = SolverParams()
    b = rng.normal(size=(conn.topo.num_edges, 3))
    with pytest.raises(SolverError) as err:
        _cg_block(v_system_operator(conn, params), b, conn.topo.edge_len,
                  1e-14, 2, "test")
    assert err.value.residuals is not None


@pytest.mark.parametrize("case", ["nan-start", "nan-operator"])
def test_cg_non_finite_residual_raises(case):
    # a NaN residual norm compares as below any target, which used to pass
    # for convergence: all-NaN from a NaN start, zeros from a NaN operator
    rhs, measure = np.ones((4, 3)), np.ones(4)
    if case == "nan-start":
        apply_op, x0 = (lambda x: x), np.full((4, 3), np.nan)
    else:
        apply_op, x0 = (lambda x: np.full_like(x, np.nan)), None
    with pytest.raises(SolverError, match="non-finite"):
        _cg_block(apply_op, rhs, measure, 1e-8, 50, "test", x0=x0)


def _counting(apply_op):
    calls = []

    def counted(x):
        calls.append(1)
        return apply_op(x)

    return counted, calls


def test_cg_warm_start_zero_rhs_channel_returns_zero(cube_small_conn, rng):
    conn = cube_small_conn
    params = SolverParams()
    b = rng.normal(size=(conn.topo.num_edges, 3))
    b[:, 1] = 0.0
    out, _ = _cg_block(v_system_operator(conn, params), b, conn.topo.edge_len,
                       params.cg_rel_tol, params.cg_max_iters, "test",
                       x0=rng.normal(size=b.shape))
    assert np.all(out[:, 1] == 0.0)
    assert np.any(out[:, [0, 2]] != 0.0)


def test_cg_warm_start_at_the_solution_takes_one_product(cube_small_conn, rng):
    conn = cube_small_conn
    params = SolverParams()
    for factory, n, measure in [
        (normal_system_operator, conn.topo.num_faces, conn.topo.face_area),
        (v_system_operator, conn.topo.num_edges, conn.topo.edge_len),
    ]:
        apply_op = factory(conn, params)
        b = rng.normal(size=(n, 3))
        x_direct = np.linalg.solve(_dense_from_operator(apply_op, n), b)
        counted, calls = _counting(apply_op)
        x_cg, products = _cg_block(counted, b, measure, params.cg_rel_tol,
                                   params.cg_max_iters, "test", x0=x_direct)
        assert len(calls) == products <= 1
        assert np.array_equal(x_cg, x_direct)


# -- subproblems ----------------------------------------------------------------

def _fresh_state(conn, n_in, params):
    return SolverState.initial(conn, n_in, params)


def test_n_subproblem_fidelity_only_limit(cube_small_conn):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams(r1=1e-12)
    state = _fresh_state(conn, n_in, params)
    out = solve_n_subproblem(conn, state, n_in, params,
                             normal_system_operator(conn, params))
    assert np.allclose(out, n_in, atol=1e-9)


def test_v_subproblem_zero_inputs(cube_small_conn):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams()
    state = _fresh_state(conn, n_in, params)
    state.N = np.zeros_like(n_in)  # edge_jump(0) = 0 so the full RHS is 0
    assert np.all(solve_v_subproblem(conn, state, params,
                                     v_system_operator(conn, params)) == 0.0)


def test_p_subproblem_zero_argument(cube_small_conn):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams()
    state = _fresh_state(conn, n_in, params)
    state.N = np.zeros_like(n_in)
    assert np.all(solve_p_subproblem(conn, state, params) == 0.0)


def test_q_subproblems_local_optimality(cube_small_conn, rng):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams()
    state = _fresh_state(conn, n_in, params)
    state.v = rng.normal(size=state.v.shape)
    state.lam_Q1 = rng.normal(size=state.lam_Q1.shape)
    state.lam_Q2 = rng.normal(size=state.lam_Q2.shape)
    q1 = solve_q1_subproblem(conn, state, params)
    q2 = solve_q2_subproblem(conn, state, params)

    def objective(q, z, alpha, r):
        return alpha * np.linalg.norm(q) + 0.5 * r * np.linalg.norm(q - z) ** 2

    z1 = line_jump(conn.lines, state.v) - state.lam_Q1 / params.r0
    z2 = curve_jump(conn.curves, state.v) - state.lam_Q2 / params.r0
    for idx in rng.integers(0, len(q1), size=10):
        base = objective(q1[idx], z1[idx], params.alpha0, params.r0)
        for _ in range(5):
            probe = q1[idx] + 1e-3 * rng.normal(size=3)
            assert objective(probe, z1[idx], params.alpha0, params.r0) >= base - 1e-12
    valid = np.nonzero(conn.curves.valid)[0]
    for idx in rng.choice(valid, size=10):
        base = objective(q2[idx], z2[idx], params.alpha0, params.r0)
        for _ in range(5):
            probe = q2[idx] + 1e-3 * rng.normal(size=3)
            assert objective(probe, z2[idx], params.alpha0, params.r0) >= base - 1e-12
    assert np.all(q2[~conn.curves.valid] == 0.0)


def test_q_subproblem_full_shrink_at_huge_alpha0(cube_small_conn, rng):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams(alpha0=1e12)
    state = _fresh_state(conn, n_in, params)
    state.v = rng.normal(size=state.v.shape)
    assert np.all(solve_q1_subproblem(conn, state, params) == 0.0)
    assert np.all(solve_q2_subproblem(conn, state, params) == 0.0)


def test_update_multipliers_zero_residual_fixed_point(cube_small_conn, rng):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams()
    state = _fresh_state(conn, n_in, params)
    state.N = n_in
    state.v = rng.normal(size=state.v.shape)
    state.P = edge_jump(conn.topo, state.N) - state.v
    state.Q1 = line_jump(conn.lines, state.v)
    state.Q2 = curve_jump(conn.curves, state.v)
    lam_before = (state.lam_P.copy(), state.lam_Q1.copy(), state.lam_Q2.copy())
    update_multipliers(conn, state, params)
    assert np.allclose(state.lam_P, lam_before[0], atol=1e-12)
    assert np.allclose(state.lam_Q1, lam_before[1], atol=1e-12)
    assert np.allclose(state.lam_Q2, lam_before[2], atol=1e-12)


def test_update_multipliers_linear_in_residual(cube_small_conn, rng):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams()

    def increments(scale):
        state = _fresh_state(conn, n_in, params)
        state.N = n_in
        state.P = scale * rng2.normal(size=state.P.shape)
        state.v = np.zeros_like(state.v)
        update_multipliers(conn, state, params)
        jump = edge_jump(conn.topo, n_in)
        return state.lam_P - params.r1 * (-jump)  # subtract the jump part

    rng2 = np.random.default_rng(7)
    inc1 = increments(1.0)
    rng2 = np.random.default_rng(7)
    inc2 = increments(2.0)
    assert np.allclose(inc2, 2.0 * inc1, atol=1e-12)


def test_one_sweep_matches_hand_stepped_oracle(square_conn):
    # walk one full sweep of the five updates by hand on the 2-triangle mesh
    conn = square_conn
    topo = conn.topo
    n_in = face_normals(conn.mesh)
    params = SolverParams(max_outer_iters=1)
    result = filter_normals(conn, n_in, params)

    w = edge_weights(topo, n_in, params.sigma_e)
    # N-step: cold state means rhs = beta * n_in
    apply_n = normal_system_operator(conn, params)
    N, n_products = _cg_block(apply_n, params.beta * n_in, topo.face_area,
                              params.cg_rel_tol, params.cg_max_iters, "n")
    N = N / np.linalg.norm(N, axis=1)[:, None]
    # v-step: only the P-constraint term is nonzero
    apply_v = v_system_operator(conn, params)
    v, _ = _cg_block(apply_v, params.r1 * edge_jump(topo, N), topo.edge_len,
                     params.cg_rel_tol, params.cg_max_iters, "v")
    P = shrink(params.alpha1 * w, params.r1, edge_jump(topo, N) - v)
    assert np.allclose(result.normals, N, atol=1e-12)
    assert result.iterations == 1
    # the flat square's constant field solves in one product, cold or from
    # the factor
    assert result.cg_iterations[0, 0] == n_products == 1


# -- outer loop -----------------------------------------------------------------

@pytest.fixture(scope="module")
def filter_run():
    clean = make_cube(4, size=0.05)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.3, mode="vertex-normal", seed=11))
    conn = build_connectivity(noisy)
    n_in = face_normals(noisy)
    params = SolverParams(max_outer_iters=40)
    return conn, n_in, params, filter_normals(conn, n_in, params)


def test_filter_returns_unit_normals(filter_run):
    _, _, _, result = filter_run
    assert np.abs(np.linalg.norm(result.normals, axis=1) - 1.0).max() <= 1e-9


def test_filter_diagnostics_shape_and_reason(filter_run):
    _, _, params, result = filter_run
    assert result.diagnostics.shape == (result.iterations, 6)
    assert result.stop_reason in ("tolerance", "max_iters")
    if result.stop_reason == "tolerance":
        assert result.diagnostics[-1, 5] < params.stop_tol


def test_filter_counts_cg_iterations_per_sweep(filter_run, monkeypatch):
    conn, n_in, params, result = filter_run
    assert result.cg_iterations.shape == (result.iterations, 2)
    assert result.cg_iterations.dtype.kind == "i"
    assert (result.cg_iterations > 0).all()
    # the counts are the calls of the two system operators
    calls = {}
    for name in ("normal_system_operator", "v_system_operator"):
        factory = getattr(solver, name)

        def counting_factory(*args, _factory=factory, _name=name):
            apply_op, calls[_name] = _counting(_factory(*args))
            return apply_op

        monkeypatch.setattr(solver, name, counting_factory)
    again = filter_normals(conn, n_in, params)
    assert np.array_equal(again.cg_iterations, result.cg_iterations)
    assert result.cg_iterations[:, 0].sum() == len(calls["normal_system_operator"])
    assert result.cg_iterations[:, 1].sum() == len(calls["v_system_operator"])


def test_filter_above_the_factoring_threshold_runs_cg_alone():
    # a mesh just above the threshold keeps warm-started CG, several
    # products per solve, and never imports scipy's solver module
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tgvdenoise as t; "
            "from tgvdenoise.solver import _DIRECT_MAX_FACES; "
            "m = t.add_gaussian_noise(t.make_icosphere(4, 0.15), "
            "t.NoiseSpec(0.3, mode='vertex-normal', seed=7)); "
            "r = t.filter_normals(t.build_connectivity(m), t.face_normals(m), "
            "t.SolverParams(max_outer_iters=3)); "
            "print(m.num_faces > _DIRECT_MAX_FACES, r.cg_iterations.min(), "
            "'scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    assert out[0] == "True"
    assert int(out[1]) > 1
    assert out[2] == "False"


class _NonFiniteFactor:
    def solve(self, rhs):
        return np.full_like(rhs, np.nan)


def _singular(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("fake_splu", [_singular, lambda *a, **k: _NonFiniteFactor()],
                         ids=["singular", "non-finite"])
def test_filter_factor_failure_raises_solver_error(cube_small_conn, monkeypatch, fake_splu):
    monkeypatch.setattr("scipy.sparse.linalg.splu", fake_splu)
    conn = cube_small_conn
    with pytest.raises(SolverError, match="normal system"):
        filter_normals(conn, face_normals(conn.mesh), SolverParams(max_outer_iters=2))


def test_filter_is_deterministic(filter_run):
    conn, n_in, params, result = filter_run
    again = filter_normals(conn, n_in, params)
    assert np.array_equal(again.normals, result.normals)
    assert np.array_equal(again.diagnostics, result.diagnostics)


def test_filter_rejects_bad_inputs(cube_small_conn):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    with pytest.raises(ValueError, match="unit"):
        filter_normals(conn, 2.0 * n_in)
    with pytest.raises(ValueError, match="shape"):
        filter_normals(conn, n_in[:-1])
    with pytest.raises(ValueError, match="max_outer_iters"):
        SolverParams(max_outer_iters=0)


def test_filter_writes_diagnostics_csv(tmp_path, filter_run):
    conn, n_in, params, _ = filter_run
    path = tmp_path / "diag.csv"
    filter_normals(conn, n_in, params, diagnostics_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,residual_p,residual_q1,residual_q2,normal_change_sq"
    assert len(lines) >= 2


def test_stronger_weights_flatten_the_output_field():
    # growing both weights (penalties scaled along) pushes the output toward
    # jump-free fields: the first-order variation of the result keeps falling
    from tgvdenoise import tv_seminorm

    clean = make_cube(3, size=0.05)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.2, mode="vertex-normal", seed=3))
    conn = build_connectivity(noisy)
    n_in = face_normals(noisy)
    tvs = []
    for a1 in (0.5, 4.0, 16.0):
        res = filter_normals(conn, n_in, SolverParams(
            alpha1=a1, alpha0=a1 / 10, r1=2 * a1, r0=2 * a1,
            dynamic_weights=False, max_outer_iters=80))
        tvs.append(tv_seminorm(conn.topo, res.normals))
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs[2] < tv_seminorm(conn.topo, n_in)


def test_minimize_tgv_below_both_bounds(cube_small_conn):
    conn = cube_small_conn
    u = face_normals(conn.mesh)
    alpha1, alpha0 = 1.0, 0.1
    at_zero = tgv_energy(conn, u, np.zeros((conn.topo.num_edges, 3)), alpha1, alpha0)
    at_jump = tgv_energy(conn, u, edge_jump(conn.topo, u), alpha1, alpha0)
    best, v_best = minimize_tgv(conn, u, alpha1, alpha0, iters=60)
    assert best <= min(at_zero, at_jump) + 1e-12
    assert np.isclose(tgv_energy(conn, u, v_best, alpha1, alpha0), best, rtol=1e-12)


# -- invariances ----------------------------------------------------------------

def _filtered(mesh, params):
    return filter_normals(build_connectivity(mesh), face_normals(mesh), params).normals


@pytest.fixture(scope="module")
def noisy_cube_small(cube_small):
    return add_gaussian_noise(cube_small, NoiseSpec(0.3, mode="vertex-normal", seed=7))


def test_filter_is_translation_invariant(noisy_cube_small):
    # the model sees only differences of positions; moving the 0.05-wide
    # cube by ~3.7e3 changes its coordinates' rounding, which moved the
    # output by 7.1e-12 after 20 sweeps
    params = SolverParams(max_outer_iters=20)
    base = _filtered(noisy_cube_small, params)
    moved = noisy_cube_small.with_vertices(noisy_cube_small.vertices + [1e3, -2e3, 3e3])
    assert np.abs(_filtered(moved, params) - base).max() <= 1e-10


def test_filter_is_rotation_equivariant(noisy_cube_small):
    # rotating the input rotates the output. CG stops each channel at its
    # own iterate, so the gap tracks cg_rel_tol: 2.7e-8 at the default
    # 1e-8, and 9.4e-13 at the 1e-12 used here, after 20 sweeps
    rot, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    rot[:, 0] *= np.sign(np.linalg.det(rot))
    params = SolverParams(max_outer_iters=20, cg_rel_tol=1e-12)
    base = _filtered(noisy_cube_small, params)
    turned = _filtered(noisy_cube_small.with_vertices(noisy_cube_small.vertices @ rot.T),
                       params)
    assert np.abs(turned - base @ rot.T).max() <= 1e-10


def test_filter_is_relabeling_equivariant(noisy_cube_small):
    # permuting the vertex and face indices permutes the output normals.
    # Edge orientations and summation orders change with the labels, so
    # the two runs round differently: measured 4.1e-14 after 20 sweeps at
    # cg_rel_tol 1e-12 (4.4e-16 at the default 1e-8)
    rng = np.random.default_rng(5)
    vperm = rng.permutation(noisy_cube_small.num_vertices)
    fperm = rng.permutation(noisy_cube_small.num_faces)
    new_index = np.argsort(vperm)
    relabeled = TriMesh(noisy_cube_small.vertices[vperm],
                        new_index[noisy_cube_small.faces[fperm]])
    params = SolverParams(max_outer_iters=20, cg_rel_tol=1e-12)
    base = _filtered(noisy_cube_small, params)
    assert np.abs(_filtered(relabeled, params) - base[fperm]).max() <= 1e-10


@pytest.mark.parametrize("s", [10.0, 0.1])
def test_filter_follows_the_scale_law(noisy_cube_small, s):
    # README: areas scale by s^2 and lengths by s, so the mesh scaled by s
    # with beta / s is the same problem divided by s; measured 4.1e-14
    # (s = 10) and 5.7e-14 (s = 0.1) at cg_rel_tol 1e-12 after 20 sweeps
    params = SolverParams(max_outer_iters=20, cg_rel_tol=1e-12)
    base = _filtered(noisy_cube_small, params)
    scaled = noisy_cube_small.with_vertices(noisy_cube_small.vertices * s)
    got = _filtered(scaled, SolverParams(max_outer_iters=20, cg_rel_tol=1e-12,
                                         beta=params.beta / s))
    assert np.abs(got - base).max() <= 1e-10
