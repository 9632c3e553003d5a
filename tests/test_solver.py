import hashlib
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from tgvdenoise import (NoiseSpec, SolverError, SolverParams, TriMesh,
                        add_gaussian_noise, build_connectivity, curve_jump,
                        edge_jump, edge_jump_adjoint, face_angle_errors,
                        face_normals, filter_normals, inner_edges, inner_faces,
                        line_jump, load_mesh, make_cube, make_icosphere,
                        mean_angular_difference, minimize_tgv, save_mesh,
                        save_table, tgv_energy, tv_seminorm, update_vertices)
from tgvdenoise import solver
from tgvdenoise.mesh import face_barycenters
from tgvdenoise.operators import curve_jump_adjoint, line_jump_adjoint
from tgvdenoise.solver import (SolverState, _cg_block, _System, edge_weights,
                               shrink, solve_n_subproblem, solve_p_subproblem,
                               solve_q1_subproblem, solve_q2_subproblem,
                               solve_v_subproblem, update_multipliers)
from tgvdenoise.synth import make_plane
from conftest import (assert_pinned, flipped_icosphere, on_pinned_build,
                      pinned_values)
from oracles import dense_edge_jump


# -- shrink -------------------------------------------------------------------

def test_shrink_no_threshold_is_identity():
    z = np.array([[1.0, -2.0, 0.5]])
    assert np.allclose(shrink(0.0, 2.0, z), z)


def test_shrink_clamps_small_vectors():
    z = np.array([[0.3, 0.0, 0.0]])
    assert np.all(shrink(1.0, 2.0, z) == 0.0)  # |z| <= x/y = 0.5
    assert np.all(shrink(1.0, 2.0, np.zeros((1, 3))) == 0.0)


def test_shrink_worked_example():
    out = shrink(1.0, 2.0, np.array([[3.0, 0.0, 0.0]]))
    assert np.allclose(out, [[2.5, 0.0, 0.0]], atol=1e-15)


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
        z = rng.normal(size=(1, 3))
        out = shrink(w, y, z)
        t_star = golden_section_shrink(w, y, np.linalg.norm(z))
        assert np.allclose(out, t_star * z / np.linalg.norm(z), atol=1e-10)


# -- edge weights ------------------------------------------------------------

def test_edge_weights_identical_normals(tet_conn):
    n = np.tile([0.0, 0.0, 1.0], (tet_conn.topo.num_faces, 1))
    assert np.allclose(edge_weights(edge_jump(tet_conn.topo, n), 0.5), 1.0)


def test_edge_weights_opposite_normals(square_conn):
    topo = square_conn.topo
    n = np.array([[0.0, 0, 1], [0, 0, -1.0]])
    w = edge_weights(edge_jump(topo, n), 1.0)
    interior = ~topo.is_boundary
    assert np.allclose(w[interior], np.exp(-2.0))  # |n1 - n2|^2 = 4
    assert np.all(w[topo.is_boundary] == 1.0)


def test_edge_weights_monotone_in_normal_difference(square_conn):
    topo = square_conn.topo
    interior = ~topo.is_boundary
    previous = 2.0
    for angle in np.linspace(0.0, np.pi, 7):
        n = np.array([[0.0, 0, 1], [np.sin(angle), 0, np.cos(angle)]])
        w = float(edge_weights(edge_jump(topo, n), 0.7)[interior][0])
        assert w < previous or angle == 0.0
        assert 0.0 < w <= 1.0
        previous = w


def test_edge_weights_match_incident_face_normals(all_conns, rng):
    # exp(-|n_0 - n_1|^2 / (2 sigma^2)) from the two faces each interior edge
    # reads, found from the mesh's faces alone; 1 on the boundary. The square
    # sums its three components in column order, as row_dot does: summed in
    # another order it can round one ulp apart, which exp turns into up to
    # |exponent| ulps: measured 0 on every mesh here, 9.7e-16 relative
    # with diff @ diff
    for conn in all_conns.values():
        n = rng.normal(size=(conn.topo.num_faces, 3))
        n /= np.linalg.norm(n, axis=1)[:, None]
        expected = []
        for row in dense_edge_jump(conn.mesh):
            faces = np.flatnonzero(row)
            diff = n[faces[0]] - n[faces[1]] if len(faces) else np.zeros(3)
            sq = diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2]
            expected.append(np.exp(-sq / (2.0 * 0.7 ** 2)))
        np.testing.assert_allclose(edge_weights(edge_jump(conn.topo, n), 0.7), expected,
                                   rtol=1e-15, atol=0)


# -- the linear systems --------------------------------------------------------

# a regular and a bordered mesh, and the irregular-valence and holed ones
SYSTEM_MESHES = pytest.mark.parametrize(
    "mesh", ["cube_small_conn", "plane_conn", "flipped_sphere_conn", "holed_plane_conn"],
    ids=["cube", "bordered-plane", "flipped-sphere", "holed-plane"])


def _dense_from_operator(apply_op, n):
    cols = []
    for i in range(n):
        e = np.zeros((n, 1))
        e[i, 0] = 1.0
        cols.append(apply_op(e)[:, 0])
    return np.array(cols).T


def _unscaled(system):
    """The system's action in unscaled coordinates, D^-1 S D, S the
    symmetric matrix the system stores and D = diag(system.d)."""
    return lambda x: system.apply(system.d * x) / system.d


def test_normal_system_on_constant_field(cube_small_conn):
    params = SolverParams()
    apply_op = _unscaled(_System(cube_small_conn, params, "normal"))
    const = np.tile([0.3, -0.2, 0.9], (cube_small_conn.topo.num_faces, 1))
    assert np.allclose(apply_op(const), params.beta * const, atol=1e-12)


def test_system_operators_are_symmetric(cube_small_conn, rng):
    conn = cube_small_conn
    params = SolverParams()
    apply_n = _unscaled(_System(conn, params, "normal"))
    apply_v = _unscaled(_System(conn, params, "v"))
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
    # each system is stored as S = c I + sum of r B^T B, B each jump balanced
    # by its measures; D^-1 S D must be the composition of the jump and its
    # adjoint (measured <= 4.2e-16, on the flipped sphere)
    params = SolverParams(beta=7.0, r1=3.0, r0=0.5)
    for conn in all_conns.values():
        topo, lines, curves = conn.topo, conn.lines, conn.curves
        x = rng.normal(size=(topo.num_faces, 3))
        composed = params.beta * x - params.r1 * edge_jump_adjoint(topo, edge_jump(topo, x))
        got = _unscaled(_System(conn, params, "normal"))(x)
        assert np.abs(got - composed).max() <= 1e-12 * np.abs(composed).max()
        v = rng.normal(size=(topo.num_edges, 3))
        composed = (params.r1 * v
                    - params.r0 * line_jump_adjoint(lines, line_jump(lines, v))
                    - params.r0 * curve_jump_adjoint(curves, curve_jump(curves, v)))
        got = _unscaled(_System(conn, params, "v"))(v)
        assert np.abs(got - composed).max() <= 1e-12 * np.abs(composed).max()


def test_measure_weighted_system_matrices_are_symmetric(all_conns):
    # conjugate gradients in the measure-weighted inner product needs M*A
    # symmetric (M the diagonal of element measures); measured <= 1.5e-16
    # of the largest entry, on the flipped sphere
    params = SolverParams()
    for conn in all_conns.values():
        topo = conn.topo
        for kind, measure in (("normal", topo.face_area), ("v", topo.edge_len)):
            weighted = measure[:, None] * _dense_from_operator(
                _unscaled(_System(conn, params, kind)), len(measure))
            gap = np.abs(weighted - weighted.T).max()
            assert gap <= 1e-12 * np.abs(weighted).max()


@pytest.mark.parametrize("kind", ["normal", "v"])
@SYSTEM_MESHES
def test_stored_system_matrices_are_symmetric(request, mesh, kind):
    # conjugate gradients and the symmetric-mode factor need the stored
    # S symmetric itself; each B^T B sums the same products in the same order
    # on both sides of the diagonal, so S is symmetric bit for bit
    system = _System(request.getfixturevalue(mesh), SolverParams(), kind)
    dense = _dense_from_operator(system.apply, len(system.d))
    assert np.array_equal(dense, dense.T)


def test_v_system_is_positive_definite(cube_small_conn, rng):
    conn = cube_small_conn
    params = SolverParams()
    apply_v = _unscaled(_System(conn, params, "v"))
    for _ in range(5):
        v = rng.normal(size=(conn.topo.num_edges, 3))
        quad = inner_edges(conn.topo, apply_v(v), v)
        floor = params.r1 * inner_edges(conn.topo, v, v)
        assert quad >= floor - 1e-9 * abs(quad)


def test_cg_matches_dense_solve(cube_small_conn, rng):
    conn = cube_small_conn
    params = SolverParams()
    for kind, n in [("normal", conn.topo.num_faces), ("v", conn.topo.num_edges)]:
        system = _System(conn, params, kind)
        dense = _dense_from_operator(system.apply, n)
        b = rng.normal(size=(n, 3))
        x_direct = np.linalg.solve(dense, b)
        # from zero, and warm-started from a random guess
        for x0 in (None, 10.0 * np.random.default_rng(5).normal(size=(n, 3))):
            x_cg, _ = _cg_block(system.apply, system.precondition, b, 1e-10, "test", x0=x0)
            rel = np.linalg.norm(x_cg - x_direct) / np.linalg.norm(x_direct)
            assert rel < 1e-8


def test_cg_zero_rhs_returns_zero(cube_small_conn):
    conn = cube_small_conn
    params = SolverParams()
    system = _System(conn, params, "v")
    out, _ = _cg_block(system.apply, system.precondition,
                       np.zeros((conn.topo.num_edges, 3)), 1e-5, "test")
    assert np.all(out == 0.0)


def test_cg_nonconvergence_raises(cube_small_conn, rng, monkeypatch):
    conn = cube_small_conn
    params = SolverParams()
    b = rng.normal(size=(conn.topo.num_edges, 3))
    system = _System(conn, params, "v")
    monkeypatch.setattr(solver, "_CG_MAX_ITERS", 2)
    with pytest.raises(SolverError, match="within 2 iterations") as err:
        _cg_block(system.apply, system.precondition, b, 1e-14, "test")
    # one relative residual for the whole block
    assert np.ndim(err.value.residuals) == 0 and err.value.residuals > 1e-14


@pytest.mark.parametrize("case", ["nan-start", "nan-operator"])
def test_cg_non_finite_residual_raises(case):
    # a NaN residual norm compares as below any target, which used to pass
    # for convergence: all-NaN from a NaN start, zeros from a NaN operator
    rhs = np.ones((4, 3))
    if case == "nan-start":
        apply_op, x0 = (lambda x: x), np.full((4, 3), np.nan)
    else:
        apply_op, x0 = (lambda x: np.full_like(x, np.nan)), None
    with pytest.raises(SolverError, match="non-finite"):
        _cg_block(apply_op, 1.0, rhs, 1e-8, "test", x0=x0)


def test_cg_block_is_rotation_equivariant(cube_small_conn, rng):
    # one step size per iteration for the whole block in the Euclidean
    # inner product of the scaled coordinates, which is rotation-invariant:
    # rotating the right-hand side rotates every iterate, so the solves take
    # the same products and agree to rounding, far inside the tolerance
    conn = cube_small_conn
    params = SolverParams()
    rot, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    b = rng.normal(size=(conn.topo.num_edges, 3))
    system = _System(conn, params, "v")
    x, products = _cg_block(system.apply, system.precondition, b, 1e-5, "test")
    x_rot, products_rot = _cg_block(system.apply, system.precondition, b @ rot.T, 1e-5,
                                    "test")
    assert products_rot == products > 1
    assert np.abs(x_rot - x @ rot.T).max() <= 1e-12 * np.abs(x).max()


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
    system = _System(conn, params, "v")
    out, _ = _cg_block(system.apply, system.precondition, b, 1e-5, "test",
                       x0=rng.normal(size=b.shape))
    assert np.all(out[:, 1] == 0.0)
    assert np.any(out[:, [0, 2]] != 0.0)


def test_cg_warm_start_at_the_solution_takes_one_product(cube_small_conn, rng):
    conn = cube_small_conn
    params = SolverParams()
    for kind, n in [("normal", conn.topo.num_faces), ("v", conn.topo.num_edges)]:
        system = _System(conn, params, kind)
        b = rng.normal(size=(n, 3))
        x_direct = np.linalg.solve(_dense_from_operator(system.apply, n), b)
        counted, calls = _counting(system.apply)
        x_cg, products = _cg_block(counted, system.precondition, b, 1e-5, "test",
                                   x0=x_direct)
        assert len(calls) == products <= 1
        assert np.array_equal(x_cg, x_direct)


@pytest.mark.parametrize("factored", [True, False], ids=["factored", "cg"])
@pytest.mark.parametrize("kind", ["normal", "v"])
def test_each_system_assembles_its_matrix_once(cube_small_conn, monkeypatch,
                                               kind, factored):
    # the product and the factor read the same matrix
    calls = []

    def counting(*args, _assemble=solver._system_matrix):
        calls.append(1)
        return _assemble(*args)

    monkeypatch.setattr(solver, "_system_matrix", counting)
    if not factored:
        monkeypatch.setattr(solver, "_DIRECT_MAX_FACES", 0)
    system = _System(cube_small_conn, SolverParams(), kind)
    assert (system.factor is not None) == factored
    assert len(calls) == 1


def test_system_assembly_reads_no_adjoint(cube_small):
    # each system is built from its jumps' balanced forms; an adjoint is
    # built only when a right-hand side first needs it
    conn = build_connectivity(cube_small)
    for kind in ("normal", "v"):
        _System(conn, SolverParams(), kind)
    assert not any("adjoint" in vars(layer.jump)
                   for layer in (conn.topo, conn.lines, conn.curves))


def test_system_matrix_reads_only_the_balanced_jumps(cube_small_conn):
    # the assembly sees a jump only through num_cols and balanced(), and
    # builds c*I + r * sum of B^T B: measured 2.8e-16 of the largest entry
    # off the dense sum
    class Balanced:
        def __init__(self, jump):
            self.num_cols, self.balanced = jump.num_cols, jump.balanced

    lines, curves = cube_small_conn.lines.jump, cube_small_conn.curves.jump
    got = solver._system_matrix(2.0, 3.0, [Balanced(lines), Balanced(curves)]).toarray()
    b_l, b_c = lines.balanced().toarray(), curves.balanced().toarray()
    ref = 2.0 * np.eye(lines.num_cols) + 3.0 * (b_l.T @ b_l + b_c.T @ b_c)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["normal", "v"])
@SYSTEM_MESHES
def test_direct_solution_matches_dense_solve(request, mesh, kind, rng):
    # the factor is of the matrix the product uses; measured <= 4.2e-16
    conn = request.getfixturevalue(mesh)
    system = _System(conn, SolverParams(), kind)
    n = len(system.d)
    b = rng.normal(size=(n, 3))
    x_dense = np.linalg.solve(_dense_from_operator(system.apply, n), b)
    rel = np.linalg.norm(system.direct(b) - x_dense) / np.linalg.norm(x_dense)
    assert rel <= 1e-12


def test_bench_cube_factors_keep_their_fill():
    # L+U nonzeros of the 1 200-face cube's normal and v systems, which S's
    # pattern and the symmetric ordering fix
    conn = build_connectivity(make_cube(10, size=0.05))
    systems = {kind: _System(conn, SolverParams(), kind) for kind in ("normal", "v")}
    fill = {kind: s.factor.L.nnz + s.factor.U.nnz for kind, s in systems.items()}
    assert fill == {"normal": 30_496, "v": 132_338}


@pytest.mark.parametrize("factored", [True, False], ids=["factored", "cg"])
@pytest.mark.parametrize("mesh", ["cube_small_conn", "plane_conn"],
                         ids=["cube", "bordered-plane"])
def test_solve_meets_the_tolerance_in_the_measure_weighted_norm(request, monkeypatch,
                                                                mesh, factored, rng):
    # conjugate gradients stop on |D r|, which is r's measure-weighted norm:
    # the residual of the unscaled system, from the composed operators and
    # that norm taken here, meets _CG_REL_TOL, cold and warm-started
    conn = request.getfixturevalue(mesh)
    topo, lines, curves = conn.topo, conn.lines, conn.curves
    params = SolverParams()
    if not factored:
        monkeypatch.setattr(solver, "_DIRECT_MAX_FACES", 0)
    cases = [("normal", topo.face_area,
              lambda x: params.beta * x - params.r1 * edge_jump_adjoint(topo, edge_jump(topo, x))),
             ("v", topo.edge_len,
              lambda v: params.r1 * v
              - params.r0 * line_jump_adjoint(lines, line_jump(lines, v))
              - params.r0 * curve_jump_adjoint(curves, curve_jump(curves, v)))]
    for kind, measure, composed in cases:
        system = _System(conn, params, kind)
        assert (system.factor is not None) == factored
        for _ in range(2):
            b = rng.normal(size=(len(measure), 3))
            r = b - composed(system.solve(b.copy()))
            norm_r, norm_b = (np.sqrt((measure[:, None] * a ** 2).sum()) for a in (r, b))
            assert norm_r <= solver._CG_REL_TOL * norm_b


# -- subproblems ----------------------------------------------------------------

def _fresh_state(conn, n_in, params):
    return SolverState.initial(conn, edge_jump(conn.topo, n_in), params)


def _jumps(conn, state):
    """edge_jump(N), line_jump(v) and curve_jump(v), as the sweep passes
    them to its steps."""
    return (edge_jump(conn.topo, state.N), line_jump(conn.lines, state.v),
            curve_jump(conn.curves, state.v))


def _residuals(conn, state):
    """The three constraint residuals, as the sweep passes them to
    update_multipliers."""
    jump_n, jump_l, jump_c = _jumps(conn, state)
    return state.P - (jump_n - state.v), state.Q1 - jump_l, state.Q2 - jump_c


def test_n_subproblem_fidelity_only_limit(cube_small_conn):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams(r1=1e-12)
    state = _fresh_state(conn, n_in, params)
    out = solve_n_subproblem(conn, state, n_in, params, _System(conn, params, "normal"))
    assert np.allclose(out, n_in, atol=1e-9)


class _FixedSolve:
    """A stand-in system whose solve returns fixed rows, whatever the rhs."""

    def __init__(self, rows):
        self.rows = rows

    def solve(self, rhs):
        return self.rows.copy()


def test_n_subproblem_rows_solving_to_zero_fall_back(cube_small_conn, rng):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams()
    state = _fresh_state(conn, n_in, params)
    state.N = rng.normal(size=n_in.shape)
    solved = rng.normal(size=n_in.shape)
    # rows 0::3 solve to norm >= 1e-12; rows 1::3 and 2::3 below it, and
    # rows 2::3 have a previous iterate below it too
    solved[1::3] *= 1e-13 / np.linalg.norm(solved[1::3], axis=1)[:, None]
    solved[2::3] *= 1e-13 / np.linalg.norm(solved[2::3], axis=1)[:, None]
    state.N[2::3] *= 1e-13 / np.linalg.norm(state.N[2::3], axis=1)[:, None]
    solved[2], state.N[2] = 0.0, 0.0
    out = solve_n_subproblem(conn, state, n_in, params, _FixedSolve(solved))
    for rows, expected in ((out[0::3], solved[0::3]), (out[1::3], state.N[1::3])):
        np.testing.assert_allclose(
            rows, expected / np.linalg.norm(expected, axis=1)[:, None], rtol=0, atol=1e-15)
    assert np.array_equal(out[2::3], n_in[2::3])


def test_v_subproblem_zero_inputs(cube_small_conn):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams()
    state = _fresh_state(conn, n_in, params)
    state.N = np.zeros_like(n_in)  # edge_jump(0) = 0 so the full RHS is 0
    assert np.all(solve_v_subproblem(conn, state, params, _System(conn, params, "v"),
                                     edge_jump(conn.topo, state.N)) == 0.0)


def test_p_subproblem_zero_argument(cube_small_conn):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams()
    state = _fresh_state(conn, n_in, params)
    state.N = np.zeros_like(n_in)
    assert np.all(solve_p_subproblem(state, params,
                                     edge_jump(conn.topo, state.N) - state.v) == 0.0)


def test_q_subproblems_local_optimality(cube_small_conn, rng):
    conn = cube_small_conn
    n_in = face_normals(conn.mesh)
    params = SolverParams()
    state = _fresh_state(conn, n_in, params)
    state.v = rng.normal(size=state.v.shape)
    state.lam_Q1 = rng.normal(size=state.lam_Q1.shape)
    state.lam_Q2 = rng.normal(size=state.lam_Q2.shape)
    _, jump_l, jump_c = _jumps(conn, state)
    q1 = solve_q1_subproblem(state, params, jump_l)
    q2 = solve_q2_subproblem(state, params, jump_c)

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
    _, jump_l, jump_c = _jumps(conn, state)
    assert np.all(solve_q1_subproblem(state, params, jump_l) == 0.0)
    assert np.all(solve_q2_subproblem(state, params, jump_c) == 0.0)


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
    update_multipliers(state, params, _residuals(conn, state))
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
        update_multipliers(state, params, _residuals(conn, state))
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

    w = edge_weights(edge_jump(topo, n_in), params.sigma_e)
    # N-step: cold state means rhs = beta * n_in; each system solves in its
    # scaled coordinates, D times the solution for D times the right-hand side
    n_system = _System(conn, params, "normal")
    d_n = np.sqrt(topo.face_area)[:, None]
    N, n_products = _cg_block(n_system.apply, n_system.precondition,
                              d_n * (params.beta * n_in), 1e-5, "n")
    N = N / d_n
    N = N / np.linalg.norm(N, axis=1)[:, None]
    # v-step: only the P-constraint term is nonzero
    v_system = _System(conn, params, "v")
    d_v = np.sqrt(topo.edge_len)[:, None]
    v, _ = _cg_block(v_system.apply, v_system.precondition,
                     d_v * (params.r1 * edge_jump(topo, N)), 1e-5, "v")
    v = v / d_v
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
    conn, _, params, result = filter_run
    assert result.diagnostics.shape == (result.iterations, 6)
    assert result.stop_reason in ("tolerance", "max_iters")
    if result.stop_reason == "tolerance":
        # the column holds the raw change; the rule reads it per unit area
        assert result.diagnostics[-1, 5] / conn.topo.face_area.sum() < params.stop_tol


def test_tolerance_stop_leaves_its_diagnostics():
    # the noisy 48-face cube stops by tolerance after 59 sweeps: its last
    # change per unit area is 6.49e-9, under stop_tol 6.7e-9, and each
    # earlier one is at or above it
    noisy = add_gaussian_noise(make_cube(2, size=0.05),
                               NoiseSpec(0.3, mode="vertex-normal", seed=7))
    conn = build_connectivity(noisy)
    params = SolverParams(max_outer_iters=150)
    result = filter_normals(conn, face_normals(noisy), params)
    assert result.stop_reason == "tolerance"
    assert result.iterations < params.max_outer_iters
    assert result.diagnostics.shape == (result.iterations, 6)
    assert result.cg_iterations.shape == (result.iterations, 2)
    change = result.diagnostics[:, 5] / conn.topo.face_area.sum()
    assert change[-1] < params.stop_tol
    assert (change[:-1] >= params.stop_tol).all()


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


OPERATOR_NAMES = ("edge_jump", "edge_jump_adjoint", "line_jump", "line_jump_adjoint",
                  "curve_jump", "curve_jump_adjoint")


def test_filter_applies_each_operator_once_per_sweep(filter_run, monkeypatch):
    # one jump of each kind per sweep, shared by the v right-hand side, the
    # shrinks, the multipliers, the diagnostics row and the weight refresh,
    # plus the edge jump of the input normals that seeds the weights
    conn, n_in, _, result = filter_run
    calls = dict.fromkeys(OPERATOR_NAMES, 0)
    for name in OPERATOR_NAMES:
        def counting(*args, _op=getattr(solver, name), _name=name):
            calls[_name] += 1
            return _op(*args)

        monkeypatch.setattr(solver, name, counting)
    sweeps = 7
    again = filter_normals(conn, n_in, SolverParams(max_outer_iters=sweeps))
    assert again.iterations == sweeps
    assert calls == {**dict.fromkeys(OPERATOR_NAMES, sweeps), "edge_jump": sweeps + 1}
    assert np.array_equal(again.diagnostics, result.diagnostics[:sweeps])


def _above_the_factoring_threshold(run):
    """In a fresh process, on the noisy icosphere(4) (just above
    _DIRECT_MAX_FACES): whether it is above, the ``products`` that the code
    ``run`` counts, and whether scipy's solver module was imported."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import tgvdenoise as t
        from tgvdenoise import solver
        m = t.add_gaussian_noise(t.make_icosphere(4, 0.15),
                                 t.NoiseSpec(0.3, mode='vertex-normal', seed=7))
        conn, n = t.build_connectivity(m), t.face_normals(m)
    """) + textwrap.dedent(run) + textwrap.dedent("""
        print(m.num_faces > solver._DIRECT_MAX_FACES, products,
              'scipy.sparse.linalg' in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    return out[0] == "True", int(out[1]), out[2] == "True"


def test_filter_above_the_factoring_threshold_runs_cg_alone():
    # a mesh just above the threshold keeps warm-started CG, several
    # products per solve, and never imports scipy's solver module
    above, fewest, imported = _above_the_factoring_threshold("""
        r = t.filter_normals(conn, n, t.SolverParams(max_outer_iters=3))
        products = r.cg_iterations.min()
    """)
    assert above
    assert fewest > 1
    assert not imported


@pytest.fixture(scope="module")
def preview_sphere(tmp_path_factory):
    """The level-5 icosphere (20 480 faces) and its noisy copy, written as
    OBJ files: the preview workload's input, far above _DIRECT_MAX_FACES."""
    directory = tmp_path_factory.mktemp("preview_sphere")
    clean = make_icosphere(5, 0.15)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.3, mode="vertex-normal", seed=7))
    paths = {"clean": directory / "clean.obj", "noisy": directory / "noisy.obj"}
    save_mesh(clean, paths["clean"])
    save_mesh(noisy, paths["noisy"])
    return noisy, paths


@pytest.fixture(scope="module")
def preview_run(preview_sphere):
    """The preview workload's filter, five sweeps at beta 1000, and the
    _Systems it built."""
    systems = []
    init = _System.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        systems.append(self)

    mesh, _ = preview_sphere
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_System, "__init__", recording_init)
        result = filter_normals(build_connectivity(mesh), face_normals(mesh),
                                SolverParams(beta=1000, max_outer_iters=5))
    return result, systems


def test_preview_sphere_stays_unfactored(preview_run):
    # five sweeps at beta 1000 on 20k faces: both systems run warm-started
    # CG without a factor, and the products stay near the 60 normal and 77
    # v products measured at the default _CG_REL_TOL 1e-5 (101 and 124 at
    # 1e-8)
    result, systems = preview_run
    assert sorted(system.kind for system in systems) == ["normal", "v"]
    assert all(system.factor is None for system in systems)
    n_total, v_total = result.cg_iterations.sum(axis=0)
    assert 57 <= n_total <= 63 and 73 <= v_total <= 81


# The preview workload's run as the filter gives it; its e_v, which takes
# seconds, is checked where the command line computes it anyway. A change
# that moves the run on purpose updates these values and logs the old and
# new ones.
PREVIEW_PIN = {
    "theta_filtered": 12.374858975870493,
    "theta_out": 12.234930251539808,
    "e_v": 0.0013954560719983582,
    "last_diagnostics": [4.0, 30.199124968978452, 0.5078139656959505,
                         0.06912951424403709, 0.07263286954979771,
                         0.0002884356659825461],
    "cg_totals": [60, 77],
    "iterations": 5,
    "stop_reason": "max_iters",
    "normals_sha256": "6c3d6c21a7516b31b927cbb80a7843b62cae7d13469bd72f352e9184fd26d13a",
}


def test_preview_sphere_results_are_pinned(preview_sphere, preview_run):
    mesh, paths = preview_sphere
    result, _ = preview_run
    n_clean = face_normals(load_mesh(paths["clean"]))
    output = update_vertices(mesh, result.normals, iters=30)
    got = pinned_values(
        result, theta_filtered=mean_angular_difference(result.normals, n_clean),
        theta_out=float(face_angle_errors(face_normals(output), n_clean).mean()))
    assert_pinned(got, PREVIEW_PIN)


def test_irregular_sphere_normal_solves_stay_few():
    # 5 120 faces, so unfactored, with valence 3 to 15 and face areas spread
    # 77x (the regular level-4 sphere's 1.9x): the normal system's diagonal
    # spreads with them, and plain CG took 372 normal products over these
    # five sweeps where Jacobi-preconditioned CG took 81 when the test was
    # written (v: 150 and 142), at _CG_REL_TOL 1e-8. At the default 1e-5
    # they take 244 and 50 (v: 88 with Jacobi)
    mesh = flipped_icosphere(4, 2400, seed=2)
    mesh = TriMesh(0.15 * mesh.vertices, mesh.faces)
    noisy = add_gaussian_noise(mesh, NoiseSpec(0.3, mode="vertex-normal", seed=7))
    conn = build_connectivity(noisy)
    assert conn.topo.num_faces > solver._DIRECT_MAX_FACES
    result = filter_normals(conn, face_normals(noisy),
                            SolverParams(beta=1000, max_outer_iters=5))
    n_total, v_total = result.cg_iterations.sum(axis=0)
    assert n_total <= 372 // 4 and v_total <= 150


def test_preview_sphere_output_does_not_depend_on_blas_threads(preview_sphere, tmp_path):
    # above ~10k elements a BLAS dot splits its sum over threads, so an inner
    # product taken through one would change the bits with the thread count.
    # Only the one-thread run computes the errors against the clean sphere,
    # its e_v alone taking seconds.
    _, paths = preview_sphere
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads, extra in (("1", ["--ground-truth", str(paths["clean"])]), ("2", [])):
        out, diag = tmp_path / f"out{threads}.obj", tmp_path / f"diag{threads}.csv"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "tgvdenoise.cli", "denoise", str(paths["noisy"]),
             "-o", str(out), "--beta", "1000", "--max-iters", "5",
             "--diagnostics", str(diag), *extra],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), diag.read_bytes(), json.loads(proc.stdout)))
    (out1, diag1, report), (out2, diag2, report2) = outputs
    assert out1 == out2 and diag1 == diag2
    shared = report2.keys() - {"output"}
    assert {k: report[k] for k in shared} == {k: report2[k] for k in shared}
    assert_pinned({"theta_filtered": report["theta_filtered_degrees"],
                   "theta_out": report["theta_output_degrees"], "e_v": report["e_v"]},
                  PREVIEW_PIN)


# The unweighted ablation on the noise-7 bench cube (factored, 100 sweeps) and
# the noise-7 level-4 sphere of radius 0.15 (5 120 faces, CG, stopping on
# tolerance), recorded when a boolean switch froze every weight at 1:
# sigma_e = inf must give the same bits. The diagnostics' digest, like the
# normals', is checked only on PINNED_BUILD.
UNWEIGHTED_PINS = {
    "cube": (lambda: make_cube(10, size=0.05), {
        "last_diagnostics": [99.0, 0.6620116413843582, 0.0017313394113432563,
                             0.0006668674592909237, 0.0008358616682827021,
                             7.682914291024102e-09],
        "cg_totals": [100, 100],
        "iterations": 100,
        "stop_reason": "max_iters",
        "normals_sha256": "77816dddb5298829c9cadde983078fa392fbbafddbbb3b07a580a998890d22e9",
        "diagnostics_sha256":
            "a9c87b00e25fc36ae35375785d8e4f2c5e43065052a88ec0329b08af55998277",
    }),
    "sphere": (lambda: make_icosphere(4, 0.15), {
        "last_diagnostics": [37.0, 5.017770396227441, 0.0025955008580233036,
                             0.0011806637939630075, 0.0016063086023375003,
                             1.8664573523026377e-09],
        "cg_totals": [636, 457],
        "iterations": 38,
        "stop_reason": "tolerance",
        "normals_sha256": "005ce5045086cbf5b532415ccd7e3734f334f548341a17b2c3cbcaf04d9cb6ba",
        "diagnostics_sha256":
            "2b38a6cdbde902696975f418136399530d63ef471ac154faad9b63035af634f3",
    }),
}


@pytest.mark.parametrize("shape", sorted(UNWEIGHTED_PINS))
def test_unweighted_runs_are_pinned(shape):
    build, pin = UNWEIGHTED_PINS[shape]
    noisy = add_gaussian_noise(build(), NoiseSpec(0.3, mode="vertex-normal", seed=7))
    conn = build_connectivity(noisy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # exp(-x / inf) is exactly 1 for zero jumps, rows of 1e150 and the input's
        jumps = [np.zeros((4, 3)), np.full((4, 3), 1e150),
                 edge_jump(conn.topo, face_normals(noisy))]
        for jump in jumps:
            assert np.array_equal(edge_weights(jump, np.inf), np.ones(len(jump)))
        result = filter_normals(conn, face_normals(noisy), SolverParams(sigma_e=np.inf))
    assert_pinned(pinned_values(result), pin)
    if on_pinned_build():
        assert hashlib.sha256(result.diagnostics.tobytes()).hexdigest() == \
            pin["diagnostics_sha256"]


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
    # a NaN row fails the unit-length comparison too, before any solve
    n_nan = n_in.copy()
    n_nan[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        filter_normals(conn, n_nan)
    with pytest.raises(ValueError, match="finite"):
        minimize_tgv(conn, n_nan, 1.0, 0.1, iters=2)


def test_counts_must_be_integers(cube_small_conn):
    # a float count would otherwise fail as a TypeError inside the sweep loop
    for value in (2.5, True):
        with pytest.raises(ValueError, match="max_outer_iters must be an integer"):
            SolverParams(max_outer_iters=value)
    u = face_normals(cube_small_conn.mesh)
    with pytest.raises(ValueError, match="iters must be an integer"):
        minimize_tgv(cube_small_conn, u, 1.0, 0.1, iters=2.5)
    # numpy integers count as integers
    params = SolverParams(max_outer_iters=np.int64(2))
    assert filter_normals(cube_small_conn, u, params).iterations == 2
    assert minimize_tgv(cube_small_conn, u, 1.0, 0.1, iters=np.int64(3))[0] == \
        minimize_tgv(cube_small_conn, u, 1.0, 0.1, iters=3)[0]


def test_filter_diagnostics_save_as_csv(tmp_path, filter_run):
    _, _, _, result = filter_run
    path = tmp_path / "diag.csv"
    save_table(path, solver.DIAGNOSTIC_COLUMNS, result.diagnostics)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,residual_p,residual_q1,residual_q2,normal_change_sq"
    assert len(lines) == 1 + result.iterations


def test_stronger_weights_flatten_the_output_field():
    # growing both weights (penalties scaled along) pushes the output toward
    # jump-free fields: the first-order variation of the result keeps falling
    clean = make_cube(3, size=0.05)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.2, mode="vertex-normal", seed=3))
    conn = build_connectivity(noisy)
    n_in = face_normals(noisy)
    tvs = []
    for a1 in (0.5, 4.0, 16.0):
        res = filter_normals(conn, n_in, SolverParams(
            alpha1=a1, alpha0=a1 / 10, r1=2 * a1, r0=2 * a1,
            sigma_e=np.inf, max_outer_iters=80))
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


def test_minimize_tgv_search_goes_below_both_seeds():
    # at alpha0 = 0.1 the minimum is always a seed; at 0.2 on this noisy cube
    # the search reaches 2.037 against 2.348 at v = 0 and 2.241 at v = jump
    noisy = add_gaussian_noise(make_cube(4, size=0.05),
                               NoiseSpec(0.3, mode="vertex-normal", seed=7))
    conn = build_connectivity(noisy)
    u = face_normals(noisy)
    alpha1, alpha0 = 1.0, 0.2
    at_zero = tgv_energy(conn, u, np.zeros((conn.topo.num_edges, 3)), alpha1, alpha0)
    at_jump = tgv_energy(conn, u, edge_jump(conn.topo, u), alpha1, alpha0)
    best, v_best = minimize_tgv(conn, u, alpha1, alpha0, iters=200)
    assert best < at_zero and best < at_jump
    assert best == tgv_energy(conn, u, v_best, alpha1, alpha0)


@pytest.fixture(scope="module")
def smooth_fields():
    # an affine field (each face centroid's x) on a regular plane, and the
    # normals of a unit sphere
    plane = build_connectivity(make_plane(32, 32))
    sphere = build_connectivity(make_icosphere(3, 1.0))
    return {"plane": (plane, face_barycenters(plane.mesh)[:, 0]),
            "sphere": (sphere, face_normals(sphere.mesh))}


@pytest.mark.parametrize("name, alpha0, ratio", [
    ("plane", 0.1, 0.235402), ("sphere", 0.1, 0.233429),
    ("plane", 1.0, 1.0), ("sphere", 1.0, 1.0),
])
def test_minimize_tgv_charges_smooth_fields_a_multiple_of_tv(smooth_fields, name,
                                                            alpha0, ratio):
    # continuous second-order TGV vanishes on an affine field; the discrete
    # term does not: a face's neighbours are not collinear with it, so the
    # line and curve jumps of v = Du are O(h |grad u|). Measured after 50
    # sweeps at alpha1 = 1, min TGV / TV is 0.235402 on the 2 048-face plane
    # and 0.233429 on the level-3 sphere at alpha0 = 0.1, about 2.35 alpha0
    # (the v = Du seed, which the search does not beat), and exactly 1 at
    # alpha0 = 1, where v = 0 and TGV is TV
    conn, u = smooth_fields[name]
    energy, _ = minimize_tgv(conn, u, 1.0, alpha0, iters=50)
    assert abs(energy / tv_seminorm(conn.topo, u) - ratio) <= 1e-6


def test_minimize_tgv_needs_an_iteration(cube_small_conn):
    u = face_normals(cube_small_conn.mesh)
    for iters in (0, -3):
        with pytest.raises(ValueError, match="iters"):
            minimize_tgv(cube_small_conn, u, 1.0, 0.1, iters=iters)


def test_minimize_tgv_takes_each_jump_once_per_sweep(cube_small_conn, monkeypatch):
    # the face field's edge jump once in all; line and curve jumps once per
    # sweep plus once for each of the two seed candidates; and the energy it
    # reports is tgv_energy's at the v it returns, to the bit
    from tgvdenoise import operators

    calls = dict.fromkeys(("edge_jump", "line_jump", "curve_jump"), 0)
    for name in calls:
        def counted(*args, _apply=getattr(operators, name), _name=name):
            calls[_name] += 1
            return _apply(*args)
        monkeypatch.setattr(operators, name, counted)
        monkeypatch.setattr(solver, name, counted)
    u = face_normals(cube_small_conn.mesh)
    best, v_best = minimize_tgv(cube_small_conn, u, 1.0, 0.1, iters=200)
    assert calls == {"edge_jump": 1, "line_jump": 202, "curve_jump": 202}
    monkeypatch.undo()
    assert best == tgv_energy(cube_small_conn, u, v_best, 1.0, 0.1)


def test_minimize_tgv_makes_one_v_product_per_iteration(monkeypatch):
    # the bench cube is factored, as in the filter: each v solve is the
    # direct solution and one CG check. CG alone took 3 938 products for
    # these 200 iterations
    noisy = add_gaussian_noise(make_cube(10, size=0.05),
                               NoiseSpec(0.3, mode="vertex-normal", seed=7))
    conn = build_connectivity(noisy)
    systems = []

    def counting_factory(*args, _factory=solver.v_system_operator):
        apply_op, calls = _counting(_factory(*args))
        systems.append(calls)
        return apply_op

    monkeypatch.setattr(solver, "v_system_operator", counting_factory)
    minimize_tgv(conn, face_normals(noisy), 1.0, 0.1, iters=200)
    assert [len(calls) for calls in systems] == [200]


def test_minimize_tgv_above_the_factoring_threshold_runs_cg_alone():
    # the filter's rule: warm-started CG, several products per solve, and no
    # scipy solver module
    iters = 3
    above, products, imported = _above_the_factoring_threshold(f"""
        products, factory = 0, solver.v_system_operator

        def counting_factory(*args):
            apply_op = factory(*args)

            def counted(x):
                global products
                products += 1
                return apply_op(x)

            return counted

        solver.v_system_operator = counting_factory
        t.minimize_tgv(conn, n, 1.0, 0.1, iters={iters})
    """)
    assert above
    assert products > 2 * iters
    assert not imported


# -- invariances ----------------------------------------------------------------

def _filtered(mesh, params):
    return filter_normals(build_connectivity(mesh), face_normals(mesh), params).normals


def _noisy(mesh):
    return add_gaussian_noise(mesh, NoiseSpec(0.3, mode="vertex-normal", seed=7))


@pytest.fixture(scope="module")
def noisy_cube_small(cube_small):
    return _noisy(cube_small)


@pytest.fixture(scope="module")
def noisy_meshes(noisy_cube_small, flipped_sphere_conn, holed_plane_conn):
    # the small cube, factored; the first cube above the factoring threshold;
    # the irregular-valence sphere and the holed plane, both factored
    return {"factored": noisy_cube_small, "cg": _noisy(make_cube(21, size=0.05)),
            "flipped-sphere": _noisy(flipped_sphere_conn.mesh),
            "holed-plane": _noisy(holed_plane_conn.mesh)}


def test_filter_is_translation_invariant(noisy_cube_small):
    # the model sees only differences of positions; moving the 0.05-wide
    # cube by ~3.7e3 changes its coordinates' rounding, which moved the
    # output by 7.1e-12 after 20 sweeps
    params = SolverParams(max_outer_iters=20)
    base = _filtered(noisy_cube_small, params)
    moved = noisy_cube_small.with_vertices(noisy_cube_small.vertices + [1e3, -2e3, 3e3])
    assert np.abs(_filtered(moved, params) - base).max() <= 1e-10


@pytest.mark.parametrize("name, tol, bound", [
    ("factored", 1e-12, 1e-10), ("cg", 1e-12, 1e-10), ("flipped-sphere", 1e-12, 1e-10),
    ("holed-plane", 1e-12, 1e-10), ("cg", solver._CG_REL_TOL, 1e-12),
], ids=["factored", "cg", "flipped-sphere", "holed-plane", "cg-default-tol"])
def test_filter_is_rotation_equivariant(noisy_meshes, monkeypatch, name, tol, bound):
    # rotating the input rotates the output. The 48-face cube is factored,
    # so each solve is its direct solution: measured 4.4e-16 after 20
    # sweeps, at _CG_REL_TOL 1e-12 and 1e-8 alike, and 1.9e-15 on the
    # flipped sphere and 4.2e-16 on the holed plane. The 5 292-face cube is
    # the first above the factoring threshold, so conjugate gradients
    # iterate: Jacobi-preconditioned, 2.6e-14 at 1e-12, 2.3e-14 at the
    # default 1e-5 and at most 5.2e-14 from 1e-12 to 1e-2; plain CG's gap
    # tracked the tolerance (1.2e-12, 6.3e-9 at 1e-8, 6.1e-5 at 1e-4)
    mesh = noisy_meshes[name]
    assert (mesh.num_faces > solver._DIRECT_MAX_FACES) == (name == "cg")
    rot, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    rot[:, 0] *= np.sign(np.linalg.det(rot))
    monkeypatch.setattr(solver, "_CG_REL_TOL", tol)
    params = SolverParams(max_outer_iters=20)
    base = _filtered(mesh, params)
    turned = _filtered(mesh.with_vertices(mesh.vertices @ rot.T), params)
    assert np.abs(turned - base @ rot.T).max() <= bound


def test_filter_is_relabeling_equivariant(noisy_meshes, monkeypatch):
    # permuting the vertex and face indices permutes the output normals.
    # Edge orientations and summation orders change with the labels, so
    # the two runs round differently: measured 4.6e-16 on the cube after 20
    # sweeps at _CG_REL_TOL 1e-12, 1e-8 and the default 1e-5 alike, 5.6e-16
    # on the flipped sphere and 2.2e-16 on the holed plane at 1e-12 or 1e-8
    monkeypatch.setattr(solver, "_CG_REL_TOL", 1e-12)
    params = SolverParams(max_outer_iters=20)
    for name in ("factored", "flipped-sphere", "holed-plane"):
        mesh = noisy_meshes[name]
        rng = np.random.default_rng(5)
        vperm = rng.permutation(mesh.num_vertices)
        fperm = rng.permutation(mesh.num_faces)
        relabeled = TriMesh(mesh.vertices[vperm], np.argsort(vperm)[mesh.faces[fperm]])
        base = _filtered(mesh, params)
        gap = np.abs(_filtered(relabeled, params) - base[fperm]).max()
        assert gap <= 1e-10, name


@pytest.mark.parametrize("name, s, tol, sweeps, bound", [
    ("factored", 10.0, 1e-12, 20, 1e-10), ("factored", 0.1, 1e-12, 20, 1e-10),
    ("cg", 0.1, solver._CG_REL_TOL, 20, 1e-12),
    ("factored", 0.5, solver._CG_REL_TOL, 150, 1e-12),
    ("factored", 2.0, solver._CG_REL_TOL, 150, 1e-12),
], ids=["10.0", "0.1", "cg-default-tol", "default-rule-0.5", "default-rule-2.0"])
def test_filter_follows_the_scale_law(noisy_meshes, monkeypatch, name, s, tol, sweeps, bound):
    # README: areas scale by s^2 and lengths by s, so the mesh scaled by s
    # with beta / s is the same problem divided by s; measured 4.1e-14
    # (s = 10) and 5.7e-14 (s = 0.1) on the factored cube at _CG_REL_TOL
    # 1e-12 after 20 sweeps. CG's stop rule is relative, so the unfactored
    # 5 292-face cube keeps the law at the default 1e-5 too: 3.0e-14 at
    # s = 0.1 (2.8e-14 at s = 10). With 150 sweeps allowed, the default
    # stop rule ends the run. It reads the squared normal change per unit
    # area, and both scale by s^2, so s = 1, 0.5 and 2 all stop after 59
    # sweeps, 6.2e-16 apart. A fixed threshold on the raw change stopped
    # them after 59 / 50 / 70 sweeps, 2.9e-3 apart at s = 0.5)
    mesh = noisy_meshes[name]
    monkeypatch.setattr(solver, "_CG_REL_TOL", tol)
    params = SolverParams(max_outer_iters=sweeps)
    base = filter_normals(build_connectivity(mesh), face_normals(mesh), params)
    scaled = mesh.with_vertices(mesh.vertices * s)
    got = filter_normals(build_connectivity(scaled), face_normals(scaled),
                         SolverParams(max_outer_iters=sweeps, beta=params.beta / s))
    assert base.stop_reason == ("max_iters" if sweeps == 20 else "tolerance")
    assert (got.iterations, got.stop_reason) == (base.iterations, base.stop_reason)
    assert np.abs(got.normals - base.normals).max() <= bound


@pytest.mark.parametrize("divisions", [2, 10], ids=["48-faces", "1200-faces"])
def test_factored_filter_does_not_depend_on_the_tolerance(monkeypatch, divisions):
    # README: a factored solve passes at any tolerance in one product, so the
    # two factored noisy cubes give the same bits at 1e-3, the default and
    # 1e-12, one product per solve over all 100 sweeps
    mesh = _noisy(make_cube(divisions, size=0.05))
    conn, n_in = build_connectivity(mesh), face_normals(mesh)
    assert mesh.num_faces <= solver._DIRECT_MAX_FACES
    params = SolverParams(stop_tol=1e-300)
    base = filter_normals(conn, n_in, params)
    for tol in (1e-3, solver._CG_REL_TOL, 1e-12):
        monkeypatch.setattr(solver, "_CG_REL_TOL", tol)
        result = filter_normals(conn, n_in, params)
        assert result.iterations == 100
        assert result.cg_iterations.sum(axis=0).tolist() == [100, 100]
        assert np.array_equal(result.normals, base.normals), tol
