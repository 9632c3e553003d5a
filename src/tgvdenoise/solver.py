"""Feature-aware normal filtering by augmented-Lagrangian splitting.

The filter minimizes, over unit face-normal fields N and an auxiliary edge
field v,

    beta/2 |N - N_in|^2_faces
  + alpha1 * sum_e w_e |(edge_jump(N) - v)_e| len(e)
  + alpha0 * ( sum_l |line_jump(v)_l| len(l) + sum_c |curve_jump(v)_c| len(c) )

where the per-edge weights w_e = exp(-|N_1 - N_2|^2 / (2 sigma_e^2)) shrink
near sharp creases so those jumps are penalized less. Splitting variables
P = edge_jump(N) - v, Q1 = line_jump(v), Q2 = curve_jump(v) turn the
objective into five easy subproblems per sweep: two symmetric positive
definite linear systems and three closed-form shrink steps, followed by
multiplier ascent on the constraint residuals and a weight refresh. Neither
system depends on the iterates or the edge weights, so each is assembled
once per run as a sparse matrix. On meshes of at most ``_DIRECT_MAX_FACES``
faces each is also factored once per run (a sparse LU of the
measure-scaled, symmetric matrix), and every sweep's direct solution is
the starting point of conjugate gradients in the weighted inner product,
whose first residual checks it against ``cg_rel_tol``: one product per
solve when it passes. On larger meshes, where a factor costs more than it
saves, conjugate gradients start from the previous sweep's solution, and
``scipy.sparse.linalg`` is never imported.

The outer loop stops when the squared area-weighted change of the normal
field drops below ``stop_tol`` or after ``max_outer_iters`` sweeps.
"""

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    curve_jump, curve_jump_adjoint, edge_jump, edge_jump_adjoint,
    inner_faces, line_jump, line_jump_adjoint, norm_curves, norm_edges,
    norm_lines, tgv_energy,
)

# Largest mesh whose two systems are factored. The factor's fill grows much
# faster on icosphere-like meshes than on cubes: the v factor took 42 ms at
# 4.8k cube faces, 91 ms at 5.1k icosphere faces and 6.6 s on the 20k
# icosphere, whose whole 5-sweep filter at beta 1000 takes 0.46 s with CG.
_DIRECT_MAX_FACES = 5_000

__all__ = [
    "SolverParams", "SolverState", "SolverError", "FilterResult",
    "shrink", "edge_weights",
    "normal_system_operator", "v_system_operator",
    "solve_n_subproblem", "solve_v_subproblem", "solve_p_subproblem",
    "solve_q1_subproblem", "solve_q2_subproblem", "update_multipliers",
    "filter_normals", "minimize_tgv", "DIAGNOSTIC_COLUMNS",
]


class SolverError(RuntimeError):
    """Linear solve failed; carries the relative residuals per channel."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class SolverParams:
    """Weights, penalties, and tolerances for the normal filter.

    alpha1 / alpha0 weight the first- and second-order terms, beta the
    fidelity term (100 suits CAD-like surfaces; 1000 is a better starting
    point for organic ones). r1 / r0 are the splitting penalties, sigma_e
    the weight bandwidth on unit-normal differences. dynamic_weights=False
    freezes all edge weights at 1.
    """

    alpha1: float = 1.0
    alpha0: float = 0.1
    beta: float = 100.0
    r1: float = 2.0
    r0: float = 2.0
    sigma_e: float = 0.5
    max_outer_iters: int = 100
    stop_tol: float = 1e-10
    cg_rel_tol: float = 1e-8
    cg_max_iters: int = 2000
    dynamic_weights: bool = True

    def __post_init__(self):
        for name in ("alpha1", "alpha0", "beta", "r1", "r0", "sigma_e",
                     "stop_tol", "cg_rel_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.cg_max_iters < 1:
            raise ValueError("cg_max_iters must be at least 1")


@dataclass
class SolverState:
    """All iterates of one filter run (edge weights included).

    ``N_solved`` is the normal system's last solution before projection onto
    the unit sphere (None before the first); without a factor, the next
    normal solve starts from it, as the next v solve starts from ``v``.
    ``cg_iterations`` holds the conjugate-gradient iterations of the latest
    normal and v solves.
    """

    N: np.ndarray
    v: np.ndarray
    P: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    lam_P: np.ndarray
    lam_Q1: np.ndarray
    lam_Q2: np.ndarray
    w: np.ndarray
    k: int = 0
    N_solved: np.ndarray = None
    cg_iterations: list = field(default_factory=lambda: [0, 0])

    @classmethod
    def initial(cls, conn, n_in, params):
        """Zero iterates shaped like ``n_in``; weights seeded from it."""
        topo, lines, curves = conn.topo, conn.lines, conn.curves
        E, L, C = topo.num_edges, lines.num_lines, curves.num_curves
        ch = n_in.shape[1]
        w = edge_weights(topo, n_in, params.sigma_e) if params.dynamic_weights \
            else np.ones(E)
        return cls(
            N=np.zeros((topo.num_faces, ch)),
            v=np.zeros((E, ch)), P=np.zeros((E, ch)), lam_P=np.zeros((E, ch)),
            Q1=np.zeros((L, ch)), lam_Q1=np.zeros((L, ch)),
            Q2=np.zeros((C, ch)), lam_Q2=np.zeros((C, ch)),
            w=w,
        )


DIAGNOSTIC_COLUMNS = ("iteration", "objective", "residual_p", "residual_q1",
                      "residual_q2", "normal_change_sq")


@dataclass
class FilterResult:
    """Filtered normals plus per-iteration diagnostics.

    ``diagnostics`` has one row per sweep with the DIAGNOSTIC_COLUMNS
    entries; ``stop_reason`` is "tolerance" or "max_iters".
    ``cg_iterations`` has one row per sweep: the conjugate-gradient
    iterations of the normal and of the v solve (on a factored mesh, 1 when
    the direct solution passes CG's first residual check).
    """

    normals: np.ndarray
    iterations: int
    stop_reason: str
    diagnostics: np.ndarray
    weights: np.ndarray = field(repr=False, default=None)
    cg_iterations: np.ndarray = field(repr=False, default=None)


# -- building blocks -------------------------------------------------------

def shrink(weight, penalty, z) -> np.ndarray:
    """Row-wise soft shrinkage: max(0, 1 - weight / (penalty * |z|)) * z.

    Rows with |z| = 0 (or below the threshold weight / penalty) map to 0.
    ``weight`` may be a scalar or one value per row.
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    z2 = z[None, :] if single else z
    norms = np.linalg.norm(z2, axis=1)
    w = np.broadcast_to(np.asarray(weight, dtype=np.float64), norms.shape)
    scaled = np.divide(w, penalty * norms, out=np.full_like(norms, np.inf),
                       where=norms > 0)
    out = np.maximum(0.0, 1.0 - scaled)[:, None] * z2
    return out[0] if single else out


def edge_weights(topo, normals, sigma_e) -> np.ndarray:
    """Per-edge feature weights from the normals of the two incident faces;
    boundary edges get weight 1."""
    f0 = topo.edge_faces[:, 0]
    f1 = np.where(topo.edge_faces[:, 1] >= 0, topo.edge_faces[:, 1], f0)
    diff2 = ((normals[f0] - normals[f1]) ** 2).sum(axis=1)
    w = np.exp(-diff2 / (2.0 * sigma_e ** 2))
    w[topo.is_boundary] = 1.0
    return w


def _cg_block(apply_op, rhs, measure, rel_tol, max_iters, label, x0=None):
    """Conjugate gradients in the measure-weighted inner product, run on all
    channels at once with per-channel scalars and per-channel freezing, so
    each channel runs its own iteration (up to rounding in the dot
    products).

    ``x0`` is the starting guess; None or all zeros starts from zero. Each
    channel stops once its residual's norm is at most ``rel_tol`` times its
    right-hand side's, whatever the start, and a channel whose right-hand
    side is exactly zero returns exactly zero. Returns the solution and the
    iteration count, one per product with the system: a nonzero ``x0``
    costs one more, for its residual. A non-finite residual, like one that
    does not converge, raises SolverError.
    """
    def wdot(a, b):
        return measure @ (a * b)

    bnorm = np.sqrt(wdot(rhs, rhs))
    target = rel_tol * bnorm
    if x0 is None or not x0.any():
        x = np.zeros_like(rhs)
        r = rhs.copy()
        products = 0
    else:
        x = np.where(bnorm > 0, x0, 0.0)
        r = rhs - apply_op(x)
        products = 1
    rs = wdot(r, r)
    _check_finite(rs, label)
    active = np.sqrt(rs) > target
    p = np.where(active, r, 0.0)
    # Per-channel scalings multiply by a diagonal matrix: BLAS does that
    # faster than broadcasting a (3,) factor over rows of three, with the
    # same bits, since the off-diagonal terms add exact zeros. A frozen
    # channel's step is zero, so its direction needs no reset.
    for _ in range(max_iters):
        if not active.any():
            break
        ap = apply_op(p)
        products += 1
        pap = wdot(p, ap)
        step = np.diag(np.divide(rs, pap, out=np.zeros_like(rs),
                                 where=active & (pap > 0)))
        x += p @ step
        r -= ap @ step
        rs_new = wdot(r, r)
        _check_finite(rs_new, label)
        active = np.sqrt(rs_new) > target
        p = p @ np.diag(np.divide(rs_new, rs, out=np.zeros_like(rs), where=active))
        p += r
        rs = rs_new
    if active.any():
        raise SolverError(
            f"conjugate gradients did not converge for the {label} system "
            f"within {max_iters} iterations",
            residuals=np.sqrt(rs) / np.maximum(bnorm, np.finfo(float).tiny),
        )
    return x, products


def _check_finite(rs, label):
    """A NaN residual norm would compare as converged: raise instead."""
    if not np.isfinite(rs).all():
        raise SolverError(f"conjugate gradients met a non-finite residual in the "
                          f"{label} system")


def _system_matrix(diagonal, products):
    """diagonal*I + sum of scale * adjoint @ jump over the (scale, Stencil)
    pairs in ``products``, assembled as one CSR matrix."""
    from scipy.sparse import csr_array

    n = products[0][1].num_cols
    matrix = csr_array((np.full(n, diagonal), np.arange(n), np.arange(n + 1)),
                       shape=(n, n))
    for scale, stencil in products:
        matrix = matrix + scale * (stencil.adjoint @ stencil.matrix)
    return matrix


def _normal_matrix(conn, params):
    return _system_matrix(params.beta, [(-params.r1, conn.topo.jump)])


def _v_matrix(conn, params):
    return _system_matrix(params.r1, [(-params.r0, conn.lines.jump),
                                      (-params.r0, conn.curves.jump)])


def normal_system_operator(conn, params):
    """Matrix action of the normal subproblem: beta*X - r1*adj(jump(X)),
    with the matrix assembled once."""
    matrix = _normal_matrix(conn, params)
    return lambda x: matrix @ x


def v_system_operator(conn, params):
    """Matrix action of the v subproblem:
    r1*X - r0*adj(line_jump(X)) - r0*adj(curve_jump(X)), with the matrix
    assembled once."""
    matrix = _v_matrix(conn, params)
    return lambda x: matrix @ x


def _direct_solver(matrix, measure, label):
    """Factor ``matrix`` once and return solve(rhs), its direct solution.

    The sparse LU factor is of diag(measure) @ matrix, which is symmetric
    because the system is self-adjoint in the measure-weighted inner
    product, so the ordering and the diagonal pivots may follow that
    symmetry. A failed factorization, or a solution that is not finite,
    raises SolverError.
    """
    from scipy.sparse.linalg import splu

    scaled = matrix.copy()
    scaled.data *= measure[np.repeat(np.arange(len(measure)), np.diff(scaled.indptr))]
    try:
        factor = splu(scaled.tocsc(), permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"could not factor the {label} system: {exc}") from exc

    def solve(rhs):
        x = factor.solve(measure[:, None] * rhs)
        if not np.isfinite(x).all():
            raise SolverError(f"the factor of the {label} system gave a "
                              "non-finite solution")
        return x

    return solve


# -- the five subproblems ---------------------------------------------------

def solve_n_subproblem(conn, state, n_in, params, system, direct=None) -> np.ndarray:
    """Fidelity-plus-penalty quadratic for the normals, then projection of
    every row onto the unit sphere (rows solving to ~0 keep the previous
    iterate's normal, falling back to the input normal). ``system`` is the
    run's normal_system_operator. Conjugate gradients start from
    ``direct(rhs)`` when a direct solve is given, else from
    ``state.N_solved``; the solution replaces ``state.N_solved`` and the
    iterations go to ``state.cg_iterations[0]``."""
    topo = conn.topo
    rhs = params.beta * n_in - edge_jump_adjoint(
        topo, state.lam_P + params.r1 * (state.P + state.v))
    x0 = state.N_solved if direct is None else direct(rhs)
    solved, state.cg_iterations[0] = _cg_block(
        system, rhs, topo.face_area, params.cg_rel_tol, params.cg_max_iters,
        "normal", x0=x0)
    state.N_solved = solved
    norms = np.linalg.norm(solved, axis=1)
    prev_norms = np.linalg.norm(state.N, axis=1)
    fallback = np.where(prev_norms[:, None] >= 1e-12,
                        state.N / np.maximum(prev_norms, 1e-300)[:, None],
                        n_in)
    ok = norms >= 1e-12
    return np.where(ok[:, None], solved / np.maximum(norms, 1e-300)[:, None], fallback)


def solve_v_subproblem(conn, state, params, system, direct=None) -> np.ndarray:
    """Quadratic coupling v to the current normals and both jump penalties.
    ``system`` is the run's v_system_operator. Conjugate gradients start
    from ``direct(rhs)`` when a direct solve is given, else from
    ``state.v``; the iterations go to ``state.cg_iterations[1]``."""
    topo, lines, curves = conn.topo, conn.lines, conn.curves
    rhs = (-state.lam_P - params.r1 * (state.P - edge_jump(topo, state.N))
           - line_jump_adjoint(lines, state.lam_Q1 + params.r0 * state.Q1)
           - curve_jump_adjoint(curves, state.lam_Q2 + params.r0 * state.Q2))
    x0 = state.v if direct is None else direct(rhs)
    v, state.cg_iterations[1] = _cg_block(
        system, rhs, topo.edge_len, params.cg_rel_tol, params.cg_max_iters,
        "v", x0=x0)
    return v


def solve_p_subproblem(conn, state, params) -> np.ndarray:
    """Per-edge shrink with the weighted first-order threshold."""
    z = edge_jump(conn.topo, state.N) - state.v - state.lam_P / params.r1
    return shrink(params.alpha1 * state.w, params.r1, z)


def solve_q1_subproblem(conn, state, params) -> np.ndarray:
    """Per-line shrink of the 1-form jump."""
    z = line_jump(conn.lines, state.v) - state.lam_Q1 / params.r0
    return shrink(params.alpha0, params.r0, z)


def solve_q2_subproblem(conn, state, params) -> np.ndarray:
    """Per-curve shrink of the 2-form jump; invalid curves stay 0."""
    z = curve_jump(conn.curves, state.v) - state.lam_Q2 / params.r0
    out = shrink(params.alpha0, params.r0, z)
    out[~conn.curves.valid] = 0.0
    return out


def update_multipliers(conn, state, params) -> "SolverState":
    """Ascent step on the three constraint residuals."""
    topo, lines, curves = conn.topo, conn.lines, conn.curves
    state.lam_P = state.lam_P + params.r1 * (
        state.P - (edge_jump(topo, state.N) - state.v))
    state.lam_Q1 = state.lam_Q1 + params.r0 * (state.Q1 - line_jump(lines, state.v))
    state.lam_Q2 = state.lam_Q2 + params.r0 * (state.Q2 - curve_jump(curves, state.v))
    return state


# -- the outer loop ---------------------------------------------------------

def _split_steps(conn, state, params, v_system, v_direct=None):
    """One sweep's updates after the normal step: v, the three shrinks,
    then the multipliers."""
    state.v = solve_v_subproblem(conn, state, params, v_system, v_direct)
    state.P = solve_p_subproblem(conn, state, params)
    state.Q1 = solve_q1_subproblem(conn, state, params)
    state.Q2 = solve_q2_subproblem(conn, state, params)
    update_multipliers(conn, state, params)


def _objective(conn, n_in, state, params, jump_n, jump_l, jump_c):
    """The filter's objective at ``state``, given edge_jump(N),
    line_jump(v) and curve_jump(v)."""
    topo, lines, curves = conn.topo, conn.lines, conn.curves
    fid = 0.5 * params.beta * inner_faces(topo, state.N - n_in, state.N - n_in)
    resid = jump_n - state.v
    first = (state.w * np.linalg.norm(resid, axis=1) * topo.edge_len).sum()
    second = (np.linalg.norm(jump_l, axis=1) * lines.line_len).sum() \
        + (np.linalg.norm(jump_c, axis=1) * curves.curve_len).sum()
    return float(fid + params.alpha1 * first + params.alpha0 * second)


def filter_normals(conn, n_in, params=None, diagnostics_path=None) -> FilterResult:
    """Run the full augmented-Lagrangian sweep loop on a unit normal field.

    Parameters
    ----------
    conn : Connectivity
        Edge/line/curve structures of the mesh the normals live on.
    n_in : (T, 3) float
        Unit input normals (the data term anchor).
    params : SolverParams, optional
    diagnostics_path : str or Path, optional
        When given, the per-iteration diagnostics table is also written
        there as CSV.

    Returns a FilterResult whose ``normals`` are unit length per face.
    """
    params = params or SolverParams()
    topo = conn.topo
    n_in = np.asarray(n_in, dtype=np.float64)
    if n_in.shape != (topo.num_faces, 3):
        raise ValueError(f"n_in must have shape ({topo.num_faces}, 3)")
    if np.abs(np.linalg.norm(n_in, axis=1) - 1.0).max() > 1e-8:
        raise ValueError("n_in rows must be unit length")

    state = SolverState.initial(conn, n_in, params)
    # both system matrices stay the same for the whole run; on a small mesh
    # each is also factored once, and CG checks every direct solution
    n_system = normal_system_operator(conn, params)
    v_system = v_system_operator(conn, params)
    n_direct = v_direct = None
    if topo.num_faces <= _DIRECT_MAX_FACES:
        n_direct = _direct_solver(_normal_matrix(conn, params), topo.face_area, "normal")
        v_direct = _direct_solver(_v_matrix(conn, params), topo.edge_len, "v")
    rows, cg_iterations = [], []
    stop_reason = "max_iters"
    for k in range(params.max_outer_iters):
        state.k = k
        n_prev = state.N
        state.N = solve_n_subproblem(conn, state, n_in, params, n_system, n_direct)
        _split_steps(conn, state, params, v_system, v_direct)
        cg_iterations.append(tuple(state.cg_iterations))

        jump_n = edge_jump(topo, state.N)
        jump_l = line_jump(conn.lines, state.v)
        jump_c = curve_jump(conn.curves, state.v)
        res_p = norm_edges(topo, state.P - (jump_n - state.v))
        res_q1 = norm_lines(conn.lines, state.Q1 - jump_l)
        res_q2 = norm_curves(conn.curves, state.Q2 - jump_c)
        diff = state.N - n_prev
        change_sq = inner_faces(topo, diff, diff)
        rows.append((k, _objective(conn, n_in, state, params, jump_n, jump_l, jump_c),
                     res_p, res_q1, res_q2, change_sq))

        if params.dynamic_weights:
            state.w = edge_weights(topo, state.N, params.sigma_e)

        if change_sq < params.stop_tol:
            stop_reason = "tolerance"
            break

    diagnostics = np.array(rows, dtype=np.float64)
    if diagnostics_path is not None:
        _write_diagnostics(diagnostics_path, diagnostics)
    return FilterResult(normals=state.N, iterations=len(rows),
                        stop_reason=stop_reason, diagnostics=diagnostics,
                        weights=state.w,
                        cg_iterations=np.array(cg_iterations, dtype=np.int64))


def _write_diagnostics(path, diagnostics):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")
        for row in diagnostics:
            cells = [str(int(row[0]))] + ["%.17g" % x for x in row[1:]]
            fh.write(",".join(cells) + "\n")


def minimize_tgv(conn, u, alpha1, alpha0, r1=2.0, r0=2.0, iters=200,
                 cg_rel_tol=1e-8, cg_max_iters=2000):
    """Approximate the variational second-order semi-norm of a face field:
    the infimum over v of tgv_energy(conn, u, v, alpha1, alpha0).

    Runs the filter's own sweep steps with the face field held fixed as N
    and all edge weights at 1, tracking the best iterate. Returns
    (energy, v) at the best v found.
    """
    u = np.asarray(u, dtype=np.float64)
    u2 = u[:, None] if u.ndim == 1 else u
    params = SolverParams(alpha1=alpha1, alpha0=alpha0, r1=r1, r0=r0,
                          cg_rel_tol=cg_rel_tol, cg_max_iters=cg_max_iters,
                          dynamic_weights=False)
    state = SolverState.initial(conn, u2, params)
    state.N = u2

    # seed the search with the two analytic candidates: v = 0 (reduces to the
    # first-order term alone) and v = jump_u (kills the first-order term)
    best_energy = tgv_energy(conn, u2, state.v, alpha1, alpha0)
    best_v = state.v
    jump_u = edge_jump(conn.topo, u2)
    at_jump = tgv_energy(conn, u2, jump_u, alpha1, alpha0)
    if at_jump < best_energy:
        best_energy, best_v = at_jump, jump_u
    v_system = v_system_operator(conn, params)
    for _ in range(iters):
        _split_steps(conn, state, params, v_system)
        energy = tgv_energy(conn, u2, state.v, alpha1, alpha0)
        if energy < best_energy:
            best_energy = energy
            best_v = state.v
    return best_energy, (best_v[:, 0] if u.ndim == 1 else best_v)
