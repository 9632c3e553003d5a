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
multiplier ascent on the constraint residuals and a weight refresh; at
sigma_e = inf every weight is exactly 1, the unweighted model. Neither
system depends on the iterates or the edge weights, so ``_System`` builds
each once per run for the filter and ``minimize_tgv``, in coordinates scaled
by D = diag(sqrt(measure)), as S = c*I + sum of r * B^T B (B a jump balanced
by its measures). On meshes of at most ``_DIRECT_MAX_FACES`` faces S is also
factored once per run (a sparse LU with a symmetric ordering and diagonal
pivots), and every solve's direct solution starts conjugate gradients on S,
preconditioned by S's diagonal, whose first residual checks it against
``_CG_REL_TOL``: one product per solve when it passes. On larger meshes, where
a factor costs more than it saves, conjugate gradients start from the
system's previous solution, and ``scipy.sparse.linalg`` is never imported.

The outer loop stops when the squared area-weighted change of the normal
field, per unit of the mesh's total face area, drops below ``stop_tol``, or
after ``max_outer_iters`` sweeps.
"""

from dataclasses import dataclass, field

import numpy as np

from .mesh import _check_unit_rows, _checked_count, row_dot, row_norm
from .operators import (
    curve_jump, curve_jump_adjoint, edge_jump, edge_jump_adjoint,
    inner_faces, line_jump, line_jump_adjoint, norm_curves, norm_edges,
    norm_lines, tgv_energy_of_jumps,
)

# Largest mesh whose two systems are factored. Above it a factor costs more
# than the solves it saves: on the 20k-face level-5 icosphere the v factor
# (4.27M L+U) takes 6.3 s, while the whole 5-sweep filter at beta 1000 takes
# 0.22 s with CG (2-core VM, one BLAS thread).
_DIRECT_MAX_FACES = 5_000

# Every linear solve iterates until its residual, in the measure-weighted norm
# of the whole (n, C) block, is at most _CG_REL_TOL times its right-hand
# side's, or raises SolverError after _CG_MAX_ITERS iterations. The splitting
# tolerates inexact solves: on the 19.2k-face benchmark cube, 100 sweeps at
# 1e-5 took 4 192 normal and 1 500 v products where 1e-8 took 9 027 and
# 2 457, while the final objective moved by 1.3e-6 relative and the mean
# normal error by 4.8e-5. A factored mesh's direct solutions pass at any
# tolerance in one product each.
_CG_REL_TOL = 1e-5
_CG_MAX_ITERS = 2000

__all__ = [
    "SolverParams", "SolverError", "FilterResult", "edge_weights",
    "normal_system_operator", "v_system_operator",
    "solve_n_subproblem", "solve_v_subproblem", "solve_p_subproblem",
    "solve_q1_subproblem", "solve_q2_subproblem", "update_multipliers",
    "filter_normals", "minimize_tgv", "DIAGNOSTIC_COLUMNS",
]


class SolverError(RuntimeError):
    """Linear solve failed; ``residuals`` carries the relative block
    residual of a conjugate-gradient solve that did not converge."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


# The range of every weight, penalty and bandwidth. Within it the squares and
# products the sweeps form stay far from float64's overflow and underflow:
# beta or r1 near 1e300 overflowed the CG inner products, sigma_e near 1e300
# overflowed its square, and near 1e-300 that square was 0. sigma_e may also
# be inf, where exp(-x / inf) is exactly 1 for every finite x >= 0.
WEIGHT_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class SolverParams:
    """Weights, penalties, and the stop rule of the normal filter.

    alpha1 / alpha0 weight the first- and second-order terms, beta the
    fidelity term (100 suits both CAD-like and smooth surfaces at the
    calibrated scale; a larger beta keeps more of the input's noise). r1 /
    r0 are the splitting penalties, sigma_e the weight bandwidth on
    unit-normal differences; each of these six lies in WEIGHT_RANGE, and
    sigma_e may be inf, which turns the edge weights off (all exactly 1).
    stop_tol is positive and finite, max_outer_iters an integer of at least 1.
    The loop stops once a sweep's area-weighted squared normal change over
    the total face area is below stop_tol, so a mesh scaled by s stops after
    the same sweep at beta / s; 6.7e-9 is about the former raw threshold,
    1e-10, over the 1.2k-face bench cube's clean area 0.015. These
    defaults are the command line's too; every solve meets ``_CG_REL_TOL``.
    """

    alpha1: float = 1.0
    alpha0: float = 0.1
    beta: float = 100.0
    r1: float = 2.0
    r0: float = 2.0
    sigma_e: float = 0.5
    max_outer_iters: int = 100
    stop_tol: float = 6.7e-9

    def __post_init__(self):
        lo, hi = WEIGHT_RANGE
        for name in ("alpha1", "alpha0", "beta", "r1", "r0"):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} must be between {lo:g} and {hi:g}")
        if not (lo <= self.sigma_e <= hi or self.sigma_e == np.inf):
            raise ValueError(f"sigma_e must be between {lo:g} and {hi:g}, or inf")
        if not 0 < self.stop_tol < np.inf:
            raise ValueError("stop_tol must be positive and finite")
        _checked_count("max_outer_iters", self.max_outer_iters)


@dataclass
class SolverState:
    """All iterates of one filter run (edge weights included)."""

    N: np.ndarray
    v: np.ndarray
    P: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    lam_P: np.ndarray
    lam_Q1: np.ndarray
    lam_Q2: np.ndarray
    w: np.ndarray

    @classmethod
    def initial(cls, conn, jump_in, params):
        """Zero iterates, and weights from ``jump_in``, the input's edge jump."""
        topo, lines, curves = conn.topo, conn.lines, conn.curves
        E, L, C = topo.num_edges, lines.num_lines, curves.num_curves
        ch = jump_in.shape[1]
        return cls(
            N=np.zeros((topo.num_faces, ch)),
            v=np.zeros((E, ch)), P=np.zeros((E, ch)), lam_P=np.zeros((E, ch)),
            Q1=np.zeros((L, ch)), lam_Q1=np.zeros((L, ch)),
            Q2=np.zeros((C, ch)), lam_Q2=np.zeros((C, ch)),
            w=edge_weights(jump_in, params.sigma_e),
        )


DIAGNOSTIC_COLUMNS = ("iteration", "objective", "residual_p", "residual_q1",
                      "residual_q2", "normal_change_sq")


@dataclass
class FilterResult:
    """Filtered normals plus per-iteration diagnostics.

    ``diagnostics`` has one row per sweep with the DIAGNOSTIC_COLUMNS
    entries (``fileio.save_table`` writes it as CSV), ``normal_change_sq``
    not divided by the area; ``stop_reason`` is
    "tolerance" or "max_iters". ``cg_iterations`` has one row per sweep:
    the conjugate-gradient iterations of the normal and of the v solve, each
    iteration one product with the whole (n, 3) block (on a factored mesh, 1
    when the direct solution passes CG's first check of the block residual).
    """

    normals: np.ndarray
    iterations: int
    stop_reason: str
    diagnostics: np.ndarray
    cg_iterations: np.ndarray = field(repr=False)


# -- building blocks -------------------------------------------------------

def shrink(weight, penalty, z) -> np.ndarray:
    """Row-wise soft shrinkage of the (rows, C) array ``z``:
    max(0, 1 - weight / (penalty * |z|)) * z.

    Rows with |z| = 0 (or below the threshold weight / penalty) map to 0.
    ``weight`` may be a scalar or one value per row.
    """
    norms = row_norm(z)
    scaled = np.divide(weight, penalty * norms, out=np.full_like(norms, np.inf),
                       where=norms > 0)
    return np.maximum(0.0, 1.0 - scaled)[:, None] * z


def edge_weights(jump_n, sigma_e) -> np.ndarray:
    """Per-edge feature weights exp(-|N_1 - N_2|^2 / (2 sigma_e^2)) from
    ``jump_n`` = edge_jump(N), which is +-(N_1 - N_2) exactly on an interior
    edge and 0, so weight 1, on a boundary edge. ``sigma_e`` = inf gives
    exactly 1 on every edge."""
    return np.exp(-row_dot(jump_n, jump_n) / (2.0 * sigma_e ** 2))


def _cg_block(apply_op, precondition, rhs, rel_tol, label, x0=None):
    """Conjugate gradients on the (n, C) block as one flat vector, one step
    size per iteration for all channels, preconditioned by multiplying the
    residual with ``precondition``: positive and broadcastable to the block
    (a Jacobi preconditioner; 1.0 is plain CG). Given full width, as
    ``_System`` gives it, every product is elementwise without a broadcast,
    about twice as fast on an (n, 3) block as with an (n, 1) column. Each
    inner product is an einsum, not a BLAS dot, whose bits depend on its
    thread count. ``apply_op`` returns a new array, which the iteration
    overwrites.

    ``x0`` is the starting guess; None or all zeros starts from zero. The
    solve stops once the block residual's norm, not the preconditioned one,
    is at most ``rel_tol`` times the block right-hand side's, whatever the
    start. The system does not couple channels, so a channel whose
    right-hand side is exactly zero returns exactly zero. Returns the
    solution and the iteration count, one per product with the system: a
    nonzero ``x0`` costs one more, for its residual. A non-finite residual,
    like one that does not converge within ``_CG_MAX_ITERS`` iterations,
    raises SolverError.
    """
    def dot(a, b):
        return np.einsum("i,i->", a.ravel(), b.ravel())

    bnorm = np.sqrt(dot(rhs, rhs))
    target = rel_tol * bnorm
    if x0 is None or not x0.any():
        x, r, products = np.zeros_like(rhs), rhs.copy(), 0
    else:
        x = np.where(rhs.any(axis=0), x0, 0.0)
        r, products = rhs - apply_op(x), 1
    p, z = r * precondition, np.empty_like(rhs)
    rs, rz = dot(r, r), dot(r, p)
    for _ in range(_CG_MAX_ITERS):
        if np.sqrt(rs) <= target or not np.isfinite(rs):
            break
        ap = apply_op(p)
        products += 1
        alpha = rz / dot(p, ap)
        x += np.multiply(alpha, p, out=z)
        r -= np.multiply(alpha, ap, out=ap)
        rs, rz_old = dot(r, r), rz
        rz = dot(r, np.multiply(r, precondition, out=z))
        p *= rz / rz_old
        p += z
    if not np.sqrt(rs) <= target:
        raise SolverError(
            f"conjugate gradients met a non-finite residual in the {label} system"
            if not np.isfinite(rs) else
            f"conjugate gradients did not converge for the {label} system "
            f"within {_CG_MAX_ITERS} iterations",
            residuals=np.sqrt(rs) / max(bnorm, np.finfo(float).tiny),
        )
    return x, products


def _system_matrix(diagonal, r, jumps):
    """diagonal*I + sum of r * B^T B over the ``jumps``' balanced forms B as
    one CSR matrix: an entry and its mirror sum the same products in the
    same order, so the matrix is symmetric bit for bit."""
    from scipy.sparse import csr_array

    n = jumps[0].num_cols
    matrix = csr_array((np.full(n, diagonal), np.arange(n), np.arange(n + 1)),
                       shape=(n, n))
    for jump in jumps:
        b = jump.balanced()
        matrix = matrix + r * (b.T @ b)
    return matrix


def normal_system_operator(matrix):
    """The normal _System's product with S = beta*I + r1*B^T B."""
    return lambda x: matrix @ x


def v_system_operator(matrix):
    """The v _System's product with S = r1*I + r0*(B_l^T B_l + B_c^T B_c)."""
    return lambda x: matrix @ x


class _System:
    """One ALM system of a run, ``kind`` "normal" or "v", and its solve rule.

    In the coordinates y = D x, D = diag(sqrt(m)) with m the measure of the
    elements its jumps J read (``d`` holds D's diagonal repeated in each of
    the ``channels`` columns of the fields it solves for), the
    subproblem's c |x|^2 + sum of r |J x|^2 in measure-weighted norms is
    c |y|^2 + sum of r |B y|^2, B = J.balanced(), so its system is S = c*I +
    sum of r * B^T B, assembled once by ``_system_matrix``. Its product
    comes from the public factory, looked up when the system is built, so a
    factory rebound after import (a tracer's) makes every product. On meshes
    of at most ``_DIRECT_MAX_FACES`` faces S is also factored, with a
    symmetric ordering and diagonal pivots.
    ``solve(rhs)`` scales ``rhs`` in place to D rhs and solves S y = D rhs
    by conjugate gradients to ``_CG_REL_TOL`` (read at each call), from the
    direct solution when factored, else from the previous ``solution`` y;
    it leaves the product count in ``products`` and returns D^-1 y. As
    |D r| is r's measure-weighted norm, the stop rule is the model's. A
    failed factorization, or a non-finite direct solution, raises SolverError.
    The CG is Jacobi-preconditioned by ``precondition``, S's diagonal taken
    once as max(diag S) / diag S and, like ``d``, repeated over the
    channels, so no product of a solve broadcasts. It gives the same
    iterates as diag(S)^-1 up to rounding, but with every entry at least 1,
    so the preconditioned inner products stay at or above the squared
    residual norm that the stop rule reads and cannot underflow first.
    """

    def __init__(self, conn, params, kind, channels=3):
        if kind == "normal":
            factory, diagonal, r, jumps = (normal_system_operator, params.beta,
                                           params.r1, [conn.topo.jump])
        else:
            factory, diagonal, r, jumps = (v_system_operator, params.r1, params.r0,
                                           [conn.lines.jump, conn.curves.jump])
        matrix = _system_matrix(diagonal, r, jumps)
        self.kind, self.apply = kind, factory(matrix)
        self.d = np.repeat(np.sqrt(jumps[0].m_col)[:, None], channels, axis=1)
        jacobi = matrix.diagonal()
        self.precondition = np.repeat((jacobi.max() / jacobi)[:, None], channels, axis=1)
        self.solution, self.products, self.factor = None, 0, None
        if conn.topo.num_faces <= _DIRECT_MAX_FACES:
            from scipy.sparse.linalg import splu

            try:
                self.factor = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                   diag_pivot_thresh=0.0,
                                   options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise SolverError(f"could not factor the {kind} system: {exc}") from exc

    def direct(self, rhs):
        """The factor's solution of S y = rhs, before the CG check."""
        y = self.factor.solve(rhs)
        if not np.isfinite(y).all():
            raise SolverError(f"the factor of the {self.kind} system gave a "
                              "non-finite solution")
        return y

    def solve(self, rhs):
        rhs *= self.d
        y0 = self.solution if self.factor is None else self.direct(rhs)
        self.solution, self.products = _cg_block(
            self.apply, self.precondition, rhs, _CG_REL_TOL, self.kind, x0=y0)
        return self.solution / self.d


# -- the five subproblems ---------------------------------------------------

def solve_n_subproblem(conn, state, n_in, params, system) -> np.ndarray:
    """Fidelity-plus-penalty quadratic for the normals, then projection of
    every row onto the unit sphere (rows solving to ~0 keep the previous
    iterate's normal, falling back to the input normal). ``system`` is the
    run's normal _System."""
    rhs = params.beta * n_in - edge_jump_adjoint(
        conn.topo, state.lam_P + params.r1 * (state.P + state.v))
    solved = system.solve(rhs)
    norms = row_norm(solved)
    prev_norms = row_norm(state.N)
    fallback = np.where(prev_norms[:, None] >= 1e-12,
                        state.N / np.maximum(prev_norms, 1e-300)[:, None],
                        n_in)
    ok = norms >= 1e-12
    return np.where(ok[:, None], solved / np.maximum(norms, 1e-300)[:, None], fallback)


def solve_v_subproblem(conn, state, params, system, jump_n) -> np.ndarray:
    """Quadratic coupling v to the current normals and both jump penalties.
    ``system`` is the run's v _System; ``jump_n`` is edge_jump(state.N)."""
    rhs = (-state.lam_P - params.r1 * (state.P - jump_n)
           - line_jump_adjoint(conn.lines, state.lam_Q1 + params.r0 * state.Q1)
           - curve_jump_adjoint(conn.curves, state.lam_Q2 + params.r0 * state.Q2))
    return system.solve(rhs)


def solve_p_subproblem(state, params, resid) -> np.ndarray:
    """Per-edge shrink with the weighted first-order threshold; ``resid``
    is edge_jump(state.N) - state.v."""
    z = resid - state.lam_P / params.r1
    return shrink(params.alpha1 * state.w, params.r1, z)


def solve_q1_subproblem(state, params, jump_l) -> np.ndarray:
    """Per-line shrink of the 1-form jump; ``jump_l`` is
    line_jump(state.v)."""
    z = jump_l - state.lam_Q1 / params.r0
    return shrink(params.alpha0, params.r0, z)


def solve_q2_subproblem(state, params, jump_c) -> np.ndarray:
    """Per-curve shrink of the 2-form jump; ``jump_c`` is curve_jump(state.v).
    An invalid curve's jump row is all zeros and its multiplier starts at 0,
    so its shrink, and its multiplier, stay exactly 0 in every sweep."""
    z = jump_c - state.lam_Q2 / params.r0
    return shrink(params.alpha0, params.r0, z)


def update_multipliers(state, params, residuals) -> "SolverState":
    """Ascent step on the three constraint ``residuals``:
    P - (edge_jump(N) - v), Q1 - line_jump(v) and Q2 - curve_jump(v)."""
    res_p, res_q1, res_q2 = residuals
    state.lam_P = state.lam_P + params.r1 * res_p
    state.lam_Q1 = state.lam_Q1 + params.r0 * res_q1
    state.lam_Q2 = state.lam_Q2 + params.r0 * res_q2
    return state


# -- the outer loop ---------------------------------------------------------

def _split_steps(conn, state, params, v_system, jump_n):
    """One sweep's updates after the normal step: v, the three shrinks (line
    and curve first, the largest) and the multipliers; ``jump_n`` is
    edge_jump(state.N). edge_jump(N) - v, line_jump(v) and curve_jump(v) are
    formed once for the shrinks and the TGV energy (weights state.w), then
    overwritten by the constraint residuals. Returns the energy and those."""
    state.v = solve_v_subproblem(conn, state, params, v_system, jump_n)
    jump_l, jump_c = line_jump(conn.lines, state.v), curve_jump(conn.curves, state.v)
    state.Q1 = solve_q1_subproblem(state, params, jump_l)
    state.Q2 = solve_q2_subproblem(state, params, jump_c)
    resid = jump_n - state.v
    state.P = solve_p_subproblem(state, params, resid)
    energy = tgv_energy_of_jumps(conn, resid, jump_l, jump_c, state.w,
                                 params.alpha1, params.alpha0)
    residuals = [np.subtract(q, j, out=j) for q, j in
                 ((state.P, resid), (state.Q1, jump_l), (state.Q2, jump_c))]
    update_multipliers(state, params, residuals)
    return energy, residuals


def filter_normals(conn, n_in, params=None) -> FilterResult:
    """Run the full augmented-Lagrangian sweep loop on a unit normal field.

    Parameters
    ----------
    conn : Connectivity
        Edge/line/curve structures of the mesh the normals live on.
    n_in : (T, 3) float
        Unit input normals (the data term anchor).
    params : SolverParams, optional

    Returns a FilterResult whose ``normals`` are unit length per face.
    """
    params = params or SolverParams()
    topo = conn.topo
    n_in = np.asarray(n_in, dtype=np.float64)
    if n_in.shape != (topo.num_faces, 3):
        raise ValueError(f"n_in must have shape ({topo.num_faces}, 3)")
    _check_unit_rows("n_in", n_in)

    state = SolverState.initial(conn, edge_jump(topo, n_in), params)
    n_system, v_system = _System(conn, params, "normal"), _System(conn, params, "v")
    area = topo.face_area.sum()
    rows, cg_iterations = [], []
    stop_reason = "max_iters"
    for k in range(params.max_outer_iters):
        n_prev = state.N
        state.N = solve_n_subproblem(conn, state, n_in, params, n_system)
        jump_n = edge_jump(topo, state.N)
        energy, (res_p, res_q1, res_q2) = _split_steps(conn, state, params,
                                                       v_system, jump_n)
        cg_iterations.append((n_system.products, v_system.products))

        diff = state.N - n_prev
        change_sq = inner_faces(topo, diff, diff)
        diff = state.N - n_in
        fid = 0.5 * params.beta * inner_faces(topo, diff, diff)
        rows.append((k, fid + energy, norm_edges(topo, res_p),
                     norm_lines(conn.lines, res_q1), norm_curves(conn.curves, res_q2),
                     change_sq))
        state.w = edge_weights(jump_n, params.sigma_e)
        # the sweep's fields would otherwise stay alive through the next solves
        del jump_n, res_p, res_q1, res_q2

        if change_sq / area < params.stop_tol:
            stop_reason = "tolerance"
            break

    return FilterResult(normals=state.N, iterations=len(rows),
                        stop_reason=stop_reason,
                        diagnostics=np.array(rows, dtype=np.float64),
                        cg_iterations=np.array(cg_iterations, dtype=np.int64))


def minimize_tgv(conn, u, alpha1, alpha0, iters=200):
    """Approximate the variational second-order semi-norm of a face field:
    the infimum over v of tgv_energy(conn, u, v, alpha1, alpha0).

    Runs ``iters`` (at least 1) of the filter's own sweep steps, and its v
    _System, at the filter's default penalties and its ``_CG_REL_TOL``,
    with the face field held fixed as N and sigma_e = inf, so all edge
    weights are 1, tracking the best iterate. Returns (energy, v) at the
    best v found: an upper bound on the infimum however inexact the solves,
    since each energy is evaluated at the v it is returned with. It may be
    one of the two seeds.
    """
    _checked_count("iters", iters)
    u = np.asarray(u, dtype=np.float64)
    if not np.isfinite(u).all():
        raise ValueError("u must be finite")
    u2 = u[:, None] if u.ndim == 1 else u
    params = SolverParams(alpha1=alpha1, alpha0=alpha0, sigma_e=np.inf)
    # the face field is fixed, so its jump is taken once; each sweep returns
    # the energy of its v
    jump_u = edge_jump(conn.topo, u2)
    state = SolverState.initial(conn, jump_u, params)
    state.N = u2

    def energy(v):
        return tgv_energy_of_jumps(conn, jump_u - v, line_jump(conn.lines, v),
                                   curve_jump(conn.curves, v), state.w, alpha1, alpha0)

    # seed the search with the two analytic candidates: v = 0 (reduces to the
    # first-order term alone) and v = jump_u (kills the first-order term)
    best_v, best_energy = state.v, energy(state.v)
    at_jump = energy(jump_u)
    if at_jump < best_energy:
        best_energy, best_v = at_jump, jump_u
    v_system = _System(conn, params, "v", channels=u2.shape[1])
    for _ in range(iters):
        e, _ = _split_steps(conn, state, params, v_system, jump_n=jump_u)
        if e < best_energy:
            best_energy, best_v = e, state.v
    return best_energy, (best_v[:, 0] if u.ndim == 1 else best_v)
