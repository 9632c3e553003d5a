"""Command-line front end for the denoising pipeline.

Subcommands: ``gen`` (procedural test meshes), ``add-noise``, ``denoise``,
``metrics``, and ``seminorms``. Results go to stdout as a single JSON
object; human-readable diagnostics go to stderr. Exit codes: 0 success,
1 argument / file / mesh-validation errors, 2 solver failure.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .fileio import _format_of, load_mesh, save_mesh, save_table
from .mesh import MeshError, _checked_count, face_normals
from .metrics import face_angle_errors, mean_angular_difference, vertex_error
from .noise import MODES, NoiseSpec, add_gaussian_noise, mean_edge_length, vertex_normals
from .operators import edge_jump, ho_seminorm, tgv_energy, tv_seminorm
from .reconstruct import update_vertices
from .solver import (DIAGNOSTIC_COLUMNS, WEIGHT_RANGE, SolverError, SolverParams,
                     filter_normals, minimize_tgv)
from .synth import make_cube, make_icosphere, make_plane, make_tetrahedron
from .topology import build_connectivity

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # the documented contract is exit code 1 for all usage/validation errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Each solver flag is stored under the name of its SolverParams field, and
# defaults to that field's default.
_SOLVER_DEFAULTS = asdict(SolverParams())
_SOLVER_FLAGS = {name: "--" + name.replace("_", "-") for name in _SOLVER_DEFAULTS}
_SOLVER_FLAGS["max_outer_iters"] = "--max-iters"


def _solver_params(args, names=tuple(_SOLVER_DEFAULTS)) -> SolverParams:
    """SolverParams from the parsed ``names``, each checked alone first so
    that a value out of range is reported with the flag that set it."""
    values = {name: getattr(args, name) for name in names}
    for name, value in values.items():
        try:
            SolverParams(**{name: value})
        except ValueError as exc:
            raise ValueError(f"{_SOLVER_FLAGS[name]}: {exc}") from exc
    return SolverParams(**values)


def _add_solver_flags(p):
    g = p.add_argument_group(
        "solver parameters",
        "the six weights, penalties and bandwidth must lie in [%g, %g], and "
        "--sigma-e may also be inf; --stop-tol must be positive and finite" % WEIGHT_RANGE)
    g.add_argument("--alpha1", type=float,
                   help="first-order weight (0.5-3.0 is a good range, but at the default "
                        "penalties 2-3 end 3-4x worse than 1 on the benchmark cube; "
                        "default %(default)s)")
    g.add_argument("--alpha0", type=float,
                   help="second-order weight (recommended range 0.05-1; default %(default)s)")
    g.add_argument("--beta", type=float,
                   help="fidelity weight (default %(default)s, for CAD-like and smooth "
                        "surfaces alike; larger keeps more noise)")
    g.add_argument("--r1", type=float, help="first-order penalty weight")
    g.add_argument("--r0", type=float, help="second-order penalty weight")
    g.add_argument("--sigma-e", type=float,
                   help="edge-weight bandwidth on unit-normal differences; inf "
                        "turns the weights off (the ablation)")
    g.add_argument("--max-iters", dest="max_outer_iters", metavar="MAX_ITERS", type=int,
                   help="outer iteration cap")
    g.add_argument("--stop-tol", type=float,
                   help="stop when the area-weighted squared normal change per "
                        "unit area drops below this (default %(default)s)")
    p.set_defaults(**_SOLVER_DEFAULTS)


def _build_parser():
    parser = _Parser(prog="tgvdenoise",
                     description="Feature-preserving mesh denoising via a "
                                 "second-order variational normal filter.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("denoise", help="filter face normals and rebuild vertices")
    p.add_argument("input", help="noisy mesh (.obj or .off)")
    p.add_argument("-o", "--output", required=True, help="denoised mesh path")
    _add_solver_flags(p)
    p.add_argument("--vertex-iters", type=int, default=30,
                   help="vertex update sweeps after filtering, at least 1 (default 30)")
    p.add_argument("--diagnostics", metavar="CSV",
                   help="write per-iteration solver diagnostics here")
    p.add_argument("--ground-truth", metavar="MESH",
                   help="clean mesh; adds error metrics to the output JSON")
    p.add_argument("--error-map", metavar="CSV",
                   help="with --ground-truth: write per-face angle errors here")

    p = sub.add_parser("add-noise", help="corrupt a mesh with Gaussian noise")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--level", type=float, required=True,
                   help="noise standard deviation as a multiple of mean edge length")
    p.add_argument("--mode", choices=MODES, default="iid-coordinate")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("metrics", help="compare a mesh against a reference")
    p.add_argument("denoised")
    p.add_argument("reference")
    p.add_argument("--error-map", metavar="CSV",
                   help="write per-face angle errors here")

    p = sub.add_parser("seminorms", help="variational semi-norms of the normal field")
    p.add_argument("input")
    p.add_argument("--alpha1", type=float,
                   help="first-order weight, in [%g, %g] (default %%(default)s)" % WEIGHT_RANGE)
    p.add_argument("--alpha0", type=float,
                   help="second-order weight, in [%g, %g] (default %%(default)s)" % WEIGHT_RANGE)
    p.set_defaults(alpha1=_SOLVER_DEFAULTS["alpha1"], alpha0=_SOLVER_DEFAULTS["alpha0"])
    p.add_argument("--minimize", action="store_true",
                   help="also search for the minimizing auxiliary field")
    p.add_argument("--minimize-iters", type=int,
                   help="with --minimize: sweeps of that search, at least 1 (default 200)")

    p = sub.add_parser("gen", help="write a procedural test mesh")
    p.add_argument("--shape", required=True, choices=list(_SHAPES))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--divisions", type=int,
                   help="grid divisions (cube/plane, default 10) or subdivision "
                        "level (icosphere, default 3); not for the tetrahedron")
    p.add_argument("--size", type=float, default=1.0,
                   help="edge length or radius, positive and finite")
    return parser


def _emit(obj):
    print(json.dumps(obj))


def _compare(mesh, reference, n_ref, error_map):
    """Theta (the mean per-face normal angle, in degrees) and e_v of ``mesh``
    against ``reference``, whose face normals are ``n_ref``; writes the
    per-face angles as CSV to ``error_map``."""
    errors = face_angle_errors(face_normals(mesh), n_ref)
    e_v = vertex_error(mesh, reference)
    if error_map:
        save_table(error_map, ("face", "angle_degrees"),
                   np.column_stack([np.arange(len(errors)), errors]))
    return float(errors.mean()), e_v


def cmd_denoise(args) -> int:
    params = _solver_params(args)
    _checked_count("--vertex-iters", args.vertex_iters)
    if args.error_map and not args.ground_truth:
        raise ValueError("--error-map requires --ground-truth")
    mesh = load_mesh(args.input)
    # the reference is checked before any sweep, so a bad one writes nothing
    if args.ground_truth:
        clean = load_mesh(args.ground_truth)
        if clean.num_faces != mesh.num_faces:
            raise MeshError("ground-truth face count does not match the input mesh")
    conn = build_connectivity(mesh)
    n_in = face_normals(mesh)
    result = filter_normals(conn, n_in, params)
    if args.diagnostics:
        save_table(args.diagnostics, DIAGNOSTIC_COLUMNS, result.diagnostics)
    out_mesh = update_vertices(mesh, result.normals, iters=args.vertex_iters)
    save_mesh(out_mesh, args.output)

    report = {
        "output": args.output,
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "face_count": mesh.num_faces,
        "vertex_count": mesh.num_vertices,
    }
    if args.ground_truth:
        n_clean = face_normals(clean)
        report["theta_filtered_degrees"] = mean_angular_difference(result.normals, n_clean)
        report["theta_output_degrees"], report["e_v"] = _compare(out_mesh, clean, n_clean,
                                                                 args.error_map)
    _emit(report)
    return 0


def cmd_add_noise(args) -> int:
    # the level and the seed are checked before the mesh is read
    spec = NoiseSpec(level=args.level, mode=args.mode, seed=args.seed)
    mesh = load_mesh(args.input)
    # a mesh without faces has no edge length, at any level
    le = mean_edge_length(mesh)
    noisy = add_gaussian_noise(mesh, spec)
    save_mesh(noisy, args.output)

    disp = noisy.vertices - mesh.vertices
    if args.mode == "iid-coordinate":
        realized = float(disp.std())
    else:
        realized = float((disp * vertex_normals(mesh)).sum(axis=1).std())
    _emit({
        "output": args.output,
        "mean_edge_length": le,
        "requested_sigma": args.level * le,
        "realized_sigma": realized,
        "vertex_count": mesh.num_vertices,
    })
    return 0


def cmd_metrics(args) -> int:
    denoised = load_mesh(args.denoised)
    reference = load_mesh(args.reference)
    if denoised.num_faces != reference.num_faces:
        raise MeshError(
            f"face counts differ ({denoised.num_faces} vs {reference.num_faces}); "
            "the normal comparison needs matching meshes")
    theta, e_v = _compare(denoised, reference, face_normals(reference), args.error_map)
    _emit({
        "theta_degrees": theta,
        "e_v": e_v,
        "face_count": denoised.num_faces,
        "vertex_count": denoised.num_vertices,
    })
    return 0


def cmd_seminorms(args) -> int:
    # range-checks both weights, as for denoise, and the search's sweeps
    # before the mesh is read
    _solver_params(args, ("alpha1", "alpha0"))
    if args.minimize_iters is not None:
        if not args.minimize:
            raise ValueError("--minimize-iters requires --minimize")
        _checked_count("--minimize-iters", args.minimize_iters)
    mesh = load_mesh(args.input)
    conn = build_connectivity(mesh)
    topo = conn.topo
    u = face_normals(mesh)
    jump = edge_jump(topo, u)
    zero_v = np.zeros_like(jump)
    support = int((np.linalg.norm(jump, axis=1) > 1e-7).sum())
    report = {
        "tv": tv_seminorm(topo, u),
        "ho": ho_seminorm(conn.lines, u),
        "tgv_at_zero_v": tgv_energy(conn, u, zero_v, args.alpha1, args.alpha0),
        "tgv_at_jump_v": tgv_energy(conn, u, jump, args.alpha1, args.alpha0),
        "tv_support_edges": support,
        "edge_count": topo.num_edges,
        "face_count": mesh.num_faces,
    }
    if args.minimize:
        iters = {} if args.minimize_iters is None else {"iters": args.minimize_iters}
        energy, _ = minimize_tgv(conn, u, args.alpha1, args.alpha0, **iters)
        report["tgv_minimized"] = energy
    _emit(report)
    return 0


# Each gen shape's builder, the parameters that --divisions sets and their
# default, and the parameter that --size sets
_SHAPES = {
    "tetrahedron": (make_tetrahedron, (), None, "scale"),
    "cube": (make_cube, ("divisions",), 10, "size"),
    "icosphere": (make_icosphere, ("subdivisions",), 3, "radius"),
    "plane": (make_plane, ("nx", "ny"), 10, "size"),
}


def cmd_gen(args) -> int:
    build, counts, default, size = _SHAPES[args.shape]
    if args.divisions is not None and not counts:
        raise ValueError(f"--divisions does not apply to --shape {args.shape}")
    divisions = default if args.divisions is None else args.divisions
    try:
        mesh = build(**dict.fromkeys(counts, divisions), **{size: args.size})
    except MeshError:
        raise
    except ValueError as exc:
        # a builder's range error begins with the parameter it names
        flag = "--size" if str(exc).startswith(size) else "--divisions"
        raise ValueError(f"{flag}: {exc}") from exc
    save_mesh(mesh, args.output)
    _emit({"output": args.output, "vertices": mesh.num_vertices,
           "faces": mesh.num_faces})
    return 0


_COMMANDS = {
    "denoise": cmd_denoise,
    "add-noise": cmd_add_noise,
    "metrics": cmd_metrics,
    "seminorms": cmd_seminorms,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a command checks where, and in what format, it writes before any
        # work, and that no two of its outputs are one file
        written = {}
        for name in ("output", "diagnostics", "error_map"):
            path, flag = getattr(args, name, None), "--" + name.replace("_", "-")
            if path is None:
                continue
            if not Path(path).parent.is_dir():
                raise FileNotFoundError(f"{flag}: no directory for {path}")
            clash = written.setdefault(Path(path).resolve(), flag)
            if clash != flag:
                raise ValueError(f"{clash} and {flag} both name {path}")
        if getattr(args, "output", None) is not None:
            _format_of(args.output)
        return _COMMANDS[args.command](args)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except (MeshError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
