"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules (the
names in each module's ``__all__``), and the ``__init__`` of every public
class, with a wrapper that records one span: name, start, end and the span
that was open when it started. A function imported by name into another
module of the package is replaced there too, so calls between modules are
seen. A few wrappers also count work (matrix-vector products, bytes, sweeps,
connectivity sizes). Names that are missing are skipped: metrics that would
come from them are left out of the results, never faked.

``layer_metrics`` turns a spans file and the counters into the per-layer
metrics; a span's self time is its duration minus that of its children.
"""

import csv
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("fileio", "mesh", "topology", "operators", "solver", "reconstruct",
          "metrics", "cli")

OPERATORS = ("edge_jump", "edge_jump_adjoint", "line_jump", "line_jump_adjoint",
             "curve_jump", "curve_jump_adjoint")

ROOT = "cli.main"
PACKAGE = "tgvdenoise"


class Tracer:
    """Span recorder; spans are kept in memory until ``write_spans``."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = [-1]
        self.counters = defaultdict(int)
        # operator name -> {id(structure): [structure, channels summed over calls]}
        self.op_channels = defaultdict(dict)
        self.builds = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; ``after(args, kwargs, result)`` runs
        once the span has ended."""
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(open_[-1])
            starts.append(0.0)
            ends.append(0.0)
            open_.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent"))
            for sid, row in enumerate(zip(self.names, self.starts, self.ends,
                                          self.parents)):
                name, start, end, parent = row
                out.writerow((sid, name, repr(start), repr(end), parent))

    # -- counters ----------------------------------------------------------

    def _operator_hook(self, op):
        table = self.op_channels[op]

        def after(args, kwargs, result):
            struct = args[0] if args else next(iter(kwargs.values()))
            entry = table.get(id(struct))
            if entry is None:
                entry = table[id(struct)] = [struct, 0]
            entry[1] += 1 if np.ndim(result) == 1 else np.shape(result)[1]

        return after

    def _count_matvecs(self, factory, counter):
        counters = self.counters

        @functools.wraps(factory)
        def make(*args, **kwargs):
            apply_op = factory(*args, **kwargs)

            def counted(x):
                counters[counter] += 1
                return apply_op(x)

            return counted

        return make

    def _hooks(self):
        counters = self.counters

        def loaded(args, kwargs, result):
            counters["fileio.bytes_read"] += os.path.getsize(
                kwargs.get("path", args[0] if args else None))

        def saved(args, kwargs, result):
            counters["fileio.bytes_written"] += os.path.getsize(
                kwargs.get("path", args[1] if len(args) > 1 else None))

        def filtered(args, kwargs, result):
            counters["solver.sweeps"] += int(result.iterations)

        def built(args, kwargs, result):
            self.builds.append(connectivity_counts(result))

        hooks = {"fileio.load_mesh": loaded, "fileio.save_mesh": saved,
                 "solver.filter_normals": filtered,
                 "topology.build_connectivity": built}
        for op in OPERATORS:
            hooks["operators." + op] = self._operator_hook(op)
        return hooks

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions and class constructors of every traced
        layer. Returns the span names that were installed."""
        hooks = self._hooks()
        factories = {"normal_system_operator": "solver.n_matvecs",
                     "v_system_operator": "solver.v_matvecs"}
        mods = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        replacements = {}
        installed = []
        for layer, mod in zip(LAYERS, mods):
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and "__init__" in vars(obj):
                    name = f"{layer}.{attr}"
                    obj.__init__ = self.wrap(name, obj.__init__)
                    installed.append(name)
                elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    fn = obj
                    if layer == "solver" and attr in factories:
                        fn = self._count_matvecs(fn, factories[attr])
                    replacements[id(obj)] = (obj, self.wrap(name, fn, hooks.get(name)))
                    installed.append(name)
        # rebind every name in the package that refers to a replaced function
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replacements.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        return installed

    def counts(self):
        """Work counters, including the structural flops of each operator."""
        out = dict(self.counters)
        for op in OPERATORS:
            try:
                out[f"operators.{op}.flops"] = sum(
                    2 * operator_nnz(op, struct) * channels
                    for struct, channels in self.op_channels[op].values())
            except AttributeError:   # the operator no longer takes these tables
                pass
        if self.builds:
            out.update(self.builds[0])
            out["topology.builds_agree"] = int(all(b == self.builds[0] for b in self.builds))
        return out


def span_cost(calls=20000):
    """Seconds a traced call costs more than a plain one, measured on an
    empty function; times the span count, it estimates the tracing overhead
    without the run-to-run noise of comparing two executions."""
    def empty():
        return None

    traced = Tracer().wrap("probe", empty)
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    t1 = time.perf_counter()
    for _ in range(calls):
        empty()
    t2 = time.perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / calls


def connectivity_counts(conn):
    """Sizes of a Connectivity: edges, active lines and valid curves."""
    return {"topology.edges": int(conn.topo.num_edges),
            "topology.active_lines": int(np.count_nonzero(conn.lines.active)),
            "topology.valid_curves": int(np.count_nonzero(conn.curves.valid))}


def operator_nnz(op, struct):
    """Nonzeros of the operator as a sparse matrix: two per interior edge,
    two per active line, four per valid curve; an adjoint has the same."""
    base = op.replace("_adjoint", "")
    if base == "edge_jump":
        return 2 * int(np.count_nonzero(~struct.is_boundary))
    if base == "line_jump":
        return 2 * int(np.count_nonzero(struct.active))
    return 4 * int(np.count_nonzero(struct.valid))


# -- analysis ----------------------------------------------------------------

def read_spans(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = [r["name"] for r in rows]
    start = np.array([float(r["start"]) for r in rows])
    end = np.array([float(r["end"]) for r in rows])
    parent = np.array([int(r["parent"]) for r in rows], dtype=np.int64)
    return names, start, end, parent


class SpanTable:
    """Spans with durations, self times and lookups by name."""

    def __init__(self, names, start, end, parent):
        self.names = names
        self.parent = parent
        self.dur = end - start
        child = np.zeros(len(names))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.by_name = defaultdict(list)
        for sid, name in enumerate(names):
            self.by_name[name].append(sid)

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def covered(self, names):
        """Time inside any span of ``names``, counting a span nested in
        another of them only once."""
        names = set(names)
        total = 0.0
        for name in names:
            for sid in self.by_name.get(name, ()):
                p = self.parent[sid]
                while p >= 0 and self.names[p] not in names:
                    p = self.parent[p]
                if p < 0:
                    total += self.dur[sid]
        return total

    def self_of(self, name):
        return float(sum(self.self_time[s] for s in self.by_name.get(name, ())))

    def layer_self(self, layer):
        prefix = layer + "."
        return float(sum(t for n, t in zip(self.names, self.self_time)
                         if n.startswith(prefix)))


def layer_metrics(spans, counts, installed):
    """Per-layer metrics of one traced command: {name: (value, unit)}.

    A metric is left out when a function it is measured on was not found
    in the package; a function that exists but was not called gives 0.
    """
    have = set(installed)
    out = {}

    def put(name, value, unit, *needs):
        if all(n in have for n in needs):
            out[name] = (float(value), unit)

    for op in OPERATORS:
        name = "operators." + op
        secs = spans.covered([name])
        put(name + ".calls", spans.calls(name), "count", name)
        put(name + ".s", secs, "s", name)
        if name + ".flops" in counts:
            flops = counts[name + ".flops"]
            put(name + ".gflops_computed", flops / secs / 1e9 if secs > 0 else 0.0,
                "GFLOP/s", name)

    filt = "solver.filter_normals"
    filter_s = spans.covered([filt])
    sweeps = counts.get("solver.sweeps", 0)
    per_sweep = (lambda x: x / sweeps) if sweeps else (lambda x: 0.0)
    put("solver.filter_s", filter_s, "s", filt)
    put("solver.sweeps", sweeps, "count", filt)
    put("solver.sweep_ms", 1e3 * per_sweep(filter_s), "ms", filt)
    put("solver.n_solve_s", spans.covered(["solver.solve_n_subproblem"]), "s",
        "solver.solve_n_subproblem")
    put("solver.v_solve_s", spans.covered(["solver.solve_v_subproblem"]), "s",
        "solver.solve_v_subproblem")
    for side, factory in (("n", "solver.normal_system_operator"),
                          ("v", "solver.v_system_operator")):
        matvecs = counts.get(f"solver.{side}_matvecs", 0)
        put(f"solver.{side}_matvecs", matvecs, "count", factory)
        put(f"solver.{side}_iters_per_sweep", per_sweep(matvecs), "count/sweep",
            factory, filt)
    shrinks = ["solver.solve_p_subproblem", "solver.solve_q1_subproblem",
               "solver.solve_q2_subproblem"]
    put("solver.shrink_s", spans.covered(shrinks), "s", *shrinks)
    put("solver.multiplier_s", spans.covered(["solver.update_multipliers"]), "s",
        "solver.update_multipliers")
    put("solver.weights_s", spans.covered(["solver.edge_weights"]), "s",
        "solver.edge_weights")
    put("solver.self_s", spans.self_of(filt), "s", filt)

    put("metrics.e_v_s", spans.covered(["metrics.vertex_error"]), "s",
        "metrics.vertex_error")
    angle = ["metrics.face_angle_errors", "metrics.mean_angular_difference"]
    put("metrics.angle_s", spans.covered(angle), "s", *angle)

    topo = [n for n in have if n.startswith("topology.")]
    put("topology.build_s", spans.covered(topo), "s", "topology.build_connectivity")
    for key in ("topology.edges", "topology.active_lines", "topology.valid_curves"):
        put(key, counts.get(key, 0), "count", "topology.build_connectivity")
    put("mesh.validate_s", spans.covered(["mesh.TriMesh"]), "s", "mesh.TriMesh")
    put("mesh.face_normals_s", spans.covered(["mesh.face_normals"]), "s",
        "mesh.face_normals")
    put("fileio.load_s", spans.covered(["fileio.load_mesh"]), "s", "fileio.load_mesh")
    put("fileio.save_s", spans.covered(["fileio.save_mesh"]), "s", "fileio.save_mesh")
    put("fileio.bytes_read", counts.get("fileio.bytes_read", 0), "B", "fileio.load_mesh")
    put("fileio.bytes_written", counts.get("fileio.bytes_written", 0), "B",
        "fileio.save_mesh")
    put("reconstruct.update_s", spans.covered(["reconstruct.update_vertices"]), "s",
        "reconstruct.update_vertices")
    put("cli.self_s", spans.self_of(ROOT), "s", ROOT)
    for layer in LAYERS:
        put(f"layer.{layer}.self_s", spans.layer_self(layer), "s")
    return out
