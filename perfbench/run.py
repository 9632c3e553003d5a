"""Benchmark of the tgvdenoise command line: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload denoise-cube-1k2 --seed 7 --seconds 60 --trace 0

The workloads are described in perfbench/README.md. Each run

1. generates its inputs from the seed with the package's own mesh
   generators and noise model, before any timing, and records a content
   hash of every input file;
2. runs the workload's command through ``tgvdenoise.cli.main``, each time
   in a fresh process with one thread of work, for as many executions as
   fit in ``--seconds``; with ``--trace 1`` every repetition is a pair of
   an untraced and a traced execution;
3. before each execution, times a batch of set-up steps (``load_mesh`` of
   every input plus ``build_connectivity``) and reports their median;
4. checks every output independently (perfbench/checks.py) and counts an
   execution whose check fails, whose exit code is not 0 or whose solver
   fails as a failed operation;
5. prints a record line (input hashes, thread settings, versions, counts)
   and, last, one JSON object with ``correct``, ``attempted``, ``failed``
   and ``metrics``: the end-to-end metrics with ``--trace 0``, the
   per-layer metrics with ``--trace 1``.

Everything the run writes stays in perfbench/.work/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0
NOISE_LEVEL = 0.3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The mean errors of one noise realization vary between seeds (on the 1 200-face
# cube by about a third), so every run also executes the command on the inputs
# made with this noise seed, the acceptance suite's, and reports the quality
# metrics from those.
QUALITY_SEED = 7

# Why each workload exists is in README.md. ``inputs`` lists the files the
# command loads.
WORKLOADS = {
    "denoise-cube-1k2": {
        "shape": "cube", "divisions": 10, "size": 0.05,
        # every realization runs all 100 sweeps, so each run does the same work
        "argv": lambda f: ["denoise", f["noisy"], "-o", f["out"],
                           "--ground-truth", f["clean"], "--stop-tol", "1e-300"],
        "inputs": ("noisy", "clean"),
    },
    "metrics-cube-4k8": {
        "shape": "cube", "divisions": 20, "size": 0.05,
        "argv": lambda f: ["metrics", f["noisy"], f["clean"]],
        "inputs": ("noisy", "clean"),
    },
    "preview-sphere-20k": {
        "shape": "icosphere", "divisions": 5, "size": 0.15,
        "argv": lambda f: ["denoise", f["noisy"], "-o", f["out"],
                           "--beta", "1000", "--max-iters", "5"],
        "inputs": ("noisy",),
    },
}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def thread_env():
    """One thread of work per process: each thread variable is 1 unless set,
    and never above the number of cores."""
    nproc = os.cpu_count() or 1
    env = dict(os.environ)
    settings = {}
    for var in THREAD_VARS:
        try:
            value = int(env.get(var, "1"))
        except ValueError:
            value = 1
        settings[var] = str(min(max(value, 1), nproc))
    env.update(settings)
    return env, settings, nproc


def read_obj(path):
    """Vertices and faces of a plain v/f OBJ file, parsed without the package."""
    verts, faces = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(line.split()[1:4])
            elif line.startswith("f "):
                faces.append(line.split()[1:4])
    return (np.array(verts, dtype=np.float64),
            np.array(faces, dtype=np.int64) - 1)


def measure_setup(tg, paths, times, min_reps=3, max_reps=50, min_total_s=0.3):
    """One batch of set-up repetitions: load every input and build the
    connectivity of the first. Appends each repetition's time to ``times``
    and returns the connectivity sizes."""
    batch = []
    while len(batch) < min_reps or (sum(batch) < min_total_s and len(batch) < max_reps):
        t0 = time.perf_counter()
        meshes = [tg.load_mesh(p) for p in paths]
        conn = tg.build_connectivity(meshes[0])
        batch.append(time.perf_counter() - t0)
    times.extend(batch)
    return tracer.connectivity_counts(conn)


class Realization:
    """One noise realization of a workload: its input files, the command
    that denoises or compares them, and the checks of that command's
    outputs. Each distinct output is checked once."""

    def __init__(self, tg, wl, seed, work):
        self.seed = seed
        self.dir = work / f"noise{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        if wl["shape"] == "cube":
            clean = tg.make_cube(divisions=wl["divisions"], size=wl["size"])
        else:
            clean = tg.make_icosphere(subdivisions=wl["divisions"], radius=wl["size"])
        noisy = tg.add_gaussian_noise(
            clean, tg.NoiseSpec(level=NOISE_LEVEL, mode="vertex-normal", seed=seed))
        self.files = {k: str(self.dir / f"{k}.obj") for k in ("clean", "noisy", "out")}
        tg.save_mesh(clean, self.files["clean"])
        tg.save_mesh(noisy, self.files["noisy"])
        self.hashes = {k: sha256(self.files[k]) for k in ("clean", "noisy")}
        self.inputs = [self.files[k] for k in wl["inputs"]]
        self.argv = wl["argv"](self.files)

        self.clean_v, self.clean_f = read_obj(self.files["clean"])
        self.noisy_v, self.noisy_f = read_obj(self.files["noisy"])
        self.n_clean = checks.unit_normals(self.clean_v, self.clean_f)
        self.theta_in = float(checks.face_angles_deg(
            checks.unit_normals(self.noisy_v, self.noisy_f), self.n_clean).mean())
        self.seen = {}
        self.quality = None

    def run(self, trace, env, timeout, tag):
        """Execute the command once in a fresh worker process."""
        spec = {"src": str(SRC), "argv": self.argv, "trace": bool(trace),
                "spans": str(self.dir / f"spans-{tag}.csv"),
                "normals": str(self.dir / f"normals-{tag}.npy")
                if self.argv[0] == "denoise" else None}
        # a check must never read what an earlier execution left behind
        for path in (spec["spans"], spec["normals"], self.files["out"]):
            if path:
                Path(path).unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"rc": None, "error": "timed out", "spec": spec}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"rc": None, "error": proc.stderr.strip()[-2000:], "spec": spec}
        result = json.loads(lines[-1])
        if result["rc"] != 0:
            result["error"] = proc.stderr.strip()[-2000:]
        result["spec"] = spec
        return result

    # -- checks ------------------------------------------------------------

    def check(self, result):
        """List of failed checks for one execution (empty when it passed)."""
        if result.get("rc") != 0:
            return [f"exit code {result.get('rc')}: {result.get('error', '')[-300:]}"]
        parts = [json.dumps(result["report"], sort_keys=True)]
        normals = result["spec"]["normals"]
        try:
            if self.argv[0] == "denoise":
                parts.append(sha256(self.files["out"]))
                parts.append(sha256(normals) if Path(normals).exists() else "no-normals")
            key = "|".join(parts)
            if key not in self.seen:
                self.seen[key] = (self._check_metrics(result["report"])
                                  if self.argv[0] == "metrics"
                                  else self._check_denoise(result["report"], normals))
        except (OSError, ValueError) as exc:
            return [f"output unreadable: {exc}"]
        return self.seen[key]

    def _check_metrics(self, report):
        problems = []
        theta = float(checks.face_angles_deg(
            checks.unit_normals(self.noisy_v, self.noisy_f), self.n_clean).mean())
        problems += self._sample_check(self.noisy_v)
        e_v = checks.vertex_error(self.noisy_v, self.clean_v, self.clean_f)
        _agree(problems, "theta_degrees", report.get("theta_degrees"), theta)
        _agree(problems, "e_v", report.get("e_v"), e_v)
        if report.get("face_count") != len(self.clean_f):
            problems.append("face count changed")
        # nothing is filtered: the compared mesh stands for both fields
        self._set_quality(theta, theta, e_v)
        return problems

    def _check_denoise(self, report, normals_path):
        problems = []
        out_v, out_f = read_obj(self.files["out"])
        if report.get("face_count") != len(self.noisy_f) \
                or not np.array_equal(out_f, self.noisy_f):
            return ["output faces differ from the input's"]
        angles = checks.face_angles_deg(checks.unit_normals(out_v, out_f), self.n_clean)
        theta_out = float(angles.mean())
        theta_filt = None
        if Path(normals_path).exists():
            theta_filt = float(checks.face_angles_deg(
                np.load(normals_path), self.n_clean).mean())
        e_v = checks.vertex_error(out_v, self.clean_v, self.clean_f)

        if "theta_output_degrees" in report:   # run with --ground-truth
            _agree(problems, "theta_output_degrees",
                   report.get("theta_output_degrees"), theta_out)
            _agree(problems, "e_v", report.get("e_v"), e_v)
            if theta_filt is None:
                theta_filt = report.get("theta_filtered_degrees")
            else:
                _agree(problems, "theta_filtered_degrees",
                       report.get("theta_filtered_degrees"), theta_filt)
            bound = self.theta_in / 3.0
            if not (theta_filt is not None and theta_filt <= bound and theta_out <= bound):
                problems.append(f"theta filtered {theta_filt} / output {theta_out} "
                                f"above theta_in/3 = {bound}")
            within = float((angles <= 5.0).mean())
            if within < 0.9:
                problems.append(f"only {within:.1%} of faces within 5 degrees")
            if report.get("iterations") != 100 or report.get("stop_reason") != "max_iters":
                problems.append(f"ran {report.get('iterations')} sweeps, "
                                f"stop {report.get('stop_reason')!r}")
        elif not theta_out < self.theta_in:
            problems.append(f"theta output {theta_out} not below input {self.theta_in}")
        self._set_quality(theta_out, theta_filt, e_v)
        return problems

    def _sample_check(self, points, size=16):
        """The broadphase distances against a test of every triangle, on a
        fixed sample of vertices."""
        idx = np.linspace(0, len(points) - 1, size).astype(np.int64)
        fast = checks.surface_distances(points[idx], self.clean_v, self.clean_f)
        slow = checks.brute_force_distances(points[idx], self.clean_v, self.clean_f)
        if np.abs(fast - slow).max() > 1e-12:
            return ["broadphase distances disagree with the brute-force oracle"]
        return []

    def _set_quality(self, theta_out, theta_filt, e_v):
        if self.quality is None:
            self.quality = {"theta_out_deg": theta_out, "theta_filt_deg": theta_filt,
                            "e_v": e_v}


def _agree(problems, key, reported, computed, rel=1e-9):
    if reported is None or not checks.close(float(reported), computed, rel):
        problems.append(f"reported {key} {reported} != recomputed {computed}")


def count_mismatches(real, setup_counts, untraced, traced):
    """Deterministic counts that did not repeat: between the untraced and
    traced executions of one realization, and across executions."""
    flags = []
    if len({json.dumps(r["report"], sort_keys=True) for r in untraced}) > 1:
        flags.append("command reports differ between untraced executions")
    expected = {"fileio.bytes_read": sum(os.path.getsize(p) for p in real.inputs)}
    if real.argv[0] == "denoise" and untraced:
        expected.update(setup_counts)
        expected["solver.sweeps"] = untraced[0]["report"].get("iterations")
        if os.path.exists(real.files["out"]):
            expected["fileio.bytes_written"] = os.path.getsize(real.files["out"])
    for counts in (r["counts"] for r in traced):
        for key, value in expected.items():
            if counts.get(key) != value:
                flags.append(f"traced {key} = {counts.get(key)}, untraced {value}")
        if counts != traced[0]["counts"]:
            flags.append("counts differ between traced executions")
        if counts.get("topology.builds_agree", 1) != 1:
            flags.append("connectivity sizes differ between builds")
    return flags, expected


def traced_metrics(traced, untraced, flags):
    """Per-layer metrics: the median over traced executions of each metric,
    plus the tracing overhead against the untraced executions."""
    per_run = []
    for r in traced:
        spans = tracer.SpanTable(*tracer.read_spans(r["spec"]["spans"]))
        m = tracer.layer_metrics(spans, r["counts"], r["installed"])
        roots = set(spans.by_name.get(tracer.ROOT, ()))
        children = sum(d for d, p in zip(spans.dur, spans.parent) if p in roots)
        accounted = sum(spans.self_time[s] for s in roots) + children
        m["trace.accounted_pct"] = (100.0 * accounted / r["wall_s"], "%")
        m["trace.spans"] = (float(len(spans.names)), "count")
        m["trace.overhead_est_s"] = (len(spans.names) * r["span_cost_s"], "s")
        per_run.append(m)
    out = {k: (statistics.median(m[k][0] for m in per_run), u)
           for k, (_, u) in per_run[0].items()}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (
        traced_wall - statistics.median(r["wall_s"] for r in untraced), "s")
    out["trace.count_mismatches"] = (float(len(flags)), "count")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_start = time.perf_counter()

    if not (SRC / "tgvdenoise" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scipy

    import tgvdenoise as tg

    wl = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{args.workload}-seed{args.seed}"
    env, threads, nproc = thread_env()

    # all inputs are made before any timing
    seeded = Realization(tg, wl, args.seed, work)
    quality = seeded
    if args.seed != QUALITY_SEED:
        quality = Realization(tg, wl, QUALITY_SEED, work)
    setup_times = []
    # untraced runs alternate between the realizations; traced runs use the
    # seeded one only
    cycle = [(seeded, False), (seeded, True)] if args.trace \
        else list(dict.fromkeys([(seeded, False), (quality, False)]))

    runs = {key: [] for key in cycle}
    failures = []
    deadline = time.perf_counter() + args.seconds
    durations = []
    executed = 0
    while True:
        real, trace = cycle[executed % len(cycle)]
        tag = f"{executed}-{'traced' if trace else 'plain'}"
        # set-up batches are spread over the run, one before each execution,
        # so that their median samples the whole run
        setup_counts = measure_setup(tg, seeded.inputs, setup_times)
        t0 = time.perf_counter()
        result = real.run(trace, env, TIME_LIMIT_S - (t0 - t_start), tag)
        durations.append(time.perf_counter() - t0)
        executed += 1
        problems = real.check(result)
        if problems:
            failures.append({"execution": tag, "seed": real.seed, "problems": problems})
            print(f"perfbench: {tag} failed: {problems}", file=sys.stderr)
        else:
            runs[(real, trace)].append(result)
            print(f"perfbench: {tag} noise seed {real.seed}: wall {result['wall_s']:.3f} s, "
                  f"peak {result['peak_rss_mb']:.1f} MB", file=sys.stderr)
        # after one whole cycle, go on while another execution fits in the
        # run and in the time limit
        now = time.perf_counter()
        more = statistics.median(durations)
        if executed >= len(cycle) and (now + more > deadline
                                       or now + more - t_start > TIME_LIMIT_S):
            break

    untraced = runs[(seeded, False)]
    traced = runs.get((seeded, True), [])
    flags, expected = count_mismatches(seeded, setup_counts, untraced, traced)
    for flag in flags:
        print(f"perfbench: count mismatch: {flag}", file=sys.stderr)

    plain = [r for (_, t), rs in runs.items() if not t for r in rs]
    metrics = {}
    if args.trace:
        if traced and untraced:
            metrics = traced_metrics(traced, untraced, flags)
    elif plain:
        metrics = {"wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
                   "setup_s": (statistics.median(setup_times), "s"),
                   "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                                   "MB")}
        for key, value in (quality.quality or {}).items():
            if value is not None:
                metrics[key] = (value, "deg" if key.startswith("theta") else "1")

    reals = list(dict.fromkeys([seeded, quality]))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "command": ["tgvdenoise"] + [Path(a).name if a.startswith(str(work)) else a
                                     for a in seeded.argv],
        "input_sha256": {f"noise{r.seed}": r.hashes for r in reals},
        "theta_in_deg": {f"noise{r.seed}": r.theta_in for r in reals},
        "quality_from_noise_seed": quality.seed,
        "threads": threads, "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "setup_reps": len(setup_times),
        "wall_s": [r["wall_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "failures": failures, "count_mismatches": flags,
        "counts": traced[0]["counts"] if traced else expected,
    }
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": executed,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
