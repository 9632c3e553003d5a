"""One timed execution of a tgvdenoise command, in a fresh process.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON holds ``src`` (the package's source directory), ``argv`` (the
command line passed to ``tgvdenoise.cli.main``), ``trace`` (install the span
tracer), ``spans`` (where the traced run writes its spans) and ``normals``
(where the filtered normals of a ``denoise`` command are saved, or null).

Imports happen before the clock starts. The last line printed is one JSON
object: exit code, wall time, peak resident memory, the command's own JSON
report and, when traced, the tracer's counters and installed span names.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import numpy as np

    import tgvdenoise
    import tgvdenoise.cli as cli

    if not os.path.abspath(tgvdenoise.__file__).startswith(os.path.abspath(spec["src"])):
        raise SystemExit(f"imported tgvdenoise from {tgvdenoise.__file__}, "
                         f"not from {spec['src']}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, span_cost
        tracer = Tracer()
        installed = tracer.install()

    # keep the filtered normals of a denoise run for the quality checks
    captured = []
    if spec["normals"] and hasattr(cli, "filter_normals"):
        inner = cli.filter_normals

        def capture(*args, **kwargs):
            result = inner(*args, **kwargs)
            captured.append(result.normals)
            return result

        cli.filter_normals = capture

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        rc = cli.main(spec["argv"])
        wall = time.perf_counter() - t0

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lines = out.getvalue().strip().splitlines()
    result = {"rc": rc, "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0,
              "report": json.loads(lines[-1]) if rc == 0 and lines else None}
    if captured:
        np.save(spec["normals"], captured[-1])
    if tracer is not None:
        tracer.write_spans(spec["spans"])
        result["counts"] = tracer.counts()
        result["installed"] = installed
        result["span_cost_s"] = span_cost()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
