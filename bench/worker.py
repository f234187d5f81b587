"""One benchmark sample: a fresh process that sets up and runs one batch.

Started by ``run.py``; prints one JSON line with the sample's set-up
time, batch wall time, CPU time, peak resident memory, the status of
every operation and, when traced, the per-layer numbers. otkit is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--files", required=True, help="directory with the cli-files inputs")
    parser.add_argument("--out", required=True, help="directory for the CLI's output files")
    parser.add_argument("--spans", help="write the traced spans here as JSON")
    args = parser.parse_args(argv)

    # Set-up: importing the package, then building the problem objects.
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import otkit
    import otkit.cli

    import_s = time.perf_counter() - t0
    if not Path(otkit.__file__).resolve().is_relative_to(SRC):
        print(f"otkit was imported from {otkit.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    import metrics
    import spans
    import workloads
    from checks import OpFailed, WrongOutput

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(otkit)
    inp = workloads.inputs(args.workload, args.seed)
    t1 = time.perf_counter()
    ops = workloads.build(args.workload, otkit, inp, args.files, args.out)
    setup_s = import_s + time.perf_counter() - t1

    results = []
    wall_s = cpu_s = 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        error = None
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # any raise is a failed operation, not a benchmark error
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - w0
        wall_s += elapsed
        cpu_s += time.process_time() - c0
        results.append((op, result, error, elapsed))
    # Read before any check runs, so it is the program's peak, not the checks'.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    statuses = []
    for op, result, error, elapsed in results:
        status = "failed" if error else "ok"
        if not error:
            try:
                op.check(result)
            except OpFailed as exc:
                status, error = "failed", str(exc)
            except WrongOutput as exc:
                status, error = "wrong", str(exc)
        statuses.append({"name": op.name, "status": status, "detail": error, "wall_s": elapsed})

    sample = {
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": statuses,
    }
    if tracer is not None:
        records = tracer.dump()
        sample["layers"] = metrics.layer_metrics(records, cpu_s)
        if args.spans:
            with open(args.spans, "w") as handle:
                json.dump(records, handle)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
