"""otkit benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload cloud-sinkhorn --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30
    python3 bench/run.py --describe

Each sample is a fresh ``bench/worker.py`` process that imports otkit
from ``src/``, builds the workload's problem objects (timed as
``setup_s``), runs the workload's fixed batch of operations once (timed
as ``wall_s``) and then checks every output. Samples are drawn until
``--seconds`` is used up, and the report gives medians with the sample
count. With ``--trace 1`` the samples alternate between untraced and
traced ones; the report then holds the per-layer metrics of the traced
samples and ``trace.overhead_frac``, and the spans of the last traced
sample are kept in ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# A run never starts a sample after this, even when it has too few, so
# the whole run stays inside three minutes.
RUN_LIMIT_S = 150.0
SAMPLE_TIMEOUT_S = 120.0
MIN_UNTRACED = 3
MIN_TRACED = 2


def spec() -> dict:
    """BENCHMARK.json: the workloads and every metric's name, unit and bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it says."""
    import ctypes

    import numpy  # noqa: F401  (loads the library whose threads we read)

    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def _run_sample(workload: str, seed: int, traced: bool, files: Path, out: Path, spans: Path | None) -> dict:
    out.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--files", str(files), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {SAMPLE_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}") from exc


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Draws samples of one workload for `seconds`; returns the raw samples."""
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    spans = WORK / f"spans-{workload}-seed{seed}.json" if trace else None
    samples: list[dict] = []
    try:
        files = workdir / "inputs"
        files.mkdir()
        if workload == "cli-files":
            workloads.write_files(seed, str(files))
        start = time.monotonic()
        while True:
            traced = trace and len(samples) % 2 == 1
            sample = _run_sample(workload, seed, traced, files, workdir / f"sample{len(samples)}",
                                 spans if traced else None)
            samples.append(sample)
            elapsed = time.monotonic() - start
            untraced = sum(not s["traced"] for s in samples)
            enough = untraced >= MIN_UNTRACED and (not trace or len(samples) - untraced >= MIN_TRACED)
            # Start another sample while it would end, on average, no more
            # than half a sample after the deadline.
            if elapsed + 0.5 * elapsed / len(samples) > (seconds if enough else RUN_LIMIT_S):
                if not enough:
                    raise BenchError(f"only {len(samples)} samples fit in {RUN_LIMIT_S:.0f} s")
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "samples": samples,
            "spans": str(spans.relative_to(ROOT)) if spans else None}


def summarize(run: dict) -> dict:
    """Medians over samples, with counts; the result line and the report."""
    catalogue = spec()
    samples = run["samples"]
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    ops = [op for s in samples for op in s["ops"]]
    attempted = len(ops)
    failed = sum(op["status"] != "ok" for op in ops)
    end_to_end = {}
    for m in catalogue["end_to_end"]:
        values = [s[m["name"]] for s in plain]
        q1, q3 = _quartiles(values)
        end_to_end[m["name"]] = {"value": _median(values), "unit": m["unit"], "samples": len(values),
                                 "q1": q1, "q3": q3}
    per_layer = {}
    if traced:
        overhead = _median([s["wall_s"] for s in traced]) / end_to_end["wall_s"]["value"] - 1.0
        for m in catalogue["per_layer"]:
            if m["name"] == "trace.overhead_frac":
                values = [overhead]
            else:
                values = [s["layers"][m["name"]] for s in traced]
            per_layer[m["name"]] = {"value": _median(values), "unit": m["unit"], "samples": len(traced)}
    op_status = {}
    for op in ops:
        entry = op_status.setdefault(op["name"], {"ok": 0, "failed": 0, "wrong": 0, "detail": None, "wall_s": []})
        entry[op["status"]] += 1
        entry["detail"] = entry["detail"] or op["detail"]
        entry["wall_s"].append(op["wall_s"])
    for entry in op_status.values():
        entry["wall_s"] = _median(entry["wall_s"])
    return {
        "correct": not any(op["status"] == "wrong" for op in ops),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "ops": op_status,
    }


def report(run: dict, summary: dict) -> list[str]:
    import metrics

    lines = [f"# workload {run['workload']}  seed {run['seed']}  seconds {run['seconds']}  "
             f"trace {int(run['trace'])}  samples {len(run['samples'])}"]
    for name, entry in summary["ops"].items():
        note = f"  ({entry['detail']})" if entry["detail"] else ""
        lines.append(f"  op {name:<36} {entry['wall_s']:8.3f} s  ok {entry['ok']}  failed {entry['failed']}  "
                     f"wrong {entry['wrong']}{note}")
    for name, m in summary["end_to_end"].items():
        lines.append(f"  {name:<14} {m['value']:>12.6g} {m['unit']:<6} median of {m['samples']} "
                     f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
    lines.append(f"  {'failed_frac':<14} {summary['failed_frac']:>12.6g} {'1':<6} "
                 f"{summary['failed']} of {summary['attempted']} operations")
    for name, m in summary["per_layer"].items():
        note = " (computed)" if name in metrics.COMPUTED else ""
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<10} median of {m['samples']}{note}")
    if run["spans"]:
        lines.append(f"  spans of the last traced sample: {run['spans']}")
    return lines


def result_line(summary: dict, trace: bool, prefix: str = "") -> dict:
    chosen = summary["per_layer"] if trace else summary["end_to_end"]
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {prefix + name: {"value": m["value"], "unit": m["unit"]} for name, m in chosen.items()},
    }


def describe() -> dict:
    """BENCHMARK.json with the held-out seed and the layer -> metric -> workload map."""
    import metrics

    catalogue = spec()
    for m in catalogue["per_layer"]:
        moves, where = metrics.PER_LAYER[m["name"]]
        m.update(moves=moves, on=list(where), computed=m["name"] in metrics.COMPUTED)
    return {
        "seed": "--seed N draws every input of a workload; the same N gives the same inputs",
        "held_out_seed": metrics.HELD_OUT_SEED,
        **catalogue,
    }


def main(argv: list[str] | None = None) -> int:
    workload_names = [w["name"] for w in spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*workload_names, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="sampling time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print workloads and the layer-to-metric map")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=1))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "otkit" / "__init__.py").is_file():
        print(f"error: no otkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workload_names if args.workload == "all" else [args.workload]
    print("# machine " + json.dumps(machine()))
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
            summary = summarize(run)
            print("\n".join(report(run, summary)), flush=True)
            line = result_line(summary, bool(args.trace), prefix=f"{name}." if len(names) > 1 else "")
            merged["correct"] &= line["correct"]
            merged["attempted"] += line["attempted"]
            merged["failed"] += line["failed"]
            merged["metrics"].update(line["metrics"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
