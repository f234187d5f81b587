"""The layer -> metric -> workload map and the per-layer numbers from spans.

Metric names, units, bounds and the workloads' descriptions live in
``BENCHMARK.json`` at the repository root, which ``run.py`` reads. This
module adds what that file has no place for: for each per-layer metric,
the end-to-end metric it should move and on which workloads, so that a
claimed gain can be traced to the layer that made it; and the held-out
seed.
"""

from __future__ import annotations

# Reserved for confirming a claimed gain: never tune against it.
HELD_OUT_SEED = 9001

_ALL = ("cloud-sinkhorn", "small-solves", "cli-files")
_CLOUD = ("cloud-sinkhorn",)
_SMALL = ("small-solves",)
_CLI = ("cli-files",)

# per-layer metric -> (end-to-end metric it should move, workloads).
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {}
for _backend, _where in (
    ("pointcloud", ("cloud-sinkhorn", "small-solves")),
    ("dense", ("small-solves", "cli-files")),
    ("grid", _CLI),
):
    for _what in ("lse_calls", "lse_s", "lse_entries", "lse_entries_per_s"):
        PER_LAYER[f"geometry.{_backend}.{_what}"] = ("wall_s", _where)
PER_LAYER.update(
    {
        "geometry.kernel_calls": ("wall_s", _ALL),
        "geometry.kernel_s": ("wall_s", _ALL),
        "geometry.cost_matrix_calls": ("peak_rss_mb,wall_s,failed_frac", _CLOUD + _CLI),
        "geometry.cost_matrix_entries": ("peak_rss_mb,wall_s", _CLOUD + _CLI),
        "geometry.cost_matrix_s": ("wall_s", _CLOUD + _CLI),
        "geometry.mean_cost_s": ("setup_s", _ALL),
        "sinkhorn.solve_calls": ("wall_s", _CLOUD),
        "sinkhorn.solve_s": ("wall_s", _CLOUD),
        "sinkhorn.self_s": ("wall_s", _CLOUD),
        "sinkhorn.iterations": ("wall_s", _CLOUD),
        "sinkhorn.lse_per_iter": ("wall_s", _CLOUD),
        "sinkhorn.reduce_s": ("wall_s,peak_rss_mb", _CLOUD),
        "lowrank.solve_s": ("wall_s", _SMALL),
        "lowrank.self_s": ("wall_s", _SMALL),
        "lowrank.iterations": ("wall_s", _SMALL),
        "lowrank.coupling_s": ("wall_s", _SMALL),
        "quadratic.solve_s": ("wall_s", _SMALL + _CLI),
        "quadratic.self_s": ("wall_s", _SMALL + _CLI),
        "quadratic.outer_iterations": ("wall_s", _SMALL + _CLI),
        "quadratic.linearize_s": ("wall_s", _SMALL + _CLI),
        "quadratic.objective_s": ("wall_s", _SMALL + _CLI),
        "barycenter.solve_s": ("wall_s", _CLI),
        "barycenter.self_s": ("wall_s", _CLI),
        "barycenter.iterations": ("wall_s", _CLI),
        "barycenter.lse_per_iter_hist": ("wall_s", _CLI),
        "tools.sort_transport_s": ("wall_s", _SMALL),
        "tools.gmm_s": ("wall_s", _SMALL),
        "tools.bures_calls": ("wall_s", _SMALL),
        "tools.bures_s": ("wall_s", _SMALL),
        "fileio.read_s": ("wall_s", _CLI),
        "fileio.read_bytes": ("wall_s", _CLI),
        "fileio.read_mb_per_s": ("wall_s", _CLI),
        "fileio.write_s": ("wall_s", _CLI),
        "fileio.write_bytes": ("wall_s", _CLI),
        "fileio.write_mb_per_s": ("wall_s", _CLI),
        "cli.main_calls": ("wall_s", _CLI),
        "cli.main_s": ("wall_s", _CLI),
        "cli.self_s": ("wall_s", _CLI),
        "cli.exit1": ("failed_frac", _CLI),
        "cli.exit2": ("failed_frac", _CLI),
        "process.cpu_s": ("wall_s", _ALL),
        # Traced wall_s over untraced wall_s, minus 1; set by the runner,
        # which is the only place that sees both kinds of run.
        "trace.overhead_frac": ("wall_s", _ALL),
    }
)

# Counts derived from array shapes rather than observed: n*m per kernel
# call (N * sum(n_k) on a grid) and per materialized cost matrix.
COMPUTED = {
    f"geometry.{backend}.{what}"
    for backend in ("pointcloud", "dense", "grid")
    for what in ("lse_entries", "lse_entries_per_s")
} | {"geometry.cost_matrix_entries"}

_REDUCE = {"sinkhorn.reg_ot_cost", "sinkhorn.transport_matrix", "sinkhorn.grad_points"}
_READS = {"fileio.read_matrix", "fileio.read_vector", "fileio.read_gmm"}
_WRITES = {"fileio.write_text", "fileio.write_json", "fileio.write_matrix"}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict], cpu_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced batch, from its span records.

    ``spans`` are :meth:`spans.Tracer.dump` records. A ``*_s`` total
    counts only outermost spans of its kind, so nested calls (grad_points
    calling transport_matrix, read_vector calling read_matrix) are not
    counted twice. A ``self_s`` is the layer's span time minus the time
    of child spans in other layers.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def outermost(names):
        chosen = []
        for s in spans:
            if s["name"] not in names:
                continue
            parent = s["parent"]
            while parent is not None and by_id[parent]["name"] not in names:
                parent = by_id[parent]["parent"]
            if parent is None:
                chosen.append(s)
        return chosen

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name_set):
        return sum(dur(s) for s in outermost(name_set))

    def self_time(layer):
        return sum(
            dur(s) - child_time.get(s["id"], 0.0) for s in spans if s["name"].split(".", 1)[0] == layer
        )

    def lse_children(parent_name):
        return sum(
            1
            for s in spans
            if s["name"].endswith(".lse") and s["parent"] is not None and by_id[s["parent"]]["name"] == parent_name
        )

    out: dict[str, float] = {}
    for backend in ("pointcloud", "dense", "grid"):
        calls = named(f"geometry.{backend}.lse")
        seconds = sum(dur(s) for s in calls)
        entries = sum(s.get("entries", 0) for s in calls)
        out[f"geometry.{backend}.lse_calls"] = len(calls)
        out[f"geometry.{backend}.lse_s"] = seconds
        out[f"geometry.{backend}.lse_entries"] = entries
        out[f"geometry.{backend}.lse_entries_per_s"] = _ratio(entries, seconds)
    kernels = [s for s in spans if s["name"].startswith("geometry.") and s["name"].endswith(".kernel")]
    out["geometry.kernel_calls"] = len(kernels)
    out["geometry.kernel_s"] = sum(dur(s) for s in kernels)
    costs = [s for s in spans if s["name"].startswith("geometry.") and s["name"].endswith(".cost_matrix")]
    out["geometry.cost_matrix_calls"] = len(costs)
    out["geometry.cost_matrix_entries"] = sum(s.get("entries", 0) for s in costs)
    out["geometry.cost_matrix_s"] = sum(dur(s) for s in costs)
    out["geometry.mean_cost_s"] = sum(
        dur(s) for s in spans if s["name"].startswith("geometry.") and s["name"].endswith(".mean_cost")
    )

    solves = named("sinkhorn.solve")
    iterations = sum(s.get("iterations", 0) for s in solves)
    out["sinkhorn.solve_calls"] = len(solves)
    out["sinkhorn.solve_s"] = sum(dur(s) for s in solves)
    out["sinkhorn.self_s"] = self_time("sinkhorn")
    out["sinkhorn.iterations"] = iterations
    out["sinkhorn.lse_per_iter"] = _ratio(lse_children("sinkhorn.solve"), iterations)
    out["sinkhorn.reduce_s"] = total(_REDUCE)

    lr = named("lowrank.solve")
    out["lowrank.solve_s"] = sum(dur(s) for s in lr)
    out["lowrank.self_s"] = self_time("lowrank")
    out["lowrank.iterations"] = sum(s.get("iterations", 0) for s in lr)
    out["lowrank.coupling_s"] = total({"lowrank.coupling"})

    gw = named("quadratic.solve")
    out["quadratic.solve_s"] = sum(dur(s) for s in gw)
    out["quadratic.self_s"] = self_time("quadratic")
    out["quadratic.outer_iterations"] = sum(s.get("iterations", 0) for s in gw)
    out["quadratic.linearize_s"] = total({"quadratic.linearize"})
    out["quadratic.objective_s"] = total({"quadratic.objective"})

    bary = named("barycenter.solve")
    hist_iterations = sum(s.get("iterations", 0) * s.get("histograms", 0) for s in bary)
    out["barycenter.solve_s"] = sum(dur(s) for s in bary)
    out["barycenter.self_s"] = self_time("barycenter")
    out["barycenter.iterations"] = sum(s.get("iterations", 0) for s in bary)
    out["barycenter.lse_per_iter_hist"] = _ratio(lse_children("barycenter.solve"), hist_iterations)

    out["tools.sort_transport_s"] = total({"tools.sort_transport"})
    out["tools.gmm_s"] = total({"tools.gmm"})
    bures = named("tools.bures")
    out["tools.bures_calls"] = len(bures)
    out["tools.bures_s"] = sum(dur(s) for s in bures)

    read_s = total(_READS)
    read_bytes = sum(s.get("bytes", 0) for s in spans if s["name"] in _READS)
    write_s = total(_WRITES)
    write_bytes = sum(s.get("bytes", 0) for s in spans if s["name"] in _WRITES)
    out["fileio.read_s"] = read_s
    out["fileio.read_bytes"] = read_bytes
    out["fileio.read_mb_per_s"] = _ratio(read_bytes / 1e6, read_s)
    out["fileio.write_s"] = write_s
    out["fileio.write_bytes"] = write_bytes
    out["fileio.write_mb_per_s"] = _ratio(write_bytes / 1e6, write_s)

    mains = named("cli.main")
    out["cli.main_calls"] = len(mains)
    out["cli.main_s"] = sum(dur(s) for s in mains)
    out["cli.self_s"] = self_time("cli")
    out["cli.exit1"] = sum(1 for s in mains if s.get("code") == 1)
    out["cli.exit2"] = sum(1 for s in mains if s.get("code") == 2)

    out["process.cpu_s"] = cpu_s
    return out
