"""Tests of the benchmark itself: metric emission, tracing and checks.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import otkit  # noqa: E402
import otkit.cli  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import OpFailed, WrongOutput  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fake_sample(traced: bool, wall: float, statuses=("ok",)) -> dict:
    sample = {
        "traced": traced,
        "setup_s": 0.5,
        "import_s": 0.4,
        "wall_s": wall,
        "cpu_s": wall,
        "peak_rss_mb": 100.0,
        "ops": [{"name": f"op{k}", "status": s, "detail": None, "wall_s": 0.1} for k, s in enumerate(statuses)],
    }
    if traced:
        sample["layers"] = metrics.layer_metrics([], wall)
    return sample


def _summary(samples) -> dict:
    return run.summarize({"samples": samples})


def test_layer_map_covers_benchmark_json():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    names = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]} | {"failed_frac"}
    assert list(metrics.PER_LAYER) == [m["name"] for m in spec["per_layer"]]
    for moves, where in metrics.PER_LAYER.values():
        assert set(moves.split(",")) <= end_to_end and set(where) <= names
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    described = run.describe()
    assert described["held_out_seed"] == metrics.HELD_OUT_SEED
    assert all({"moves", "on", "computed"} <= set(m) for m in described["per_layer"])


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(trace):
    spec = _spec()
    samples = [_fake_sample(False, 2.0), _fake_sample(False, 2.2), _fake_sample(False, 2.1)]
    if trace:
        samples += [_fake_sample(True, 2.3), _fake_sample(True, 2.4)]
    line = run.result_line(_summary(samples), trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) or isinstance(m["value"], int) for m in line["metrics"].values())
    if trace:
        assert line["metrics"]["trace.overhead_frac"]["value"] == pytest.approx(2.35 / 2.1 - 1.0)


def test_failures_and_wrong_outputs_are_counted_apart():
    summary = _summary([_fake_sample(False, 1.0, ("ok", "failed")), _fake_sample(False, 1.0, ("ok", "ok"))])
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (True, 4, 1)
    assert summary["failed_frac"] == 0.25
    summary = _summary([_fake_sample(False, 1.0, ("ok", "wrong"))])
    assert (summary["correct"], summary["failed"]) == (False, 1)


def test_report_prints_failed_frac_and_sample_counts():
    samples = [_fake_sample(False, 1.0, ("ok", "failed")) for _ in range(3)]
    lines = run.report({"workload": "w", "seed": 0, "seconds": 1, "trace": False, "samples": samples, "spans": None},
                       _summary(samples))
    text = "\n".join(lines)
    for name in ("wall_s", "setup_s", "peak_rss_mb", "failed_frac"):
        assert name in text
    assert "median of 3" in text and "3 of 6 operations" in text


def test_inputs_are_a_function_of_the_seed():
    for name in (w["name"] for w in _spec()["workloads"]):
        a, b, c = (np.concatenate(list(_arrays(workloads.inputs(name, seed, scale=0.05)))) for seed in (1, 1, 2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj.astype(float).ravel()
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _arrays(obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (otkit.sinkhorn._sinkhorn_iterations, otkit.tools.transport_matrix, otkit.cli.read_matrix,
                 otkit.PointCloudGeometry.apply_lse_kernel)
    tracer = spans.Tracer()
    tracer.install(otkit)
    try:
        engine = otkit.sinkhorn._sinkhorn_iterations
        assert engine is otkit.quadratic._sinkhorn_iterations is otkit.lowrank._sinkhorn_iterations
        assert engine is not originals[0]
        for module in (otkit, otkit.sinkhorn, otkit.quadratic, otkit.tools, otkit.cli):
            assert getattr(module, "transport_matrix", None) in (None, otkit.sinkhorn.transport_matrix)
        assert otkit.cli.read_matrix is otkit.fileio.read_matrix is not originals[2]
        rng = np.random.default_rng(0)
        x = rng.random((8, 2))
        prob = otkit.LinearProblem(otkit.PointCloudGeometry(x, x + 0.1))
        out = otkit.solve_sinkhorn(prob)
        otkit.grad_points(out, prob)
        otkit.solve_gw(otkit.QuadraticProblem(otkit.PointCloudGeometry(x, x), otkit.PointCloudGeometry(x, x)))
        otkit.solve_lr_sinkhorn(prob, 1)
        grid = otkit.GridGeometry([np.linspace(0, 1, 4)] * 2)
        otkit.solve_barycenter(otkit.BarycenterProblem(grid, np.full((2, 16), 1 / 16)))
        otkit.soft_sort(rng.random(6))
    finally:
        tracer.uninstall()
    assert (otkit.sinkhorn._sinkhorn_iterations, otkit.tools.transport_matrix, otkit.cli.read_matrix,
            otkit.PointCloudGeometry.apply_lse_kernel) == originals
    records = tracer.dump()
    layers = {r["name"].split(".", 1)[0] for r in records}
    assert {"geometry", "sinkhorn", "lowrank", "quadratic", "barycenter", "tools"} <= layers
    by_id = {r["id"]: r for r in records}
    # The GW inner solves and the transport_matrix under grad_points nest
    # under their callers instead of escaping them.
    assert any(r["name"] == "sinkhorn.solve" and by_id[r["parent"]]["name"] == "quadratic.solve"
               for r in records if r["parent"] is not None)
    assert any(r["name"] == "sinkhorn.transport_matrix" and by_id[r["parent"]]["name"] == "sinkhorn.grad_points"
               for r in records if r["parent"] is not None)
    # No span nests in one of its own name, so counts are never doubled.
    assert not any(r["name"] == by_id[r["parent"]]["name"] for r in records if r["parent"] is not None)
    assert sum(r["name"] == "sinkhorn.solve" and r["parent"] is None for r in records) == 1
    layer = metrics.layer_metrics(records, 1.0)
    assert set(layer) == set(metrics.PER_LAYER) - {"trace.overhead_frac"}
    assert layer["sinkhorn.lse_per_iter"] > 2.0 and layer["barycenter.lse_per_iter_hist"] == 3.0
    assert layer["geometry.grid.lse_entries"] == layer["geometry.grid.lse_calls"] * 16 * 8


def _cloud_op():
    inst = workloads.inputs("cloud-sinkhorn", 3, scale=0.08)[0]
    op = workloads.build("cloud-sinkhorn", otkit, [inst], "", "")[0]
    return inst, op, op.run()


def test_cloud_op_passes_and_perturbed_potentials_fail_the_marginal_check():
    inst, op, (out, cost, grad) = _cloud_op()
    op.check((out, cost, grad))
    bumped = otkit.SinkhornOutput(out.f + 0.5 * out.eps * (np.arange(out.f.size) % 2), out.g, out.errors,
                                  out.dual_trace, out.iterations, True, out.eps)
    with pytest.raises(WrongOutput, match="marginal"):
        op.check((bumped, cost, grad))
    with pytest.raises(WrongOutput, match="grad_points"):
        op.check((out, cost, grad + 1e-3))
    stalled = otkit.SinkhornOutput(out.f, out.g, out.errors, out.dual_trace, out.iterations, False, out.eps)
    with pytest.raises(OpFailed):
        op.check((stalled, cost, grad))


def test_small_output_checks_reject_corrupted_results():
    with pytest.raises(WrongOutput):
        checks.monotone_within([0.0, 2.0, 1.0], 0.0, 2.0, "sort")
    with pytest.raises(WrongOutput):
        checks.monotone_within([0.0, 1.0, 3.0], 0.0, 2.0, "sort")
    x = np.array([3.0, 1.0, 2.0])
    checks.soft_ranks([2.0, 0.0, 1.0], x, "rank")
    with pytest.raises(WrongOutput):
        checks.soft_ranks([0.0, 2.0, 1.0], x, "rank")
    partner = np.array([2, 0, 1, 3])
    plan = np.eye(4)[partner]
    checks.pairing(plan, partner, "gw")
    with pytest.raises(WrongOutput):
        checks.pairing(np.eye(4), partner, "gw")


def test_low_rank_check_rejects_factors_off_their_marginals():
    rng = np.random.default_rng(0)
    x, y = rng.random((6, 2)), rng.random((6, 2))
    prob = otkit.LinearProblem(otkit.PointCloudGeometry(x, y))
    out = otkit.solve_lr_sinkhorn(prob, 2)
    fac = out.factors
    cost = checks.cost_matrix(x, y, "sqeucl")
    checks.low_rank(fac.q, fac.r, fac.g, prob.a, prob.b, cost, float(out.costs[-1]))
    with pytest.raises(WrongOutput, match="marginal"):
        checks.low_rank(fac.q * 1.001, fac.r, fac.g, prob.a, prob.b, cost, float(out.costs[-1]))


def test_cli_nonzero_exit_is_a_failure_and_bad_json_is_wrong(tmp_path):
    files, out = tmp_path / "in", tmp_path / "out"
    files.mkdir()
    out.mkdir()
    workloads.write_files(5, str(files), scale=0.05)
    inp = workloads.inputs("cli-files", 5, scale=0.05)
    ops = {op.name: op for op in workloads.build("cli-files", otkit, inp, str(files), str(out))}
    gmm = ops["gmm"]
    gmm.check(gmm.run())
    with pytest.raises(OpFailed, match="exit 1"):
        gmm.check((1, "error: bad input\n"))
    path = out / "gmm.json"
    payload = json.loads(path.read_text())
    payload["coupling"] = (np.asarray(payload["coupling"]) * 1.01).tolist()
    path.write_text(json.dumps(payload))
    with pytest.raises(WrongOutput, match="gmm coupling"):
        gmm.check((0, ""))


def test_above_cap_lin_cost_is_checked_against_the_entropic_cost(tmp_path):
    inp = workloads.inputs("cli-files", 5, scale=0.05)
    ops = {op.name: op for op in workloads.build("cli-files", otkit, inp, str(tmp_path), str(tmp_path))}
    op = ops[f"lin-above-cap-{workloads.CLI_ABOVE_CAP}"]
    cost = checks.cost_matrix(*inp["above_cap"], "sqeucl")
    eps = 0.5 * float(cost.mean())
    entropic = checks.entropic_transport_cost(cost, eps)
    for reported in (entropic, 0.9 * entropic):
        payload = {"command": "lin", "solver": "sinkhorn", "converged": True, "iterations": 10, "eps": eps,
                   "dual_objective": entropic, "transport_cost": reported}
        (tmp_path / f"{op.name}.json").write_text(json.dumps(payload))
        if reported == entropic:
            op.check((0, ""))
        else:
            with pytest.raises(WrongOutput, match="entropic cost"):
                op.check((0, ""))


def test_runner_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-solves", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
